/**
 * @file
 * The five TPC-H-derived batch queries of the paper's Table 3,
 * implemented as miniflink operator pipelines:
 *
 *   QA  pricing details for items shipped within the last 120 days
 *   QB  minimum-cost supplier per region for each part
 *   QC  shipping priority / potential revenue of pending orders
 *   QD  late orders per quarter of a given year
 *   QE  items returned by customers, by lost revenue
 *
 * Each query runs identically under the built-in row serializers and
 * under Skyway; results carry a checksum that must agree across the
 * two modes.
 */

#ifndef SKYWAY_MINIFLINK_QUERIES_HH
#define SKYWAY_MINIFLINK_QUERIES_HH

#include "miniflink/miniflink.hh"
#include "workloads/tpch.hh"

namespace skyway
{

using FlinkQueryResult = JobResult;

FlinkQueryResult runQueryA(FlinkCluster &cluster, const TpchData &db);
FlinkQueryResult runQueryB(FlinkCluster &cluster, const TpchData &db);
FlinkQueryResult runQueryC(FlinkCluster &cluster, const TpchData &db);
FlinkQueryResult runQueryD(FlinkCluster &cluster, const TpchData &db);
FlinkQueryResult runQueryE(FlinkCluster &cluster, const TpchData &db);

/** Run query by letter 'A'..'E'. */
FlinkQueryResult runQuery(char which, FlinkCluster &cluster,
                          const TpchData &db);

/** Paper Table 3 description for a query letter. */
const char *queryDescription(char which);

} // namespace skyway

#endif // SKYWAY_MINIFLINK_QUERIES_HH
