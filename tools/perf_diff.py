#!/usr/bin/env python3
"""Diff two bench JSON reports (docs/OBSERVABILITY.md schema v1) and
flag any change in their deterministic counters.

Usage:
    perf_diff.py BASELINE CURRENT [--keys=REGEX]

Rows are matched by label. Only keys matching the allowlist regex are
compared — by default the schedule-independent quantities (object and
byte counts), never wall-clock or throughput: those vary run to run on
shared CI hosts, while the copy-volume counters are exact invariants
of the workload (every stream copies its share of the graph exactly
once, regardless of how CAS races resolve), so ANY drift in them is a
behavior change, not noise. Any difference from the baseline fails
the diff; so do missing rows or keys. A key that differs between two
runs of the same code is not deterministic and belongs off the
allowlist.

Exit status: 0 = identical, 1 = changed counter/shape mismatch,
2 = usage or file error.
"""

import json
import re
import sys

# Deterministic by construction; see module docstring. cas_retries,
# wall_ms, mb_per_s, speedup_vs_1t are intentionally absent.
DEFAULT_KEYS = (
    r"^(threads"
    r"|objects_copied"
    r"|bytes_copied"
    r"|zero_copy_bytes"
    r"|wire_payload_bytes"
    r"|recv_objects"
    r"|skyway\.sender\.(objects_copied|bytes_copied|top_marks"
    r"|back_refs|header_bytes|pointer_bytes|padding_bytes|data_bytes)"
    r"|skyway\.receiver\.(objects_received|bytes_received"
    r"|zero_copy_bytes|refs_absolutized))$"
)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"perf_diff: cannot read {path}: {e}")
    if doc.get("schema_version") != 1:
        sys.exit(f"perf_diff: {path}: unsupported schema_version "
                 f"{doc.get('schema_version')!r}")
    return doc


def row_values(row, key_re):
    """Flatten one row's values+metrics, filtered by the allowlist."""
    out = {}
    for section in ("values", "metrics"):
        for k, v in row.get(section, {}).items():
            if key_re.match(k) and isinstance(v, (int, float)):
                out[k] = v
    return out


def main(argv):
    key_pattern = DEFAULT_KEYS
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--keys="):
            key_pattern = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            sys.exit(f"perf_diff: unknown option {arg}\n{__doc__}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(f"perf_diff: need BASELINE and CURRENT\n{__doc__}")
    key_re = re.compile(key_pattern)

    base_doc, cur_doc = load(paths[0]), load(paths[1])
    if base_doc.get("bench") != cur_doc.get("bench"):
        print(f"perf_diff: comparing different benches: "
              f"{base_doc.get('bench')} vs {cur_doc.get('bench')}")
        return 1
    if base_doc.get("scale") != cur_doc.get("scale"):
        print(f"perf_diff: scale mismatch: {base_doc.get('scale')} vs "
              f"{cur_doc.get('scale')} — rerun at the baseline scale")
        return 1

    base_rows = {r["label"]: r for r in base_doc.get("rows", [])}
    cur_rows = {r["label"]: r for r in cur_doc.get("rows", [])}

    failures = []
    compared = 0
    for label, base_row in base_rows.items():
        if label not in cur_rows:
            failures.append(f"row '{label}': missing from current run")
            continue
        base_vals = row_values(base_row, key_re)
        cur_vals = row_values(cur_rows[label], key_re)
        for key, bv in sorted(base_vals.items()):
            if key not in cur_vals:
                failures.append(f"row '{label}' {key}: key disappeared")
                continue
            cv = cur_vals[key]
            compared += 1
            if bv != cv:
                failures.append(f"row '{label}' {key}: {bv} -> {cv}")
    for label in cur_rows:
        if label not in base_rows:
            print(f"perf_diff: note: new row '{label}' (no baseline)")

    if compared == 0:
        failures.append("no keys compared — allowlist matched nothing")
    if failures:
        print(f"perf_diff: {len(failures)} change(s) against "
              f"{paths[0]}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"perf_diff: OK — {compared} values across "
          f"{len(base_rows)} rows identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
