// Rule 4 fixture: a panicIf message built with + (or a call) is
// allocated on every call, including every passing one.
#include <string>

#include "support/logging.hh"

void
checkTypeId(int tid, bool resolved)
{
    panicIf(!resolved, "unresolvable type id " +
                           std::to_string(tid));
}
