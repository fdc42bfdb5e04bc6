// Rule 4 fixture: literal (or named) panicIf messages, and a built
// message behind an explicit branch, are all fine.
#include <string>
#include <string_view>

#include "support/logging.hh"

void
checkTypeId(int tid, bool resolved, std::string_view why)
{
    panicIf(tid < 0, "negative type id");
    panicIf(tid > 1000, "type id "
                        "out of range (a, b)");
    panicIf(!resolved, why);
    if (!resolved)
        panic("unresolvable type id " + std::to_string(tid));
}
