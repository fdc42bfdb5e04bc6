#!/bin/sh
# The full local gate: tier-1 tests, the lint label, the validated
# raw-wire pass (docs/SANITIZER.md), the adaptive- and
# forced-compaction passes (docs/WIRE_FORMAT.md), the SKYWAY_ANALYZE
# build (docs/STATIC_ANALYSIS.md §5), the concurrency label under
# ThreadSanitizer, and the full suite under AddressSanitizer and
# UndefinedBehaviorSanitizer (docs/SANITIZER.md), in one command.
#
#   tools/check_all.sh [SOURCE_ROOT]
#
# Exits non-zero on the first failing stage. Uses clang++ for the
# analyze tree when available (full thread-safety analysis); falls
# back to the default compiler (-Werror only) otherwise.
set -eu

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

echo "== [1/10] configure + build (default flags) =="
cmake -B "$root/build" -S "$root"
cmake --build "$root/build" -j "$jobs"

echo "== [2/10] tier-1 test suite =="
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [3/10] lint label =="
ctest --test-dir "$root/build" -L lint --output-on-failure

echo "== [4/10] validated raw-wire suite (SKYWAY_WIRE_CHECK=1" \
     "SKYWAY_GRAPH_CHECK=1) =="
# Every transfer on the raw wire is vetted by the SkywaySan wire
# validator on both sides and by the receiver's post-finalize graph
# audit (docs/SANITIZER.md).
SKYWAY_WIRE_COMPACT=off SKYWAY_WIRE_CHECK=1 SKYWAY_GRAPH_CHECK=1 \
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [5/10] adaptive-compaction suite (SKYWAY_WIRE_COMPACT=auto) =="
# The per-segment choice: the encoder ships each segment compact or
# raw by its items' size and the measured per-class feedback, with the
# SkywaySan wire validator vetting both sides (docs/WIRE_FORMAT.md).
SKYWAY_WIRE_COMPACT=auto SKYWAY_WIRE_CHECK=1 \
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [6/10] forced-compaction suite (SKYWAY_WIRE_COMPACT=force) =="
# Every eligible record takes the compact encode/expand path, with the
# SkywaySan wire validator vetting both sides (docs/WIRE_FORMAT.md).
SKYWAY_WIRE_COMPACT=force SKYWAY_WIRE_CHECK=1 \
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [7/10] static-analysis build (SKYWAY_ANALYZE=ON) =="
if command -v clang++ >/dev/null 2>&1; then
    CXX=clang++ cmake -B "$root/build-analyze" -S "$root" \
        -DSKYWAY_ANALYZE=ON
else
    echo "clang++ not found: analyze tree degrades to -Werror" \
         "(thread-safety analysis needs clang; see" \
         "docs/STATIC_ANALYSIS.md)"
    cmake -B "$root/build-analyze" -S "$root" -DSKYWAY_ANALYZE=ON
fi
cmake --build "$root/build-analyze" -j "$jobs"

echo "== [8/10] TSan concurrency suite (SKYWAY_SANITIZE=thread) =="
# The multi-threaded code under ThreadSanitizer: the fabric's event
# loops, parallel senders and their baddr claims, the metrics, and
# the per-node klass index that decoders read without a lock.
cmake -B "$root/build-tsan" -S "$root" -DSKYWAY_SANITIZE=thread
cmake --build "$root/build-tsan" -j "$jobs"
ctest --test-dir "$root/build-tsan" -L concurrency --output-on-failure \
    -j "$jobs"

# The full suite, bench smokes included, under each memory sanitizer:
# the collector's sweeps of real received buffers, the decoders and
# the fabric all run instrumented.
echo "== [9/10] ASan full suite (SKYWAY_SANITIZE=address) =="
cmake -B "$root/build-asan" -S "$root" -DSKYWAY_SANITIZE=address
cmake --build "$root/build-asan" -j "$jobs"
ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"

echo "== [10/10] UBSan full suite (SKYWAY_SANITIZE=undefined) =="
cmake -B "$root/build-ubsan" -S "$root" -DSKYWAY_SANITIZE=undefined
cmake --build "$root/build-ubsan" -j "$jobs"
ctest --test-dir "$root/build-ubsan" --output-on-failure -j "$jobs"

echo "check_all: all gates green"
