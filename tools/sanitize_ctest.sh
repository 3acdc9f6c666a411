#!/bin/sh
# Configure, build and run the full test suite under AddressSanitizer +
# UndefinedBehaviorSanitizer in a separate build directory, keeping the
# regular build untouched.
#
# Usage: tools/sanitize_ctest.sh [sanitizer] [ctest args...]
#   sanitizer  value for -DKPM_SANITIZE (default: address,undefined;
#              e.g. "thread" for TSan)
#
# Example: tools/sanitize_ctest.sh address,undefined -R 'obs|golden'
#          tools/sanitize_ctest.sh thread -R 'ThreadPool|ParallelCpu|BlockedEngines|Cluster|RecursionReference|Serve|Fleet'
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitizer=${1:-address,undefined}
[ $# -gt 0 ] && shift

build_dir="$repo_root/build-sanitize"

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKPM_SANITIZE="$sanitizer" \
  -DKPM_BUILD_BENCH=OFF \
  -DKPM_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error keeps ctest exit codes honest under ASan/UBSan/TSan.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
