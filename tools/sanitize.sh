#!/usr/bin/env bash
# Builds rr_tests under a GCC sanitizer and runs the gtest patterns listed in
# a suite file (one --gtest_filter pattern per line, joined with ':').
#
#   tools/sanitize.sh tsan tests/sanitizer_suites.txt
#   tools/sanitize.sh asan tests/chaos_suites.txt
#   tools/sanitize.sh asan my_suites.txt --build-dir /tmp/asan -- --gtest_repeat=5
#
# The compiler and linker flags are the ones the CI sanitizer jobs use, which
# call this script, so a local run reproduces CI:
#   tsan  -fsanitize=thread
#   asan  -fsanitize=address,undefined -fno-sanitize-recover=all
#         (run with ASAN_OPTIONS=detect_leaks=1, UBSAN_OPTIONS=print_stacktrace=1)
# The build directory defaults to build-tsan/ or build-asan/ at the repository
# root; --build-dir puts it elsewhere. Arguments after `--` go to rr_tests.
set -euo pipefail

usage() {
  echo "usage: $0 {tsan|asan} SUITE_FILE [--build-dir DIR] [-- RR_TESTS_ARGS...]" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
sanitizer=$1
suite=$2
shift 2
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/build-$sanitizer"
while [[ $# -gt 0 ]]; do
  case $1 in
    --build-dir)
      [[ $# -ge 2 ]] || usage
      build=$2
      shift 2
      ;;
    --)
      shift
      break
      ;;
    *) usage ;;
  esac
done

case $sanitizer in
  tsan)
    cxx_flags="-fsanitize=thread"
    link_flags="-fsanitize=thread"
    ;;
  asan)
    cxx_flags="-fsanitize=address,undefined -fno-sanitize-recover=all"
    link_flags="-fsanitize=address,undefined"
    ;;
  *) usage ;;
esac

if [[ ! -s $suite ]]; then
  echo "$0: suite file '$suite' is missing or empty" >&2
  exit 2
fi
filter=$(paste -sd: "$suite")

configure=(-B "$build" -S "$root" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo
           "-DCMAKE_CXX_FLAGS=$cxx_flags" "-DCMAKE_EXE_LINKER_FLAGS=$link_flags")
if command -v ccache > /dev/null; then
  configure+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
cmake "${configure[@]}"
cmake --build "$build" -j "$(nproc)" --target rr_tests

cd "$build"
export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=print_stacktrace=1
exec ./rr_tests --gtest_filter="$filter" "$@"
