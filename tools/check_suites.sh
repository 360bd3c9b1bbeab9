#!/usr/bin/env bash
# Fails when a line of a suite file matches no test of rr_tests.
# tools/sanitize.sh joins a suite file's lines into one --gtest_filter, so a
# stale pattern would make it quietly run fewer tests.
#
#   tools/check_suites.sh build/rr_tests tests/sanitizer_suites.txt tests/chaos_suites.txt
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 RR_TESTS SUITE_FILE..." >&2
  exit 2
fi
binary=$1
shift

status=0
for suite in "$@"; do
  while IFS= read -r pattern || [[ -n $pattern ]]; do
    listed=$("$binary" --gtest_list_tests --gtest_filter="$pattern")
    # Test names are the indented lines of the listing.
    if ! grep -q '^  ' <<< "$listed"; then
      echo "$suite: '$pattern' matches no test" >&2
      status=1
    fi
  done < "$suite"
done
exit "$status"
