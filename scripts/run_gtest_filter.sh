#!/bin/sh
# Runs a gtest binary under one --gtest_filter and fails when the filter
# selects no test, so a renamed suite cannot turn a CI step into a
# silent pass.
#
# Usage: scripts/run_gtest_filter.sh <gtest binary> <filter>
set -eu
bin=$1
filter=$2
# --gtest_list_tests prints "Suite." lines and one indented line per test.
count=$("$bin" --gtest_list_tests --gtest_filter="$filter" | grep -c '^  ' ||
  true)
if [ "$count" -eq 0 ]; then
  echo "error: --gtest_filter='$filter' selects no test in $bin" >&2
  exit 1
fi
echo "$bin: $count tests match '$filter'"
exec "$bin" --gtest_filter="$filter"
