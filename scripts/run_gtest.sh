#!/usr/bin/env bash
# Runs one gtest binary under a --gtest_filter, and fails when the filter
# selects no test: a filter still naming suites that were renamed or
# deleted would otherwise pass while running nothing.
#
#   scripts/run_gtest.sh <test-binary> <gtest-filter>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <test-binary> <gtest-filter>" >&2
  exit 2
fi
bin="$1"
filter="$2"

listing=$("${bin}" --gtest_filter="${filter}" --gtest_list_tests)
if ! grep -q '^  ' <<<"${listing}"; then
  echo "error: --gtest_filter='${filter}' selects no test in ${bin}" >&2
  exit 1
fi
exec "${bin}" --gtest_filter="${filter}"
