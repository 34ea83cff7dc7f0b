#!/usr/bin/env bash
# Lists the tests of every test binary and fails if one binary registers
# the same name twice, which means the test runs twice per `cargo test`
# (e.g. a macro that adds its own #[test] beside the caller's).
#
#   ci/unique_test_names.sh [cargo test flags...]
#
# Names are compared per binary, as grouped by cargo's `Running` and
# `Doc-tests` lines: two crates may each have a test of the same path.
set -euo pipefail

listing=$(mktemp)
trap 'rm -f "$listing"' EXIT
if ! cargo test --color never "$@" -- --list >"$listing" 2>&1; then
  cat "$listing" >&2
  exit 1
fi

awk '
  /^ *(Running|Doc-tests) / { binary = $0; sub(/^ +/, "", binary); binaries++; next }
  /: (test|benchmark)$/ {
    name = $0
    sub(/: (test|benchmark)$/, "", name)
    total++
    if (seen[binary, name]++ == 1) {
      print "unique_test_names.sh: " binary " lists \"" name "\" twice" > "/dev/stderr"
      duplicates++
    }
  }
  END {
    printf "%d test(s) in %d binary(ies), %d duplicated name(s)\n", total, binaries, duplicates
    exit duplicates > 0
  }
' "$listing"
