#!/usr/bin/env bash
# Runs the full experiments suite once per leg and compares each leg's
# stdout, byte for byte, against the committed golden.
#
#   ci/determinism.sh <leg>...
#
# Each leg is
#
#   <tag>[,VAR=VALUE...]:<flags>
#
# e.g. "j4:--jobs 4" or "off_j1,REACH_SIMD=off:--jobs 1". A leg's captures
# land in <tag>.out / <tag>.err in the working directory. Every leg runs;
# each one whose stdout differs from the golden is named on stderr and the
# script exits 1.
set -euo pipefail

golden=tests/golden/experiments_stdout.txt

if [[ $# -eq 0 ]]; then
  echo "usage: ci/determinism.sh <tag>[,VAR=VALUE...]:<flags>..." >&2
  exit 2
fi

failed=0
for leg in "$@"; do
  spec=${leg%%:*}
  flags=${leg#*:}
  tag=${spec%%,*}
  envs=()
  [[ $spec == *,* ]] && IFS=',' read -r -a envs <<<"${spec#*,}"
  # shellcheck disable=SC2086 # leg flags are intentionally word-split.
  env "${envs[@]}" ./target/release/experiments $flags >"$tag.out" 2>"$tag.err"
  if cmp -s "$golden" "$tag.out"; then
    echo "$tag: stdout matches $golden"
  else
    echo "determinism.sh: leg '$leg' differs from $golden" >&2
    failed=1
  fi
done
exit "$failed"
