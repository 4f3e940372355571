#!/usr/bin/env bash
# Usage: run-named-tests.sh PATTERN PACKAGE [go test flags...]
#
# Runs `go test -v [flags] -run PATTERN PACKAGE` and fails unless the tests
# pass and every top-level alternative of PATTERN (split at the '|' outside
# parentheses) names at least one test that ran and passed. A -run pattern
# that matches nothing makes go test print "no tests to run" and exit 0, so
# without this check a test that is renamed or moved to another package drops
# out of the CI step that names it without anyone noticing.
set -euo pipefail

pattern=$1
pkg=$2
shift 2

log=$(mktemp)
trap 'rm -f "$log"' EXIT

status=0
go test -v "$@" -run "$pattern" "$pkg" >"$log" 2>&1 || status=$?
if [ "$status" -ne 0 ]; then
  cat "$log"
  exit "$status"
fi
grep -E '^\s*--- (PASS|SKIP)|^(ok|PASS)\b' "$log" || true

alts=()
alt=""
depth=0
for ((i = 0; i < ${#pattern}; i++)); do
  c=${pattern:i:1}
  case $c in
  '(') depth=$((depth + 1)) ;;
  ')') depth=$((depth - 1)) ;;
  '|')
    if [ "$depth" -eq 0 ]; then
      alts+=("$alt")
      alt=""
      continue
    fi
    ;;
  esac
  alt+=$c
done
alts+=("$alt")

missing=0
for alt in "${alts[@]}"; do
  # go test matches each level of a name unanchored, so may this.
  if ! grep -Eq -- "--- PASS: [^ ]*(${alt})" "$log"; then
    echo "run-named-tests: no test matching '${alt}' passed in ${pkg}" >&2
    missing=1
  fi
done
exit "$missing"
