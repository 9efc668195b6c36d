#!/usr/bin/env bash
# Fixture test for scripts/lint_wavefront.sh: run the lint over the planted
# violations in tests/lint_wavefront_fixture and require exit status 1 and
# exactly the committed output (7 findings covering all four rules, with
# the wf64-ok line, comment lines and the kUnvisited sentinel skipped).
#
#   usage: check_lint_wavefront_fixture.sh [repo-root]
set -uo pipefail

ROOT=${1:-$(cd "$(dirname "$0")/.." && pwd)}
FIXTURE="$ROOT/tests/lint_wavefront_fixture"

out=$(bash "$ROOT/scripts/lint_wavefront.sh" "$FIXTURE")
rc=$?
if [[ $rc -ne 1 ]]; then
  echo "FAIL: lint_wavefront exited $rc on the fixture, expected 1"
  printf '%s\n' "$out"
  exit 1
fi
# Findings name files under the fixture root; compare root-relative.
if ! diff -u "$FIXTURE/expected.txt" <(printf '%s\n' "${out//"$FIXTURE/"/}"); then
  echo "FAIL: lint_wavefront fixture output differs from expected.txt"
  exit 1
fi
echo "check_lint_wavefront_fixture: PASS ($(grep -c '^lint_wavefront: \[' "$FIXTURE/expected.txt") findings)"
