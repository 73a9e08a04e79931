#!/usr/bin/env bash
# check-ci-run.sh — fail when a CI step's -run pattern selects no test.
#
# Usage:
#   scripts/check-ci-run.sh [workflow.yml]   # default .github/workflows/ci.yml
#
# Every '|'-separated alternative of every quoted `-run` pattern in the
# workflow must match at least one name that `go test -list '.*' ./...`
# reports, so a renamed or deleted test cannot silently drop out of a
# targeted CI step.  '^$' (run no tests, used with -bench and -fuzz) is
# skipped.
set -euo pipefail
workflow=$(realpath "${1:-$(dirname "$0")/../.github/workflows/ci.yml}")
cd "$(dirname "$0")/.."

names=$(go test -list '.*' ./... | grep -E '^(Test|Benchmark|Fuzz|Example)')
status=0
while read -r pat; do
	[ "$pat" = '^$' ] && continue
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$workflow: -run alternative '$alt' of '$pat' matches no test" >&2
			status=1
		fi
	done
done < <(grep -oE -- "-run ('[^']*'|\"[^\"]*\")" "$workflow" | sed -E "s/^-run .//; s/.$//" | sort -u)
exit $status
