#!/usr/bin/env bash
# Checks that every test pattern of the focused targets selects a test:
# it reads `go test` lines on stdin (make test-patterns feeds it the
# recipes of race-dse, race-gateway, race-net, race-batch and fuzz-smoke)
# and, for each line's pattern — its -fuzz target, else its -run
# expression — requires `go test -list` to name at least one test,
# benchmark, fuzz target or example in every package the line runs. A
# pattern that matches nothing would otherwise pass silently: -run
# prints "[no tests to run]" and -fuzz "no fuzz tests to fuzz", both with
# exit status 0.
set -euo pipefail

GO=${GO:-go}
status=0
while IFS= read -r line; do
	eval "set -- $line"
	[ "${1:-}" = "$GO" ] && [ "${2:-}" = test ] || continue
	run= fuzz= pkgs=()
	while [ $# -gt 0 ]; do
		case $1 in
		-run) run=$2; shift ;;
		-run=*) run=${1#-run=} ;;
		-fuzz=*) fuzz=${1#-fuzz=} ;;
		./*) pkgs+=("$1") ;;
		esac
		shift
	done
	pat=${fuzz:-$run}
	[ -n "$pat" ] || continue
	for p in "${pkgs[@]}"; do
		listed=$("$GO" test -list "$pat" "$p")
		if ! grep -qv '^\(ok\|?\) ' <<<"$listed"; then
			echo "test-patterns: '$pat' selects no test in $p" >&2
			status=1
		fi
	done
done
exit $status
