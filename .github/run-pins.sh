#!/usr/bin/env bash
# Runs one //hpm:pin group by name and fails unless every member passed
# exactly as many times as -count asks (once without it).
#
# The members are what `go run ./cmd/hpmvet -pins <group>` derives from
# the //hpm:pin lines on the tests themselves; the groups are documented
# in internal/analysis/directive. Every pin is also inside `go test ./...`;
# a group re-runs it by name so that its failure is its own CI step, in
# the group's run mode. `go test -run` exits 0 when it matches fewer tests
# than meant, so without the count a skipped pin would pass silently.
# Renaming a pinned test keeps it pinned (the directive moves with it).
#
# Usage, from the module root:
#
#	.github/run-pins.sh mechanics -count 1
#	.github/run-pins.sh sharing -race -count 5
#	.github/run-pins.sh fuzz -fuzztime 10s -fuzzminimizetime 0x
#
# The fuzz group fuzzes each target in turn, one go test per target.
set -euo pipefail

group=$1
shift
pins=$(go run ./cmd/hpmvet -pins "$group")
if [ -z "$pins" ]; then
	echo "pin group $group has no members" >&2
	exit 1
fi

count=1
args=("$@")
for i in "${!args[@]}"; do
	if [ "${args[$i]}" = -count ]; then
		count=${args[$((i + 1))]}
	fi
done

log=$(mktemp)
trap 'rm -f "$log"' EXIT
if [ "$group" = fuzz ]; then
	while read -r dir name; do
		go test -v -run '^$' -fuzz "^$name\$" "$@" "$dir" </dev/null | tee -a "$log"
	done <<<"$pins"
else
	names=$(cut -d' ' -f2 <<<"$pins" | paste -sd'|' -)
	# shellcheck disable=SC2046 # one word per package directory
	go test -v -run "^($names)\$" "$@" $(cut -d' ' -f1 <<<"$pins" | sort -u) | tee "$log"
fi

status=0
while read -r dir name; do
	got=$(grep -c "^--- PASS: $name " "$log" || true)
	if [ "$got" -ne "$count" ]; then
		echo "$dir $name passed $got of $count times" >&2
		status=1
	fi
done <<<"$pins"
exit $status
