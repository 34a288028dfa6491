#!/usr/bin/env bash
# Paired comparison of two commits with identical benchmark code:
#
#   bash bench/compare.sh PARENT CHANGE [-pairs 10] [-seed 1] [-seconds 15] [-trace 0] [-workloads a,b]
#
# Each commit is exported into its own checkout under
# .bench_build/compare/, this tree's bench/ and BENCHMARK.json replace
# the commit's own, and each side is built once. The script then runs
# every workload for -pairs pairs with the same seed and flags,
# alternating which side runs first, and prints per (metric, workload)
# each side's median and quartiles, the change's win fraction, and the
# verdict: improved, no worse (within the bound), unresolved, or worse.
# Every metric a run prints is compared, the in-process per-layer ones
# too when -trace 1. It exits non-zero when a run is incorrect or a bounded
# metric got worse.
# Comparing a commit with itself (HEAD HEAD) measures the spread that
# justifies each bound.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,4p' "$0" >&2
	exit 2
fi
parent=$1 change=$2
shift 2
pairs=10 seed=1 seconds=15 trace=0
workloads="route-warm,route-cold,send-uniform,alltoall,mixed-journal"
while [ $# -gt 0 ]; do
	case $1 in
	-pairs) pairs=$2 ;;
	-seed) seed=$2 ;;
	-seconds) seconds=$2 ;;
	-trace) trace=$2 ;;
	-workloads) workloads=$2 ;;
	*)
		echo "compare.sh: unknown flag $1" >&2
		exit 2
		;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/compare"
rm -rf "$work"
mkdir -p "$work"
for side in A B; do
	rev=$parent
	[ "$side" = B ] && rev=$change
	dir="$work/$side"
	mkdir -p "$dir"
	git -C "$root" archive "$(git -C "$root" rev-parse "$rev")" | tar -x -C "$dir"
	rm -rf "$dir/bench"
	cp -R "$root/bench" "$dir/bench"
	rm -rf "$dir/bench/.bench_build"
	cp "$root/BENCHMARK.json" "$dir/BENCHMARK.json"
	echo "side $side = $rev ($(git -C "$root" rev-parse --short "$rev"))" >&2
done

runs="$work/runs"
mkdir -p "$runs"
for ((i = 1; i <= pairs; i++)); do
	order="A B"
	[ $((i % 2)) -eq 0 ] && order="B A"
	for w in ${workloads//,/ }; do
		for side in $order; do
			# A run that fails before printing its result counts as
			# incorrect: its output does not end in a result object.
			(cd "$work/$side" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") >"$runs/$i.$side.$w.out" || true
			echo "pair $i $w $side done" >&2
		done
	done
done

cd "$root" && "$work/A/.bench_build/bench" -compare "$runs"
