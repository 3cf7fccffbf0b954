#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree, and the
# check that makes such a pair worth reading.
#
# benchmark/ divides every latency by a host factor taken from its own
# scalar GEMM loop (benchmark/host.go), and that loop's speed depends on
# where the linker happens to put main.(*beater).gemm: the same source at a
# different address has measured up to 1.3x apart on an idle host. A change
# to the program moves the amount of text linked ahead of the benchmark's
# main, so the two binaries of a pair can carry different meters — and then
# every normalised metric differs by that ratio whatever the change does.
#
# This script builds both sides with benchmark/run.sh, prints where each
# binary's meter landed, alternates idle -probe runs, and calls the pair
# INVALID (exit 1) when the idle beats differ by more than 10%. With RUNS > 0
# it then alternates RUNS pairs of every workload and prints, per workload x
# end-to-end metric, each side's median [q1, q3], the wall-clock (raw_*)
# figures and the host factor beside them.
#
#   PARENT=<rev>        parent commit (default HEAD~1)
#   PROBES=5 PROBE_S=5  alternating idle probes per side, seconds each
#   RUNS=0              pairs per workload (0: meter check only)
#   SEED0=1001          first seed; pair i runs seed SEED0+i on both sides
#   WORKLOADS="..."     default: the four of BENCHMARK.json
#   OUT=<dir>           where the per-run outputs go (default .bench_build/pair)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="${PARENT:-HEAD~1}"
probes="${PROBES:-5}" probe_s="${PROBE_S:-5}" runs="${RUNS:-0}" seed0="${SEED0:-1001}"
workloads="${WORKLOADS:-prod_open prod_closed cache_thrash template_churn}"
out="${OUT:-$root/.bench_build/pair}"
mkdir -p "$out"

# The parent's committed files, as the driver would check them out.
pdir="$out/parent-src"
rm -rf "$pdir" && mkdir -p "$pdir"
git -C "$root" archive "$parent_rev" | tar -x -C "$pdir"

run_side() { # side, args...: one benchmark/run.sh invocation in that side's tree
	local dir="$root"
	[ "$1" = parent ] && dir="$pdir"
	shift
	bash "$dir/benchmark/run.sh" "$@"
}
# mean over vCPUs of one probe's median beat, ms
beat() { run_side "$1" -probe "$probe_s" | awk '/median/ {s += $6; n++} END {printf "%.4f\n", s / n}'; }
# median, q1, q3 of the numbers on stdin: "med [q1, q3]"
spread() {
	sort -g | awk '{v[NR] = $1} END {
		if (NR == 0) { print "-"; exit }
		printf "%.4g [%.4g, %.4g]", v[int((NR + 1) / 2)], v[int((NR + 3) / 4)], v[int((3 * NR + 1) / 4)] }'
}
med() { sort -g | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}'; }

echo "parent $(git -C "$root" rev-parse --short "$parent_rev") vs working tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo +dirty)"
for side in parent change; do
	run_side "$side" -probe 1 >/dev/null # builds the binary
	dir="$root"
	[ "$side" = parent ] && dir="$pdir"
	addr="$(go tool nm "$dir/.bench_build/flashps-benchmark" | awk '/beater\)\.gemm$/ {print $1}')"
	echo "$side: main.(*beater).gemm at 0x$addr (mod 64 = $((0x$addr % 64)))"
done

: >"$out/beat.parent" >"$out/beat.change"
for i in $(seq 1 "$probes"); do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do beat "$side" >>"$out/beat.$side"; done
done
bp="$(med <"$out/beat.parent")" bc="$(med <"$out/beat.change")"
echo "idle beat, median of $probes probes of ${probe_s}s: parent $(spread <"$out/beat.parent") ms, change $(spread <"$out/beat.change") ms"
if awk -v a="$bp" -v b="$bc" 'BEGIN {r = a / b; exit !(r > 1.10 || r < 1 / 1.10)}'; then
	echo "INVALID: the two binaries' idle beats differ by more than 10%; their normalised metrics are not comparable"
	exit 1
fi
echo "meter check ok: idle beats within 10%"
[ "$runs" -gt 0 ] || exit 0

for w in $workloads; do
	for i in $(seq 1 "$runs"); do
		order="parent change"
		[ $((i % 2)) -eq 0 ] && order="change parent"
		for side in $order; do
			run_side "$side" --workload "$w" --seed $((seed0 + i)) --seconds 20 --trace 0 >"$out/$w.$side.$i.txt"
		done
	done
done

# value of one printed metric (normalised, raw_* or host_factor) in a run's output
value() { awk -v m="$1" '$1 == m {print $2; exit}' "$2"; }
printf '\n%-15s %-16s %-32s %-32s %s\n' workload metric parent change "change wins"
for w in $workloads; do
	for m in setup_s edit_p50_ms edit_mean_ms edits_per_s goodput_per_s prepare_p50_ms peak_rss_mb \
		raw_edit_p50_ms raw_edits_per_s host_factor; do
		wins=0
		for i in $(seq 1 "$runs"); do
			p="$(value "$m" "$out/$w.parent.$i.txt")" c="$(value "$m" "$out/$w.change.$i.txt")"
			[ -n "$p" ] && [ -n "$c" ] || continue
			case "$m" in
			edits_per_s | goodput_per_s | raw_edits_per_s) awk -v p="$p" -v c="$c" 'BEGIN {exit !(c > p)}' && wins=$((wins + 1)) ;;
			*) awk -v p="$p" -v c="$c" 'BEGIN {exit !(c < p)}' && wins=$((wins + 1)) ;;
			esac
		done
		ps="$(for i in $(seq 1 "$runs"); do value "$m" "$out/$w.parent.$i.txt"; done | spread)"
		cs="$(for i in $(seq 1 "$runs"); do value "$m" "$out/$w.change.$i.txt"; done | spread)"
		printf '%-15s %-16s %-32s %-32s %s/%s\n' "$w" "$m" "$ps" "$cs" "$wins" "$runs"
	done
	fails="$(cat "$out/$w".*.txt | awk '/attempted/ && /failed/ {for (i = 1; i <= NF; i++) if ($i == "failed") f += $(i + 1)} END {print f + 0}')"
	echo "$w: failed operations over all runs: $fails"
done
