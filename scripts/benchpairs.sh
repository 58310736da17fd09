#!/usr/bin/env bash
# Paired before/after benchmark runs (PERF.md's protocol).
#
#   scripts/benchpairs.sh PARENT "WORKLOAD [WORKLOAD...]" [SEED] [PAIRS]
#   make bench-pairs PARENT=<rev> W="bulk_scan join_agg" SEED=<n> PAIRS=10
#
# Builds the checkout it runs from (the change, uncommitted edits
# included) and a `git archive` of PARENT in a temporary directory, each
# with bench/run.sh, once. Then, for each listed workload in turn, it
# runs `fedbench -workload W -seed S -seconds 8 -trace 0` PAIRS times per
# side, one process at a time, alternating which side goes first, and
# prints one table: for every end-to-end metric each side's q1 / median
# / q3 (linear interpolation), the change/parent ratio of the medians,
# the pairs the change won, and whether the gap between the medians
# exceeds the parent's interquartile range. Each pair's ops_per_s is
# printed as the pair finishes, and each side's per-run JSON lines are
# kept under .bench_build/pairs/<workload>-seed<S>-<parent>-<time>/ (the
# table names the directory), so a table can be read back run by run.
# Run from the repository root.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: scripts/benchpairs.sh PARENT \"WORKLOAD [WORKLOAD...]\" [SEED] [PAIRS]" >&2
	exit 2
fi
parent_rev=$1 workloads=$2 seed=${3:-1} pairs=${4:-10}
change=$PWD
if [ ! -f "$change/BENCHMARK.json" ] || [ ! -f "$change/bench/run.sh" ]; then
	echo "scripts/benchpairs.sh: run from the repository root" >&2
	exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
parent=$work/parent
mkdir -p "$parent"
git -C "$change" archive "$parent_rev" | tar -x -C "$parent"

# bench/run.sh builds .bench_build/fedbench, then runs it; -h makes the
# run itself a no-op (it prints usage and exits 2).
for side in "$parent" "$change"; do
	(cd "$side" && bash bench/run.sh -h >/dev/null 2>&1) || true
	if [ ! -x "$side/.bench_build/fedbench" ]; then
		echo "scripts/benchpairs.sh: building fedbench in $side failed" >&2
		exit 1
	fi
done

# run SIDE OUT appends the run's one-line JSON result to OUT.
run() {
	(cd "$1" && .bench_build/fedbench -workload "$workload" -seed "$seed" -seconds 8 -trace 0 | tail -n 1) >>"$2"
}
# ops FILE prints the ops_per_s of FILE's last run.
ops() {
	tail -n 1 "$1" | grep -o '"ops_per_s":{"value":[-+0-9.eE]*' | sed 's/.*://' || echo "?"
}
parent_short=$(git -C "$change" rev-parse --short "$parent_rev")
for workload in $workloads; do
	out=$change/.bench_build/pairs/$workload-seed$seed-$parent_short-$(date +%Y%m%dT%H%M%S)
	mkdir -p "$out"
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run "$parent" "$out/parent.jsonl"
			run "$change" "$out/change.jsonl"
		else
			run "$change" "$out/change.jsonl"
			run "$parent" "$out/parent.jsonl"
		fi
		echo "$workload: pair $((i + 1))/$pairs ops_per_s parent $(ops "$out/parent.jsonl") change $(ops "$out/change.jsonl")" >&2
	done

	echo "workload $workload, seed $seed, $pairs pairs, parent $parent_short, runs in ${out#"$change"/}"
	awk '
	function metric(line, name,    m) {
		if (match(line, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) {
			m = substr(line, RSTART, RLENGTH)
			sub(/.*:/, "", m)
			return m + 0
		}
		return "nan"
	}
	function failed(line,    m) {
		if (match(line, /"failed":[0-9]+/)) {
			m = substr(line, RSTART, RLENGTH)
			sub(/.*:/, "", m)
			return m + 0
		}
		return 0
	}
	# quart sorts a copy of v[1..n] and interpolates the p-quantile.
	function quart(v, n, p,    s, i, j, t, h, lo) {
		for (i = 1; i <= n; i++) s[i] = v[i]
		for (i = 2; i <= n; i++) {
			t = s[i]
			for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
			s[j + 1] = t
		}
		h = (n - 1) * p + 1
		lo = int(h)
		if (lo >= n) return s[n]
		return s[lo] + (h - lo) * (s[lo + 1] - s[lo])
	}
	FNR == 1 { file++ }
	{
		n[file]++
		fails[file] += failed($0)
		for (k = 1; k <= nm; k++) val[file, names[k], n[file]] = metric($0, names[k])
	}
	BEGIN {
		nm = split("ops_per_s p50_ms p95_ms setup_s", names, " ")
		higher["ops_per_s"] = 1
	}
	END {
		printf "%-10s %-26s %-26s %-14s %-8s %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "change/parent", "wins", "gap > parent IQR"
		for (k = 1; k <= nm; k++) {
			name = names[k]
			np = n[1]; nc = n[2]
			for (i = 1; i <= np; i++) p[i] = val[1, name, i]
			for (i = 1; i <= nc; i++) c[i] = val[2, name, i]
			wins = 0
			for (i = 1; i <= np && i <= nc; i++)
				if ((higher[name] && c[i] > p[i]) || (!higher[name] && c[i] < p[i])) wins++
			pq1 = quart(p, np, .25); pm = quart(p, np, .5); pq3 = quart(p, np, .75)
			cq1 = quart(c, nc, .25); cm = quart(c, nc, .5); cq3 = quart(c, nc, .75)
			gap = cm - pm
			if (gap < 0) gap = -gap
			printf "%-10s %-26s %-26s %-14s %-8s %s\n", name,
				sprintf("%.4g / %.4g / %.4g", pq1, pm, pq3),
				sprintf("%.4g / %.4g / %.4g", cq1, cm, cq3),
				(pm != 0 ? sprintf("%.3f", cm / pm) : "-"),
				wins "/" (np < nc ? np : nc), (gap > pq3 - pq1 ? "yes" : "no")
		}
		printf "failed ops: parent %d, change %d\n", fails[1], fails[2]
	}
	' "$out/parent.jsonl" "$out/change.jsonl"
	echo
done
