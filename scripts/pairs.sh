#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload: the measurement
# every claimed gain rests on (see benchmark/README.md and `make pairs`).
#
#   scripts/pairs.sh WORKLOAD PARENT SEED...
#
# Exports commit PARENT with git archive under .bench_build/pairs/ (ignored;
# an export, not a worktree, so .git is left alone), runs
# benchmark/run.sh there and in this tree once per seed with the benchmark's
# own settings, alternating which side goes first, and prints one line per
# run with the nine end-to-end metrics; then, per metric, both medians, the
# parent's interquartile range and how many pairs the change won (ties count
# for neither). The checkout is removed on exit; the run lines stay in
# .bench_build/pairs/WORKLOAD.runs.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 WORKLOAD PARENT SEED..." >&2; exit 2; }
workload=$1 parent=$2
shift 2
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$parent^{commit}")"
tree="$root/.bench_build/pairs/$sha"
runs="$root/.bench_build/pairs/$workload.runs"
trap 'rm -rf "$tree"' EXIT
rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" archive "$sha" | tar -x -C "$tree"
# Both trees build through one Go cache, so the export compiles only what differs.
mkdir -p "$root/.bench_build/go-cache" "$tree/.bench_build"
ln -s "$root/.bench_build/go-cache" "$tree/.bench_build/go-cache"
: >"$runs"

# one SIDE TREE SEED: a run line "SIDE seed N metric=value... failed=F/A".
one() {
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 24 --trace 0 |
		awk -v side="$1" -v seed="$3" '
			NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^-?[0-9.]+$/ { line = line " " $1 "=" $2 }
			$1 == "attempted" { ops = $4 "/" $2 }
			END { if (ops == "") exit 1; print side " seed " seed line " failed=" ops }' |
		tee -a "$runs"
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		one parent "$tree" "$seed"
		one change "$root" "$seed"
	else
		one change "$root" "$seed"
		one parent "$tree" "$seed"
	fi
	i=$((i + 1))
done

# Quartiles are linear interpolations between order statistics.
awk '
function quantile(side, m, q,    n, a, k, j, t, pos, lo) {
	n = 0
	for (k in val) {
		split(k, parts, SUBSEP)
		if (parts[1] == side && parts[2] == m) a[++n] = val[k]
	}
	for (k = 2; k <= n; k++) for (j = k; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	pos = 1 + (n - 1) * q
	lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo+1] - a[lo])
}
{
	for (f = 4; f < NF; f++) {
		split($f, kv, "=")
		val[$1, kv[1], $3] = kv[2]
		if (!(kv[1] in seen)) { seen[kv[1]] = 1; order[++metrics] = kv[1] }
	}
	seeds[$3] = 1
	split($NF, ops, /[=\/]/)
	failed[$1] += ops[2]; attempted[$1] += ops[3]
}
END {
	printf "\n%-22s %12s %12s %8s %10s  %s\n", "metric", "parent med", "change med", "delta", "parent IQR", "pairs won by change"
	for (i = 1; i <= metrics; i++) {
		m = order[i]
		won = tied = pairs = 0
		for (s in seeds) {
			p = val["parent", m, s]; c = val["change", m, s]
			pairs++
			if (c == p) tied++
			else if (m == "delivered_pct" ? c > p : c < p) won++
		}
		pm = quantile("parent", m, 0.5); cm = quantile("change", m, 0.5)
		printf "%-22s %12.4f %12.4f %+7.1f%% %10.4f  %d of %d%s\n", m, pm, cm,
			pm ? 100 * (cm - pm) / pm : 0, quantile("parent", m, 0.75) - quantile("parent", m, 0.25), won, pairs,
			tied ? " (" tied " tied)" : ""
	}
	printf "failed operations: parent %d of %d, change %d of %d\n",
		failed["parent"], attempted["parent"], failed["change"], attempted["change"]
}' "$runs"
