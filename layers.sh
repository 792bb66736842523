#!/bin/sh
# Per-layer wall clock: runs the root module's benchmark of every layer —
# the counts table, the engine's scans and statements, the split search and
# the scorer, the middleware's builds and its §4.1.1 fallback, the wire codec
# and a driver → wire → daemon drain — at -cpu 2 -count 10 -benchmem, and
# appends one block to internal/exp/testdata/layers.txt: the commit, the host,
# and per benchmark the median and interquartile range of ns/op, B/op and
# allocs/op over the ten runs. Run it from anywhere in a checkout with no
# uncommitted changes:
#
#   ./layers.sh
#
# Not a gate: wall clock is noisy, and a block is comparable only with
# blocks from the same host. A speed-up claim rests on alternating pairs of
# runs, not on two blocks of this file.
set -eu
cd "$(dirname "$0")"
out=internal/exp/testdata/layers.txt
# A block names the commit it measured, so the tracked files must be that
# commit's (the record itself aside).
if [ -n "$(git status --porcelain --untracked-files=no -- . ":(exclude)$out")" ]; then
	echo "layers: commit or stash the changes first: a block names the commit it measured" >&2
	exit 1
fi
raw=$(mktemp)
log=$(mktemp)
trap 'rm -f "$raw" "$log"' EXIT

run() { # package, benchmark pattern
	# go test's own status, not a pipe's: a benchmark that fails or panics
	# stops the script before a block is written.
	if ! go test -run '^$' -bench "$2" -cpu 2 -count 10 -benchmem "$1" >"$log"; then
		cat "$log" >&2
		echo "layers: go test $1 failed; no block appended" >&2
		exit 1
	fi
	sed -n "s|^Benchmark|${1##*/}.Benchmark|p" "$log" >>"$raw"
}
run ./internal/cc 'BenchmarkAddMany|BenchmarkEstimate'
run ./internal/engine 'BenchmarkCursorScan|BenchmarkGroupByQuery|BenchmarkExecPoint'
run ./internal/dtree 'BenchmarkDecide|BenchmarkScoreColumnar'
run ./internal/mw 'BenchmarkColumnarKernel|BenchmarkScanBuild|BenchmarkStagedBuild|BenchmarkMixedBuild|BenchmarkFallbackCounts'
run ./internal/wire 'BenchmarkWire'
run ./internal/serve 'BenchmarkDriverDrainScore'

commit=$(git rev-parse --short HEAD)
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
{
	echo
	echo "## $commit"
	echo "host: $(nproc) cores, ${cpu:-unknown CPU}, $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH)"
	echo "benchmark | ns/op median (IQR) | B/op median (IQR) | allocs/op median (IQR)"
	# One line per benchmark, in run order: per unit, the median and the
	# spread between the first and third quartiles, linearly interpolated.
	awk '
	function q(a, n, p,   i, f) { i = (n - 1) * p; f = int(i); return f + 1 < n ? a[f] + (i - f) * (a[f + 1] - a[f]) : a[f] }
	function stat(name, unit,   a, n, k, m) {
		n = cnt[name, unit]
		if (n == 0) return "-"
		for (k = 0; k < n; k++) a[k] = val[name, unit, k]
		for (k = 1; k < n; k++) for (m = k; m > 0 && a[m] < a[m - 1]; m--) { t = a[m]; a[m] = a[m - 1]; a[m - 1] = t }
		return sprintf("%.4g (%.3g)", q(a, n, 0.5), q(a, n, 0.75) - q(a, n, 0.25))
	}
	{
		if (!(($1) in seen)) { seen[$1] = 1; order[nb++] = $1 }
		for (i = 3; i < NF; i += 2) val[$1, $(i + 1), cnt[$1, $(i + 1)]++] = $i
	}
	END {
		for (b = 0; b < nb; b++) print order[b] " | " stat(order[b], "ns/op") " | " stat(order[b], "B/op") " | " stat(order[b], "allocs/op")
	}' "$raw"
} >>"$out"
echo "layers: appended a block to $out"
