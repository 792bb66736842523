#!/usr/bin/env bash
# Builds cmd/bench from source and runs it, from the root of a checkout:
#
#   bash cmd/bench/run.sh --workload build_scan --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache and GOPATH, the binary, and (through TMPDIR)
# the middleware's staging files. "--workload all" runs the four workloads one
# after the other, each in a fresh process, and stops at the first that fails.
set -euo pipefail

root=$PWD
out=$root/.bench_build
[ -f "$root/go.mod" ] || { echo "run.sh: run from the repository root (no go.mod in $root)" >&2; exit 2; }
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/cmd/bench" && go build -o "$out/bench" .)

# "all" runs every workload in turn. Each process gets its own --trace-out
# file, FILE.<workload>, so that one run's spans do not overwrite another's.
all=0
args=()
while [ $# -gt 0 ]; do
	case $1 in
	-workload | --workload)
		if [ "${2:-}" = all ]; then all=1; else args+=("$1" "${2:-}"); fi
		shift || true
		;;
	-workload=all | --workload=all) all=1 ;;
	-trace-out | --trace-out)
		trace_out=${2:-}
		shift || true
		;;
	-trace-out=* | --trace-out=*) trace_out=${1#*=} ;;
	*) args+=("$1") ;;
	esac
	shift || true
done
if [ "$all" = 0 ]; then
	exec "$out/bench" ${trace_out:+--trace-out "$trace_out"} ${args[@]+"${args[@]}"}
fi
for w in build_scan build_staged serve_score serve_mixed; do
	"$out/bench" --workload "$w" ${trace_out:+--trace-out "$trace_out.$w"} ${args[@]+"${args[@]}"}
done
