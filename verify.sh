#!/bin/sh
# Tier-1 verification: build, vet, repolint, tests, and the race detector (the
# parallel scan pipeline fans out real goroutines, so -race is part of the
# gate). On failure, the name of the gate that failed is printed so CI logs
# and humans see at a glance which invariant broke.
set -u
cd "$(dirname "$0")"

gate() {
  name="$1"
  shift
  echo "== $name"
  if ! "$@"; then
    echo "verify: FAILED at gate: $name" >&2
    exit 1
  fi
}

gate "go build ./..." go build ./...
gate "go vet ./..." go vet ./...
# cmd/bench is a nested module (own go.mod), invisible to the ./... patterns
# above, yet it calls internal APIs (engine.ScanColumnarRange, mw.Config, ...):
# vet and short-test it from inside so a refactor that breaks the benchmark
# fails here, not in the acceptance driver.
bench_gate() { (cd cmd/bench && go vet ./... && go test -short ./...); }
gate "cmd/bench: go vet + go test -short" bench_gate
# repolint: the repository's own static-analysis suite (internal/analysis):
# determinism, span/fork hygiene, resource-release and goroutine-handoff
# invariants, interprocedural via whole-module function summaries. -stats
# prints the summary-coverage line (functions summarized, cross-function
# obligation events) to stderr so the one-line figure lands in CI logs.
gate "go run ./cmd/repolint ./..." go run ./cmd/repolint -stats ./...
# Determinism gate on the linter itself: two -json runs, the second under a
# different GOMAXPROCS, must be byte-identical on stdout.
echo "== repolint determinism (-json x2, GOMAXPROCS varied)"
go run ./cmd/repolint -json ./... >/tmp/repolint-a.json 2>/dev/null
GOMAXPROCS=1 go run ./cmd/repolint -json ./... >/tmp/repolint-b.json 2>/dev/null
if ! cmp -s /tmp/repolint-a.json /tmp/repolint-b.json; then
  echo "verify: FAILED at gate: repolint determinism (-json output differs between runs)" >&2
  exit 1
fi
gate "go test ./..." go test ./...
# The race pass runs everything the plain pass does, internal/exp's full
# experiment suite included (about 175 s under the detector on two cores, PR 21;
# the allowance is 300 s).
gate "go test -race ./..." go test -race ./...
# Quarter-scale skew shape check: group-weighted splits (engine.GroupBounds)
# must cut the worst lane imbalance >= 2x vs equal-width row-group splits at 8
# workers and never be slower, with identical counts.
gate "experiments -run skew -check" go run ./cmd/experiments -run skew -scale 0.25 -check
# Quarter-scale columnar shape check: the columnar copy must read >= 2x fewer
# modeled pages than as many heap scans would (Server.NumPages() x scans) on
# the clustered workload, skipping row groups by zone map, fewer everywhere
# (dictionary packing), and count what cc.Table.AddRow counts from the rows.
gate "experiments -run columnar -check" go run ./cmd/experiments -run columnar -scale 0.25 -check
# Quarter-scale serve shape check: concurrent same-table builds with scan
# sharing must read fewer total modeled pages than with sharing off (identical
# at one client) and sharing must never slow makespan or per-session latency;
# every session's tree is asserted identical to the single-tenant build.
gate "experiments -run serve -check" go run ./cmd/experiments -run serve -scale 0.25 -check
# Quarter-scale scoring shape check: the in-engine vectorized scoring
# operator must beat the in-client cursor + tree-walk loop on virtual time,
# rows/sec and modeled pages at every worker count, and scale with workers.
gate "experiments -run scoring -check" go run ./cmd/experiments -run scoring -scale 0.25 -check
# Quarter-scale perf-regression gate: profiles the fixed scenario set on the
# virtual clock and compares each condensed metric against the committed
# baseline in BENCH_history.json within a 10% tolerance band. Virtual time is
# noise-free, so a failure means a code change actually moved simulated cost;
# if the move is intended, re-baseline with `go run ./cmd/perfgate -update`.
gate "perfgate -scale 0.25" go run ./cmd/perfgate -history BENCH_history.json -scale 0.25
echo "verify: all green"
