#!/bin/sh
# Tier-1 verification: build, vet, repolint, tests, and the race detector (a
# scan split into segments and the serving fleet run real goroutines, so
# -race is part of the gate). On failure, the name of the gate that failed is
# printed so CI logs and humans see at a glance which invariant broke.
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
# repolint: the repository's own static-analysis suite (internal/analysis),
# the determinism analyzer: no wall clock, no global math/rand and no
# order-dependent map iteration in non-test code.
gate "go run ./cmd/repolint ./..." go run ./cmd/repolint ./...
# The linter's own determinism is internal/analysis's
# TestDiagnosticsDeterministic: two independent loads of its testdata module,
# whose findings must agree (a clean tree has none to compare).
gate "go test ./..." go test ./...
# The race pass runs everything the plain pass does, internal/exp's full
# experiment suite included: every runner at scale 1 through its shape check
# and compared with the committed tables (internal/exp/testdata/scale1.md),
# and the five profiled scenarios compared metric for metric with theirs
# (internal/exp/testdata/profiles.txt). Virtual time is pinned exactly, up
# and down, by those two records and internal/mw/pinned_test.go.
gate "go test -race ./..." go test -race ./...
echo "verify: all green"
