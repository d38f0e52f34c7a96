#!/usr/bin/env bash
# check.sh — the full local gate: formatting, vet, build, race-enabled
# tests, the nested perfbench module's tests, and a one-iteration benchmark
# smoke so the harness benchmarks never rot. Run from anywhere inside the
# repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== examples build smoke =="
go build ./examples/...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module tests (nested module, not seen by ./...) =="
(cd perfbench && go test ./...)

echo "== chaos suite (fault injection + lock-free structure hammers, -race) =="
go test -race -run Chaos -count=1 ./internal/core ./internal/spcm ./internal/kernel ./internal/manager ./internal/sim

echo "== fuzz smoke (10s per target) =="
go test -run='^$' -fuzz='^FuzzMappingTable$' -fuzztime=10s ./internal/kernel
go test -run='^$' -fuzz='^FuzzCASTable$' -fuzztime=10s ./internal/kernel
go test -run='^$' -fuzz='^FuzzExtentTable$' -fuzztime=10s ./internal/kernel
go test -run='^$' -fuzz='^FuzzUIO$' -fuzztime=10s ./internal/uio
go test -run='^$' -fuzz='^FuzzMailbox$' -fuzztime=10s ./internal/plane
go test -run='^$' -fuzz='^FuzzPolicy$' -fuzztime=10s ./internal/manager
go test -run='^$' -fuzz='^FuzzEventHeap$' -fuzztime=10s ./internal/sim

echo "== bench smoke (1 iteration) =="
go test -bench=Harness -benchtime=1x -run='^$' .
go test -bench=DeliveryPlane -benchtime=1x -run='^$' ./internal/experiments
go test -bench=BatchMigrate -benchtime=1x -run='^$' ./internal/kernel
go test -bench=LockManagerCommit -benchtime=1x -run='^$' ./internal/db
go test -bench=Table4 -benchtime=1x -run='^$' ./internal/experiments

echo "== policy shootout smoke (2 policies x 1 workload) =="
policy_tmp=$(mktemp)
time_tmp=$(mktemp)
super_tmp=$(mktemp)
trap 'rm -f "$policy_tmp" "$time_tmp" "$super_tmp"' EXIT
go run ./cmd/reproduce -table 1 -policy -policies clock,s3fifo -policyworkloads zipf \
    -policyrefs 4000 -policyout "$policy_tmp" > /dev/null

echo "== time-engine sweep smoke (1 and 4 shards) =="
go run ./cmd/reproduce -table 1 -time -timeshards 1,4 -timeevents 20000 \
    -timefile "$time_tmp" > /dev/null

echo "== superpage sweep smoke (base vs super, 2 managers) =="
# The sweep's >=2x gate is wall-clock at 8 managers; the smoke only checks
# that both arms run and render (wall numbers never gate a merge).
{ go run ./cmd/reproduce -table 1 -supersweep -supermanagers 2 \
    -superfaults 512 -superfile "$super_tmp" || true; } |
    grep -q "Superpage Extent Fast Path"

echo "== vectored scale sweep smoke (2 managers, vector on/off cells) =="
# Runs the full cell matrix at 2 managers, including the vectored-delivery
# sub-table (multi-driver, vector on vs off). Wall numbers are advisory;
# the smoke only checks that the vectored cells run and render.
scale_tmp=$(mktemp)
trap 'rm -f "$policy_tmp" "$time_tmp" "$super_tmp" "$scale_tmp"' EXIT
{ go run ./cmd/reproduce -table 1 -scale -scalemanagers 2 \
    -scalefaults 512 -scalefile "$scale_tmp" || true; } |
    grep -q "Vectored delivery"

echo "== golden reproduce output (every mode arm) =="
# Each mode arm boots its machines with a different config; none may move
# a byte of the paper tables. The arm list matches ci.yml.
golden_tmp=$(mktemp)
trap 'rm -f "$policy_tmp" "$time_tmp" "$super_tmp" "$scale_tmp" "$golden_tmp"' EXIT
for arm in "" "-sched concurrent" "-batch=false" "-timeengine sharded" "-super" "-vector=false"; do
    # $arm is unquoted on purpose: "-sched concurrent" is two arguments.
    go run ./cmd/reproduce $arm > "$golden_tmp"
    diff internal/experiments/testdata/reproduce.golden "$golden_tmp"
done

echo "All checks passed."
