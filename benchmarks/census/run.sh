#!/usr/bin/env bash
# Function census: run the workload list and tier-1 under the census hook
# (sitecustomize.py), then count the functions no workload runs.
#
#   benchmarks/census/run.sh [OUT_DIR]
#
# OUT_DIR (default: a new temporary directory) receives workload/ and
# tests/ record directories.  Everything runs against a fresh
# REPRO_CACHE_DIR.  A command that fails (or a refusal that does not
# happen) is reported on stderr and the census goes on.  Takes 3-4
# minutes on 2 vCPUs; the hook slows Python down about threefold.
set -u
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
cd "$ROOT"
OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export REPRO_CACHE_DIR="$WORK/cache"
export PYTHONPATH="$ROOT/benchmarks/census:$ROOT/src:$ROOT"
export CENSUS_OUT="$OUT/workload"
rm -rf "$OUT/workload" "$OUT/tests"
mkdir -p "$OUT/workload" "$OUT/tests"

run() { "$@" >"$WORK/last.log" 2>&1 || echo "census: exit $? from: $*" >&2; }
refused() { "$@" >"$WORK/last.log" 2>&1 && echo "census: no refusal from: $*" >&2; }
repro() { run python -m repro "$@"; }
wait_for() { for _ in $(seq 1 200); do [ -S "$1" ] && return; sleep 0.1; done; echo "census: no socket $1" >&2; }

# Experiments: the cold battery (every ablation included), report, a
# parallel battery, a profiled and a traced run with the caches off.
repro experiments
repro report --output "$WORK/report.md"
repro experiments --jobs 2
run env REPRO_NO_CACHE=1 python -m repro experiments fig1 tab3 --profile
run env REPRO_NO_CACHE=1 python -m repro experiments fig4 --trace "$WORK/fig4.json"

for example in examples/*.py; do run python "$example"; done

# One-shot tools.
repro profile GS
repro profile GS --slate
run python -m repro transform - <<'EOF'
__global__ void scale(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) x[i] *= 2.0f;
}
EOF
repro occupancy 256 --regs 32
repro tune GS
repro pair BS RG

# Trace replays: three arrival patterns, both exports, slicing, the
# baseline runtimes and the policies besides table1.
for pattern in poisson bursty heavy-tailed; do repro trace --pattern "$pattern"; done
repro trace --export perfetto "$WORK/trace.json"
repro trace --export jsonl "$WORK/trace.jsonl"
repro trace --slicing
repro trace --runtime CUDA
repro trace --runtime MPS
for policy in mps-leftover fair-share edf online-predictive; do repro trace --policy "$policy"; done

repro obs dump
repro obs export --prom --out "$WORK/local.prom"
repro obs validate "$WORK/trace.json"
repro obs validate --prom "$WORK/local.prom"

# A 2-shard daemon under clients, every load generator mode and the
# telemetry surfaces, then a flight dump (SIGUSR1) and shutdown.
SOCK="$WORK/fleet.sock"
python -m repro serve --socket "$SOCK" --shards 2 >"$WORK/serve.log" 2>&1 &
SERVE=$!
wait_for "$SOCK"
repro client MM --socket "$SOCK"
refused python -m repro client XX --socket "$SOCK"
refused python -m repro client MM --socket "$SOCK" --task-size 0
repro loadgen --socket "$SOCK" --clients 2 --requests 10
repro loadgen --socket "$SOCK" --clients 2 --requests 10 --mode open --rate 200
repro loadgen --socket "$SOCK" --clients 2 --requests 10 --threads
repro loadgen --socket "$SOCK" --clients 2 --requests 10000 --duration 1
repro top --socket "$SOCK" --plain --iterations 1
repro obs dump --socket "$SOCK" --recent 100 --out "$WORK/recent.json"
repro obs dump --socket "$SOCK"
repro obs export --socket "$SOCK"
repro obs export --socket "$SOCK" --prom
kill -USR1 "$SERVE"
sleep 1
kill -TERM "$SERVE"
wait "$SERVE" || echo "census: serve exited $?" >&2

# A 1-shard EDF daemon with an SLO, stopped by --duration.
SOCK="$WORK/edf.sock"
python -m repro serve --socket "$SOCK" --policy edf --duration 6 \
    --slo '[{"name": "p99", "metric": "serve.sim_latency.launch", "threshold_ms": 50}]' \
    >"$WORK/edf.log" 2>&1 &
SERVE=$!
wait_for "$SOCK"
repro loadgen --socket "$SOCK" --clients 2 --requests 20
wait "$SERVE" || echo "census: serve exited $?" >&2

for workload in trace_pair trace_nway_sliced serve_1shard serve_2shard; do
    for trace in 0 1; do
        run python3 benchmarks/e2e/run.py --workload "$workload" --seed 0 --seconds 2 --trace "$trace"
    done
done

# Tier-1, into its own records.
CENSUS_OUT="$OUT/tests" python -m pytest -q -p no:cacheprovider >"$OUT/tests.log" 2>&1 \
    || echo "census: tier-1 failed under the hook (see $OUT/tests.log)" >&2

CENSUS_OUT= python -m benchmarks.census.analyze "$OUT/workload" "$OUT/tests" >"$OUT/census.txt"
head -4 "$OUT/census.txt"
echo "records and the full list: $OUT"
