#!/usr/bin/env bash
# Repo check: lint (when ruff is available) + tier-1 test suite + the
# benchmark's self-tests.
#
# Usage: scripts/check.sh [--faults] [--degrade] [--serve] [--metrics]
#        [extra pytest args...]
#
#   --faults    additionally run a small fault-injection smoke campaign
#               (python -m repro faults) after the test suite.
#   --degrade   additionally run a degraded-mode smoke campaign: device
#               dropouts are injected and absorbed by repartitioning the
#               solve over the surviving GPUs (python -m repro faults
#               --degrade), with a simulated-time deadline armed.  The
#               campaign runs twice and the two JSON records must be
#               byte-identical (fault and degradation records replay).
#   --serve     additionally run a serving smoke: the plan-reuse CLI
#               (python -m repro serve, exits nonzero unless warm solves
#               are bit-identical to cold) plus a fault campaign, whose
#               trials share one solver session's structural plan.
#   --metrics   additionally run a metrics smoke: the instrumented
#               workload twice (python -m repro metrics --check, exits
#               nonzero unless the deterministic snapshot and timings
#               are bit-identical across the reruns).
set -euo pipefail

cd "$(dirname "$0")/.."

run_faults_smoke=0
run_degrade_smoke=0
run_serve_smoke=0
run_metrics_smoke=0
while [[ "${1:-}" == "--faults" || "${1:-}" == "--degrade" \
        || "${1:-}" == "--serve" || "${1:-}" == "--metrics" ]]; do
    case "$1" in
        --faults)  run_faults_smoke=1 ;;
        --degrade) run_degrade_smoke=1 ;;
        --serve)   run_serve_smoke=1 ;;
        --metrics) run_metrics_smoke=1 ;;
    esac
    shift
done

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== benchmark self-tests (perfbench) =="
python -m pytest perfbench -q

if [[ "$run_faults_smoke" == 1 ]]; then
    echo "== fault-injection smoke campaign =="
    PYTHONPATH=src python -m repro faults \
        --nx 16 --m 12 --s 4 --max-restarts 40 --trials 2 --rate 1e-3
fi

if [[ "$run_degrade_smoke" == 1 ]]; then
    echo "== degraded-mode smoke campaign (dropout -> repartition) =="
    # seed 3 at this rate draws a dropout of gpu0 on the second trial; with
    # --degrade the solve repartitions onto the surviving GPUs and still
    # converges.  The
    # generous deadline arms the watchdog without tripping it.  Two runs
    # must write byte-identical campaign records.
    replay_dir="$(mktemp -d)"
    trap 'rm -rf "$replay_dir"' EXIT
    for run in 1 2; do
        PYTHONPATH=src python -m repro faults \
            --nx 16 --m 12 --s 4 --max-restarts 40 --trials 2 --rate 2e-3 \
            --gpus 3 --kinds corrupt,poison,stall,dropout --degrade \
            --deadline 1.0 --seed 3 --out "$replay_dir/run$run"
    done
    cmp "$replay_dir"/run{1,2}/faults_ca_gmres_poisson2d_seed3.json
    echo "campaign records bit-identical across two runs"
fi

if [[ "$run_serve_smoke" == 1 ]]; then
    echo "== serving smoke (plan reuse, bit-identity enforced) =="
    PYTHONPATH=src python -m repro serve \
        --matrix poisson2d --nx 24 --gpus 2 --ordering kway \
        --s 4 --m 12 --basis monomial --rhs 3
    echo "== fault campaign on one session (one plan, all trials) =="
    PYTHONPATH=src python -m repro faults \
        --nx 16 --m 12 --s 4 --max-restarts 40 --trials 2 --rate 1e-3
fi

if [[ "$run_metrics_smoke" == 1 ]]; then
    echo "== metrics smoke (snapshot determinism enforced) =="
    PYTHONPATH=src python -m repro metrics --suite tiny --check
fi
