#!/bin/sh
# Local CI gate: mirrors .github/workflows/ci.yml.
set -eu
cd "$(dirname "$0")/.."

if git ls-files | grep -E '^_build/|\.install$'; then
  echo "error: build artifacts are tracked in git" >&2
  exit 1
fi

dune build
dune runtest

# The benchmark's own helpers (percentiles, quartiles, verdicts, spans).
python3 perfbench/test_run.py

# Benchmark correctness smoke: run.py exits 0 even when a workload's
# checks fail (monitor-clean, no shed update, SQL against the reference,
# determinism), so read the verdict off its last line.
for w in day overload alloc sql; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 7 --seconds 1 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) ;;
    *)
      echo "error: benchmark workload $w failed its checks: $last" >&2
      exit 1
      ;;
  esac
done

# Static plan verification: the shipped scenarios must be diagnostic-clean,
# and a deliberately corrupted allocation must be rejected.
dune build @lint
if dune exec bin/cdbs_cli.exe -- check -w quickstart --inject locality >/dev/null 2>&1; then
  echo "error: verifier accepted a corrupted allocation" >&2
  exit 1
fi

# Allocator smokes: the result must pass the allocation checker, and a
# -k placement must be k-safe (non-zero exit otherwise).
dune exec bin/cdbs_cli.exe -- allocate -w tpch -a memetic >/dev/null
dune exec bin/cdbs_cli.exe -- allocate -w tpcapp -k 1 >/dev/null

# Strict lint: scenarios that ship warning-free must stay that way
# (--strict turns warnings into a non-zero exit).
dune exec bin/cdbs_cli.exe -- check -w trace --strict
dune exec bin/cdbs_cli.exe -- check -w migration --strict

# Zone-annotated scenario: a domain-aware k=1 allocation on a 2-rack
# topology must pass the spread checks (ALC013/ALC014) warning-free.
dune exec bin/cdbs_cli.exe -- check -w zones --strict

# Protocol sanitizer: a monitored chaos run with the full defense stack
# must produce zero trace-protocol violations, and a deliberately
# corrupted event stream must be rejected for every injection kind.
dune exec bin/cdbs_cli.exe -- verify-trace --seed 7 -n 4 -k 1 \
  --duration 300 --rate 10 --json --strict
for inj in breaker-hop rejoin deadline down-serve split-brain \
  overlap-realloc cooldown-trigger rogue-rollback; do
  if dune exec bin/cdbs_cli.exe -- verify-trace --inject "$inj" >/dev/null 2>&1; then
    echo "error: monitor accepted a corrupted trace ($inj)" >&2
    exit 1
  fi
done

# Chaos smoke: a seeded fault schedule against a 1-safe allocation must
# keep availability at 1.0 (the run exits non-zero below the threshold).
dune exec bin/cdbs_cli.exe -- chaos --seed 7 -n 4 -k 1 --max-down 1 \
  --duration 300 --rate 10 --json --min-availability 1.0

# Partition smoke: the correlated stream injects network partitions and
# zone outages against a fault-domain-aware allocation; healed backends
# come back fenced until caught up, the monitor must stay clean and the
# spread placement must hold availability through the incidents.
dune exec bin/cdbs_cli.exe -- chaos --seed 5 -n 6 -k 1 --mtbf 600 \
  --zones 3 --correlated-mtbf 80 --partition-prob 1 --duration 300 \
  --rate 10 --monitor --json --min-availability 0.99

# Live-migration smoke: a throttled rebalance while serving must route
# every request, keep every class on a live replica and deploy the target
# placement (non-zero exit otherwise).
dune exec bin/cdbs_cli.exe -- migrate -n 4 -b 2 --at 150 --duration 300 \
  --rate 20

# Overload smoke: with one backend gray-failing (3x slower), the defended
# run must beat the undefended one (the built-in acceptance checks), keep
# p99 under the deadline-scale threshold and shed sparingly (non-zero
# exit on violation).
dune exec bin/cdbs_cli.exe -- overload --seed 11 -n 4 --rate 240 \
  --duration 120 --slow-factor 3 --deadline 1 --json \
  --max-p99-ms 950 --max-shed-rate 0.15

# Day-in-production smoke: the scaled-down 24h macro-benchmark (diurnal
# load, autoscaling, live migration, chaos, defenses) must hold the SLO
# with the protocol sanitizer attached and persist its BENCH_day.json
# report (non-zero exit on an SLO or monitor violation).
dune exec bin/cdbs_cli.exe -- day --smoke --monitor --json --out BENCH_day.json \
  --min-availability 0.99 --max-p99-ms 50 --max-shed-rate 0.01
test -s BENCH_day.json

# Drift smoke: the self-tuning control loop against an adversarial
# workload step-change must beat the static allocation on p99
# (--require-win), stay monitor-clean (unpaired rollbacks are TRC018
# violations) and persist its BENCH_drift.json report.
dune exec bin/cdbs_cli.exe -- autotune --smoke --monitor --require-win \
  --json --out BENCH_drift.json
test -s BENCH_drift.json

# Allocator scale smoke: 100k fragments x 50 backends through the dense
# greedy under a wall-clock gate, diagnostic-clean, with the O(delta)
# incremental-repair gate (a 1% workload delta may move at most 5% of
# the fragments) and a persisted BENCH_alloc.json.
dune exec bin/cdbs_cli.exe -- alloc --smoke --check --max-seconds 30 \
  --max-moved-frac 0.05 --json --out BENCH_alloc.json
test -s BENCH_alloc.json

echo "check: OK"
