#!/bin/sh
# CI entry point: tier-1 correctness, the fault-injection smoke suite,
# and deterministic schedule exploration over a fixed seed matrix.
#
#   sh bench/ci.sh
#
# Every randomized stage names its seed, so any failure printed here
# can be reproduced verbatim with DETCHECK_SEED=<seed> or the
# `snet_detcheck replay` command embedded in the failure report.
# See TESTING.md for the full workflow.

set -eu
cd "$(dirname "$0")/.."

SEEDS="${DETCHECK_SEED_MATRIX:-1 42 31337}"

echo "== tier-1: dune build && dune runtest =="
dune build
dune runtest

echo "== in-process CLI solves =="
# One fig2 solve through the CLI on each in-process engine, so both
# values of --engine run end to end (the smokes below drive the CLI
# only through --workers). A second pair reads the easy puzzle with
# --file, written the way a puzzle file usually is: one 81-character
# line ending in a newline.
# A 16x16 puzzle, written as a plain number grid (0 for empty), goes
# through fig3 on both engines and once over two worker processes, so
# 16-bit option masks cross the wire through the int-ndarray codec;
# each of these runs must print a solution.
puzzle_file="$(mktemp)"
grid_file="$(mktemp)"
trap 'rm -f "$puzzle_file" "$grid_file"' EXIT
printf '%s\n' \
  530070000600195000098000060800060003400803001700020006060000280000419005000080079 \
  > "$puzzle_file"
cat > "$grid_file" <<'EOF'
4 15 0 10 0 12 5 6 13 9 2 1 16 7 3 11
14 12 5 6 13 0 2 1 16 0 3 0 0 15 8 10
0 9 2 1 16 0 3 11 4 0 8 10 0 12 5 6
16 0 3 11 4 15 0 10 14 12 5 0 0 9 2 1
15 8 0 0 12 5 0 13 9 2 1 16 7 0 11 4
12 5 0 13 9 2 1 16 7 3 11 4 15 8 0 14
0 0 1 0 7 3 11 0 0 8 10 14 12 5 6 0
0 3 11 4 15 0 10 14 12 5 0 13 0 2 1 16
0 0 14 12 0 0 13 9 2 0 16 7 3 11 4 15
5 6 13 9 2 1 0 7 3 0 4 15 8 0 14 12
2 1 0 7 3 11 4 0 8 0 14 12 0 6 13 9
3 11 4 0 8 10 14 12 5 6 13 9 2 1 16 0
10 14 12 5 6 13 9 2 1 0 7 0 11 0 0 8
6 13 9 2 1 0 7 3 11 4 15 8 10 14 12 5
1 16 0 3 11 0 0 8 10 0 12 5 6 13 9 2
11 0 15 0 10 0 12 0 6 0 0 2 1 16 7 0
EOF
solves() {
  out="$("$@")"
  case "$out" in
    *"solution:"*) ;;
    *) echo "no solution from: $*" >&2; exit 1 ;;
  esac
}
for engine in seq conc; do
  ./_build/default/bin/snet_sudoku.exe --network fig2 --puzzle easy \
    --engine "$engine" > /dev/null
  ./_build/default/bin/snet_sudoku.exe --network fig2 --file "$puzzle_file" \
    --engine "$engine" > /dev/null
  solves ./_build/default/bin/snet_sudoku.exe --network fig3 \
    --file "$grid_file" --engine "$engine"
done
solves ./_build/default/bin/snet_sudoku.exe --network fig3 --file "$grid_file" \
  --workers 2

echo "== fault-injection smoke =="
dune build @fault-smoke

echo "== in-process benchmark smoke =="
# Every bench/main.exe experiment that needs no socket or daemon at CI
# size: the paper's figures and sweeps, the kernels, the scheduler,
# the engines' and combinators' overheads and the supervision layer
# (faults' no-failure overhead bars: <= 10%).
dune build @bench-smoke

echo "== end-to-end benchmark smoke =="
# Every bench/e2e workload (fig2-solve, fig3-solve16, dist-stream,
# serve-journaled) for about a second, untraced and traced, with the
# output oracles on: an engine change that breaks a gated workload
# fails here rather than in a full benchmark run.
dune build @bench/e2e/smoke

echo "== observability smoke =="
# fig2/medium with tracing on vs off in paired interleaved rounds, a
# 2-worker loopback solve with cluster shipping on (merged trace
# validated in-run, shipping-on overhead bar: <= 2%), and the
# tracing-off overhead (bar: <= 2%) recorded into BENCH_obsv.json.
dune build @obsv-smoke

echo "== distribution smoke =="
# TCP-gated dist tests (real sockets), then, on its own so nothing
# else competes for the cores while it times, the dist benchmark
# smoke: wire codec throughput, the cut-edge overhead bar (loopback
# adds <= 50us/record over a bare in-process channel) and the batched
# amortized bar (<= 5us/record at batch >= 8), recorded into
# BENCH_dist.json. Tops off with two real multi-process solves: one
# with default envelope batching, one with batching forced off
# (--dist-batch 1) so the unbatched protocol path stays exercised.
dune build @dist-smoke
dune build @dist-bench-smoke
./_build/default/bin/snet_sudoku.exe --network fig2 --puzzle easy --workers 2 \
  > /dev/null
./_build/default/bin/snet_sudoku.exe --network fig2 --puzzle easy --workers 2 \
  --dist-batch 1 > /dev/null

echo "== real-process crash recovery =="
# A fig2 solve over two snet_worker processes whose worker 1 dies on
# the first record it receives (one puzzle sends worker 1 a single
# record, so 1:0 is the kill point that fires). Under --on-error
# retry:1 the coordinator respawns the process and resends, and the
# solve must still print a solution; under fail-fast the same kill
# must fail the run, which proves the kill fired.
solves ./_build/default/bin/snet_sudoku.exe --network fig2 --puzzle easy \
  --workers 2 --kill-worker 1:0 --on-error retry:1
if ./_build/default/bin/snet_sudoku.exe --network fig2 --puzzle easy \
  --workers 2 --kill-worker 1:0 > /dev/null 2>&1; then
  echo "fail-fast solve survived --kill-worker 1:0: the kill never fired" >&2
  exit 1
fi

echo "== serving smoke =="
# Socket-gated serve tests (the EINTR transport regression, real-TCP
# concurrent sessions, the HTTP gateway) plus the daemon load
# benchmark: the real snet_serve binary under 32 concurrent TCP
# sessions with the round-trip p99 bar (<= 100ms) enforced, then a
# SIGTERM with sessions still open that must drain cleanly (clients
# see Done, exit 0), recorded into BENCH_serve.json.
dune build @serve-smoke

echo "== durability smoke =="
# Durable test tier (journal fuzzing, the crash-point matrix over
# every journaling seam, real snet_serve SIGKILLed mid-stream and
# resumed from its journal) plus the durability benchmark: the
# partitioned fig2 solve bare vs journaled with the <= 10% overhead
# bar enforced, journal read + dedupe throughput and an end-to-end
# serve recovery replay, recorded into BENCH_durable.json.
dune build @durable-smoke

echo "== elasticity smoke =="
# Elastic test tier (planner units, balancer end-to-end runs, the
# 100+-schedule live-migration crash-point matrix) plus the
# rebalancing benchmark: the sharded reference net with a throttled
# hot partition, skewed vs balanced (at least one migration must
# fire, per-migration downtime bar <= 2s enforced, both runs
# multiset-checked against the sequential engine), recorded into
# BENCH_elastic.json. Tops off with a real multi-process sharded
# solve with the balancer attached.
dune build @elastic-smoke
./_build/default/bin/snet_sudoku.exe --network shard --shards 2 \
  --workers 4 --count 200 --rebalance > /dev/null

echo "== detcheck seed matrix: $SEEDS =="
dune build @detcheck   # default seed, exercises the alias itself
for seed in $SEEDS; do
  echo "-- detcheck suite, DETCHECK_SEED=$seed"
  DETCHECK_SEED="$seed" ./_build/default/test/main.exe test detcheck
  echo "-- oracle sweep, seed $seed"
  ./_build/default/bin/snet_detcheck.exe explore --class det \
    --seed "$seed" --nets 3 --schedules 40
  ./_build/default/bin/snet_detcheck.exe explore --class nondet \
    --seed "$seed" --nets 3 --schedules 40
done

echo "== ci.sh: all stages passed =="
