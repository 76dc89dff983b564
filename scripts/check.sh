#!/usr/bin/env bash
# CI-style gate: configure with warnings-as-errors, build everything, run
# the full ctest suite. Set CHECK_SANITIZE=1 for an ASan/UBSan build
# (separate build tree so it never pollutes the fast one).
#
#   scripts/check.sh                 # RelWithDebInfo, -Werror, ctest
#   CHECK_SANITIZE=1 scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-check
SANITIZE=OFF
if [ "${CHECK_SANITIZE:-0}" = "1" ]; then
  BUILD_DIR=build-asan
  SANITIZE=ON
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNADFS_WERROR=ON \
  -DNADFS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Event-core suites (event queue vs the retained reference heap oracle,
# slot reuse, EventFn lifetime coverage), the NIC-path timing indexes
# (egress command queue and GapServer vs their retained linear-scan / map
# references) and the hot-path allocation guard get an explicit focused
# rerun so a discovery hiccup can never silently skip them — these are the
# gate for event-order, timing and per-packet allocation regressions. Every
# focused rerun below passes --no-tests=error, so a regex that matches
# nothing (a renamed suite) fails the gate.
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -R 'SimQueueDifferential|EventQueue|EventFn|Determinism|EgressQueue|GapServer|HotPathAlloc'

# GF(2^8) kernel-tier matrix: rerun the EC suites under every tier the host
# actually supports. gf_kernel_probe reports which tier a forced value
# resolves to; a mismatch means the tier is unsupported here (or failed its
# startup self-check and fell down the ladder), so it is skipped with a
# notice rather than tested as a false positive.
PROBE="$BUILD_DIR/src/ec/gf_kernel_probe"
for tier in scalar word64 ssse3 avx2 gfni; do
  actual="$(NADFS_GF_KERNEL=$tier "$PROBE")"
  if [ "$actual" != "$tier" ]; then
    echo "NOTICE: GF kernel tier '$tier' unsupported on this host (resolves to '$actual'); skipping"
    continue
  fi
  echo "== EC test suites under NADFS_GF_KERNEL=$tier"
  NADFS_GF_KERNEL=$tier ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'Gf256|ReedSolomon|EcKernel|EcRoundTrip|EcDigestPin'
done

# Fault/chaos suites under two distinct chaos seeds: the seeded scenarios
# must hold (and self-digest identically across their internal double runs)
# for *any* seed, not just the default. The regular ctest pass above already
# ran them under seed 1; under CHECK_SANITIZE=1 this also puts the whole
# fault path (deadline events, AckTracker::take, Nic::cancel_read, recovery
# fallback) under ASan/UBSan. Failures print the fault counters.
for seed in 1 7; do
  echo "== chaos/fault suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'Chaos|ClientTimeout|FaultPlan|FaultNet|FailureDetector|Partition'
done

# Fabric partition chaos under both seeds (also covered by the loop above;
# this focused rerun exists so a discovery hiccup can never silently skip
# the split-brain gate), plus the single-switch digest pins: the Topology
# refactor must keep star runs bit-identical to the PR 5 recordings —
# Determinism.* carries the pinned digests and fails on any drift.
for seed in 1 7; do
  echo "== partition scenario + star digest pins under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'Partition|FabricNet|Topology|Determinism'
done

# Op-surface compliance + model-checked suites under both chaos seeds: the
# typed-error contract (create/delete/stat/append/list + extent primitives),
# striped ops (zero-length ops must answer too), the fan-in join every
# fanned-out op completes through, and the randomized oracle runs are the
# gate for the DFS op surface; the chaos loop above already covers the
# kill-mid-append and delete-during-rebuild scenarios under both seeds. The
# focused rerun here means a discovery hiccup can never silently skip the
# compliance suites.
for seed in 1 7; do
  echo "== op-surface compliance + model suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'DfsOps|DfsModel|WorkloadEngine|Zipf|Striping|OpJoin'
done

# Elasticity gates (DESIGN.md §3g): restart/rejoin, planned drain, and the
# background rebalancer run under both chaos seeds — every seeded scenario
# double-runs internally and must self-digest identically. This is the
# gate for the node lifecycle loop (alive -> failed -> restart -> alive).
for seed in 1 7; do
  echo "== elasticity suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'Elasticity|Rejoin|Drain'
done

# Storage-engine gates (DESIGN.md §3h): the backend factory + per-node
# selection, the Bε-tree flush/compaction/stall behaviour, and the
# equivalence suites (LineRate op-for-op vs the pre-engine model, Bε-tree
# vs flat oracle, randomized timing digests) under both chaos seeds.
for seed in 1 7; do
  echo "== storage-engine suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'StorageEngine|BetaTree|EngineEquivalence|Target'
done

# Storage-engine bench smoke: line-rate vs NVMM vs Bε-tree goodput sweep;
# the bench re-reads BENCH_storage_engine.json through the strict obs JSON
# parser and exits nonzero unless the betree knee is non-degenerate and
# attributable to compaction backlog (compact bytes + stall time grow past
# the knee).
echo "== storage-engine bench smoke (BENCH_storage_engine.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/storage_engine" > /dev/null)

# Elasticity bench smoke: time-to-rejoin, rebalance convergence and the
# rolling-restart goodput dip; the bench re-reads BENCH_elasticity.json
# through the strict obs JSON parser and fails on missing row families.
echo "== elasticity bench smoke (BENCH_elasticity.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/elasticity" > /dev/null)

# Workload-engine smoke: the goodput-vs-offered-load bench in smoke mode
# (2 variants, 3 sweep points). The bench re-reads BENCH_workloads.json
# through the strict obs JSON parser and exits nonzero when the report is
# malformed or missing its knee rows — the report format is a tested
# artifact, not a best-effort dump.
echo "== workload bench smoke (BENCH_workloads.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/workloads" > /dev/null)

# Observability gate: the trace-enabled kill-mid-EC-write chaos scenario
# (examples/chaos_trace) self-validates its span correlation and state-GC
# drain, then the exported artifacts must parse — the Perfetto trace and
# the metric snapshot as strict JSON, the timeseries as non-empty CSV.
echo "== trace-enabled chaos scenario + artifact validation"
OBS_DIR="$BUILD_DIR/obs-artifacts"
mkdir -p "$OBS_DIR"
(cd "$OBS_DIR" && "../examples/chaos_trace")
python3 - "$OBS_DIR" <<'EOF'
import json, os, re, sys
d = sys.argv[1]
for f in ("chaos_trace.json", "chaos_trace_metrics.json"):
    with open(os.path.join(d, f)) as fh:
        doc = json.load(fh)
    if f == "chaos_trace.json":
        assert doc["traceEvents"], "empty traceEvents"
    else:
        assert doc, "empty metric snapshot"
        metrics = doc
# One latency instrument: client op latency is a quantile sketch under the
# plain name (count + .s<i> sub-buckets), with no log2 .b<k> histogram keys
# and no second *_q sketch family.
assert not [k for k in metrics if re.search(r"\.b\d+$", k)], "log2 histogram keys present"
assert not [k for k in metrics if re.search(r"_q\.", k)], "duplicate _q sketch family present"
writers = [k[:-len(".count")] for k, v in metrics.items()
           if re.fullmatch(r"client\d+\.write_latency\.count", k) and v > 0]
assert writers, "no client write_latency samples"
for base in writers:
    assert any(re.fullmatch(re.escape(base) + r"\.s\d+", k) for k in metrics), \
        f"{base} has no sketch sub-buckets"
with open(os.path.join(d, "chaos_trace_timeseries.csv")) as fh:
    rows = fh.read().strip().splitlines()
assert len(rows) > 1 and rows[0].startswith("t_ns,"), "bad timeseries CSV"
print(f"obs artifacts OK: {len(rows)-1} samples, trace + metrics parse, "
      f"{len(writers)} client latency sketch(es)")
EOF

# Repo benchmark self-tests (perfbench/): builds the standalone driver into
# the check's build tree, runs one round of every BENCHMARK.json workload,
# and checks that every declared metric is printed with its unit, that one
# seed reproduces its simulated metrics exactly, and that a corrupted byte
# or a stale oracle fails the run.
echo "== perfbench self-tests"
CARGO_TARGET_DIR="$BUILD_DIR/perfbench" python3 perfbench/test_perfbench.py
