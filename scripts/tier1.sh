#!/usr/bin/env bash
# Tier-1 gate: the standard build + full ctest run, a cohere_bench smoke
# run whose JSON is schema-validated and pushed through the
# bench_compare.py regression gate (self-compare must pass, an injected
# 50% latency inflation must fail), a SIMD kernel leg (the kernel-parity
# and golden-hash suites pinned to COHERE_SIMD=scalar and =avx2, plus a
# measured avx2-vs-scalar speedup gate over the kernel_scan bench series),
# a query-flight-recorder probe (the CLI's
# OpenMetrics exposition strict-parsed by check_openmetrics.py, the EXPLAIN
# profile round-tripped through json.load with phase counters summing to its
# totals, the query log drained as JSONL), then a ThreadSanitizer
# build that re-runs the concurrency-sensitive suites, then an
# UndefinedBehaviorSanitizer build that re-runs the numeric/metrics suites
# (the histogram binning paths cast doubles around; UBSan is the regression
# net for the non-finite-cast class of bug), then an AddressSanitizer build
# that re-runs the suites exercising the failure paths, and finally a
# fault-injection sweep: the robustness suite re-runs with each registered
# COHERE_FAULT point forced at probability 1.0, proving every documented
# failure outcome holds when its fault actually fires. Run from the repo
# root:
#
#   scripts/tier1.sh [build-dir] [tsan-build-dir] [ubsan-build-dir] [asan-build-dir]
#
# Set COHERE_SKIP_TSAN=1 / COHERE_SKIP_UBSAN=1 / COHERE_SKIP_ASAN=1 to skip
# a sanitizer stage (e.g. on toolchains or kernels where it is unavailable).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
TSAN_DIR="${2:-$ROOT/build-tsan}"
UBSAN_DIR="${3:-$ROOT/build-ubsan}"
ASAN_DIR="${4:-$ROOT/build-asan}"

echo "==> tier-1: standard build"
cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "==> tier-1: full test suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "==> tier-1: benchmark smoke suite + regression-gate self-check"
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
"$BUILD_DIR/tools/cohere_bench" --suite smoke --out "$BENCH_TMP/BENCH_smoke.json"
python3 "$ROOT/scripts/bench_compare.py" --validate "$BENCH_TMP/BENCH_smoke.json"
# A document must never regress against itself...
python3 "$ROOT/scripts/bench_compare.py" \
  "$BENCH_TMP/BENCH_smoke.json" "$BENCH_TMP/BENCH_smoke.json"
# ...and a 50% latency inflation must trip the gate (exit 1).
python3 - "$BENCH_TMP/BENCH_smoke.json" "$BENCH_TMP/BENCH_inflated.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for series in doc["series"]:
    for field in ("mean", "p50", "p95", "p99"):
        series["latency_us"][field] *= 1.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
if python3 "$ROOT/scripts/bench_compare.py" \
    "$BENCH_TMP/BENCH_smoke.json" "$BENCH_TMP/BENCH_inflated.json" >/dev/null; then
  echo "ERROR: bench_compare did not flag a 50% latency inflation" >&2
  exit 1
fi
# ...and a zeroed OLD latency must not bypass the gate: the --floor-us
# denominator floor turns OLD p50 == 0 vs a real NEW latency into a
# regression, while 0-vs-0 still compares clean.
python3 - "$BENCH_TMP/BENCH_smoke.json" "$BENCH_TMP/BENCH_zero_old.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for series in doc["series"]:
    if series["gate"]:
        series["latency_us"]["p50"] = 0.0
        series["latency_us"]["mean"] = 0.0
json.dump(doc, open(sys.argv[2], "w"))
EOF
if python3 "$ROOT/scripts/bench_compare.py" \
    "$BENCH_TMP/BENCH_zero_old.json" "$BENCH_TMP/BENCH_smoke.json" >/dev/null; then
  echo "ERROR: bench_compare passed gated series whose OLD p50 was zero" >&2
  exit 1
fi
python3 "$ROOT/scripts/bench_compare.py" \
  "$BENCH_TMP/BENCH_zero_old.json" "$BENCH_TMP/BENCH_zero_old.json" >/dev/null
# The cached Zipf series must beat the cold one by >=5x at p50 — the
# end-to-end proof that the result cache actually serves repeat queries.
python3 - "$BENCH_TMP/BENCH_smoke.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
p50 = {s["name"]: s["latency_us"]["p50"] for s in doc["series"]}
cold = p50["synthetic.kd_tree.d8.k4.zipf_cold.serial"]
cached = p50["synthetic.kd_tree.d8.k4.zipf_cached.serial"]
speedup = cold / max(cached, 1e-9)
print(f"zipf cache speedup: {speedup:.1f}x (cold {cold}us, cached {cached}us)")
if speedup < 5.0:
    sys.exit("ERROR: cached Zipf series is not >=5x faster than cold")
EOF
echo "==> tier-1: bench gate OK (self-compare clean, inflation + zero-floor flagged)"

echo "==> tier-1: SIMD kernel leg (forced dispatch levels + speedup gate)"
# The kernel-parity and golden-hash suites re-run with the dispatch level
# pinned through the COHERE_SIMD override: scalar always, avx2 when this
# CPU has it (graceful skip otherwise — the suites' own level loops already
# clamp to DetectedLevel). The serving pins must hold bit-for-bit however
# the process-wide default resolves.
KERNEL_FILTER='*Kernel*:*Simd*:*Golden*'
COHERE_SIMD=scalar "$BUILD_DIR/tests/simd_tests" --gtest_brief=1
COHERE_SIMD=scalar "$BUILD_DIR/tests/core_tests" \
  --gtest_filter="$KERNEL_FILTER" --gtest_brief=1
if grep -qw avx2 /proc/cpuinfo 2>/dev/null \
    && grep -qw fma /proc/cpuinfo 2>/dev/null; then
  COHERE_SIMD=avx2 "$BUILD_DIR/tests/simd_tests" --gtest_brief=1
  COHERE_SIMD=avx2 "$BUILD_DIR/tests/core_tests" \
    --gtest_filter="$KERNEL_FILTER" --gtest_brief=1
  # Measured-speedup gate: the smoke document's kernel_scan series time the
  # same blocked-L2 scan per dispatch level; avx2 must actually beat scalar.
  # The bar is 1.3x, not the naive 4x: the scalar oracle TU is itself
  # auto-vectorized 2-wide by the compiler (legal — across-row vectorization
  # preserves per-lane accumulation order), and the bit-exactness contract
  # forbids the reassociation that would widen the gap, so the structural
  # ceiling is ~2x and measured runs land around 1.45x. 1.3x is far above
  # run-to-run noise while never flaking on an honest build.
  python3 - "$BENCH_TMP/BENCH_smoke.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
p50 = {s["name"]: s["latency_us"]["p50"] for s in doc["series"]}
scalar = p50.get("kernel_scan.l2.scalar")
avx2 = p50.get("kernel_scan.l2.avx2")
assert scalar is not None and avx2 is not None, "kernel_scan series missing"
speedup = scalar / max(avx2, 1e-9)
print(f"kernel_scan avx2 speedup: {speedup:.2f}x "
      f"(scalar {scalar}us, avx2 {avx2}us)")
if speedup < 1.3:
    sys.exit("ERROR: blocked avx2 kernel is not >=1.3x faster than scalar")
EOF
  echo "==> tier-1: kernel leg OK (parity + goldens at scalar/avx2, speedup gated)"
else
  echo "==> tier-1: avx2 kernel leg skipped (CPU lacks avx2+fma)"
fi

echo "==> tier-1: query flight recorder (openmetrics + explain + query log)"
# The CLI is the end-to-end probe for the whole recorder: one engine build
# and one query emit (a) a strict OpenMetrics exposition, (b) an EXPLAIN
# profile whose phase counters sum to its totals, and (c) a JSONL query log.
printf '1.0,2.0,3.5\n2.0,2.5,3.0\n0.5,1.5,4.0\n3.0,2.0,2.5\n1.5,2.2,3.1\n' \
  > "$BENCH_TMP/flight.csv"
"$BUILD_DIR/tools/cohere_cli" query "$BENCH_TMP/flight.csv" --row 0 --k 2 \
  --cache-budget 65536 \
  --explain --explain-out "$BENCH_TMP/explain.json" \
  --query-log "$BENCH_TMP/queries.jsonl" \
  --metrics openmetrics --metrics-out "$BENCH_TMP/metrics.om" >/dev/null
python3 "$ROOT/scripts/check_openmetrics.py" "$BENCH_TMP/metrics.om"
# The same query through TryQuery (admission on) must capture a profile too.
"$BUILD_DIR/tools/cohere_cli" query "$BENCH_TMP/flight.csv" --row 0 --k 2 \
  --admission --explain --explain-out "$BENCH_TMP/explain_admission.json" \
  >/dev/null
python3 - "$BENCH_TMP/queries.jsonl" \
    "$BENCH_TMP/explain.json" "$BENCH_TMP/explain_admission.json" <<'EOF'
import json, sys
for path in sys.argv[2:]:
    profile = json.load(open(path))  # must round-trip as strict JSON
    for key in ("scope", "totals", "phases", "latency_us", "cache_hit"):
        assert key in profile, f"{path}: explain profile missing {key!r}"
    for counter in ("distance_evaluations", "nodes_visited",
                    "candidates_refined"):
        total = profile["totals"][counter]
        phase_sum = sum(p[counter] for p in profile["phases"])
        assert phase_sum == total, (
            f"{path}: explain {counter}: phases sum to {phase_sum}, "
            f"totals say {total}")
events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
assert events, "query log is empty"
for event in events:
    for key in ("scope", "sequence", "latency_us", "distance_evaluations"):
        assert key in event, f"query-log event missing {key!r}"
print(f"flight recorder OK: explain phases sum to totals with and without "
      f"admission, {len(events)} query-log events")
EOF
echo "==> tier-1: flight recorder OK (openmetrics strict-parsed, explain sums, log drained)"

echo "==> tier-1: loadgen overload smoke (admission accounting + tail latency)"
# Closed-loop overload: 8 threads against 1 slot + 2 queue entries forces
# real shedding. The binary self-checks the accounting invariant (exit 1 on
# any mismatch); the asserts below re-check it from the emitted JSON and pin
# the serving promise — admitted queries finish inside their deadline
# budget (2x slack for scheduler noise), and overload actually shed load.
"$BUILD_DIR/tools/cohere_loadgen" --threads 8 --queries 100 \
  --max-concurrency 1 --max-queue 2 --deadline-us 300 \
  --out "$BENCH_TMP/BENCH_loadgen.json" >/dev/null
python3 "$ROOT/scripts/bench_compare.py" --validate "$BENCH_TMP/BENCH_loadgen.json"
python3 - "$BENCH_TMP/BENCH_loadgen.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["series"], "loadgen emitted no series"
total_shed = 0
for series in doc["series"]:
    adm = series["admission"]
    name = series["name"]
    offered = adm["offered"]
    assert offered == adm["admitted"] + adm["shed"] + adm["rejected"], (
        f"{name}: offered {offered} != admitted {adm['admitted']} + "
        f"shed {adm['shed']} + rejected {adm['rejected']}")
    assert offered == series["queries"], (
        f"{name}: offered {offered} != issued {series['queries']}")
    p99 = series["latency_us"]["p99"]
    budget = 2.0 * adm["deadline_us"]
    assert p99 <= budget, (
        f"{name}: admitted p99 {p99}us blew the deadline budget {budget}us")
    total_shed += adm["shed"] + adm["rejected"]
print(f"loadgen OK: invariant exact on {len(doc['series'])} series, "
      f"{total_shed} queries shed/rejected under overload")
assert total_shed > 0, "overload run shed nothing: knobs no longer overload"
EOF
# Brownout-to-blackout sweep: with core.admission.shed forced at p=1.0
# every arrival is shed — the harness must degrade (zero goodput, exact
# accounting, exit 0), never hang or crash. The schema validator is skipped
# here: an all-shed run legitimately has an empty latency distribution.
COHERE_FAULT=core.admission.shed:1.0 "$BUILD_DIR/tools/cohere_loadgen" \
  --threads 4 --queries 32 --inserts 0 \
  --out "$BENCH_TMP/BENCH_loadgen_shed.json" >/dev/null
python3 - "$BENCH_TMP/BENCH_loadgen_shed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for series in doc["series"]:
    adm = series["admission"]
    assert adm["admitted"] == 0, f"{series['name']}: fault run admitted queries"
    assert adm["offered"] == adm["shed"], (
        f"{series['name']}: offered {adm['offered']} != shed {adm['shed']}")
print("loadgen all-shed fault run OK: degraded cleanly, accounting exact")
EOF
echo "==> tier-1: loadgen OK (invariant exact, p99 within budget, all-shed degrades)"

if [[ "${COHERE_SKIP_TSAN:-0}" == "1" ]]; then
  echo "==> tier-1: TSAN stage skipped (COHERE_SKIP_TSAN=1)"
else
  echo "==> tier-1: ThreadSanitizer build"
  cmake -B "$TSAN_DIR" -S "$ROOT" -DCOHERE_SANITIZE=thread \
    -DCOHERE_BUILD_BENCHMARKS=OFF >/dev/null
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target common_tests index_tests \
    linalg_tests stats_tests reduction_tests core_tests obs_tests cache_tests

  echo "==> tier-1: parallel suites under TSAN"
  "$TSAN_DIR/tests/common_tests" --gtest_filter='Parallel*'
  "$TSAN_DIR/tests/index_tests" --gtest_filter='QueryBatch*'
  # The whole cache binary is concurrency-sensitive (lock-striped shards,
  # lossy frequency buffer, manager rebalance), so run it unfiltered.
  "$TSAN_DIR/tests/cache_tests"
  "$TSAN_DIR/tests/linalg_tests" --gtest_filter='MatrixParallelTest*'
  "$TSAN_DIR/tests/stats_tests" --gtest_filter='CovarianceParallelTest*'
  "$TSAN_DIR/tests/reduction_tests" --gtest_filter='CoherenceParallelTest*'
  # scripts/tsan.supp masks the libstdc++ atomic<shared_ptr> false positive
  # (GCC PR 101761) that the snapshot handle would otherwise trip.
  TSAN_OPTIONS="suppressions=$ROOT/scripts/tsan.supp ${TSAN_OPTIONS:-}" \
    "$TSAN_DIR/tests/core_tests" \
    --gtest_filter='EngineTest.QueryBatch*:EngineTest.NumThreads*:Serving*'
  "$TSAN_DIR/tests/obs_tests" --gtest_filter='*Concurrent*'
fi

if [[ "${COHERE_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "==> tier-1: UBSAN stage skipped (COHERE_SKIP_UBSAN=1)"
else
  echo "==> tier-1: UndefinedBehaviorSanitizer build"
  cmake -B "$UBSAN_DIR" -S "$ROOT" -DCOHERE_SANITIZE=undefined \
    -DCOHERE_BUILD_BENCHMARKS=OFF >/dev/null
  cmake --build "$UBSAN_DIR" -j "$(nproc)" --target stats_tests obs_tests \
    simd_tests cluster_tests

  echo "==> tier-1: stats + obs + simd + projected-clustering suites under UBSAN"
  "$UBSAN_DIR/tests/stats_tests"
  "$UBSAN_DIR/tests/obs_tests"
  # The kernel suite feeds denormals/inf/NaN through every vector path;
  # UBSan would flag any misaligned load or bad pointer arithmetic there.
  "$UBSAN_DIR/tests/simd_tests"
  # The projected clustering indexes its d x d moment and l x d basis
  # buffers by hand.
  "$UBSAN_DIR/tests/cluster_tests" --gtest_filter='ProjectedClustering*'
fi

if [[ "${COHERE_SKIP_ASAN:-0}" == "1" ]]; then
  echo "==> tier-1: ASAN stage skipped (COHERE_SKIP_ASAN=1)"
else
  echo "==> tier-1: AddressSanitizer build"
  cmake -B "$ASAN_DIR" -S "$ROOT" -DCOHERE_SANITIZE=address \
    -DCOHERE_BUILD_BENCHMARKS=OFF >/dev/null
  cmake --build "$ASAN_DIR" -j "$(nproc)" --target common_tests core_tests \
    reduction_tests integration_tests simd_tests linalg_tests cluster_tests

  echo "==> tier-1: failure-path suites under ASAN"
  "$ASAN_DIR/tests/common_tests" --gtest_filter='Fault*:Parallel*'
  "$ASAN_DIR/tests/core_tests" --gtest_filter='DynamicEngine*:ServingAppend*'
  "$ASAN_DIR/tests/reduction_tests" --gtest_filter='Pipeline*'
  "$ASAN_DIR/tests/integration_tests"
  # Aligned-load coverage: the block kernels read row tails, and nothing
  # may read at or past a BlockedMatrix's rows(); ASan proves no kernel
  # reads past an exact-size allocation.
  "$ASAN_DIR/tests/simd_tests"
  "$ASAN_DIR/tests/linalg_tests" --gtest_filter='BlockedMatrix*'
  # Hand-indexed d x d and l x d buffers: the projected clustering's merged
  # moments and blocked projections, and the eigensolver's values-only path.
  "$ASAN_DIR/tests/cluster_tests" --gtest_filter='ProjectedClustering*'
  "$ASAN_DIR/tests/linalg_tests" --gtest_filter='SymmetricEigen*'
fi

echo "==> tier-1: fault-injection sweep (each point at probability 1.0)"
# The robustness suite documents one outcome per fault point; sweeping each
# point armed unconditionally proves those outcomes hold when the fault
# really fires, not just in the targeted Arm()-based tests.
#
# parallel.dispatch and core.snapshot.publish are special-cased: at p=1.0
# the former poisons *every* pooled region and the latter fails *every*
# replacement snapshot publish (insert/refit/rebuild) in the process, so
# only the FaultMatrix tests (which disarm in their fixture before touching
# those paths) can run under them.
ROBUSTNESS_FILTER='RobustnessTest.*:PipelinePropertyTest.*'
ROBUSTNESS_FILTER+=':SerializationIntegrationTest.*:FaultMatrix*'
FAULT_POINTS=(
  linalg.symmetric_eigen.converge linalg.jacobi_eigen.converge
  linalg.power_iteration.converge linalg.svd.converge
  data.loader.io reduction.fit.primary dynamic_index.refit
  parallel.dispatch core.snapshot.publish cache.insert.pressure
  core.admission.shed
)
for point in "${FAULT_POINTS[@]}"; do
  filter="$ROBUSTNESS_FILTER"
  if [[ "$point" == "parallel.dispatch" || "$point" == "core.snapshot.publish" ]]; then
    filter='FaultMatrix*'
  fi
  echo "==> tier-1: sweep COHERE_FAULT=$point:1.0"
  COHERE_FAULT="$point:1.0" "$BUILD_DIR/tests/integration_tests" \
    --gtest_filter="$filter" --gtest_brief=1
done

echo "==> tier-1: all stages passed"
