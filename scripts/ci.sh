#!/usr/bin/env bash
# CI entry point. Correctness is ctest's: every functional check, whole
# campaign/fuzz/traffic/heal runs and the difctl CLI contract included,
# runs in the tier-1 suite. Whole-run speed is perfbench's (interleaved
# A/B runs, see perfbench/README.md). On top of ctest this script runs:
#   - the tier-1 build (warnings are errors) + ctest;
#   - one fleet-size `difctl generate | difctl check` row (too slow to
#     parse for ctest);
#   - the bench_check and bench_scalability regression gates, right after
#     tier-1: their whole-run floors measure the machine as much as the
#     code, and the sanitizer builds below leave it loaded;
#   - a build-only Release configure (warnings are errors): GCC's -O3
#     warnings depend on inlining, so the tier-1 build does not see them;
#   - lint when clang-tidy is installed;
#   - the full ctest suite again under ASan+UBSan with internal invariant
#     asserts compiled in;
#   - a ThreadSanitizer pass over the concurrency-sensitive binaries.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: build + ctest =="
cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$ROOT/build" -j "$JOBS"
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

echo "== static check: one fleet-size generate | check row =="
DIFCTL="$ROOT/build/tools/difctl"
# One fleet-size row (1024 hosts x 2048 components, 32 regions,
# constraints): generated systems are clean by construction, so check must
# exit 0 even with --strict. The rules take ~0.1 s here; generating and
# parsing the ~160 MB description take the rest (~11 s in all).
"$DIFCTL" generate --hosts 1024 --components 2048 --seed 7 --regions 32 \
  --constraints 64 > "$ROOT/build/ci_gen_fleet.json"
"$DIFCTL" check "$ROOT/build/ci_gen_fleet.json" --strict > /dev/null
rm -f "$ROOT/build/ci_gen_fleet.json"

echo "== bench gate: analyzer/auditor throughput regression =="
# BENCH_check.json is the committed baseline (bench/bench_check.cpp).
# analyzer.runs_per_s is a whole-analyzer-run metric, and whole-run
# throughput on this single-core container swings with sustained load: the
# same binary that measures 91% of baseline on a quiet machine measured
# 59-78% when the gate ran after the ~25 min ASan/TSan build sequence
# (verified against an unmodified checkout, which failed its own gate at
# 59%). Gate it collapse-only at 0.5x, like the scalability gate below;
# everything else pinned here stays at the 0.9 microbenchmark bar.
if command -v python3 >/dev/null 2>&1 && [ -f "$ROOT/BENCH_check.json" ]; then
  "$ROOT/build/bench/bench_check" --iters 5 \
    --json "$ROOT/build/ci_bench_check.json" > /dev/null
  python3 - "$ROOT/BENCH_check.json" "$ROOT/build/ci_bench_check.json" <<'EOF'
import json, sys
baseline = json.load(open(sys.argv[1]))
current = json.load(open(sys.argv[2]))
assert current["schema"] == "dif-bench-v1", current.get("schema")
WHOLE_RUN = {"analyzer.runs_per_s"}
failed = []
for name in baseline["pinned"]:
    old = baseline["metrics"][name]["value"]
    new = current["metrics"][name]["value"]
    floor = 0.5 if name in WHOLE_RUN else 0.9
    print(f"{name}: baseline {old:.2f}, current {new:.2f} "
          f"({100 * new / old:.0f}%, floor {floor})")
    if new < floor * old:
        failed.append(name)
assert not failed, f"throughput regressed below floor on: {failed}"
print("bench gate OK")
EOF
else
  echo "python3 or BENCH_check.json missing; skipping bench gate"
fi

echo "== bench gate: fleet-scale scalability scorecard =="
# BENCH_scalability.json is the committed baseline (bench/bench_scalability.cpp).
# The smoke run covers the full sweep including the 1024x10240 frontier point.
# Pinned throughput gates collapse-only at 0.5x: on this container identical
# binaries measure 60-97% of their committed baselines depending on machine
# load (see the analyzer gate's control experiment), so a 0.9 bar flakes on
# environment, not code. The deterministic assertions carry the regression
# gate: every reopt.* figure (settle, warm and cold reruns all run under
# evaluation caps) must equal the baseline exactly, and warm re-optimization
# must beat the cold rerun on evaluations spent.
if command -v python3 >/dev/null 2>&1 && [ -f "$ROOT/BENCH_scalability.json" ]; then
  "$ROOT/build/bench/bench_scalability" --iters 3 \
    --json "$ROOT/build/ci_bench_scalability.json" > /dev/null 2>&1
  python3 - "$ROOT/BENCH_scalability.json" \
    "$ROOT/build/ci_bench_scalability.json" <<'EOF'
import json, sys
baseline = json.load(open(sys.argv[1]))
current = json.load(open(sys.argv[2]))
assert current["schema"] == "dif-bench-v1", current.get("schema")
failed = []
for name in baseline["pinned"]:
    old = baseline["metrics"][name]["value"]
    new = current["metrics"][name]["value"]
    print(f"{name}: baseline {old:.2f}, current {new:.2f} "
          f"({100 * new / old:.0f}%, floor 0.5)")
    if new < 0.5 * old:
        failed.append(name)
assert not failed, f"throughput collapsed below 0.5x baseline on: {failed}"
reopt = sorted(k for k in baseline["metrics"] if k.startswith("reopt."))
assert reopt, "baseline carries no reopt.* metrics"
drifted = [k for k in reopt
           if current["metrics"][k]["value"] != baseline["metrics"][k]["value"]]
for name in drifted:
    print(f"{name}: baseline {baseline['metrics'][name]['value']!r}, "
          f"current {current['metrics'][name]['value']!r}")
assert not drifted, f"deterministic reopt metrics drifted: {drifted}"
warm = current["metrics"]["reopt.warm_evaluations"]["value"]
cold = current["metrics"]["reopt.cold_evaluations"]["value"]
print(f"reopt: warm {warm:.0f} evals vs cold {cold:.0f} evals")
assert warm < cold, "warm re-optimization no cheaper than cold rerun"
print("scalability gate OK")
EOF
else
  echo "python3 or BENCH_scalability.json missing; skipping scalability gate"
fi

echo "== Release build: warnings are errors =="
# GCC 12 at -O3 prints -Wrestrict and -Wmaybe-uninitialized warnings that
# follow inlining decisions the RelWithDebInfo (-O2) build above never
# makes. Build only: the tier-1 ctest run carries correctness.
cmake -B "$ROOT/build-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$ROOT/build-release" -j "$JOBS"

echo "== lint: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "$ROOT/build" --target lint
else
  echo "clang-tidy not installed; skipping lint"
fi

echo "== ASan+UBSan: full test suite =="
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DDIF_SANITIZE=address,undefined -DDIF_ASSERTS=ON
cmake --build "$ROOT/build-asan" -j "$JOBS"
(cd "$ROOT/build-asan" && ctest --output-on-failure -j "$JOBS")

echo "== ThreadSanitizer: portfolio + txn effector =="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DDIF_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS" \
  --target test_portfolio test_txn_redeploy
"$ROOT/build-tsan/tests/test_portfolio"
"$ROOT/build-tsan/tests/test_txn_redeploy"

echo "CI OK"
