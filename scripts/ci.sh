#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, lint (when clang-tidy is
# installed), the full suite again under ASan+UBSan with internal invariant
# asserts compiled in, a ThreadSanitizer pass over the concurrency-sensitive
# binaries, and a `difctl generate | difctl check` round trip across seeds.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: build + ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

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

echo "== static check round trip: generate | check =="
DIFCTL="$ROOT/build/tools/difctl"
for seed in 1 2 3 5 8 13; do
  "$DIFCTL" generate --hosts 6 --components 16 --seed "$seed" \
    --constraints 4 > "$ROOT/build/ci_gen_$seed.json"
  "$DIFCTL" check "$ROOT/build/ci_gen_$seed.json" > /dev/null
done
# One fleet-size row (1024 hosts x 2048 components, 32 regions,
# constraints): generated systems are clean by construction, so check must
# exit 0 even with --strict. The rules take ~0.1 s here; generating and
# parsing the ~160 MB description take the rest (~11 s in all).
"$DIFCTL" generate --hosts 1024 --components 2048 --seed 7 --regions 32 \
  --constraints 64 > "$ROOT/build/ci_gen_fleet.json"
"$DIFCTL" check "$ROOT/build/ci_gen_fleet.json" --strict > /dev/null
rm -f "$ROOT/build/ci_gen_fleet.json"

echo "== metrics smoke: simulate + schema/invariant check =="
if command -v python3 >/dev/null 2>&1; then
  "$DIFCTL" generate --hosts 6 --components 18 --seed 7 \
    > "$ROOT/build/ci_sim_system.json"
  # Exit 3 = the run finished but some redeployment round aborted or rolled
  # back — fine for a smoke test; only real failures (1/2) should stop CI.
  "$DIFCTL" simulate "$ROOT/build/ci_sim_system.json" \
    --duration-ms 60000 --interval-ms 3000 --seed 7 \
    --metrics-json "$ROOT/build/ci_sim_metrics.json" \
    --trace-json "$ROOT/build/ci_sim_trace.json" > /dev/null \
    || [ $? -eq 3 ]
  python3 - "$ROOT/build/ci_sim_metrics.json" "$ROOT/build/ci_sim_trace.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
trace = json.load(open(sys.argv[2]))
assert metrics["schema"] == "dif-metrics-v1", metrics.get("schema")
assert trace["schema"] == "dif-trace-v1", trace.get("schema")
for key in ("counters", "gauges", "histograms"):
    assert key in metrics, f"metrics missing {key!r}"
c = metrics["counters"]
assert c.get("net.sent", 0) > 0, "no traffic recorded"
assert c.get("net.delivered", 0) + c.get("net.dropped", 0) + \
    c.get("net.unroutable", 0) <= c["net.sent"], "conservation violated"
spans = [e for e in trace["events"] if e["name"] == "deploy.redeploy"]
assert spans, "no deploy.redeploy spans in trace"
for s in spans:
    for field in ("epoch", "moves_requested"):
        assert field in s["fields"], f"span missing {field!r}"
closed = [s for s in spans if "success" in s["fields"]]
assert closed, "no completed deploy.redeploy span"
for s in closed:
    assert "migrations" in s["fields"], "closed span missing migrations"
ticks = [e for e in trace["events"] if e["name"] == "loop.tick"]
assert len(ticks) == c.get("loop.ticks"), "tick spans != tick counter"
print(f"metrics smoke OK: {len(c)} counters, {len(spans)} redeploy "
      f"spans, {len(ticks)} ticks")
EOF
else
  echo "python3 not installed; skipping metrics smoke"
fi

echo "== campaign smoke: seeded fault injection, determinism + schema =="
"$DIFCTL" campaign --seeds 0..7 --scenario mixed \
  --json "$ROOT/build/ci_campaign_a.json" > /dev/null || [ $? -eq 3 ]
"$DIFCTL" campaign --seeds 0..7 --scenario mixed \
  --json "$ROOT/build/ci_campaign_b.json" > /dev/null || [ $? -eq 3 ]
cmp "$ROOT/build/ci_campaign_a.json" "$ROOT/build/ci_campaign_b.json" \
  || { echo "campaign report not deterministic"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_campaign_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dif-campaign-v1", report.get("schema")
assert report["ok"] is True, "campaign reported not-ok"
assert report["total_violations"] == 0, report["total_violations"]
assert report["total_runs"] == len(report["runs"]) == 16, report["total_runs"]
assert report["modes"] == ["centralized", "decentralized"]
for run in report["runs"]:
    assert run["violations"] == [], run["violations"]
    assert run["mode"] in ("centralized", "decentralized")
    net = run["net"]
    assert net["delivered"] + net["dropped"] + net["unroutable"] \
        <= net["sent"], "conservation violated"
    assert sum(l["dropped"] for l in net["dropped_links"]) == net["dropped"]
    assert run["availability"]["final"] > 0.0
    adapt = run["adaptation"]
    expect = {"redeployments", "final_epoch", "stale_acks", "txn"} \
        if run["mode"] == "centralized" else {"migrations"}
    assert set(adapt) == expect, adapt
    if run["mode"] == "centralized":
        outcomes = {"committed", "aborted", "rolled_back", "partial",
                    "rollback_failed", "crashed"}
        assert set(adapt["txn"]) == outcomes, adapt["txn"]
print(f"campaign smoke OK: {report['total_runs']} runs, 0 violations")
EOF
else
  echo "python3 not installed; skipping campaign schema check"
fi

echo "== chaos under redeploy: midmigration atomicity + determinism =="
# The midmigration scenario injects partitions and crashes squarely inside
# the redeployment window, forcing the two-phase effector through its
# abort/rollback paths. The atomicity invariant (and the other five) must
# hold on every seed, and each report must be byte-identical across runs.
"$DIFCTL" campaign --seeds 0..4 --scenario midmigration --centralized \
  --json "$ROOT/build/ci_midmig_a.json" > /dev/null || [ $? -eq 3 ]
"$DIFCTL" campaign --seeds 0..4 --scenario midmigration --centralized \
  --json "$ROOT/build/ci_midmig_b.json" > /dev/null || [ $? -eq 3 ]
cmp "$ROOT/build/ci_midmig_a.json" "$ROOT/build/ci_midmig_b.json" \
  || { echo "midmigration campaign report not deterministic"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_midmig_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"] is True, "midmigration campaign reported not-ok"
assert report["total_runs"] == 5, report["total_runs"]
rounds = 0
for run in report["runs"]:
    assert run["violations"] == [], run["violations"]
    rounds += sum(run["adaptation"]["txn"].values())
assert rounds > 0, "no transactional rounds ran under midmigration chaos"
print(f"midmigration smoke OK: {rounds} rounds, atomicity held on "
      f"{report['total_runs']} seeds")
EOF
else
  echo "python3 not installed; skipping midmigration schema check"
fi

echo "== fuzz smoke: protocol fuzzer, determinism + invariant oracle =="
# A fixed seed block of fuzzed centralized campaigns: the interceptor
# drops/delays/duplicates/reorders redeployment and custody control-plane
# messages, and all seven campaign invariants must still hold. Reports must
# be byte-identical across runs (the shrinker depends on that replay).
# Seeds 0..4 are the pinned green corpus; seed 5 is a known-bad seed (a
# torn placement under rollback-phase drop+reorder, kept as the shrinker
# demonstration — see docs/fuzzing.md) and stays out of the smoke. It is
# asserted as an expected failure by FuzzRegression.
# KnownBadSeedFiveTornPlacementShrinksOnBug in tests/test_fuzz.cpp, which
# also pins the shrinker's same-invariant accept contract.
"$DIFCTL" fuzz --seed 0 --rounds 5 \
  --json "$ROOT/build/ci_fuzz_a.json" > /dev/null
"$DIFCTL" fuzz --seed 0 --rounds 5 \
  --json "$ROOT/build/ci_fuzz_b.json" > /dev/null
cmp "$ROOT/build/ci_fuzz_a.json" "$ROOT/build/ci_fuzz_b.json" \
  || { echo "fuzz report not deterministic"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_fuzz_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dif-fuzz-v1", report.get("schema")
assert report["ok"] is True, "fuzz campaign reported not-ok"
assert report["total_violations"] == 0, report["total_violations"]
assert len(report["runs"]) == 5, len(report["runs"])
assert report["total_mutations"] > 0, "fuzzer applied no mutations"
kinds, events = set(), set()
for run in report["runs"]:
    assert run["failed"] is False, run["seed"]
    assert run["report"]["violations"] == [], run["report"]["violations"]
    assert run["targeted"] > 0, "no control-plane messages intercepted"
    assert run["mutation_count"] == len(run["mutations"])
    net = run["report"]["net"]
    assert net["delivered"] + net["dropped"] + net["unroutable"] \
        <= net["sent"], "conservation violated under fuzzing"
    # Fuzz drops of locally-delivered messages are not link-charged, so
    # per-link shares may undershoot (never overshoot) the global count.
    assert sum(l["dropped"] for l in net["dropped_links"]) <= net["dropped"]
    for m in run["mutations"]:
        kinds.add(m["kind"])
        events.add(m["event"])
assert kinds == {"drop", "delay", "duplicate", "reorder"}, kinds
assert "__migration_ack" in events and "__component_transfer" in events, \
    sorted(events)
print(f"fuzz smoke OK: {len(report['runs'])} rounds, "
      f"{report['total_mutations']} mutations, 0 violations")
EOF
else
  echo "python3 not installed; skipping fuzz schema check"
fi

echo "== audit smoke: generate | portfolio | audit round trip + schema =="
# The artifact auditor must accept what the framework itself produces: a
# generated model's portfolio-improved placement audits clean (warnings
# are advisory), and the dif-audit-v1 report carries provable SPOF
# witnesses naming real model hosts.
"$DIFCTL" generate --hosts 6 --components 16 --seed 3 --constraints 4 \
  --regions 2 > "$ROOT/build/ci_audit_system.json"
"$DIFCTL" portfolio "$ROOT/build/ci_audit_system.json" \
  > "$ROOT/build/ci_audit_best.json" 2> /dev/null
"$DIFCTL" audit "$ROOT/build/ci_audit_best.json" > /dev/null \
  || { echo "audit rejected a portfolio-improved placement"; exit 1; }
"$DIFCTL" audit "$ROOT/build/ci_audit_system.json" --resilience-k 1 --json \
  > "$ROOT/build/ci_audit_report.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_audit_report.json" \
    "$ROOT/build/ci_audit_system.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
system = json.load(open(sys.argv[2]))
assert report["schema"] == "dif-audit-v1", report.get("schema")
assert report["ok"] is True and report["errors"] == 0, report
hosts = {h["name"] for h in system["hosts"]}
spofs = [d for d in report["resilience"]["diagnostics"]
         if d["rule"] == "resilience-spof"]
assert spofs, "no resilience-spof finding on an unreplicated model"
for d in spofs:
    assert d["witness"], f"spof without witness: {d}"
    assert set(d["witness"]) <= hosts, d["witness"]
regions = [d for d in report["resilience"]["diagnostics"]
           if d["rule"] == "resilience-region"]
assert regions, "no resilience-region finding on a 2-region model"
print(f"audit smoke OK: {len(spofs)} spof witnesses, "
      f"{len(regions)} region findings, 0 errors")
EOF
else
  echo "python3 not installed; skipping audit schema check"
fi

echo "== traffic smoke: pinned-seed determinism + schema =="
# `difctl traffic` must emit a byte-identical dif-traffic-v1 report across
# same-seed runs (the report is the determinism contract; the raw metrics
# registry is not byte-stable because it includes wall-clock histograms).
# Exit 3 = the run finished but the SLO was breached or a round rolled
# back — fine for a smoke test; only real failures (1/2) should stop CI.
"$DIFCTL" traffic --hosts 6 --components 18 --seed 7 --duration-ms 30000 \
  --json "$ROOT/build/ci_traffic_a.json" > /dev/null || [ $? -eq 3 ]
"$DIFCTL" traffic --hosts 6 --components 18 --seed 7 --duration-ms 30000 \
  --json "$ROOT/build/ci_traffic_b.json" > /dev/null || [ $? -eq 3 ]
cmp "$ROOT/build/ci_traffic_a.json" "$ROOT/build/ci_traffic_b.json" \
  || { echo "traffic report not deterministic"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_traffic_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dif-traffic-v1", report.get("schema")
totals = report["totals"]
assert totals["offered"] > 0, "no requests offered"
assert totals["offered"] == totals["completed"] + totals["failed"] + \
    totals["shed"], "request conservation violated"
assert 0.0 <= totals["availability"] <= 1.0, totals["availability"]
tenants = report["tenants"]
assert set(tenants) == {"t0", "t1"}, sorted(tenants)
for tag, t in tenants.items():
    assert t["offered"] == t["completed"] + t["failed"] + t["shed"], tag
failures = report["failures"]
assert sum(failures.values()) == totals["failed"], failures
assert set(failures) == {"no_path", "partitioned", "host_down",
                         "migrating", "timeout"}, sorted(failures)
rk = report["ratekeeper"]
for key in ("slo_violation_ms", "max_level_reached", "shed_actions"):
    assert key in rk, f"ratekeeper missing {key!r}"
assert report["deployer"]["rounds"] > 0, "no redeployment rounds ran"
print(f"traffic smoke OK: {totals['offered']} offered, "
      f"availability {totals['availability']:.4f}, "
      f"{report['deployer']['committed']} rounds committed")
EOF
else
  echo "python3 not installed; skipping traffic schema check"
fi

echo "== bench gate: analyzer/auditor throughput regression =="
# BENCH_check.json is the committed baseline (bench/bench_check.cpp).
# analyzer.runs_per_s is a whole-analyzer-run metric, and whole-run
# throughput on this single-core container swings with sustained load: the
# same binary that measures 91% of baseline on a quiet machine measured
# 59-78% when the gate ran after the ~25 min ASan/TSan build sequence
# (verified against an unmodified checkout, which failed its own gate at
# 59%). Gate it collapse-only at 0.5x like the other whole-run benches;
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

echo "== bench gate: ratekeeper availability under load =="
# BENCH_traffic.json is the committed baseline (bench/bench_traffic.cpp).
# Whole-session throughput is allocation-heavy and swings ~±30% run to run,
# so this gate only catches collapses (>40% regression), unlike the tight
# microbenchmark gates above. The functional assertion is the strict one:
# the ratekeeper must still earn its keep — fewer SLO-violation seconds with
# the controller on than off, on the same seeded flash-crowd scenario.
if command -v python3 >/dev/null 2>&1 && [ -f "$ROOT/BENCH_traffic.json" ]; then
  "$ROOT/build/bench/bench_traffic" --iters 3 \
    --json "$ROOT/build/ci_bench_traffic.json" > /dev/null
  python3 - "$ROOT/BENCH_traffic.json" "$ROOT/build/ci_bench_traffic.json" <<'EOF'
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
on = current["metrics"]["traffic.slo_violation_ms.ratekeeper_on"]["value"]
off = current["metrics"]["traffic.slo_violation_ms.ratekeeper_off"]["value"]
print(f"slo violation: ratekeeper on {on:.0f} ms vs off {off:.0f} ms")
assert on <= off, "ratekeeper made SLO violations worse"
print("traffic gate OK")
EOF
else
  echo "python3 or BENCH_traffic.json missing; skipping traffic gate"
fi

echo "== bench gate: campaign engine throughput =="
# BENCH_campaign.json is the committed baseline (bench/bench_campaign.cpp):
# mixed and midmigration campaign throughput plus the post-run invariant
# judge in isolation. Campaign iterations are whole sim runs and swing
# ~±30% run to run, so — like the traffic gate — this only catches
# collapses (>40% regression). The strict assertion is functional: zero
# invariant violations across every timed campaign.
if command -v python3 >/dev/null 2>&1 && [ -f "$ROOT/BENCH_campaign.json" ]; then
  "$ROOT/build/bench/bench_campaign" --iters 3 \
    --json "$ROOT/build/ci_bench_campaign.json" > /dev/null 2>&1
  python3 - "$ROOT/BENCH_campaign.json" \
    "$ROOT/build/ci_bench_campaign.json" <<'EOF'
import json, sys
baseline = json.load(open(sys.argv[1]))
current = json.load(open(sys.argv[2]))
assert current["schema"] == "dif-bench-v1", current.get("schema")
assert current["metrics"]["campaign.violations"]["value"] == 0, \
    "campaign bench saw invariant violations"
failed = []
for name in baseline["pinned"]:
    old = baseline["metrics"][name]["value"]
    new = current["metrics"][name]["value"]
    print(f"{name}: baseline {old:.2f}, current {new:.2f} "
          f"({100 * new / old:.0f}%, floor 0.5)")
    if new < 0.5 * old:
        failed.append(name)
assert not failed, f"throughput collapsed below 0.5x baseline on: {failed}"
print("campaign gate OK")
EOF
else
  echo "python3 or BENCH_campaign.json missing; skipping campaign gate"
fi

echo "== recovery smoke: self-healing killhost, determinism + convergence =="
# The recovery reference campaign (`difctl heal`): a killhost outage under
# capacity pressure, phi-accrual detection, automatic re-placement. Pinned
# seeds 0 and 2 are the repair-committing corpus (seed 1's crash races an
# in-flight redeployment off the host — nothing left to repair). Reports
# must be byte-identical across runs, every run must satisfy the eighth
# (convergence) invariant, and the mean MTTR must beat the scenario's
# 20 s minimum outage — the recovery-off unavailability floor.
"$DIFCTL" heal --seeds 0,2 \
  --json "$ROOT/build/ci_heal_a.json" > /dev/null 2>&1 || [ $? -eq 3 ]
"$DIFCTL" heal --seeds 0,2 \
  --json "$ROOT/build/ci_heal_b.json" > /dev/null 2>&1 || [ $? -eq 3 ]
cmp "$ROOT/build/ci_heal_a.json" "$ROOT/build/ci_heal_b.json" \
  || { echo "recovery campaign report not deterministic"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ROOT/build/ci_heal_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dif-campaign-v1", report.get("schema")
assert report["ok"] is True, "recovery campaign reported not-ok"
assert report["total_runs"] == 2, report["total_runs"]
mttrs = []
for run in report["runs"]:
    assert run["violations"] == [], run["violations"]
    rec = run["adaptation"]["recovery"]
    assert rec["enabled"] is True
    assert rec["condemnations"] >= 1, rec
    assert rec["recoveries_committed"] >= 1, rec
    assert rec["converged_at_ms"] >= 0, "never re-converged"
    mttrs.append(rec["mean_mttr_ms"])
mean_mttr = sum(mttrs) / len(mttrs)
assert mean_mttr < 20000, \
    f"mean MTTR {mean_mttr:.0f} ms not below the 20 s minimum outage"
print(f"recovery smoke OK: {report['total_runs']} runs repaired and "
      f"converged, mean MTTR {mean_mttr:.0f} ms < 20000 ms outage floor")
EOF
else
  echo "python3 not installed; skipping recovery schema check"
fi

echo "== bench gate: self-healing MTTR and availability during repair =="
# BENCH_recovery.json is the committed baseline (bench/bench_recovery.cpp).
# Beyond the 10% throughput pin, the functional claims are strict: the
# recovery-enabled replay must keep availability at least as high as the
# recovery-off replay (campaign and live-traffic legs both), mean MTTR must
# beat the 20 s minimum outage, and the SLO-violation seconds attributable
# to repair traffic — the paired-run excess over the recovery-off session —
# must be exactly zero (repair rides the ratekeeper throttle).
if command -v python3 >/dev/null 2>&1 && [ -f "$ROOT/BENCH_recovery.json" ]; then
  "$ROOT/build/bench/bench_recovery" --iters 3 \
    --json "$ROOT/build/ci_bench_recovery.json" > /dev/null 2>&1
  python3 - "$ROOT/BENCH_recovery.json" \
    "$ROOT/build/ci_bench_recovery.json" <<'EOF'
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
m = {k: v["value"] for k, v in current["metrics"].items()}
assert m["recovery.violations.recovery_on"] == 0, "invariant violations"
assert m["recovery.repairs_committed"] >= 1, "no repairs committed"
assert m["recovery.mean_mttr_ms"] < 20000, m["recovery.mean_mttr_ms"]
assert m["recovery.availability.recovery_on"] >= \
    m["recovery.availability.recovery_off"], \
    "recovery-on availability below recovery-off (campaign)"
assert m["recovery.traffic.availability.recovery_on"] >= \
    m["recovery.traffic.availability.recovery_off"], \
    "recovery-on availability below recovery-off (traffic)"
assert m["recovery.traffic.slo_excess_ms"] == 0, \
    f"repair traffic added {m['recovery.traffic.slo_excess_ms']:.0f} ms of SLO violation"
print(f"recovery gate OK: MTTR {m['recovery.mean_mttr_ms']:.0f} ms, "
      f"availability {m['recovery.availability.recovery_on']:.4f} on vs "
      f"{m['recovery.availability.recovery_off']:.4f} off, 0 ms repair excess")
EOF
else
  echo "python3 or BENCH_recovery.json missing; skipping recovery gate"
fi

echo "== docs: relative-link check =="
if command -v python3 >/dev/null 2>&1; then
  python3 "$ROOT/scripts/check_docs.py" "$ROOT"
else
  echo "python3 not installed; skipping docs link check"
fi

echo "CI OK"
