#!/usr/bin/env python3
"""nbtisim's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper_grid|large_dag|query_mix \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree. The first run builds
perfbench/CMakeLists.txt (the repository's libraries plus the runner) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.

Untraced runs (--trace 0) start one runner process per pass until --seconds
is spent (at least three passes) and print the end-to-end metrics: the
median over passes. Traced runs (--trace 1) make one untraced pass, one
traced pass and, for the grid workloads, one pass at campaign n_threads=2,
and print the per-layer metrics. Every run checks the outputs; each failed
check counts as one failed operation. The last line of stdout is the result
object; the line before it records the host and the thread budget.

perfbench/workloads.json holds each workload's composition, and
perfbench/golden.json the default seed's task metrics as recorded from the
code that defined the benchmark (rewrite it with --record-golden).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "workloads.json"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("paper_grid", "large_dag", "query_mix")
MIN_PASSES = 3
SMOKE_PASSES = 2
RUN_LIMIT_S = 170  # after the build; every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_cpu_s": "s",
    "peak_rss_mb": "MB",
}

ANALYSES = ("aging", "ivc", "st", "thermal", "derate", "lifetime",
            "criticality", "failure", "multi", "sizing")
PER_LAYER = {
    "netlist.load_s": "s", "netlist.loads": "count",
    "aging.context_s": "s", "aging.contexts": "count",
    "aging.stress_builds": "count",
    "leakage.context_s": "s", "leakage.contexts": "count",
    "leakage.tables": "count",
    **{f"analysis.{a}_s": "s" for a in ANALYSES},
    "opt.mlv_candidates": "count", "thermal.iterations": "count",
    "opt.sizing_moves": "count", "opt.sizing_rounds": "count",
    "campaign.expand_s": "s", "campaign.append_s": "s",
    "campaign.rows": "count", "campaign.bytes": "bytes",
    "store.ingest_s": "s", "store.ingest_rows": "count",
    "store.ingest_bytes": "bytes",
    "query.open_s": "s", "query.opens": "count",
    "query.parse_s": "s", "query.eval_s": "s", "query.render_s": "s",
    "query.index_entries": "count", "query.rows_parsed": "count",
    "query.rows_matched": "count", "query.match_ratio": "ratio",
    "query.p50_ms": "ms", "query.p99_ms": "ms", "query.per_s": "1/s",
    "query.cold_ms": "ms",
    "pool.campaign_2t_s": "s", "pool.speedup_2t": "ratio",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "host.calib_s": "s", "host.mem_calib_s": "s",
    "host.cpu_per_wall": "ratio",
    "host.pool_workers": "count", "host.hw_threads": "count",
}


class BenchError(Exception):
    pass


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    root = Path(base).resolve() if base else ROOT / ".bench_build"
    return root / "perfbench"


def build():
    """Configures and builds the runner; returns its path."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tests/support/reference.h"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{ROOT / needed} is missing: run from a "
                             "complete nbtisim source tree")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target",
                       "perfbench_runner", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out / "perfbench_runner"


class Runner:
    def __init__(self, exe, args, deadline):
        self.exe = exe
        self.args = args
        self.deadline = deadline
        self.work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
        self.count = 0

    def run_pass(self, *, trace=False, threads=1, oracle=False):
        work = self.work / f"pass{self.count}"
        self.count += 1
        cmd = [str(self.exe), "--config", str(CONFIG), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--work",
               str(work), "--threads", str(threads)]
        cmd += ["--smoke"] if self.args.smoke else []
        cmd += ["--trace"] if trace else []
        cmd += ["--oracle"] if oracle else []
        cmd += ["--inject-fault"] if self.args.inject_fault else []
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass timed out after {timeout:.0f} s")
        if p.returncode != 0:
            raise BenchError(f"runner failed: {p.stderr.strip()}")
        if trace and (work / "spans.jsonl").is_file():
            traces = build_dir() / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            name = f"{self.args.workload}-seed{self.args.seed}.spans.jsonl"
            shutil.copy(work / "spans.jsonl", traces / name)
        shutil.rmtree(work, ignore_errors=True)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


# ------------------------------------------------------------ checks ---

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def ordering_failures(task):
    """The paper's orderings that must hold for one task's metrics."""
    m = task["metrics"]
    a = task["analysis"]
    le = []  # (lower, upper) pairs that must satisfy lower <= upper
    if a == "aging":
        le = [("best_pct", "vector0_pct"), ("vector0_pct", "worst_pct"),
              ("worst_half_horizon_pct", "worst_pct"),
              ("fresh_ns", "aged_worst_ns")]
    elif a == "ivc":
        le = [("inc_bound_pct", "best_mlv_pct"), ("best_mlv_pct", "worst_pct"),
              ("random_ref_pct", "worst_pct")]
    elif a == "derate":
        for name in m:
            if name.startswith("vec0_y"):
                y = name[len("vec0_y"):]
                le += [(f"best_y{y}", name), (name, f"worst_y{y}")]
    elif a == "lifetime":
        le = [("p01_years", "median_years")]
    elif a == "multi":
        le = [("nbti_pct", "multi_pct")]
    elif a == "failure":
        le = [("system_mttf_years", n) for n in m
              if n.startswith("mttf_")]
    out = [f"{lo} > {hi}" for lo, hi in le
           if lo in m and hi in m and m[lo] > m[hi]]
    if a == "thermal" and m.get("converged") != 1:
        out.append("thermal fixpoint did not converge")
    if a == "sizing" and m.get("met") != 1:
        out.append("sizing did not meet its spec")
    return out


class Checks:
    def __init__(self):
        self.failed = []

    def expect(self, ok, what):
        if not ok:
            self.failed.append(what)
            log("check failed:", what)

    def tasks(self, rec, golden):
        for t in rec.get("tasks", []):
            key = t["key"]
            self.expect(t["present"], f"{key}: no stored row")
            bad = [n for n, v in t["metrics"].items() if not finite(v)]
            self.expect(not bad, f"{key}: non-finite {bad}")
            for f in ordering_failures(t):
                self.expect(False, f"{key}: {f}")
            if golden is not None:
                want = golden.get(key) or {}
                same = want.keys() == t["metrics"].keys() and all(
                    math.isclose(v, want[n], rel_tol=1e-6, abs_tol=1e-12)
                    for n, v in t["metrics"].items())
                self.expect(same, f"{key}: metrics differ from golden.json")

    def one_thread(self, rec, limit):
        ratio = rec["pass_cpu_s"] / rec["pass_s"]
        self.expect(ratio <= limit,
                    f"pass used {ratio:.2f} CPU-s per wall-s on one thread")

    def oracle(self, rec):
        for c in rec.get("checks", []):
            self.expect(c["ok"], f"{c['name']}: answer differs from "
                        "reference_query")


def golden_for(args):
    key = args.workload + ("_smoke" if args.smoke else "")
    if args.seed != default_seed() or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(key)


def default_seed():
    return json.loads(CONFIG.read_text())["default_seed"]


def task_metrics(rec):
    return {t["key"]: t["metrics"] for t in rec.get("tasks", [])}


# --------------------------------------------------------------- runs ---

def median(values):
    return statistics.median(values)


def nearest_rank(values, q):
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def host_record(recs, args):
    r = recs[0]
    out = {
        "workload": args.workload, "seed": args.seed, "passes": len(recs),
        "cpu_per_wall": [round(x["pass_cpu_s"] / x["pass_s"], 4)
                         for x in recs],
        "pool_workers": r["pool_workers"],
        "hardware_concurrency": r["hardware_concurrency"],
        "compiler": r["compiler"], "build_type": r["build_type"],
        "host.calib_s": median([x["calib_s"] for x in recs]),
        "host.mem_calib_s": median([x["mem_calib_s"] for x in recs]),
        "pass_s": [x["pass_s"] for x in recs],
        "setup_reps": [x["setup_reps"] for x in recs],
    }
    if "query" in r:
        out["query_p50_ms_by_shape"] = r["query"]["p50_ms_by_shape"]
    return out


def untraced_run(runner, args, limit, checks):
    start = time.monotonic()
    recs = []
    min_passes = SMOKE_PASSES if args.smoke else MIN_PASSES
    while True:
        recs.append(runner.run_pass(oracle=not recs))
        spent = time.monotonic() - start
        next_end = spent * (1 + 1 / len(recs))  # if one more pass ran
        if len(recs) >= min_passes and next_end > args.seconds:
            break
    golden = golden_for(args)
    for i, rec in enumerate(recs):
        checks.one_thread(rec, limit)
        checks.tasks(rec, golden)
        checks.expect(rec["files"] == recs[0]["files"],
                      f"pass {i}: store bytes differ from pass 0")
        if "query" in rec:
            checks.expect(rec["query"]["digest"] == recs[0]["query"]["digest"],
                          f"pass {i}: query responses differ from pass 0")
    checks.oracle(recs[0])
    metrics = {
        "setup_s": median([r["setup_s"] for r in recs]),
        "pass_s": median([r["pass_s"] for r in recs]),
        "pass_cpu_s": median([r["pass_cpu_s"] for r in recs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in recs]),
    }
    attempted = sum(int(r["attempted"]) for r in recs)
    return recs, metrics, attempted


def query_latencies(recs):
    """Request latencies pooled over untraced passes: with at least 1000
    warm requests the p99 has ten samples beyond it."""
    warm = [ms for r in recs for ms in r["query"]["warm_ms"]]
    return {
        "query.p50_ms": nearest_rank(warm, 0.50),
        "query.p99_ms": nearest_rank(warm, 0.99),
        "query.per_s": len(warm) / sum(r["query"]["warm_s"] for r in recs),
        "query.cold_ms": median([ms for r in recs
                                 for ms in r["query"]["cold_ms"]]),
    }


def traced_run(runner, args, limit, checks):
    plain = runner.run_pass(oracle=True)
    traced = runner.run_pass(trace=True)
    recs = [plain, traced]
    if "query" in plain:
        # The latency figures come from untraced passes only.
        recs.append(runner.run_pass())
    golden = golden_for(args)
    for rec in recs:
        checks.one_thread(rec, limit)
        checks.tasks(rec, golden)
    checks.oracle(plain)
    checks.expect(task_metrics(traced) == task_metrics(plain),
                  "traced pass: task metrics differ from the untraced pass")
    checks.expect(traced["files"] == plain["files"],
                  "traced pass: store bytes differ from the untraced pass")
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(traced["layers"])
    if "query" in plain:
        checks.expect(traced["query"]["digest"] == plain["query"]["digest"],
                      "traced pass: query responses differ from the "
                      "untraced pass")
        checks.expect(traced["query"]["mismatches"] == 0,
                      "traced pass: spliced responses differ from "
                      "handle_query")
        checks.expect(recs[2]["query"]["digest"] == plain["query"]["digest"],
                      "pass 2: query responses differ from pass 0")
        layers.update(query_latencies([plain, recs[2]]))
    else:
        two = runner.run_pass(threads=2)
        checks.expect(two["files"] == plain["files"],
                      "2-thread pass: store bytes differ from the 1-thread "
                      "pass")
        layers["pool.campaign_2t_s"] = two["pass_s"]
        layers["pool.speedup_2t"] = plain["pass_s"] / two["pass_s"]
        recs.append(two)
    layers["trace.overhead_s"] = traced["pass_s"] - plain["pass_s"]
    layers["host.calib_s"] = median([r["calib_s"] for r in recs])
    layers["host.mem_calib_s"] = median([r["mem_calib_s"] for r in recs])
    layers["host.cpu_per_wall"] = plain["pass_cpu_s"] / plain["pass_s"]
    layers["host.pool_workers"] = plain["pool_workers"]
    layers["host.hw_threads"] = plain["hardware_concurrency"]
    attempted = sum(int(r["attempted"]) for r in recs)
    return [r for r in recs if r["threads"] == 1], layers, attempted


def record_golden(runner, args):
    rec = runner.run_pass()
    key = args.workload + ("_smoke" if args.smoke else "")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[key] = task_metrics(rec)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(golden[key])} tasks of {key} in {GOLDEN}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid / store: for the benchmark's own tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one answer before it is checked")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json from the default seed")
    args = ap.parse_args()
    if args.seed is None:
        args.seed = default_seed()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        exe = build()
        runner = Runner(exe, args, time.monotonic() + RUN_LIMIT_S)
        try:
            if args.record_golden:
                args.seed = default_seed()
                record_golden(runner, args)
                return 0
            limit = json.loads(CONFIG.read_text())["cpu_per_wall_max"]
            checks = Checks()
            if args.trace:
                recs, metrics, attempted = traced_run(runner, args, limit,
                                                      checks)
                units = PER_LAYER
            else:
                recs, metrics, attempted = untraced_run(runner, args, limit,
                                                        checks)
                units = END_TO_END
        finally:
            runner.close()
    except BenchError as e:
        log(e)
        return 1
    print("# host and thread budget:", json.dumps(host_record(recs, args)))
    failed = len(checks.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
