#!/usr/bin/env python3
"""Repository benchmark: host cost and simulated service of NEaT testbeds.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (and, for a traced
`churn_failover`, the repository's `fig12` binary) into
$CARGO_TARGET_DIR (default `.bench_build`), then repeats independent
testbed runs in child processes for `--seconds` seconds. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics untraced, the per-layer metrics traced).
A failed correctness check exits with status 1. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Independent testbeds pooled into one run's simulated values, by
# workload: enough latency samples that the pooled p99 is steady.
SUB_SEEDS = {"keepalive_20b": 1, "churn_failover": 4, "bulk_100k_lossy": 12}
MIN_REPS = 3
# Host seconds of the reference kernel (src/refkernel.rs) on the machine
# that host times are scaled to: a 2-vCPU Xeon guest in a fast stretch.
REF_KERNEL_S = 0.1
# Children are killed after this long; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    pass


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cargo(args):
    """Run a cargo command at the root; its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(["cargo"] + args + ["--release", "--offline", "--quiet"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)
    if r.returncode != 0:
        raise CheckFailed("cargo %s failed" % " ".join(args))


def child(cmd, cwd=ROOT, env=None):
    """Run a child to completion; returns (stdout, wall seconds)."""
    t = time.perf_counter()
    r = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t
    if r.returncode != 0:
        raise CheckFailed("%s exited with %d" % (" ".join(cmd), r.returncode))
    return r.stdout, wall


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise CheckFailed("child printed nothing")
    return json.loads(lines[-1])


def steal_s():
    """Cumulative steal time of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def sub_seed(seed, j):
    """Seed of the run's j-th pooled testbed."""
    return (seed * 64 + j) % 2**64


# --- arithmetic (tested in test_run.py) ------------------------------------

def bucket_width(lo):
    """Width of the `neat_obs::Histogram` bucket whose lower bound is
    `lo`: 1 below 16, then 16 equal sub-buckets per power of two."""
    return 1 if lo < 16 else 1 << (lo.bit_length() - 5)


def quantile(runs, q):
    """Sample ceil(n × q) (counting from 1) of pooled (bucket lower bound,
    count) runs, placed by its rank inside its bucket: the k-th of c
    samples in [lo, lo + width) reads lo + width × (k − ½) ÷ c."""
    runs = sorted(runs)
    n = sum(c for _, c in runs)
    target = max(1, math.ceil(n * q))
    seen = 0
    for lo, c in runs:
        if seen + c >= target:
            return lo + bucket_width(lo) * (target - seen - 0.5) / c
        seen += c
    return 0


def highest_quantile(samples):
    """The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
    beyond it, or None."""
    ok = [q for q in (0.5, 0.9, 0.99, 0.999, 0.9999)
          if samples * (1 - q) >= 10 - 1e-9]
    return ok[-1] if ok else None


def best_wall_s(reps):
    """Host seconds of the window: for each simulated slice, the fastest
    of the run's repetitions, summed. Noise on a shared host only adds
    time, so the per-slice minimum estimates the uncontended cost."""
    slices = zip(*(r["host"]["slice_wall_s"] for _, r in reps))
    return sum(min(s) for s in slices)


def speed(reps):
    """This run's host speed relative to the reference machine: the
    reference kernel's time there over its fastest time in the run."""
    return REF_KERNEL_S / min(r["host"]["ref_kernel_s"] for _, r in reps)


def pool(sims):
    """The simulated values of one run from its testbeds' outcomes."""
    runs = [tuple(r) for s in sims for r in s["latency_runs"]]
    window = sum(s["window_s"] for s in sims)
    requests = sum(s["requests"] for s in sims)
    attempted = sum(s["attempted"] for s in sims)
    failed = sum(s["failed"] for s in sims)
    recovery_ns = [ns for s in sims for ns in s["recovery_ns"]]
    samples = sum(c for _, c in runs)
    return {
        "sim_krps": requests / window / 1e3,
        "sim_goodput_mbps": sum(s["bytes"] for s in sims) / 1e6 / window,
        "sim_p50_us": quantile(runs, 0.5) / 1e3,
        "sim_p99_us": quantile(runs, 0.99) / 1e3,
        "latency_samples": samples,
        "highest_quantile": highest_quantile(samples),
        "requests": requests,
        "attempted": attempted,
        "failed": failed,
        "error_pct": 100.0 * failed / attempted if attempted else 0.0,
        "recovery_ms": statistics.median(recovery_ns) / 1e6 if recovery_ns else 0.0,
        "recoveries": len(recovery_ns),
        "crashes_injected": sum(s["crashes_injected"] for s in sims),
        "crashes_seen": sum(s["crashes_seen"] for s in sims),
        "handoffs": sum(s["handoffs"] for s in sims),
    }


# --- running -----------------------------------------------------------------

def run_reps(exe, workload, seed, seconds, trace_path=None):
    """Repeat testbeds for `seconds`, cycling through the workload's
    sub-seeds; returns (untraced, traced) lists of (sub-seed, JSON).
    With `trace_path`, every second repetition is traced."""
    k = SUB_SEEDS[workload]
    untraced, traced = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        sub = sub_seed(seed, i % k)
        trace = trace_path is not None and i % 2 == 1
        cmd = [exe, "traced" if trace else "rep", workload, str(sub)]
        if trace:
            cmd.append(trace_path)
        (traced if trace else untraced).append((sub, last_json(child(cmd)[0])))
        i += 1
        enough = i >= k and len(untraced) >= MIN_REPS and \
            (trace_path is None or len(traced) >= MIN_REPS)
        if enough and time.perf_counter() - t0 >= seconds:
            return untraced, traced


def simulated(reps):
    """Check that every repetition of a sub-seed simulated exactly the
    same thing; return the per-sub-seed outcomes in sub-seed order."""
    by_seed = {}
    for sub, rep in reps:
        text = json.dumps(rep["sim"], sort_keys=True)
        if by_seed.setdefault(sub, text) != text:
            raise CheckFailed("simulated values differ between repetitions "
                              "of seed %d" % sub)
    return [json.loads(by_seed[s]) for s in sorted(by_seed)]


def fingerprint_check(workload, seed, sims):
    """Simulated values must repeat exactly for a commit and seed across
    every run made with this build: the first run records them."""
    d = os.path.join(target_dir(), "perfbench-sim")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%d.json" % (workload, seed))
    exe = os.path.join(target_dir(), "release", "neat-perfbench")
    stamp = str(os.stat(exe).st_mtime_ns)
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("build") == stamp and prev.get("sims") != sims:
            raise CheckFailed("simulated values differ from an earlier run "
                              "of the same build and seed")
    with open(path, "w") as f:
        json.dump({"build": stamp, "sims": sims}, f)


def check_sim(sim):
    """Correctness of a run's pooled simulated outcome."""
    if sim["requests"] <= 0:
        raise CheckFailed("no request completed in the window")
    if (sim["highest_quantile"] or 0) < 0.99:
        raise CheckFailed("too few latency samples (%d) for a p99 with ten "
                          "samples beyond it" % sim["latency_samples"])
    if sim["crashes_seen"] != sim["crashes_injected"]:
        raise CheckFailed("supervisor saw %d crashes, %d were injected"
                          % (sim["crashes_seen"], sim["crashes_injected"]))
    if sim["recoveries"] != sim["crashes_injected"] or \
            sim["handoffs"] != sim["crashes_injected"]:
        raise CheckFailed("%d of %d crashes handed off within the deadline"
                          % (sim["recoveries"], sim["crashes_injected"]))


def end_to_end(reps, sim, testbeds):
    # Host seconds as the reference machine would take them.
    f = speed(reps)
    wall = best_wall_s(reps) * f
    return {
        "setup_s": min(r["host"]["setup_s"] for _, r in reps) * f,
        "wall_s": wall,
        # One window's requests per host second of the reference machine.
        "host_krps": sim["requests"] / testbeds / wall / 1e3,
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for _, r in reps),
        "sim_krps": sim["sim_krps"],
        "sim_goodput_mbps": sim["sim_goodput_mbps"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "ok_pct": 100.0 - sim["error_pct"],
    }


def fig12_sweep(exe, golden_path, work_dir):
    """The repository's `fig12 --quick` as a child, then the same 30
    points in process; both tables must equal the committed one."""
    with open(golden_path) as f:
        golden = [l.rstrip() for l in f if l.startswith("|")]
    os.makedirs(work_dir, exist_ok=True)
    cpu0 = children_cpu_s()
    out, wall = child([os.path.join(target_dir(), "release", "fig12")],
                      cwd=work_dir, env=dict(os.environ, NEAT_BENCH_QUICK="1"))
    cpu = children_cpu_s() - cpu0
    if [l.rstrip() for l in out.splitlines() if l.startswith("|")] != golden:
        raise CheckFailed("fig12 --quick table differs from %s" % golden_path)
    points = [json.loads(l) for l in child([exe, "fig12-points"])[0].splitlines()
              if l.strip()]
    cells = {}
    for p in points:
        cells.setdefault(p["config"], []).append(p["krps"])
    for row in golden[2:]:
        name, *want = [c.strip() for c in row.strip("| ").split("|")]
        if cells.get(name) != want:
            raise CheckFailed("in-process Figure 12 row %r differs" % name)
    return {
        "bench.cpu_util": cpu / wall,
        "bench.point_wall_s_max": max(p["wall_s"] for p in points),
    }


def per_layer(exe, a, t0, cpu0, steal0):
    """The traced run: untraced and traced repetitions interleaved, each
    traced one followed by the layer replays; for churn_failover also the
    Figure 12 sweep."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace-%s-%d.json" % (a.workload, a.seed))
    reps, traced = run_reps(exe, a.workload, a.seed, a.seconds, trace_path)
    sims = simulated(reps + traced)
    sim = pool(sims)
    layers = [t["layers"] for _, t in traced]
    m = {k: statistics.median(l[k] for l in layers) for k in layers[-1]}
    m["core.recovery_ms"] = sim["recovery_ms"]
    m["apps.error_pct"] = sim["error_pct"]
    m["apps.latency_samples"] = sim["latency_samples"]
    m["host.trace_overhead_pct"] = (best_wall_s(traced) / best_wall_s(reps) - 1) * 100
    everything = [r for _, r in reps + traced]
    m["host.runq_wait_s"] = sum(r["host"]["runq_wait_s"] for r in everything)
    m["host.ref_kernel_s"] = min(r["host"]["ref_kernel_s"] for r in everything)
    m["bench.point_wall_s_max"] = max(
        r["host"]["setup_s"] + r["host"]["wall_s"] for r in everything)
    if a.workload == "churn_failover":
        m.update(fig12_sweep(exe, os.path.join(ROOT, "perfbench", "fig12_quick.txt"),
                             os.path.join(out_dir, "fig12")))
    cpu = children_cpu_s() - cpu0
    m["host.cpu_s"] = cpu
    m["host.steal_s"] = steal_s() - steal0
    m.setdefault("bench.cpu_util", cpu / (time.perf_counter() - t0))
    return sims, sim, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUB_SEEDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = os.path.join(target_dir(), "release", "neat-perfbench")
    cargo(["build", "--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    if a.trace and a.workload == "churn_failover":
        cargo(["build", "-p", "neat-bench", "--bin", "fig12"])
    steal0, cpu0, t0 = steal_s(), children_cpu_s(), time.perf_counter()

    if a.trace:
        sims, sim, values = per_layer(exe, a, t0, cpu0, steal0)
        wanted = spec["per_layer"]
    else:
        reps, _ = run_reps(exe, a.workload, a.seed, a.seconds)
        sims = simulated(reps)
        sim = pool(sims)
        values = end_to_end(reps, sim, len(sims))
        print("perfbench: host speed %.4f of the reference machine" % speed(reps),
              file=sys.stderr)
        wanted = spec["end_to_end"]
    check_sim(sim)
    fingerprint_check(a.workload, a.seed, sims)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise CheckFailed("metrics not measured: %s" % ", ".join(missing))
    print(json.dumps({
        "correct": True,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    try:
        main()
    except (CheckFailed, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
