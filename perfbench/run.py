#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator library from src/ plus the driver) under
.bench_build/perfbench; later runs only re-check the build. The driver
repeats the workload for S seconds of host time, then this script
checks the outputs and prints every metric by name and unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a separate run that
records spans and reports its own overhead. The exit code is 0 only
when every check passed. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402  (after dont_write_bytecode)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("ring64_seq", "mesh64_sharded", "hotspot16_lossy", "paper_sweep")
# The driver's timed phase is at most this long (its kMaxSeconds) ...
MAX_SECONDS = 60
# ... and the work outside it (the last iteration's overshoot, the
# anchor and reference runs, writing results) takes well under this.
DRIVER_MARGIN_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (a no-op once cached) and build the driver; serialized
    by a lock so concurrent runs in one checkout never race on the
    build tree."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "perfbench_driver", "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_driver(args, out_path, trace_path):
    """The driver's result document; a traced run's also carries the
    dumpStatsJson documents under "stats"."""
    stats_path = out_path.with_suffix(".stats.json")
    cmd = [str(DRIVER), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out_path}"]
    if args.trace:
        cmd += [f"--trace-file={trace_path}", f"--stats-file={stats_path}"]
    # subprocess.run kills the child and waits for it on timeout.
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=args.seconds + DRIVER_MARGIN_S)
    doc = json.loads(out_path.read_text())
    if args.trace:
        doc["stats"] = json.loads(stats_path.read_text())
    return doc


# --------------------------------------------------------------------
# Host fingerprint
# --------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code under test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(doc):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "compiler": doc.get("compiler"),
        "build_type": doc.get("build_type"),
        "git_commit": commit,
        "source_digest": source_digest(),
        "shards": doc.get("shards"),
        "default_shards": doc.get("default_shards"),
    }


# --------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------


def end_to_end(doc):
    its = doc["iterations"]
    sim = doc["sim"]
    # Iteration times on a shared host can split into a fast and a slow
    # mode that alternate over seconds. A median jumps between the modes
    # as their mix shifts; a trimmed mean follows the mix and still
    # drops rare outliers. setup_s stays a median of the set-ups.
    return {
        "total_s": stats.trimmed_mean([i["total_s"] for i in its]),
        "setup_s": statistics.median([i["ctor_s"] + i["rendezvous_s"] for i in its]),
        "run_s": stats.trimmed_mean([i["run_s"] for i in its]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_goodput_mb_s": sim["goodput_mb_s"],
        "sim_latency_p50_us": sim["latency"]["p50_us"],
        "sim_latency_p99_us": sim["latency"]["tail_us"],
        "paper_err_pct": doc["anchors"]["err_pct"],
    }


def per_layer(doc):
    its = doc["iterations"]
    traced = [i for i in its if i["traced"]]
    plain = [i for i in its if not i["traced"]]
    sim = doc["sim"]
    untraced_run = statistics.median([i["run_s"] for i in plain])
    traced_run = statistics.median([i["run_s"] for i in traced])
    m = {
        "core.ctor_s": statistics.median([i["ctor_s"] for i in traced]),
        "core.dtor_s": statistics.median([i["dtor_s"] for i in traced]),
        "msg.rendezvous_s": statistics.median([i["rendezvous_s"] for i in traced]),
        "msg.send_sim_us_p50": sim["send"]["p50_us"],
        "msg.send_sim_us_p99": sim["send"]["tail_us"],
        "sim.events": sim["events"],
        "sim.host_ns_per_event": untraced_run * 1e9 / sim["events"],
    }
    # The sharded engine's figures come from mesh64_sharded's parallel
    # run, made once outside the timed iterations; 0 elsewhere.
    refs = doc.get("references", {})
    par = refs.get("parallel", {})
    for key in ("windows", "cross_posts", "execute_frac", "barrier_plan_frac",
                "drain_frac", "idle_frac", "futex_sleeps", "spin_wakes",
                "shard_imbalance", "accounted_frac"):
        m["sim." + key] = par.get(key, 0)
    seq = [untraced_run] + ([refs["default_run_s"]] if "default_run_s" in refs else [])
    m["sim.par_speedup"] = min(seq) / par["run_s"] if par else 0
    m.update(stats.layer_counters(doc.get("stats", []), sim["payload_bytes"]))
    m["trace.overhead_frac"] = traced_run / untraced_run - 1
    return m


def pinned_check(doc):
    """The payload data digest is a pure function of workload and
    seed; pinned values catch a drifting input generator."""
    pins = json.loads((BENCH_DIR / "pinned.json").read_text())
    want = pins["data_digest"].get(doc["workload"], {}).get(str(doc["seed"]))
    got = doc["sim"]["data_digest"]
    if want is None:
        return None
    return {"name": "pinned_data_digest", "ok": want == got,
            "detail": f"data digest {got}, pinned {want}"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS}]")

    trace_path = BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        out_dir = BUILD_DIR / "results"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        doc = run_driver(args, out_dir / f"{stem}.json", trace_path)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    checks = list(doc["checks"])
    pin = pinned_check(doc)
    if pin:
        checks.append(pin)
    # Names, order and units come from BENCHMARK.json.
    values = per_layer(doc) if args.trace else end_to_end(doc)
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        return 1
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    if not args.trace:
        # End-to-end metrics are defined to be positive; a zero means
        # the workload did not run.
        bad = [k for k, (v, _) in metrics.items() if not v > 0]
        checks.append({"name": "metrics_positive", "ok": not bad,
                       "detail": "zero or missing: " + ", ".join(bad) if bad
                       else "every end-to-end metric is positive"})

    attempted = doc["attempted"]
    failed = doc["failed"]
    correct = all(c["ok"] for c in checks)
    if not correct:
        failed = attempted  # a run that fails a check counts wholly
    fp = fingerprint(doc)

    lat = doc["sim"]["latency"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(doc['iterations'])} iterations in {doc['measured_s']:.1f} s")
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(f"latency samples: {lat['count']} per iteration; "
          f"sim_latency_p99_us reports p{lat['tail_pct']:.4g} "
          f"(the highest percentile with >= 10 samples beyond it, capped at p99)")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} records)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        print(f"trace file: {trace_path}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
