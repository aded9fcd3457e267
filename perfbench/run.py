"""rsdekit benchmark: run one workload as a user would and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; rsdekit is imported from its `src/`.
Workloads are defined in workloads.py and explained in WORKLOADS.md.

--trace 0 prints the end-to-end metrics: setup_s (median over five fresh
processes, from process start to the experiment call), and per call of
`rsdekit run` in a closed loop with one client: wall_s and cpu_s (medians),
peak_rss_mb (parent or any pool child) and paths_per_s.  Times are scaled
to the reference machine speed measured around each call (client.speed);
the raw medians are printed too.  --trace 1 prints the per-layer metrics of
the traced calls (raw times) and the tracing overhead.  The last line of
standard output is one JSON object; the lines before it repeat the metrics
with their units, the machine, fail_ratio and the report.json digest.  Each
run also leaves its result under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
CALL_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "paths_per_s": "1/s"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "B" if name.endswith("_bytes") else "count"


# BLAS/OpenMP pools would add threads on top of the worker processes, so
# every process the benchmark starts runs them single-threaded.
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


def machine():
    info = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine(),
            "python": platform.python_version(), "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["caches"][f"L{level}{kind[0].lower()}"] = size
    return info


def run_client(workload, seed, seconds, trace, rundir, setup_only=False):
    """Start one client and wait for it; returns (result, spawn_time)."""
    rundir.mkdir(parents=True, exist_ok=True)
    result_path = rundir / ("setup.json" if setup_only else f"calls-trace{trace}.json")
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--rundir", str(rundir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    with open(rundir / "client.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=seconds + CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{workload}: client did not finish in time")
    if code != 0 or not result_path.exists():
        tail = (rundir / "client.log").read_text()[-2000:]
        raise SystemExit(f"{workload}: client exited with {code}\n{tail}")
    return json.loads(result_path.read_text()), spawned


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace):
    rundir = RUNS / workload / f"seed-{seed}"
    setups = []  # (raw seconds, machine speed)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, spawned = run_client(workload, seed, seconds, 0, rundir,
                                      setup_only=True)
            setups.append((res["setup_end"] - spawned, res["setup_speed"]))
    res, spawned = run_client(workload, seed, seconds, trace, rundir)
    setups.append((res["setup_end"] - spawned, res["setup_speed"]))
    calls = res["calls"]
    failed = sum(1 for c in calls if c["error"])
    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    wall = median([c["wall_s"] for c in plain])
    if trace:
        metrics = {}
        for name in traced[0]["metrics"]:
            metrics[name] = median([c["metrics"][name] for c in traced])
        traced_wall = median([c["wall_s"] for c in traced])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        layers = {k: median([c["layers"][k] for c in traced])
                  for k in traced[0]["layers"]}
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        scaled_wall = median([c["wall_s"] * c["speed"] for c in plain])
        metrics = {
            "setup_s": median([t * v for t, v in setups]),
            "wall_s": scaled_wall,
            "cpu_s": median([c["cpu_s"] * c["speed"] for c in plain]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "paths_per_s": (res["paths_per_call"] or 0) / scaled_wall,
        }
        layers = None
        units = END_TO_END
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "machine": {**machine(), "numpy": res["numpy"]},
        "attempted": len(calls), "failed": failed,
        "fail_ratio": failed / len(calls), "digest": res.get("digest"),
        "errors": sorted({c["error"] for c in calls if c["error"]}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw": {"setup_s": median([t for t, _ in setups]), "wall_s": wall,
                "cpu_s": median([c["cpu_s"] for c in plain]),
                "speed": median([c["speed"] for c in calls])},
        "rss_kb": {k: res[k] for k in (
            "peak_rss_kb", "parent_rss_kb", "child_rss_kb")},
    }
    if trace:
        summary["layers_s"] = layers
        summary["attribution"] = workloads.attribution(workload, metrics, layers)
    (rundir / f"result-trace{trace}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True))
    return summary


def show(summary):
    m = summary["machine"]
    print(f"# machine: {m['cores']} cores ({m['usable_cores']} usable), "
          f"{m['cpu_model']}, caches {m['caches']}, Python {m['python']}, "
          f"numpy {m['numpy']}")
    print(f"# {summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']}: attempted={summary['attempted']} "
          f"failed={summary['failed']} fail_ratio={summary['fail_ratio']:g} "
          f"(ratio) digest={summary['digest']}")
    ref = workloads.reference_digest(summary["workload"], summary["seed"])
    if ref is not None:
        print(f"# report.json digest {'matches' if ref == summary['digest'] else 'differs from'}"
              f" the recorded reference for this workload and seed")
    for err in summary["errors"]:
        print(f"# failed call: {err}")
    for name, metric in summary["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    raw = summary["raw"]
    print(f"# unscaled: setup_s = {raw['setup_s']:.6g} s, wall_s = "
          f"{raw['wall_s']:.6g} s, cpu_s = {raw['cpu_s']:.6g} s at median "
          f"machine speed {raw['speed']:.3f} of the reference")
    for label, ok in summary.get("attribution", []):
        print(f"# attribution {'ok' if ok else 'NOT MET'}: {label}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rsdekit" / "__init__.py").is_file():
        sys.exit(f"no rsdekit sources under {ROOT / 'src'}")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    summaries = [measure(n, args.seed, args.seconds, args.trace) for n in names]
    for s in summaries:
        show(s)
    if len(summaries) == 1:
        s = summaries[0]
        print(json.dumps({"correct": s["failed"] == 0,
                          "attempted": s["attempted"], "failed": s["failed"],
                          "metrics": s["metrics"]}))


if __name__ == "__main__":
    main()
