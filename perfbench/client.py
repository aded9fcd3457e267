"""One benchmark client: set up like a user would, then call `rsdekit run`
in a closed loop (the next call starts only after the previous returns).

    python3 perfbench/client.py --workload W --seed N --seconds S --trace 0|1
        --rundir DIR --result FILE [--setup-only]

Started by run.py with BLAS/OpenMP threads pinned to 1.  Writes one JSON
result to FILE: when set-up ended (system-wide monotonic clock), then per
call its wall time, CPU time of this process and its pool children, the
machine speed around it (see `speed`), and whether its output was correct.
With --trace 1, calls alternate between untraced and traced; traced calls
also carry per-layer metrics, and the spans of the last traced call are
written to DIR/spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# Best time of the calibration kernel on an undisturbed core of the 2-core
# Xeon the benchmark was written on.
REFERENCE_S = 0.0065


def speed(np):
    """Machine speed now, relative to the reference (1.0 = undisturbed).

    Shared machines run at speeds that drift by up to 2x over seconds to
    minutes as other tenants load the host.  A fixed kernel of interpreter
    and small-array numpy work, independent of rsdekit, is timed (best of
    three) on the core this process runs on; run.py scales call times by
    this factor so that runs made at different moments compare.
    """
    a = np.linspace(0.0, 1.0, 64 * 256).reshape(64, 256)

    def kernel():
        t = time.perf_counter()
        s = 0
        for i in range(30000):
            s += i * i
        for _ in range(200):
            np.linalg.norm(a, axis=1).max()
        return time.perf_counter() - t

    return REFERENCE_S / min(kernel() for _ in range(3))


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _check(code, report_path, experiment, seed, first_digest):
    """(digest, report, reason); reason is None when the call is correct."""
    if code != 0:
        return None, None, f"exit code {code}"
    if not report_path.exists():
        return None, None, "no report.json"
    raw = report_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    report = json.loads(raw)
    if report.get("verdict") != "pass":
        return digest, report, f"verdict {report.get('verdict')!r}"
    if report.get("name") != experiment or report["seeds"].get("seed") != seed:
        return digest, report, "report names another experiment or seed"
    if first_digest is not None and digest != first_digest:
        return digest, report, "report.json differs from the first repeat"
    return digest, report, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # -- set-up: imports, config generation and parse, domain/coefficients
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import rsdekit
    from rsdekit import cli

    import workloads

    if Path(rsdekit.__file__).resolve().parent != SRC / "rsdekit":
        sys.exit(f"rsdekit imported from {rsdekit.__file__}, not from {SRC}")
    rundir = Path(args.rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    cfg = rundir / "config.ini"
    outdir = rundir / "out"
    workloads.write_config(args.workload, args.seed, cfg, outdir)
    resolved = cli.parse_config(str(cfg))
    if "domain" in resolved:
        d = resolved["domain"]
        rsdekit.make_domain(d["kind"], d["params"], d.get("r0"), d.get("c0"),
                            d.get("gamma"))
    if "coefficients" in resolved:
        c = resolved["coefficients"]
        rsdekit.make_coefficients(c["d"], c["d1"], c["sigma"],
                                  c["sigma_params"], c["b"], c["b_params"])
    setup_end = time.monotonic()

    result = {"setup_end": setup_end, "setup_speed": speed(np),
              "numpy": np.__version__, "python": sys.version.split()[0],
              "calls": []}
    if not args.setup_only:
        result.update(_loop(args, np, cli, workloads,
                            resolved["run"]["experiment"], cfg,
                            outdir / "report.json", result["setup_speed"]))
    Path(args.result).write_text(json.dumps(result))


def _loop(args, np, cli, workloads, experiment, cfg, report_path, speed_before):
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    calls, spans = [], None
    first_digest = paths = None
    deadline = time.perf_counter() + args.seconds
    # with tracing, even calls run untraced and odd ones traced, so the
    # overhead is measured under the same conditions
    while not calls or time.perf_counter() < deadline or \
            (tracer is not None and len(calls) < 2):
        traced = tracer is not None and len(calls) % 2 == 1
        if report_path.exists():
            report_path.unlink()
        if traced:
            saved = tracing.install(tracer)
            tracer.reset()
            root = tracer.begin("cli.main")
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", str(cfg)])
        except Exception as exc:  # a raising call is a failed call
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if traced:
            tracer.end(root)
            tracing.uninstall(saved)
        speed_after = speed(np)
        digest, report, reason = _check(code, report_path, experiment,
                                        args.seed, first_digest)
        if first_digest is None:
            first_digest = digest
        call = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
                "speed": (speed_before + speed_after) / 2, "error": reason}
        speed_before = speed_after
        if report is not None and paths is None:
            paths = workloads.paths_per_call(report)
        if traced:
            metrics, layers = tracing.call_metrics(tracer)
            candidates, hits = workloads.tube_counts(report or {})
            metrics["montecarlo.tube_candidates"] = candidates
            metrics["montecarlo.tube_hits"] = hits
            metrics["montecarlo.tube_accept_ratio"] = \
                hits / candidates if candidates else 0.0
            call["metrics"], call["layers"] = metrics, layers
            spans = tracer.spans
        calls.append(call)
    if spans is not None:
        (Path(args.rundir) / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"calls": calls, "digest": first_digest, "paths_per_call": paths,
            "peak_rss_kb": max(own, kids),
            "parent_rss_kb": own, "child_rss_kb": kids}


if __name__ == "__main__":
    main()
