"""Outside-in tracer for rsdekit: spans and counters around calls into it.

Nothing under `src/` knows about this module.  `install` replaces the
public functions of each rsdekit module with timing wrappers, in every
namespace that binds them (callers often import a function by name, so
wrapping only the defining module would miss those calls), and `uninstall`
puts the originals back.  Spans are kept in memory as
[name, start, end, parent] and reduced to per-layer self times after each
call; a layer's self time is its spans' durations minus the part their child
spans cover.

Chunks that run in a process-pool child come back through `ChunkCall`, a
picklable wrapper that returns the child's spans and counters with the chunk
result.  Timestamps use the system-wide monotonic clock, so child spans line
up with the parent's.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

LAYERS = ("paths", "rsde", "skorohod", "geometry", "montecarlo", "cli")

# Tracer that wrappers record into; read by ChunkCall inside forked pool
# children, which inherit the parent's wrappers and this reference.
_active = None


class Tracer:
    def __init__(self):
        self.owner = os.getpid()
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.monotonic()
        self.stack.pop()

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def merge(self, spans, counters, parent):
        """Append spans recorded elsewhere; their roots hang under `parent`."""
        offset = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, p + offset if p >= 0 else parent])
        self.counters.update(counters)


def _span(tracer, name, fn, after=None):
    """Wrap fn in a span; `after(counters, args, result)` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer.counters, args, out)
        return out

    return wrapper


class _Traced:
    """A chunk result plus the spans and counters of the child that made it."""

    def __init__(self, result, spans, counters):
        self.result = result
        self.spans = spans
        self.counters = counters


class ChunkCall:
    """Picklable stand-in for a chunk function passed to parallel_chunks.

    Tube chunks are labelled by the function's name, so the tracer needs no
    private rsdekit names.
    """

    def __init__(self, fn):
        self.fn = fn
        name = fn.__name__
        self.span = "montecarlo.tube" if ("tube" in name or "levy" in name) \
            else "montecarlo.chunk"

    def __call__(self, lo, hi, payload):
        tracer = _active
        if tracer is None:  # a child started without the parent's wrappers
            return _Traced(self.fn(lo, hi, payload), [], {})
        child = os.getpid() != tracer.owner
        if child:
            tracer.reset()
        tracer.counters["montecarlo.chunks"] += 1
        idx = tracer.begin(self.span)
        try:
            out = self.fn(lo, hi, payload)
        finally:
            tracer.end(idx)
        if child:
            return _Traced(out, tracer.spans, dict(tracer.counters))
        return out


def _parallel(tracer, fn):
    @functools.wraps(fn)
    def wrapper(chunk_fn, *args, **kwargs):
        idx = tracer.begin("montecarlo.parallel")
        try:
            results = fn(ChunkCall(chunk_fn), *args, **kwargs)
        finally:
            tracer.end(idx)
        out = []
        for r in results:
            if isinstance(r, _Traced):
                tracer.merge(r.spans, r.counters, idx)
                r = r.result
            out.append(r)
        return out

    return wrapper


def _project(tracer, fn):
    """Projection span; nested projections (a kind calling itself) pass through."""

    @functools.wraps(fn)
    def wrapper(self, Y):
        if tracer.innermost() == "geometry.project":
            return fn(self, Y)
        idx = tracer.begin("geometry.project")
        try:
            out = fn(self, Y)
        finally:
            tracer.end(idx)
        dist = out[2]
        c = tracer.counters
        c["geometry.calls"] += 1
        c["geometry.rows_in"] += len(dist)
        c["geometry.rows_moved"] += int((dist > 0).sum())
        return out

    return wrapper


def _drive(tracer, fn):
    """Step-loop span; the increment callback becomes an rsde span."""

    @functools.wraps(fn)
    def wrapper(domain, times, x0, increment_fn, *args, **kwargs):
        c = tracer.counters
        projections = c["geometry.calls"]
        inc = _span(tracer, "rsde.increment", increment_fn)
        idx = tracer.begin("skorohod.drive")
        try:
            out = fn(domain, times, x0, inc, *args, **kwargs)
        finally:
            tracer.end(idx)
        steps = len(times) - 1
        rows = len(x0) if getattr(x0, "ndim", 1) > 1 else 1
        c["skorohod.loop_iters"] += steps
        c["skorohod.row_steps"] += steps * rows
        # every step projects once; bisection adds the rest
        c["skorohod.bisect_substeps"] += c["geometry.calls"] - projections - steps
        return out

    return wrapper


def _holder_counts(c, args, out):
    """Pairs scanned and bytes read, computed from the (P, N, m) input shape:
    each pair reads both endpoints as float64."""
    P, N, m = args[1].shape
    pairs = P * N * (N - 1) // 2
    c["paths.holder_pairs"] += pairs
    c["paths.holder_bytes"] += pairs * 2 * m * 8


def _count(name):
    def after(c, args, out):
        c[name] += 1
    return after


def _targets(tracer):
    """(owner, attribute, wrapper) for every traced function."""
    from rsdekit import cli, geometry, maxprinciple, montecarlo, paths, rsde, \
        skorohod

    t = tracer
    out = []
    for owner in (rsde, skorohod):
        out.append((owner, "drive_batch", _drive(t, owner.drive_batch)))
    for owner in (montecarlo, maxprinciple):
        out.append((owner, "parallel_chunks",
                    _parallel(t, owner.parallel_chunks)))
        out.append((owner, "brownian_batch",
                    _span(t, "paths.sample", owner.brownian_batch)))
    for name in sorted(cli.CATALOG):
        if hasattr(montecarlo, name):
            out.append((montecarlo, name, _span(
                t, "montecarlo.experiment", getattr(montecarlo, name))))
    out.append((paths, "holder_seminorm_batch", _span(
        t, "paths.holder", paths.holder_seminorm_batch, _holder_counts)))
    rng_for = paths.rng_for

    @functools.wraps(rng_for)
    def counted_rng_for(*args, **kwargs):
        t.counters["paths.streams"] += 1
        return rng_for(*args, **kwargs)

    out.append((paths, "rng_for", counted_rng_for))
    for name in ("euler_reflected_batch", "wong_zakai_batch",
                 "shifted_driver_batch", "skeleton_batch", "skeleton"):
        out.append((rsde, name, _span(t, "rsde.integrate", getattr(rsde, name))))
    for attr, span in (("sigma_at", "rsde.sigma"), ("b_at", "rsde.drift"),
                       ("jacobian_at", "rsde.jacobian")):
        fn = getattr(rsde.Coefficients, attr)
        out.append((rsde.Coefficients, attr,
                    _span(t, span, fn, _count("rsde.eval_calls"))))
    pending = [geometry.Domain]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not geometry.Domain and "project_rows" in vars(cls):
            out.append((cls, "project_rows", _project(t, vars(cls)["project_rows"])))
    out.append((cli, "parse_config", _span(t, "cli.parse", cli.parse_config)))
    out.append((cli, "write_outputs", _span(t, "cli.write", cli.write_outputs)))
    return out


def install(tracer):
    """Wrap rsdekit's functions; returns the originals for `uninstall`."""
    global _active
    _active = tracer
    saved = []
    for owner, attr, wrapper in _targets(tracer):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved):
    global _active
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    _active = None


def self_times(spans):
    """Self time per span name: duration minus the union of its children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start) - covered
    return out


def call_metrics(tracer):
    """Per-layer metrics of one traced call, from its spans and counters."""
    own = self_times(tracer.spans)
    c = tracer.counters
    m = {
        "paths.sample_s": own["paths.sample"],
        "paths.streams": c["paths.streams"],
        "paths.holder_s": own["paths.holder"],
        "paths.holder_pairs": c["paths.holder_pairs"],
        "paths.holder_bytes": c["paths.holder_bytes"],
        "rsde.sigma_s": own["rsde.sigma"],
        "rsde.drift_s": own["rsde.drift"],
        "rsde.jacobian_s": own["rsde.jacobian"],
        "rsde.eval_calls": c["rsde.eval_calls"],
        "skorohod.drive_s": own["skorohod.drive"],
        "skorohod.loop_iters": c["skorohod.loop_iters"],
        "skorohod.row_steps": c["skorohod.row_steps"],
        "skorohod.bisect_substeps": c["skorohod.bisect_substeps"],
        "geometry.project_s": own["geometry.project"],
        "geometry.rows_in": c["geometry.rows_in"],
        "geometry.rows_moved": c["geometry.rows_moved"],
        "geometry.moved_ratio": (c["geometry.rows_moved"] / c["geometry.rows_in"]
                                 if c["geometry.rows_in"] else 0.0),
        "montecarlo.chunks": c["montecarlo.chunks"],
        "montecarlo.chunk_s": own["montecarlo.chunk"],
        # time inside parallel_chunks that no chunk covers: pool start,
        # pickling, result transfer and shutdown
        "montecarlo.pool_s": own["montecarlo.parallel"],
        "montecarlo.tube_s": own["montecarlo.tube"],
        "cli.parse_s": own["cli.parse"],
        "cli.write_s": own["cli.write"],
    }
    layers = Counter()
    for name, seconds in own.items():
        layers[name.split(".", 1)[0]] += seconds
    return m, {layer: layers[layer] for layer in LAYERS}
