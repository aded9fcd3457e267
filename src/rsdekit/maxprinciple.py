"""Reachable sets, empirical submartingale testing, maximum-principle check.

The reachable set of a start point is sampled by driving the deterministic
skeleton with random piecewise-linear controls of bounded slope and
collecting endpoints at random horizons.  A candidate function u passes the
submartingale test when the empirical t -> E[u(X_t)] is nondecreasing up to
CI overlap; the maximum-principle check then asks whether u is constant on
the sampled reachable cloud whenever the premise (the base point attains
the cloud maximum) holds.

Desk-scale restriction: bounded domains and continuous bounded u make
u(X_t) a genuine submartingale candidate, so no stopping-time localization
is performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import paths as pth
from . import rsde
from .geometry import Membership
# brownian_batch and parallel_chunks are not called here, but stay bound:
# perfbench/tracing.py wraps them in this namespace too
from .montecarlo import (Estimate, ExperimentReport, Threshold,  # noqa: F401
                         brownian_batch, mean_ci, parallel_chunks, run_paths)


@dataclass
class ReachableCloud:
    """Sampled endpoints y = Z_{t0}(x, h) for randomized controls and horizons."""

    base: np.ndarray
    points: np.ndarray          # (n, d), first row is the base point (t0 = 0)
    controls: list = field(default_factory=list)  # (t0, slopes) provenance

    def __len__(self):
        return len(self.points)

    def to_csv(self, fileobj):
        d = self.points.shape[1]
        header = [f"y{j + 1}" for j in range(d)] + ["t0", "control_id"]
        fileobj.write(",".join(header) + "\n")
        for i, p in enumerate(self.points):
            t0 = self.controls[i][0] if i < len(self.controls) else 0.0
            cells = [format(v, ".17g") for v in p] + [format(t0, ".17g"), str(i)]
            fileobj.write(",".join(cells) + "\n")


def _random_controls(d1, n_controls, horizon, segments, slope_max, seed):
    """Bounded-slope piecewise-linear controls; one stream per control index
    so a longer run extends a shorter one without changing its prefix."""
    slopes = np.empty((n_controls, segments, d1))
    t0 = np.empty(n_controls)
    for i in range(n_controls):
        rng = pth.rng_for(seed, 0x5EED, i)
        slopes[i] = rng.uniform(-slope_max, slope_max, size=(segments, d1))
        t0[i] = rng.uniform(0.0, horizon) if i > 0 else 0.0
    return slopes, t0


def reachable_sample(domain, coeffs, x, n_controls, horizon, seed,
                     segments=8, slope_max=4.0, substeps=4):
    """Sample the reachable cloud of x under controlled skeletons.

    The first sample is the base point itself (t0 = 0).  Controls are
    piecewise linear with `segments` cells of slope bounded by slope_max;
    endpoints are read off at per-control random horizons in (0, horizon].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    slopes, t0 = _random_controls(coeffs.d1, int(n_controls), float(horizon),
                                  int(segments), float(slope_max), int(seed))
    grid = np.linspace(0.0, float(horizon), int(segments) * 8 + 1)
    batch, _ = rsde.skeleton_batch(domain, coeffs, grid,
                                   rsde.expand_cell_slopes(slopes, grid,
                                                           float(horizon)),
                                   np.broadcast_to(x, (len(slopes), x.size)).copy(),
                                   substeps)
    # endpoint at the per-control horizon: nearest grid node at or before t0
    idx = np.minimum(np.searchsorted(grid, t0, side="right") - 1, len(grid) - 1)
    idx[0] = 0
    points = batch.x[np.arange(len(slopes)), idx]
    controls = [(float(t0[i]), slopes[i]) for i in range(len(slopes))]
    return ReachableCloud(x, points, controls)


def _submartingale_chunk(c):
    # marginals only: u is applied by the caller, which keeps u arbitrary
    return {"marginals": c.euler().x[:, c.eval_idx, :]}


def submartingale_test(domain, coeffs, u, x, time_grid, paths, seed,
                       grid_level=9, workers=1):
    """Empirical check that t -> E[u(X_t(x))] is nondecreasing.

    Passes when every consecutive pair of means is nondecreasing up to the
    sum of their CI halfwidths.
    """
    time_grid = sorted(float(t) for t in time_grid)
    T = max(time_grid[-1], 1e-9)
    times = pth.dyadic_grid(T, grid_level)
    eval_idx = [int(np.argmin(np.abs(times - t))) for t in time_grid]
    marg = run_paths(_submartingale_chunk, paths, workers, domain, coeffs,
                     times, x, seed, eval_idx=eval_idx)["marginals"]
    report = ExperimentReport(
        name="submartingale_test",
        parameters={"time_grid": time_grid, "paths": int(paths),
                    "x": np.atleast_1d(x).tolist()},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("nondecreasing_within_ci", 0.0, "theory")])
    means, halfs = [], []
    for j, t in enumerate(time_grid):
        vals = np.array([float(u(p)) for p in marg[:, j]])
        m, ci = mean_ci(vals)
        means.append(m)
        halfs.append(ci)
        report.estimates.append(Estimate(f"E_u_at_t_{t}", m, ci, len(vals)))
    ok = all(means[j + 1] >= means[j] - (halfs[j] + halfs[j + 1])
             for j in range(len(means) - 1))
    report.verdict = "pass" if ok else "fail"
    return report


def max_principle_check(domain, u, x, cloud, tolerance):
    """If u attains its cloud maximum at the base point, u must be constant
    on the cloud (oscillation at most twice the tolerance).

    Returns a verdict string: "pass", "fail", or "premise not met" (which is
    an outcome, not a failure).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.allclose(cloud.base, x):
        raise ValueError("cloud was sampled from a different base point")
    for p in cloud.points:
        if domain.contains(p)[0] == Membership.EXTERIOR:
            raise ValueError("cloud contains a point outside the closure")
    vals = np.array([float(u(p)) for p in cloud.points])
    ux = float(u(x))
    if ux < float(np.max(vals)) - tolerance:
        return "premise not met"
    osc = float(np.max(vals) - np.min(vals))
    return "pass" if osc <= 2.0 * tolerance else "fail"


def max_principle_report(domain, coeffs, u, x, n_controls, horizon, seed,
                         tolerance=1e-6, **cloud_kwargs):
    """Convenience wrapper: sample a cloud, run the check, emit a report."""
    cloud = reachable_sample(domain, coeffs, x, n_controls, horizon, seed,
                             **cloud_kwargs)
    verdict = max_principle_check(domain, u, x, cloud, tolerance)
    vals = np.array([float(u(p)) for p in cloud.points])
    report = ExperimentReport(
        name="max_principle",
        parameters={"n_controls": int(n_controls), "horizon": horizon,
                    "tolerance": tolerance, "x": np.atleast_1d(x).tolist()},
        seeds={"seed": int(seed), "streams": "control index", "rng": "philox"},
        thresholds=[Threshold("oscillation_limit", 2.0 * tolerance, "theory")])
    report.estimates.append(Estimate("u_at_base", float(u(np.asarray(x))), 0.0,
                                     1, kind="statistic"))
    report.estimates.append(Estimate("cloud_max", float(np.max(vals)), 0.0,
                                     len(vals), kind="statistic"))
    report.estimates.append(Estimate("cloud_min", float(np.min(vals)), 0.0,
                                     len(vals), kind="statistic"))
    report.estimates.append(Estimate("cloud_size", float(len(vals)), 0.0,
                                     len(vals), kind="statistic"))
    report.verdict = verdict
    return report, cloud
