"""Row independence, step invariants and bitwise references of the
projection stepping kernel, on every shipped domain kind."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

import oracles
from rsdekit import (AxisBox, Ball, ConvexPolytope, HalfSpace, NotchedDisc,
                     SamplePath, dyadic_grid, make_coefficients, sine_control)
from rsdekit import rsde
from rsdekit.geometry import BOUNDARY_TOL
from rsdekit.montecarlo import brownian_batch
from rsdekit.rsde import (euler_reflected, euler_reflected_batch,
                          shifted_driver, shifted_driver_batch, skeleton,
                          skeleton_batch, wong_zakai, wong_zakai_batch)
from rsdekit.skorohod import drive_batch

# (domain, start) per kind; all two-dimensional so one model drives them all
KINDS = {
    "half_space": (HalfSpace([0.0, 1.0], 0.0), [0.3, 0.2]),
    "ball": (Ball([0.0, 0.0], 1.0), [0.5, 0.0]),
    "axis_box": (AxisBox([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5]),
    "convex_polytope": (ConvexPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                       [0.0, 0.0, 1.0], [0.25, 0.25]),
                        [0.25, 0.25]),
    "notched_disc": (NotchedDisc(), [0.5, 0.4]),
}
SIN = make_coefficients(2, 2, sigma="sin", sigma_params={"base": 0.6, "amp": 0.3})


def _rows_equal(batch, singles):
    for p, single in enumerate(singles):
        assert np.array_equal(batch.x[p], single.x[0])
        assert np.array_equal(batch.k[p], single.k[0])
        assert np.array_equal(batch.tv[p], single.tv[0])
        assert np.array_equal(batch.pushes[p], single.pushes[0])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_euler_rows_equal_single_path_solves(kind):
    dom, x0 = KINDS[kind]
    times = dyadic_grid(1.0, 7)
    dW = np.diff(brownian_batch(2, times, 3, 0, 16), axis=1)
    # one row with large increments: on the nonconvex kind it is bisected
    # many times, which must leave the other rows alone
    dW[5] *= 6.0
    batch = euler_reflected_batch(dom, SIN, times, dW, x0, pushes=True)
    _rows_equal(batch, [euler_reflected_batch(dom, SIN, times, dW[p:p + 1],
                                              x0, pushes=True)
                        for p in range(len(dW))])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stacked_levels_equal_per_level_solves(kind):
    dom, x0 = KINDS[kind]
    levels = [3, 4, 5]
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 7, 0, 6)
    h = sine_control(1.0, amplitude=0.5, dim=2, n_cells=64)
    stacked = [wong_zakai_batch(dom, SIN, times, W, levels, 2, x0,
                                pushes=True),
               shifted_driver_batch(dom, SIN, times, W, levels, h, x0,
                                    pushes=True)]
    for j, n in enumerate(levels):
        rows = slice(j * len(W), (j + 1) * len(W))
        per_level = [wong_zakai_batch(dom, SIN, times, W, n, 2, x0,
                                      pushes=True),
                     shifted_driver_batch(dom, SIN, times, W, n, h, x0,
                                          pushes=True)]
        for batch, single in zip(stacked, per_level):
            assert np.array_equal(batch.x[rows], single.x)
            assert np.array_equal(batch.k[rows], single.k)
            assert np.array_equal(batch.tv[rows], single.tv)
            assert np.array_equal(batch.pushes[rows], single.pushes)


class _Recorder:
    """A domain that records every projection it performs."""

    def __init__(self, domain):
        self.domain = domain
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.domain, name)

    def project_rows(self, Y):
        X, K, dist = self.domain.project_rows(Y)
        self.calls.append((Y.copy(), X.copy(), dist.copy()))
        return X, K, dist


def _in_normal_cone(domain, x, v):
    normals = domain.active_normals(x)
    if not normals:
        return False
    _, residual = nnls(np.asarray(normals).T, v)
    return residual <= 1e-7


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(seed=st.integers(0, 10_000), scale=st.floats(0.05, 2.0))
@settings(max_examples=15, deadline=None)
def test_step_invariants(kind, seed, scale):
    dom, x0 = KINDS[kind]
    rec = _Recorder(dom)
    times = dyadic_grid(1.0, 5)
    dW = scale * np.diff(brownian_batch(2, times, seed, 0, 4), axis=1)
    x, k, tv, pushes = drive_batch(rec, times, np.tile(x0, (4, 1)),
                                   lambda i, X: dW[:, i], pushes=True)
    # the state stays in the closure
    assert np.all(dom.signed_distance(x.reshape(-1, 2)) <= BOUNDARY_TOL)
    # total variation never decreases; pushes are unit vectors or zero
    assert np.all(np.diff(tv, axis=1) >= 0.0)
    norms = np.linalg.norm(pushes, axis=2)
    assert np.all((norms == 0.0) | (np.abs(norms - 1.0) < 1e-12))
    # every projection, bisection sub-steps included, pushes along the
    # inward normal cone at the point it lands on
    for Y, X, dist in rec.calls:
        moved = dist > 0
        assert np.allclose(np.linalg.norm(X - Y, axis=1), dist, atol=1e-12)
        for y, xp, d in zip(Y[moved], X[moved], dist[moved]):
            assert _in_normal_cone(dom, xp, (xp - y) / d)


# one-dimensional kinds for the d = 1 models
KINDS_1D = {
    "half_space": (HalfSpace([1.0], 0.0), [0.3]),
    "ball": (Ball([0.0], 1.0), [0.5]),
    "axis_box": (AxisBox([0.0], [1.0]), [0.5]),
}
# sigma families by (name, d): the sin diagonal takes both signs, so a
# zero off the diagonal could come out as -0.0
SIGMAS = {
    ("const", 2): {"matrix": [[0.6, -0.2], [0.1, 0.5]]},
    ("sin", 2): {"base": 0.2, "amp": 0.5},
    ("affine", 2): {"const": [[0.4, 0.0], [0.1, 0.3]],
                    "linear": [[[0.1, -0.2], [0.0, 0.1]],
                               [[0.05, 0.0], [-0.1, 0.2]]]},
    ("sin", 1): {"base": 0.2, "amp": 0.5},
}
DRIFTS = {
    "zero": ("const", lambda d: {}),
    "const": ("const", lambda d: {"value": [0.3, -0.2][:d]}),
    "linear": ("linear", lambda d: {"matrix": np.diag([-0.5, -0.3][:d]),
                                    "const": [0.1, 0.0][:d]}),
}
REFERENCE_SIGMAS = {"const": oracles.const_family_reference,
                    "sin": oracles.sin_family_reference}


def _reference_coefficients(cf, sigma, sigma_params, drift, b_params):
    """cf with its const and sin families and its const drift as first
    written."""
    d = cf.d
    if sigma in REFERENCE_SIGMAS:
        sig, jac = REFERENCE_SIGMAS[sigma](d, d, sigma_params)
        cf = dataclasses.replace(cf, sigma=sig, sigma_jac=jac)
    if drift == "const":
        cf = dataclasses.replace(cf, b=oracles.const_drift_reference(d, b_params))
    return cf


def _integrate_all(dom, cf, x0):
    """Every integrator on one small driver batch, as (x, k, tv), then every
    single-path solver, as (x, k, tv, pushes); one row's increments are
    large, so nonconvex kinds bisect it, and the single paths take it."""
    d = cf.d
    times = dyadic_grid(1.0, 5)
    W = brownian_batch(d, times, 11, 0, 6)
    W[4] *= 6.0
    h = sine_control(1.0, amplitude=0.5, dim=d, n_cells=64)
    grid = dyadic_grid(1.0, 3)
    slopes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 8, d))
    runs = [euler_reflected_batch(dom, cf, times, np.diff(W, axis=1), x0),
            wong_zakai_batch(dom, cf, times, W, [2, 3], 2, x0),
            shifted_driver_batch(dom, cf, times, W, [2, 3], h, x0),
            skeleton_batch(dom, cf, grid, slopes, x0, 4)]
    w = SamplePath(times, W[4])
    singles = [euler_reflected(dom, cf, w, x0),
               wong_zakai(dom, cf, w, 3, 2, x0),
               shifted_driver(dom, cf, w, 3, h, x0),
               skeleton(dom, cf, h, 4, x0, grid=grid)]
    return [(b.x, b.k, b.tv) for b in runs] \
        + [(s.x.values, s.k.values, s.tv, s.pushes) for s in singles]


# the five kinds, plus a half-space whose normal has no zero coordinate, so
# that its projection sums two nonzero products
KINDS_2D = dict(KINDS, half_space_tilted=(HalfSpace([0.6, 0.8], -0.1),
                                          [0.3, 0.2]))
_CASES = [(kind, sigma, d, drift)
          for (sigma, d) in SIGMAS for kind in sorted(KINDS_1D if d == 1
                                                       else KINDS_2D)
          for drift in sorted(DRIFTS)]


@pytest.mark.parametrize("kind,sigma,d,drift", _CASES)
def test_integrators_match_the_reference_step(kind, sigma, d, drift,
                                              monkeypatch):
    # x, k, tv and single-path pushes compared as int64 views, so a sign
    # change of a zero shows as a difference; the reference step loop
    # computes pushes whether asked or not
    dom, x0 = (KINDS_1D if d == 1 else KINDS_2D)[kind]
    b_name, b_params = DRIFTS[drift][0], DRIFTS[drift][1](d)
    cf = make_coefficients(d, d, sigma=sigma, sigma_params=SIGMAS[sigma, d],
                           b=b_name, b_params=b_params)
    got = _integrate_all(dom, cf, x0)
    monkeypatch.setattr(rsde, "btilde", oracles.btilde_reference)
    monkeypatch.setattr(rsde, "drive_batch", oracles.drive_batch_reference)
    want = _integrate_all(dom, _reference_coefficients(
        cf, sigma, SIGMAS[sigma, d], b_name, b_params), x0)
    for run, (g, w) in enumerate(zip(got, want)):
        for name, a, b in zip(("x", "k", "tv", "pushes"), g, w):
            assert a.shape == b.shape, (run, name)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), \
                (run, name)


@pytest.mark.parametrize("kind", ["ball", "notched_disc", "half_space"])
@pytest.mark.parametrize("sigma", ["const", "sin", "affine"])
def test_step_state_is_column_major(kind, sigma, monkeypatch):
    # every integrator steps a column-major state, whatever layout its
    # increments come in; the reference step loop stays row-major
    dom, x0 = KINDS[kind]
    cf = make_coefficients(2, 2, sigma=sigma, sigma_params=SIGMAS[sigma, 2])
    for drive, layout in ((drive_batch, "F"),
                          (oracles.drive_batch_reference, "C")):
        monkeypatch.setattr(rsde, "drive_batch", drive)
        seen = set()

        def recorded(X, sigma=cf.sigma):
            if len(X) > 1:
                seen.add("F" if X.flags.f_contiguous else
                         "C" if X.flags.c_contiguous else "strided")
            return sigma(X)

        _integrate_all(dom, dataclasses.replace(cf, sigma=recorded), x0)
        assert seen == {layout}


def test_adapted_slopes_need_no_second_copy():
    # the slopes are built cell-major, so the step loop reads them in place
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 3, 0, 5)
    grid, slopes = rsde._adapted_slopes(times, W, [2, 3, 4])
    assert slopes.shape == (15, 64, 2)
    assert np.shares_memory(rsde._step_major(slopes), slopes)


def test_wong_zakai_memory_at_holder_disc_shape():
    # holder-disc's batch: 4 levels x 256 paths on 256 cells, d1 = 2.  Run
    # alone, this test measured 14,939,717-14,939,877 B on the row-major step
    # loop (14,935,648 B after the other tests of this file) and
    # 14,923,855-14,924,213 B on the column-major one, which no longer
    # copies a shared start (14,920,080 B).  A second copy of the
    # (1024, 256, 2) slopes would add 4.2 MB
    times = dyadic_grid(1.0, 8)
    W = brownian_batch(2, times, 7, 0, 256)
    cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.5})
    tracemalloc.start()
    try:
        wong_zakai_batch(Ball([0.0, 0.0], 1.0), cf, times, W, [4, 5, 6, 7],
                         4, [0.0, 0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14_939_717
