"""Row independence and step invariants of the projection stepping kernel,
on every shipped domain kind."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from rsdekit import (AxisBox, Ball, ConvexPolytope, HalfSpace, NotchedDisc,
                     dyadic_grid, make_coefficients, sine_control)
from rsdekit.geometry import BOUNDARY_TOL
from rsdekit.montecarlo import brownian_batch
from rsdekit.rsde import (euler_reflected_batch, shifted_driver_batch,
                          wong_zakai_batch)
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


def _rows_equal(batch, pushes, singles):
    for p, (single, single_pushes) in enumerate(singles):
        assert np.array_equal(batch.x[p], single.x[0])
        assert np.array_equal(batch.k[p], single.k[0])
        assert np.array_equal(batch.tv[p], single.tv[0])
        assert np.array_equal(pushes[p], single_pushes[0])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_euler_rows_equal_single_path_solves(kind):
    dom, x0 = KINDS[kind]
    times = dyadic_grid(1.0, 7)
    dW = np.diff(brownian_batch(2, times, 3, 0, 16), axis=1)
    # one row with large increments: on the nonconvex kind it is bisected
    # many times, which must leave the other rows alone
    dW[5] *= 6.0
    batch, pushes = euler_reflected_batch(dom, SIN, times, dW, x0)
    _rows_equal(batch, pushes, [euler_reflected_batch(dom, SIN, times,
                                                      dW[p:p + 1], x0)
                                for p in range(len(dW))])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stacked_levels_equal_per_level_solves(kind):
    dom, x0 = KINDS[kind]
    levels = [3, 4, 5]
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 7, 0, 6)
    h = sine_control(1.0, amplitude=0.5, dim=2, n_cells=64)
    stacked = [wong_zakai_batch(dom, SIN, times, W, levels, 2, x0),
               shifted_driver_batch(dom, SIN, times, W, levels, h, x0)]
    for j, n in enumerate(levels):
        rows = slice(j * len(W), (j + 1) * len(W))
        per_level = [wong_zakai_batch(dom, SIN, times, W, n, 2, x0),
                     shifted_driver_batch(dom, SIN, times, W, n, h, x0)]
        for (batch, pushes), (single, single_pushes) in zip(stacked, per_level):
            assert np.array_equal(batch.x[rows], single.x)
            assert np.array_equal(batch.k[rows], single.k)
            assert np.array_equal(batch.tv[rows], single.tv)
            assert np.array_equal(pushes[rows], single_pushes)


class _Recorder:
    """A domain that records every projection it performs."""

    def __init__(self, domain):
        self.domain = domain
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.domain, name)

    def project_rows(self, Y):
        X, N, dist = self.domain.project_rows(Y)
        self.calls.append((Y.copy(), X.copy(), dist.copy()))
        return X, N, dist


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
                                   lambda i, X: dW[:, i])
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
