"""Row independence, step invariants and bitwise references of the
projection stepping kernel, on every shipped domain kind."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

import oracles
from rsdekit import (AxisBox, Ball, ConvexPolytope, HalfSpace, NotchedDisc,
                     SamplePath, coefficients_from_pointwise, dyadic_grid,
                     make_coefficients, sine_control)
from rsdekit import rsde
from rsdekit.geometry import BOUNDARY_TOL
from rsdekit.montecarlo import brownian_batch
from rsdekit.rsde import (euler_reflected, euler_reflected_batch,
                          shifted_driver, shifted_driver_batch, skeleton,
                          skeleton_batch, wong_zakai, wong_zakai_batch)
from rsdekit.skorohod import RECORD_ALL, drive_batch

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
    batch = euler_reflected_batch(dom, SIN, times, dW, x0, RECORD_ALL)
    _rows_equal(batch, [euler_reflected_batch(dom, SIN, times, dW[p:p + 1],
                                              x0, RECORD_ALL)
                        for p in range(len(dW))])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stacked_levels_equal_per_level_solves(kind):
    dom, x0 = KINDS[kind]
    levels = [3, 4, 5]
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 7, 0, 6)
    h = sine_control(1.0, amplitude=0.5, dim=2, n_cells=64)
    stacked = [wong_zakai_batch(dom, SIN, times, W, levels, 2, x0,
                                record=RECORD_ALL),
               shifted_driver_batch(dom, SIN, times, W, levels, h, x0,
                                    record=RECORD_ALL)]
    for j, n in enumerate(levels):
        rows = slice(j * len(W), (j + 1) * len(W))
        per_level = [wong_zakai_batch(dom, SIN, times, W, n, 2, x0,
                                      record=RECORD_ALL),
                     shifted_driver_batch(dom, SIN, times, W, n, h, x0,
                                          record=RECORD_ALL)]
        for batch, single in zip(stacked, per_level):
            assert np.array_equal(batch.x[rows], single.x)
            assert np.array_equal(batch.k[rows], single.k)
            assert np.array_equal(batch.tv[rows], single.tv)
            assert np.array_equal(batch.pushes[rows], single.pushes)


CONST = make_coefficients(2, 2, sigma="const",
                          sigma_params={"matrix": [[0.6, -0.2], [0.1, 0.5]]},
                          b="const", b_params={"value": [0.3, -0.2]})


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("model", ["sin", "const"])
def test_stacked_refinements_equal_separate_solves(kind, model):
    # each refinement's rows of one stacked call have the bits of its own
    # solve, compared as int64 views: x, k, tv, and pushes, which must come
    # from the row's own last step.  One row's increments are large, so the
    # nonconvex kind bisects it; stacked levels, per-path slopes and one
    # shared slope row for every path are covered
    dom, x0 = KINDS[kind]
    cf = {"sin": SIN, "const": CONST}[model]
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 19, 0, 5)
    W[3] *= 6.0
    grid = dyadic_grid(1.0, 3)
    shared = np.random.default_rng(4).uniform(-2.0, 2.0, size=(8, 2))
    starts = np.tile(x0, (3, 1))
    subs = [1, 2, 4, 8]
    runs = [lambda m: wong_zakai_batch(dom, cf, times, W, [3, 4], m, x0,
                                       record=RECORD_ALL),
            lambda m: rsde._bv_integrate_batch(dom, cf, grid, shared, starts,
                                               m, RECORD_ALL)]
    for run in runs:
        stacked = run(subs)
        rows = len(stacked.x) // len(subs)
        for j, m in enumerate(subs):
            single = run(m)
            assert len(single.x) == rows
            for name in RECORD_ALL:
                a = getattr(stacked, name)[j * rows:(j + 1) * rows]
                b = getattr(single, name)
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), \
                    (m, name)


def test_stacked_refinements_need_nested_substeps():
    times = dyadic_grid(1.0, 4)
    W = brownian_batch(2, times, 3, 0, 2)
    with pytest.raises(ValueError, match="each divide the next"):
        wong_zakai_batch(Ball([0.0, 0.0], 1.0), SIN, times, W, 3, [4, 6],
                         [0.0, 0.0])


def test_drive_batch_stride_must_divide_the_steps_and_periods():
    # over 10 steps stride 3 would record nodes 0, 3, 6 and 9 and lose the
    # final state at node 10
    dom = Ball([0.0, 0.0], 1.0)
    times = np.linspace(0.0, 1.0, 11)

    def inc(i, X):
        return np.full(X.shape, 0.01)

    with pytest.raises(ValueError, match="does not divide 10 steps"):
        drive_batch(dom, times, [[0.0, 0.0]], inc, stride=3)
    x = drive_batch(dom, times, [[0.0, 0.0]], inc, stride=5)[0]
    assert np.allclose(x[0, -1], [0.1, 0.1])
    # a block stepping every other iteration would not have arrived at a
    # node recorded every 5th
    starts = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="not a multiple of every"):
        drive_batch(dom, times, starts, inc, stride=5,
                    blocks=((0, 2), (1, 1)))
    with pytest.raises(ValueError, match="multiple of the next"):
        drive_batch(dom, times, starts, inc, stride=10,
                    blocks=((0, 2), (1, 5)))
    x = drive_batch(dom, times, starts, inc, stride=10,
                    blocks=((0, 2), (1, 1)))[0]
    assert np.allclose(x[:, -1], [[0.05, 0.05], [0.1, 0.1]])


def _batch_runs(kind, record):
    """Every batch integrator on one small driver batch, recording `record`;
    one row's increments are large, so the nonconvex kind bisects it."""
    dom, x0 = KINDS[kind]
    times = dyadic_grid(1.0, 5)
    W = brownian_batch(2, times, 13, 0, 5)
    W[2] *= 6.0
    h = sine_control(1.0, amplitude=0.5, dim=2, n_cells=64)
    grid = dyadic_grid(1.0, 3)
    slopes = np.random.default_rng(8).uniform(-2.0, 2.0, size=(5, 8, 2))
    return [euler_reflected_batch(dom, SIN, times, np.diff(W, axis=1), x0,
                                  record),
            wong_zakai_batch(dom, SIN, times, W, [2, 3], 2, x0, record=record),
            shifted_driver_batch(dom, SIN, times, W, [2, 3], h, x0,
                                 record=record),
            skeleton_batch(dom, SIN, grid, slopes, x0, 4, record)]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_batches_record_only_what_is_asked(kind):
    # each requested array has the full recording's bits (a sign change of a
    # zero included); each array not requested is None
    full = _batch_runs(kind, RECORD_ALL)
    for r in range(1, len(RECORD_ALL) + 1):
        for record in itertools.combinations(RECORD_ALL, r):
            for got, want in zip(_batch_runs(kind, record), full):
                for name in RECORD_ALL:
                    a = getattr(got, name)
                    if name not in record:
                        assert a is None, (record, name)
                        continue
                    b = getattr(want, name)
                    assert a.shape == b.shape, (record, name)
                    assert np.array_equal(a.view(np.int64),
                                          b.view(np.int64)), (record, name)


def test_default_records_x_only_and_names_are_checked():
    batch = euler_reflected_batch(Ball([0.0, 0.0], 1.0), SIN, [0.0, 0.5, 1.0],
                                  np.zeros((3, 2, 2)), [0.0, 0.0])
    assert batch.x.shape == (3, 3, 2)
    assert (batch.k, batch.tv, batch.pushes) == (None, None, None)
    with pytest.raises(ValueError, match="cannot record"):
        drive_batch(Ball([0.0, 0.0], 1.0), [0.0, 1.0], [[0.0, 0.0]],
                    lambda i, X: np.zeros((1, 2)), record=("x", "K"))


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
                                   lambda i, X: dW[:, i], record=RECORD_ALL)
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
    """Every integrator on one small driver batch, recording (x, k, tv),
    then every single-path solver, as (x, k, tv, pushes); one row's
    increments are large, so nonconvex kinds bisect it, and the single
    paths take it."""
    d = cf.d
    times = dyadic_grid(1.0, 5)
    W = brownian_batch(d, times, 11, 0, 6)
    W[4] *= 6.0
    h = sine_control(1.0, amplitude=0.5, dim=d, n_cells=64)
    grid = dyadic_grid(1.0, 3)
    slopes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 8, d))
    rec = ("x", "k", "tv")
    runs = [euler_reflected_batch(dom, cf, times, np.diff(W, axis=1), x0, rec),
            wong_zakai_batch(dom, cf, times, W, [2, 3], 2, x0, record=rec),
            shifted_driver_batch(dom, cf, times, W, [2, 3], h, x0, record=rec),
            skeleton_batch(dom, cf, grid, slopes, x0, 4, rec)]
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
    # computes every array and sums whether asked or not
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
    # increments come in; the reference step loop stays row-major.  The
    # state is observed where the step loop hands it to the increment
    # function, which every model receives (a constant model's increments
    # do not read it, so sigma never sees the state)
    dom, x0 = KINDS[kind]
    cf = make_coefficients(2, 2, sigma=sigma, sigma_params=SIGMAS[sigma, 2])
    for drive, layout in ((drive_batch, "F"),
                          (oracles.drive_batch_reference, "C")):
        seen = set()

        def observed(domain, times, x0, increment_fn, *args, drive=drive,
                     **kwargs):
            def inc(i, X):
                if len(X) > 1:
                    seen.add("F" if X.flags.f_contiguous else
                             "C" if X.flags.c_contiguous else "strided")
                return increment_fn(i, X)

            return drive(domain, times, x0, inc, *args, **kwargs)

        monkeypatch.setattr(rsde, "drive_batch", observed)
        _integrate_all(dom, cf, x0)
        assert seen == {layout}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("d1", [1, 2, 3])
def test_constant_models_match_the_per_step_path(kind, d1):
    # a constant model's increments are formed per coarse cell or per block
    # of Euler steps; the same constants wrapped pointwise (a zero Jacobian
    # and no meta) take the per-step path.  A nonzero drift, three stacked
    # levels, and 35 Euler steps, no multiple of the block length
    dom, x0 = KINDS[kind]
    M = np.random.default_rng(d1).uniform(-0.8, 0.8, (2, d1))
    v = np.array([0.3, -0.2])
    cf = make_coefficients(2, d1, sigma="const",
                           sigma_params={"matrix": M.tolist()}, b="const",
                           b_params={"value": v.tolist()})
    pointwise = coefficients_from_pointwise(
        2, d1, lambda x: M, lambda x: v, lambda x: np.zeros((2, d1, 2)))
    assert cf.constant and not pointwise.constant
    times = np.union1d(dyadic_grid(1.0, 5), [0.1, 0.3, 0.77])
    assert (len(times) - 1) % rsde.EULER_BLOCK
    W = brownian_batch(d1, times, 17, 0, 6)
    W[4] *= 6.0
    h = sine_control(1.0, amplitude=0.5, dim=d1, n_cells=64)
    grid = dyadic_grid(1.0, 3)
    slopes = np.random.default_rng(9).uniform(-2.0, 2.0, size=(6, 8, d1))
    w = SamplePath(times, W[4])

    def runs(c):
        return [euler_reflected_batch(dom, c, times, np.diff(W, axis=1), x0,
                                      RECORD_ALL),
                wong_zakai_batch(dom, c, times, W, [2, 3, 4], 3, x0,
                                 record=RECORD_ALL),
                shifted_driver_batch(dom, c, times, W, [2, 3, 4], h, x0,
                                     record=RECORD_ALL),
                skeleton_batch(dom, c, grid, slopes, x0, 4, RECORD_ALL),
                euler_reflected(dom, c, w, x0), skeleton(dom, c, h, 4, x0)]

    def arrays(r):
        if isinstance(r, rsde.BatchPaths):
            return r.x, r.k, r.tv, r.pushes
        return r.x.values, r.k.values, r.tv, r.pushes

    for run, (got, want) in enumerate(zip(runs(cf), runs(pointwise))):
        for name, a, b in zip(RECORD_ALL, arrays(got), arrays(want)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), \
                (run, name)


def test_adapted_slopes_need_no_second_copy():
    # each level's slopes are built step-major on that level's own cells,
    # so the step loop reads a cell's (d1, P) slopes in place; each grid
    # cell reads them through its index.  Expanded onto every grid cell
    # they would be (15, 64, 2), 6.9 times the bytes
    times = dyadic_grid(1.0, 6)
    W = brownian_batch(2, times, 3, 0, 5)
    grid, levels = rsde._adapted_slopes(times, W, [2, 3, 4])
    assert [s.shape for s, _ in levels] == [(4, 2, 5), (8, 2, 5), (16, 2, 5)]
    assert sum(s.nbytes for s, _ in levels) == 28 * 2 * 5 * 8
    for s, idx in levels:
        assert s.flags.c_contiguous and s.base is None
        assert np.array_equal(idx, np.arange(64) // (64 // len(s)))
    expanded = oracles.adapted_slopes_reference(times, W, [2, 3, 4])[1]
    assert expanded.shape == (15, 64, 2)
    for j, (s, idx) in enumerate(levels):
        assert np.array_equal(np.moveaxis(s[idx], -1, 0),
                              expanded[5 * j:5 * (j + 1)])


def _same_bits(got, want):
    for name in RECORD_ALL:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("model", ["sin", "const"])
def test_own_cell_slopes_match_expanded_slopes(kind, model):
    # every stacked solve reading slopes on their own cells has the bits of
    # the same solve fed the slopes copied onto every grid cell.  The
    # driver grid is finer than the level-5 dyadic grid and has nodes off
    # it; T = 0.75 stops the solves before the grid's end; one row's
    # increments are large, so the nonconvex kind bisects it
    dom, x0 = KINDS[kind]
    cf = {"sin": SIN, "const": CONST}[model]
    times = np.union1d(dyadic_grid(1.0, 7), [0.1, 0.3, 0.77])
    W = brownian_batch(2, times, 23, 0, 5)
    W[3] *= 6.0
    h = sine_control(1.0, amplitude=0.5, dim=2, n_cells=64)
    levels = [2, 3, 4]
    for T in (None, 0.75):
        grid, expanded = oracles.adapted_slopes_reference(times, W, levels, T)
        _same_bits(wong_zakai_batch(dom, cf, times, W, levels, [2, 4], x0, T,
                                    RECORD_ALL),
                   rsde._bv_integrate_batch(dom, cf, grid, expanded, x0,
                                            [2, 4], RECORD_ALL))
        _same_bits(shifted_driver_batch(dom, cf, times, W, levels, h, x0, T,
                                        RECORD_ALL),
                   oracles.shifted_driver_batch_reference(
                       dom, cf, times, W, levels, h, x0, T, RECORD_ALL))
    # controls on 4 equal cells, read on a finer grid with nodes off them
    grid = np.union1d(dyadic_grid(1.0, 4), [0.1, 0.3, 0.77])
    slopes = np.random.default_rng(6).uniform(-2.0, 2.0, size=(5, 4, 2))
    _same_bits(skeleton_batch(dom, cf, grid, slopes, x0, [2, 4], RECORD_ALL),
               skeleton_batch(dom, cf, grid, oracles.expand_cell_slopes(
                   slopes, grid, 1.0), x0, [2, 4], RECORD_ALL))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_reachable_sample_matches_expanded_slopes(kind, monkeypatch):
    from rsdekit.maxprinciple import reachable_sample
    dom, x0 = KINDS[kind]
    got = reachable_sample(dom, SIN, x0, 12, 0.5, seed=3, segments=6)
    solve = rsde.skeleton_batch

    def expanded(domain, coeffs, grid, slopes, *args):
        return solve(domain, coeffs, grid,
                     oracles.expand_cell_slopes(slopes, grid, 0.5), *args)

    monkeypatch.setattr(rsde, "skeleton_batch", expanded)
    want = reachable_sample(dom, SIN, x0, 12, 0.5, seed=3, segments=6)
    assert np.array_equal(got.points.view(np.int64),
                          want.points.view(np.int64))


def test_wong_zakai_memory_at_holder_disc_shape():
    # holder-disc's batch: 4 levels x 256 paths on 256 cells, d1 = 2,
    # recording x alone.  After a warm-up call it peaks at 5,450,556-
    # 5,451,508 B.  The bound leaves about 90 KB over that, room for
    # numpy's caches to move the peak by a few KB; a recorded
    # (1024, 257, 2) k alone would add 4.2 MB, and the slopes copied onto
    # every grid cell 3.2 MB
    times = dyadic_grid(1.0, 8)
    W = brownian_batch(2, times, 7, 0, 256)
    cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.5})
    peak = oracles.peak_bytes(lambda: wong_zakai_batch(
        Ball([0.0, 0.0], 1.0), cf, times, W, [4, 5, 6, 7], 4, [0.0, 0.0]))
    assert peak <= 5_545_000
