import dataclasses

import numpy as np
import pytest

from rsdekit import (Ball, Coefficients, HalfSpace, SamplePath,
                     StartOutsideDomain, btilde, coefficients_from_pointwise,
                     control_from_path, dyadic_grid, euler_reflected,
                     linear_control, make_coefficients, sample_brownian,
                     shifted_driver, skeleton, solve, wong_zakai,
                     zero_control)
from rsdekit import rsde
from rsdekit.rsde import euler_reflected_batch, shifted_driver_batch

from oracles import refined_grid_reference

HALF_LINE = HalfSpace([1.0], 0.0)
DISC = Ball([0.0, 0.0], 1.0)


class TestBtilde:
    def test_constant_sigma_is_plain_drift(self):
        cf = make_coefficients(2, 2, sigma="const",
                               sigma_params={"matrix": [[1.0, 2.0], [0.0, 1.0]]},
                               b="const", b_params={"value": [0.5, -0.5]})
        x = np.array([0.3, -0.7])
        assert np.allclose(btilde(cf, x), [0.5, -0.5])

    def test_linear_sigma(self):
        # sigma(x) = x, b = 0: correction is sigma' sigma / 2 = x / 2
        cf = make_coefficients(1, 1, sigma="affine",
                               sigma_params={"linear": [[[1.0]]]})
        assert btilde(cf, np.array([3.0]))[0] == pytest.approx(1.5)

    def test_sine_sigma(self):
        cf = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.0, "amp": 1.0},
                               b="const", b_params={"value": 1.0})
        x = 0.7
        expected = 1.0 + 0.5 * np.sin(x) * np.cos(x)
        assert btilde(cf, np.array([x]))[0] == pytest.approx(expected)

    def test_fd_matches_analytic(self):
        rng = np.random.default_rng(2)
        for family, params in (("sin", {"base": 0.5, "amp": 0.25}),
                               ("affine", {"const": [[0.2, 0.0], [0.1, 0.3]],
                                           "linear": np.random.default_rng(0)
                                           .normal(size=(2, 2, 2)).tolist()})):
            cf = make_coefficients(2, 2, sigma=family, sigma_params=params)
            cf_fd = make_coefficients(2, 2, sigma=family, sigma_params=params)
            object.__setattr__(cf_fd, "sigma_jac", None)
            X = rng.normal(size=(1000, 2))
            ana = btilde(cf, X)
            fd = btilde(cf_fd, X)
            rel = np.max(np.abs(ana - fd) / (1.0 + np.abs(ana)))
            assert rel < 1e-5

    @pytest.mark.parametrize("sigma, sigma_params, b, b_params", [
        ("const", {"vlaue": 2.0}, "const", {}),
        ("sin", {"value": 0.5}, "const", {}),
        ("affine", {"constant": 1.0}, "const", {}),
        ("const", {}, "const", {"values": 1.0}),
        ("const", {}, "linear", {"matrx": [[1.0]]}),
    ])
    def test_unknown_family_parameter_raises(self, sigma, sigma_params, b,
                                             b_params):
        # a family's parameters are its keywords: a misspelt one is an
        # error, not a silent default
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_coefficients(1, 1, sigma, sigma_params, b, b_params)

    def test_pointwise_wrapper(self):
        cf = coefficients_from_pointwise(
            1, 1, sigma=lambda x: np.sin(x), b=lambda x: np.zeros(1))
        x = np.array([0.4])
        assert btilde(cf, x)[0] == pytest.approx(0.5 * np.sin(0.4) * np.cos(0.4),
                                                 abs=1e-8)


class TestEulerReflected:
    def test_frozen_coefficients_stay_put(self):
        cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.0})
        w = sample_brownian(2, np.linspace(0, 1, 33), seed=1)
        sol = euler_reflected(DISC, cf, w, x0=[0.1, 0.2])
        assert np.allclose(sol.x.values, [0.1, 0.2])
        assert np.allclose(sol.k.values, 0.0)

    def test_constant_sigma_matches_skorohod_map(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        w = sample_brownian(1, np.linspace(0, 1, 257), seed=3)
        a = euler_reflected(HALF_LINE, cf, w, x0=[0.4])
        b = solve(HALF_LINE, w, x0=[0.4])
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.tv, b.tv)

    def test_state_stays_in_closure(self):
        cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 1.0})
        w = sample_brownian(2, np.linspace(0, 1, 257), seed=4)
        sol = euler_reflected(DISC, cf, w, x0=[0.0, 0.0])
        radii = np.linalg.norm(sol.x.values, axis=1)
        assert np.all(radii <= 1.0 + 1e-12)
        # regulator moves only on boundary contact
        interior = radii[1:] < 1.0 - 1e-12
        tv_inc = np.diff(sol.tv)
        assert np.all(tv_inc[interior] == 0.0)

    def test_start_outside(self):
        cf = make_coefficients(1, 1)
        w = sample_brownian(1, np.linspace(0, 1, 9), seed=5)
        with pytest.raises(StartOutsideDomain):
            euler_reflected(HALF_LINE, cf, w, x0=[-0.5])

    def test_batch_rows_match_single(self):
        cf = make_coefficients(2, 2, sigma="sin",
                               sigma_params={"base": 0.4, "amp": 0.2})
        t = np.linspace(0, 1, 65)
        paths = [sample_brownian(2, t, seed=60 + j) for j in range(3)]
        dW = np.stack([np.diff(w.values, axis=0) for w in paths])
        batch = euler_reflected_batch(DISC, cf, t, dW, np.zeros((3, 2)))
        for j, w in enumerate(paths):
            single = euler_reflected(DISC, cf, w, x0=[0.0, 0.0])
            assert np.array_equal(batch.x[j], single.x.values)


class TestEvaluationCounts:
    """Coefficient evaluations per Ito step, counted at the Coefficients
    methods every integrator goes through."""

    @staticmethod
    def _count(monkeypatch):
        counts = {"sigma_at": 0, "b_at": 0, "jacobian_at": 0}
        for name in counts:
            original = getattr(Coefficients, name)

            def counted(self, X, name=name, original=original):
                counts[name] += 1
                return original(self, X)

            monkeypatch.setattr(Coefficients, name, counted)
        return counts

    @pytest.mark.parametrize("sigma,params", [
        ("sin", {"base": 0.4, "amp": 0.2}), ("const", {"value": 0.5})])
    def test_sigma_once_per_ito_step(self, monkeypatch, sigma, params):
        cf = make_coefficients(2, 2, sigma=sigma, sigma_params=params,
                               b="const", b_params={"value": [0.1, 0.0]})
        times = dyadic_grid(1.0, 5)
        steps = len(times) - 1
        W = np.stack([sample_brownian(2, times, seed=70 + j).values
                      for j in range(3)])
        counts = self._count(monkeypatch)
        euler_reflected_batch(DISC, cf, times, np.diff(W, axis=1),
                              np.zeros(2))
        # the constant family's Jacobian is zero and never evaluated; a
        # constant model is evaluated once per solve, not once per step
        evals = steps if sigma == "sin" else 1
        jac = steps if sigma == "sin" else 0
        assert counts == {"sigma_at": evals, "b_at": evals,
                          "jacobian_at": jac}
        for name in counts:
            counts[name] = 0
        # stacked levels share one batch, so one evaluation per step
        shifted_driver_batch(DISC, cf, times, W, [2, 3], zero_control(1.0, 2),
                             np.zeros(2))
        assert counts == {"sigma_at": evals, "b_at": evals,
                          "jacobian_at": jac}

    def test_constant_coefficients_are_read_only(self):
        cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.5},
                               b="const", b_params={"value": [0.1, -0.2]})
        X = np.zeros((4, 2))
        S, b = cf.sigma_at(X), cf.b_at(X)
        assert S.shape == (4, 2, 2)
        assert np.broadcast_shapes(b.shape, X.shape) == X.shape
        for out in (S, b, cf.sigma_at(X[0])):
            with pytest.raises(ValueError):
                out[...] = 1.0
        w = sample_brownian(2, np.linspace(0, 1, 33), seed=7)
        euler_reflected(DISC, cf, w, x0=[0.0, 0.0])
        assert np.array_equal(cf.sigma_at(X), np.broadcast_to(0.5 * np.eye(2),
                                                              (4, 2, 2)))
        assert np.array_equal(cf.b_at(X), [0.1, -0.2])


class TestWongZakai:
    def test_sigma_zero_is_drift_flow(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 0.0},
                               b="const", b_params={"value": -1.0})
        grid = dyadic_grid(1.0, 6)
        w = sample_brownian(1, grid, seed=6)
        sols = [wong_zakai(HALF_LINE, cf, w, n, 4, [0.5]) for n in (3, 5)]
        assert np.allclose(sols[0].x.values, sols[1].x.values, atol=1e-12)
        # reflected drift flow: decreases to 0 and sticks
        expect = np.maximum(0.5 - grid, 0.0)
        assert np.allclose(sols[0].x.values[:, 0], expect, atol=1e-12)

    def test_first_cell_is_pure_drift(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0},
                               b="const", b_params={"value": 2.0})
        grid = dyadic_grid(1.0, 6)
        w = sample_brownian(1, grid, seed=7)
        sol = wong_zakai(HALF_LINE, cf, w, 3, 4, [0.1])
        first = grid < 0.125
        assert np.allclose(sol.x.values[first, 0], 0.1 + 2.0 * grid[first],
                           atol=1e-12)

    def test_equals_skeleton_of_adapted_control(self):
        cf = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.5, "amp": 0.25})
        grid = dyadic_grid(1.0, 7)
        w = sample_brownian(1, grid, seed=8)
        xn = wong_zakai(HALF_LINE, cf, w, 4, 4, [1.0])
        h = control_from_path(w, 4, 1.0)
        z = skeleton(HALF_LINE, cf, h, 4, [1.0], grid=grid)
        assert np.max(np.abs(xn.x.values - z.x.values)) <= 1e-12


class TestSkeleton:
    def test_explicit_reflection(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        h = linear_control(1.0, [-1.0], n_cells=128)
        sol = skeleton(HALF_LINE, cf, h, 8, [0.5])
        t = h.times
        assert np.allclose(sol.x.values[:, 0], np.maximum(0.5 - t, 0.0),
                           atol=1e-12)
        assert np.allclose(sol.k.values[:, 0], np.maximum(t - 0.5, 0.0),
                           atol=1e-12)

    def test_zero_control_zero_drift_constant(self):
        cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 1.0})
        h = zero_control(1.0, 2, n_cells=16)
        sol = skeleton(DISC, cf, h, 4, [0.3, -0.2])
        assert np.allclose(sol.x.values, [0.3, -0.2])

    def test_holder_bound_stable_under_refinement(self):
        # |Z_t - Z_s|^2 <= C |t - s| with C stable when substeps double
        cf = make_coefficients(2, 2, sigma="sin",
                               sigma_params={"base": 0.4, "amp": 0.2})
        h = __import__("rsdekit").sine_control(1.0, 0.8, 1.0, dim=2, n_cells=64)
        cs = []
        for substeps in (4, 8):
            sol = skeleton(DISC, cf, h, substeps, [0.0, 0.0])
            v, t = sol.x.values, sol.x.times
            best = 0.0
            for L in range(1, len(t)):
                d2 = np.sum((v[L:] - v[:-L]) ** 2, axis=1)
                best = max(best, float(np.max(d2 / (t[L:] - t[:-L]))))
            cs.append(best)
        assert max(cs) <= 2.0 * min(cs)


class TestShiftedDriver:
    def test_sigma_zero_ignores_everything(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 0.0},
                               b="const", b_params={"value": -0.3})
        grid = dyadic_grid(1.0, 6)
        w = sample_brownian(1, grid, seed=9)
        h = linear_control(1.0, [5.0], n_cells=64)
        sol = shifted_driver(HALF_LINE, cf, w, 4, h, [0.2])
        expect = np.maximum(0.2 - 0.3 * grid, 0.0)
        assert np.allclose(sol.x.values[:, 0], expect, atol=1e-12)

    def test_zero_noise_reduces_to_skeleton(self):
        # constant sigma (no Ito correction): with w = 0 the shifted scheme
        # integrates the same reflected ODE as the skeleton
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        grid = dyadic_grid(1.0, 8)
        w0 = SamplePath(grid, np.zeros((len(grid), 1)))
        h = linear_control(1.0, [-1.0], n_cells=256)
        y = shifted_driver(HALF_LINE, cf, w0, 5, h, [0.5])
        z = skeleton(HALF_LINE, cf, h, 1, [0.5], grid=grid)
        assert np.max(np.abs(y.x.values - z.x.values)) <= 1e-10

    def test_fourth_moment_lag_scaling(self):
        # E|Y^n_t - Y^n_s|^4 <= C |t - s|: the fitted log-log exponent over
        # dyadic lags must stay well above the bound's slope threshold
        from rsdekit.montecarlo import brownian_batch
        from rsdekit.rsde import shifted_driver_batch
        cf = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.5, "amp": 0.25})
        grid = dyadic_grid(1.0, 8)
        W = brownian_batch(1, grid, 99, 0, 3000)
        h = linear_control(1.0, [0.3], n_cells=256)
        batch = shifted_driver_batch(HALF_LINE, cf, grid, W, 5, h, [1.0])
        # diffusive regime: lags up to one dyadic cell (beyond that the
        # residual w - w^n saturates and the moment goes flat, far below
        # the |t - s| bound)
        lags = [1, 2, 4, 8]
        moments = []
        for L in lags:
            diff = batch.x[:, L::L, 0] - batch.x[:, :-L:L, 0]
            moments.append(float(np.mean(diff ** 4)))
        slope = np.polyfit(np.log2(np.array(lags) / 256.0),
                           np.log2(moments), 1)[0]
        assert slope >= 0.8
        # the stated bound itself holds across all dyadic lags
        for L in (1, 2, 4, 8, 16, 32, 64):
            diff = batch.x[:, L::L, 0] - batch.x[:, :-L:L, 0]
            assert np.mean(diff ** 4) <= 1.0 * (L / 256.0) ** 0.8

    def test_constraint_and_regulator_support(self):
        cf = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.6})
        grid = dyadic_grid(1.0, 7)
        w = sample_brownian(2, grid, seed=11)
        h = __import__("rsdekit").sine_control(1.0, 1.0, 1.0, dim=2, n_cells=128)
        sol = shifted_driver(DISC, cf, w, 5, h, [0.0, 0.0])
        radii = np.linalg.norm(sol.x.values, axis=1)
        assert np.all(radii <= 1.0 + 1e-12)
        interior = radii[1:] < 1.0 - 1e-12
        assert np.all(np.diff(sol.tv)[interior] == 0.0)


# signed zeros, infinities, NaN, subnormals and ordinary values
SPECIAL = np.array([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 5e-324,
                    -5e-324, 2.2e-308, 1e300, -1e-160])


class TestIncrementKernels:
    @pytest.mark.parametrize("d,d1", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                                      (1, 3), (2, 3)])
    def test_rows_dot_has_the_einsum_bits(self, d, d1):
        rng = np.random.default_rng(10 * d + d1)
        S = rng.choice(SPECIAL, (400, d, d1))
        S[200:] = rng.standard_normal((200, d, d1))
        dW = rng.choice(SPECIAL, (400, 9, d1))
        dW[::3] = rng.standard_normal((134, 9, d1))
        M = rng.standard_normal((d, d1))
        M[0] = -0.0
        M_special = rng.choice(SPECIAL, (d, d1))
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            # contiguous rows, a column view of a driver array, and a
            # read-only broadcast sigma as the constant family returns it;
            # each v also as the step loop reads it, column-major, where the
            # result must still be the einsum's on rows, NaN signs included
            for S_, v in ((S, dW[:, 0]), (S, dW[:, 4]),
                          (np.broadcast_to(M, S.shape), dW[:, 2]),
                          (np.broadcast_to(M_special, S.shape), dW[:, 5]),
                          (S[::2], dW[::2, 8])):
                want = np.einsum("pik,pk->pi", S_, v)
                for v_ in (v, np.asfortranarray(v)):
                    got = rsde._rows_dot(S_, v_)
                    assert np.array_equal(got.view(np.int64),
                                          want.view(np.int64))

    @pytest.mark.parametrize("d,d1", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                                      (1, 3), (2, 3)])
    def test_constant_increments_have_the_per_step_bits(self, d, d1,
                                                        monkeypatch):
        # a constant model forms its increments per block of Euler steps and
        # per coarse cell of a bounded-variation driver; the same model with
        # a drift that is not the const family's takes the per-step path.
        # A stand-in step loop records every increment, unprojected
        rng = np.random.default_rng(100 + 10 * d + d1)
        cf = make_coefficients(
            d, d1, sigma="const",
            sigma_params={"matrix": rng.choice(SPECIAL, (d, d1)).tolist()},
            b="const", b_params={"value": rng.choice(SPECIAL, d).tolist()})
        per_step = dataclasses.replace(cf, b=lambda X, b=cf.b: b(X))
        assert cf.constant and not per_step.constant
        P, steps = 40, 2 * rsde.EULER_BLOCK + 5
        times = np.cumsum(np.concatenate(
            [[0.0], rng.choice([1e-3, 0.25, 5e-324, 3.0], steps)]))
        dW = rng.choice(SPECIAL, (P, steps, d1))
        dW[::3] = rng.standard_normal((len(dW[::3]), steps, d1))
        grid = np.linspace(0.0, 1.0, 9)
        slopes = rng.choice(SPECIAL, (P, 8, d1))
        incs = []

        def stand_in(domain, times, x0, increment_fn, stride=1,
                     record=("x",), blocks=((0, 1),)):
            X = np.array(x0, order="F")
            incs.append(np.stack([increment_fn(i, X)
                                  for i in range(len(times) - 1)]))
            return None, None, None, None

        monkeypatch.setattr(rsde, "drive_batch", stand_in)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for model in (cf, per_step):
                euler_reflected_batch(None, model, times, dW, np.zeros(d))
                rsde._bv_integrate_batch(None, model, grid, slopes,
                                         np.zeros(d), 3)
                rsde._bv_integrate_batch(None, model, grid, slopes[0],
                                         np.zeros((P, d)), 3)
        assert len(incs) == 6
        for got, want in zip(incs[:3], incs[3:]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("substeps", [1, 2, 3, 4, 7, 8])
    def test_refined_grid_is_the_per_cell_linspace(self, substeps):
        rng = np.random.default_rng(substeps)
        grids = [dyadic_grid(1.0, 5), dyadic_grid(0.7, 3),
                 np.cumsum(np.concatenate([[0.0], rng.uniform(1e-3, 1.0, 50)])),
                 np.linspace(0.0, 1.0 / 3.0, 17), np.array([0.0, 1e-300]),
                 np.array([0.0, 1e300, 3e300]), np.array([0.0, 1.0])]
        for grid in grids:
            got = rsde._refined_grid(grid, substeps)
            want = refined_grid_reference(grid, substeps)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sin_family_in_place_has_the_first_written_bits(self, d):
        from oracles import sin_family_reference
        params = {"base": 0.3, "amp": -0.7, "freq": 2.5}
        sigma, jac = rsde._sin_family(d, d, **params)
        ref_sigma, ref_jac = sin_family_reference(d, d, params)
        rng = np.random.default_rng(d)
        X = rng.choice(SPECIAL[np.isfinite(SPECIAL)], (300, d))
        X[150:] = rng.uniform(-10.0, 10.0, (150, d))
        for got, want in ((sigma(X), ref_sigma(X)), (jac(X), ref_jac(X)),
                          (sigma(X[3]), ref_sigma(X[3]))):
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  want.view(np.int64))
