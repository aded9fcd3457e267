import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsdekit import (BV_COMPARISON_BOUND, Ball, HalfSpace, NotchedDisc,
                     SamplePath, StartOutsideDomain, dyadic_grid,
                     sample_brownian, solve, verify_bv_comparison,
                     verify_tv_bound)
from rsdekit import paths as pth
from rsdekit import skorohod

from oracles import (advance_reference, lag_scan_sq_reference,
                     reflect_half_line, solve_batch)

HALF_LINE = HalfSpace([1.0], 0.0)
DISC = Ball([0.0, 0.0], 1.0)


def zigzag_driver(seed, n_cells=128, scale=0.25, dim=2):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x216)))
    t = np.linspace(0.0, 1.0, n_cells + 1)
    inc = rng.uniform(-scale, scale, size=(n_cells, dim))
    vals = np.concatenate([np.zeros((1, dim)), np.cumsum(inc, axis=0)])
    return SamplePath(t, vals)


class TestSolve:
    def test_descending_line(self):
        t = np.linspace(0.0, 1.0, 101)
        driver = SamplePath(t, 1.0 - 2.0 * t)
        sol = solve(HALF_LINE, driver, x0=[1.0])
        assert np.allclose(sol.x.values[:, 0], np.maximum(1.0 - 2.0 * t, 0.0),
                           atol=1e-14)
        assert np.allclose(sol.k.values[:, 0], np.maximum(2.0 * t - 1.0, 0.0),
                           atol=1e-14)
        assert sol.tv[-1] == pytest.approx(1.0)

    def test_interior_driver_no_regulator(self):
        t = np.linspace(0.0, 1.0, 33)
        vals = np.stack([0.2 * np.sin(2 * np.pi * t), 0.2 * np.cos(2 * np.pi * t) - 0.2],
                        axis=1)
        driver = SamplePath(t, vals)
        sol = solve(DISC, driver, x0=[0.0, 0.0])
        assert np.allclose(sol.k.values, 0.0)
        assert np.allclose(sol.tv, 0.0)
        assert np.allclose(sol.x.values, vals - vals[0])

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_explicit_formula(self, seed):
        w = sample_brownian(1, np.linspace(0, 1, 129), seed=seed)
        x0 = 0.3
        sol = solve(HALF_LINE, w, x0=[x0])
        xs, ks = reflect_half_line(x0, w.values)
        assert np.max(np.abs(sol.x.values[:, 0] - xs)) <= 1e-12
        assert np.max(np.abs(sol.tv - ks)) <= 1e-12

    def test_start_at_boundary_random_walk(self):
        # the projection recursion IS the running-max formula step by step;
        # only float association separates them
        w = sample_brownian(1, np.linspace(0, 1, 257), seed=5)
        sol = solve(HALF_LINE, w, x0=[0.0])
        xs, _ = reflect_half_line(0.0, w.values)
        assert np.max(np.abs(sol.x.values[:, 0] - xs)) <= 1e-13

    def test_start_outside_raises(self):
        w = sample_brownian(1, np.linspace(0, 1, 9), seed=1)
        with pytest.raises(StartOutsideDomain):
            solve(HALF_LINE, w, x0=[-1.0])

    def test_tv_equals_regulator_increment_sum(self):
        w = sample_brownian(2, np.linspace(0, 1, 129), seed=9)
        sol = solve(DISC, w, x0=[0.0, 0.0])
        inc = np.linalg.norm(np.diff(sol.k.values, axis=0), axis=1)
        assert np.allclose(np.cumsum(inc), sol.tv[1:], atol=1e-12)

    def test_pushes_unit_or_zero(self):
        w = sample_brownian(2, np.linspace(0, 1, 129), seed=10)
        sol = solve(DISC, w, x0=[0.9, 0.0])
        norms = np.linalg.norm(sol.pushes, axis=1)
        assert np.all((norms < 1e-12) | (np.abs(norms - 1.0) < 1e-12))

    def test_contraction_half_line(self):
        # sup |x - x'| <= 2 sup |w - w'| for a common start
        rng = np.random.default_rng(12)
        t = np.linspace(0, 1, 257)
        for _ in range(20):
            w1 = sample_brownian(1, t, seed=rng.integers(1 << 30))
            pert = rng.normal(scale=0.05, size=(len(t), 1))
            pert[0] = 0.0
            w2 = SamplePath(t, w1.values + pert)
            s1 = solve(HALF_LINE, w1, x0=[0.5])
            s2 = solve(HALF_LINE, w2, x0=[0.5])
            lhs = np.max(np.abs(s1.x.values - s2.x.values))
            rhs = 2.0 * np.max(np.abs(w1.values - w2.values))
            assert lhs <= rhs + 1e-12

    def test_mesh_free_on_half_line(self):
        # piecewise-linear driver: coarse-grid solve equals refined solve at
        # the shared nodes (running-max formula has no mesh error in 1-d)
        coarse = dyadic_grid(1.0, 5)
        fine = dyadic_grid(1.0, 8)
        w_c = sample_brownian(1, coarse, seed=77)
        refined_vals = np.interp(fine, coarse, w_c.values[:, 0])
        w_f = SamplePath(fine, refined_vals)
        s_c = solve(HALF_LINE, w_c, x0=[0.2])
        s_f = solve(HALF_LINE, w_f, x0=[0.2])
        idx = [int(np.argmin(np.abs(fine - t))) for t in coarse]
        assert np.allclose(s_f.x.values[idx], s_c.x.values, atol=1e-13)

    def test_csv_export(self):
        import io
        w = sample_brownian(2, np.linspace(0, 1, 9), seed=13)
        sol = solve(DISC, w, x0=[0.0, 0.0])
        buf = io.StringIO()
        sol.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,k1,k2,tv"
        assert len(lines) == 10
        cells = lines[3].split(",")
        assert float(cells[0]) == w.times[2]

    def test_batch_matches_single(self):
        t = np.linspace(0, 1, 65)
        drivers = [sample_brownian(2, t, seed=40 + j) for j in range(3)]
        dW = np.stack([np.diff(w.values, axis=0) for w in drivers])
        batch = solve_batch(DISC, t, dW, np.zeros((3, 2)))
        for j, w in enumerate(drivers):
            single = solve(DISC, w, x0=[0.0, 0.0])
            assert np.array_equal(batch.x[j], single.x.values)
            assert np.array_equal(batch.tv[j], single.tv)


class TestAdvanceNonconvex:
    """The nonconvex step against the step as first written, bit for bit."""

    @pytest.mark.parametrize("scale", [0.05, 0.7, "mixed"])
    def test_matches_reference_step(self, scale):
        # r0/2 is 0.1: increments of norm 0.05 are never cut, norm 0.7 are
        # cut into 8, and the mixed batch has rows of 1, 2, 4 and 8 sub-steps
        rng = np.random.default_rng(61)
        dom = NotchedDisc()
        X = dom.interior_points(600, rng)
        X[:100] = dom.boundary_points(100, rng)
        angle = rng.uniform(0.0, 2.0 * np.pi, len(X))
        if scale == "mixed":
            norm = rng.choice([0.0, 0.05, 0.1, 0.15, 0.3, 0.7], len(X))
        else:
            norm = np.full(len(X), scale)
        du = norm[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
        du_strided = np.repeat(du, 2, axis=0)[::2]
        X0, du0 = X.copy(), du.copy()
        for rows in (slice(None), slice(7, 8)):
            got = skorohod._advance(dom, X[rows], du_strided[rows])
            want = advance_reference(dom, X0[rows], du0[rows])
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))
        assert np.array_equal(X, X0) and np.array_equal(du_strided, du0)


class TestTVBound:
    def test_zero_regulator_gives_zero(self):
        t = np.linspace(0, 1, 65)
        vals = np.stack([0.1 * np.sin(t), 0.1 * np.cos(t) - 0.1], axis=1)
        driver = SamplePath(t, vals)
        sol = solve(DISC, driver, x0=[0.0, 0.0])
        rep = verify_tv_bound(DISC, sol, driver, theta=0.5)
        assert rep.fitted_C == 0.0

    def test_descending_line_bounded_by_one(self):
        t = np.linspace(0, 1, 129)
        driver = SamplePath(t, 1.0 - 2.0 * t)
        sol = solve(HALF_LINE, driver, x0=[1.0])
        rep = verify_tv_bound(HALF_LINE, sol, driver, theta=1.0)
        # |k|_t^s <= osc_w on every window, so the fitted constant cannot
        # exceed 1 for any exponents
        assert rep.fitted_C <= 1.0 + 1e-12

    def test_theta_validated(self):
        t = np.linspace(0, 1, 9)
        driver = SamplePath(t, np.zeros((9, 1)))
        sol = solve(HALF_LINE, driver, x0=[1.0])
        with pytest.raises(ValueError):
            verify_tv_bound(HALF_LINE, sol, driver, theta=0.0)

    def test_same_report_as_reference_scan(self, monkeypatch):
        # the windows' oscillation runs the exact scan, pruned on long windows
        w = sample_brownian(2, dyadic_grid(1.0, 8), seed=41)
        sol = solve(DISC, w, x0=[0.9, 0.0])
        got = verify_tv_bound(DISC, sol, w, theta=0.5)
        monkeypatch.setattr(pth, "lag_scan_sq", lag_scan_sq_reference)
        monkeypatch.setattr(skorohod, "lag_scan_sq", lag_scan_sq_reference)
        assert got.fitted_C > 0
        assert verify_tv_bound(DISC, sol, w, theta=0.5) == got

    def test_stable_under_refinement(self):
        # fitted C within x2 across meshes 2^6 -> 2^10 with common drivers
        fine = dyadic_grid(1.0, 10)
        ratios = []
        for seed in range(100):
            w = sample_brownian(2, fine, seed=1000 + seed)
            cs = []
            for level in (6, 10):
                nodes = dyadic_grid(1.0, level)
                sub = w.restrict(nodes)
                sol = solve(DISC, sub, x0=[0.9, 0.0])
                cs.append(verify_tv_bound(DISC, sol, sub, theta=0.5).fitted_C)
            if min(cs) > 0:
                ratios.append(max(cs) / min(cs))
        assert np.median(ratios) <= 2.0


class TestBVComparison:
    def test_interior_ratio_one(self):
        t = np.linspace(0, 1, 65)
        vals = np.stack([0.2 * np.sin(t), 0.2 * (np.cos(t) - 1.0)], axis=1)
        rep = verify_bv_comparison(DISC, SamplePath(t, vals), x0=[0.0, 0.0])
        assert rep.max_ratio == pytest.approx(1.0)
        assert rep.passed

    def test_descending_half_line(self):
        t = np.linspace(0, 1, 129)
        rep = verify_bv_comparison(HALF_LINE, SamplePath(t, 1.0 - 2.0 * t))
        assert rep.max_ratio <= 2.0

    def test_zigzag_square_within_bound(self):
        square = __import__("rsdekit").AxisBox([0, 0], [1, 1])
        worst = 0.0
        for seed in range(50):
            driver = zigzag_driver(seed)
            rep = verify_bv_comparison(square, driver, x0=[0.5, 0.5])
            worst = max(worst, rep.max_ratio)
        assert worst <= BV_COMPARISON_BOUND + 1e-6
