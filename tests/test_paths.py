import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsdekit import (Control, GridMismatch, SamplePath, TubeTooNarrow,
                     adapted_interpolation, control_from_path,
                     control_from_values, dyadic_grid, holder_seminorm,
                     levy_functionals, levy_sup, linear_control,
                     refine_bridge, sample_brownian, sup_norm, tube_sample,
                     zero_control)
from rsdekit import montecarlo as mc
from rsdekit.montecarlo import brownian_batch
from rsdekit import paths as pth
from rsdekit.paths import (_sq_norm, dyadic_lags, holder_seminorm_batch,
                           lag_scan_sq, oscillation, stream_keys)

from oracles import (holder_pairs_brute, lag_scan_sq_reference,
                     node_index_reference, smallball_1d)


class TestSamplePath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePath(np.array([0.1, 0.2]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SamplePath(np.array([0.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SamplePath(np.array([0.0, 1.0]), np.zeros((3, 1)))

    def test_linear_evaluation_exact(self):
        p = SamplePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert p(0.25) == pytest.approx(0.5)
        assert p(0.75) == pytest.approx(0.5)

    def test_constant_left_evaluation(self):
        p = SamplePath(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]),
                       interpolation="piecewise_constant_left")
        assert p(0.49) == pytest.approx(1.0)
        assert p(0.5) == pytest.approx(2.0)

    def test_restrict_requires_nodes(self):
        p = SamplePath(np.linspace(0, 1, 11), np.zeros(11))
        with pytest.raises(GridMismatch):
            p.restrict([0.0, 0.123])

    def test_csv_full_precision(self):
        p = SamplePath(np.array([0.0, 1.0 / 3.0]), np.array([0.0, np.pi]))
        buf = io.StringIO()
        p.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1"
        t, x = lines[2].split(",")
        assert float(t) == 1.0 / 3.0
        assert float(x) == np.pi


class TestBrownian:
    def test_single_node_grid(self):
        w = sample_brownian(1, np.array([0.0]), seed=1)
        assert w.values.shape == (1, 1)
        assert w.values[0, 0] == 0.0

    def test_determinism_and_stream_separation(self):
        grid = np.linspace(0, 1, 65)
        a = sample_brownian(2, grid, seed=7, stream=3)
        b = sample_brownian(2, grid, seed=7, stream=3)
        c = sample_brownian(2, grid, seed=7, stream=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_batch_matches_streams(self):
        grid = np.linspace(0, 1, 33)
        W = brownian_batch(2, grid, 9, 5, 8)
        for j, stream in enumerate(range(5, 8)):
            w = sample_brownian(2, grid, 9, stream)
            assert np.array_equal(W[j], w.values)

    def test_increment_variance_oracle(self):
        # pooled per-coordinate variance of increments/mesh near 1
        grid = dyadic_grid(1.0, 10)
        total, count = np.zeros(2), 0
        for lo in range(0, 100_000, 10_000):
            W = brownian_batch(2, grid, 123, lo, lo + 10_000)
            inc = np.diff(W, axis=1)
            total += np.sum(inc ** 2, axis=(0, 1)) * 1024.0
            count += inc.shape[0] * inc.shape[1]
        ratio = total / count
        assert np.all(ratio > 0.9) and np.all(ratio < 1.1)


class TestStreamKeys:
    """The vectorized Philox keys equal SeedSequence's, word for word."""

    @staticmethod
    def _want(seed, lo, hi, prefix=()):
        return np.array([np.random.SeedSequence((seed, *prefix, s))
                         .generate_state(2, np.uint64)
                         for s in range(lo, hi)], dtype=np.uint64).reshape(-1, 2)

    @pytest.mark.parametrize("prefix", [(), (0x1E, 3), (2 ** 40, 0, 1)],
                             ids=["none", "two", "multiword"])
    @pytest.mark.parametrize("span", [(0, 3), (2 ** 32 - 2, 2 ** 32)],
                             ids=["first", "last"])
    @pytest.mark.parametrize("seed", [0, 0xA8, 2 ** 32, 2 ** 70 + 5],
                             ids=["0", "small", "2^32", "3words"])
    def test_match_seedsequence(self, seed, span, prefix):
        got = stream_keys(seed, *span, prefix)
        assert got.dtype == np.uint64
        assert np.array_equal(got, self._want(seed, *span, prefix))

    def test_empty_span(self):
        assert stream_keys(7, 5, 5).shape == (0, 2)
        assert brownian_batch(2, np.linspace(0, 1, 5), 7, 5, 5).shape \
            == (0, 5, 2)

    @pytest.mark.parametrize("span", [(2 ** 32, 2 ** 32 + 1), (0, 2 ** 32 + 1)])
    def test_stream_past_32_bits_rejected(self, span):
        with pytest.raises(ValueError):
            stream_keys(1, *span)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            stream_keys(-1, 0, 2)

    def test_batch_with_multiword_seed_matches_streams(self):
        grid = np.linspace(0, 1, 17)
        W = brownian_batch(1, grid, 2 ** 40 + 3, 2 ** 32 - 2, 2 ** 32)
        for j, stream in enumerate(range(2 ** 32 - 2, 2 ** 32)):
            w = sample_brownian(1, grid, 2 ** 40 + 3, stream)
            assert np.array_equal(W[j], w.values)

    def test_hash_operands_are_numpy_unsigned(self, monkeypatch):
        # A Python int operand would wrap mod 2**32 only under NEP 50
        # promotion (NumPy 2); under NumPy 1 it promotes to int64.
        seen = []

        class Probe(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.extend(type(x) if not isinstance(x, (np.ndarray, np.generic))
                            else x.dtype for x in inputs)
                args = [np.asarray(x) for x in inputs]
                out = getattr(ufunc, method)(*args, **kwargs)
                return out.view(Probe) if isinstance(out, np.ndarray) else out

        for name in ("full", "arange", "zeros"):
            make = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *a, _make=make, **k: _make(*a, **k).view(Probe))
        got = stream_keys(2 ** 70 + 5, 7, 12, (3,))
        monkeypatch.undo()
        assert seen and set(seen) <= {np.dtype(np.uint32), np.dtype(np.uint64)}
        assert np.array_equal(got, self._want(2 ** 70 + 5, 7, 12, (3,)))


class TestBridge:
    def test_endpoints_exact(self):
        w = sample_brownian(2, np.linspace(0, 1, 17), seed=3)
        r = refine_bridge(w, seed=4)
        assert np.array_equal(r.values[0::2], w.values)
        assert len(r.times) == 33

    def test_midpoint_conditional_law(self):
        # one refinement of a long path gives many iid standardized midpoints
        n = 100_000
        grid = np.linspace(0.0, n * 0.01, n + 1)
        w = sample_brownian(1, grid, seed=5)
        r = refine_bridge(w, seed=6)
        mids = r.values[1::2, 0]
        cond_mean = 0.5 * (w.values[:-1, 0] + w.values[1:, 0])
        z = (mids - cond_mean) / np.sqrt(0.01 / 4.0)
        assert abs(np.mean(z)) < 3.0 / np.sqrt(n)
        assert 0.9 < np.var(z) < 1.1


class TestAdaptedInterpolation:
    def test_first_cell_constant(self):
        grid = dyadic_grid(1.0, 4)
        w = sample_brownian(1, grid, seed=8)
        wn = adapted_interpolation(w, 2, 1.0)
        first = wn.values[wn.times < 0.25]
        assert np.allclose(first, w.values[0])

    def test_hand_value(self):
        # T=1, n=1, w(0.5)=0.6: value at 0.75 is 0.6/0.5*(0.75-0.5) = 0.3
        t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        w = SamplePath(t, np.array([0.0, 0.2, 0.6, 0.1, -0.4]))
        wn = adapted_interpolation(w, 1, 1.0)
        assert wn(0.75) == pytest.approx(0.3)

    def test_nodes_are_delayed_values(self):
        grid = dyadic_grid(1.0, 6)
        w = sample_brownian(3, grid, seed=9)
        wn = adapted_interpolation(w, 6, 1.0)
        assert np.array_equal(wn.values[1:], w.values[:-1])

    def test_piecewise_linear_driver_is_shifted(self):
        # linear w on the dyadic grid: w^n(t) = w((t - mesh) v 0) everywhere
        grid = dyadic_grid(1.0, 3)
        fine = dyadic_grid(1.0, 6)
        slope = np.array([1.5, -0.5])
        w = SamplePath(fine, fine[:, None] * slope[None, :])
        wn = adapted_interpolation(w, 3, 1.0)
        shifted = np.maximum(fine - 0.125, 0.0)[:, None] * slope[None, :]
        assert np.allclose(wn.values, shifted, atol=1e-14)

    def test_adapted_to_the_past(self):
        grid = dyadic_grid(1.0, 5)
        w = sample_brownian(1, grid, seed=10)
        wn_full = adapted_interpolation(w, 5, 1.0)
        # value on [0, t_k] may only depend on driver nodes up to t_k:
        # corrupting the strict future must not change the past
        k = 20
        corrupted = w.values.copy()
        corrupted[k + 1:] = 37.0
        wn_part = adapted_interpolation(SamplePath(w.times, corrupted), 5, 1.0)
        past = w.times <= w.times[k]
        assert np.array_equal(wn_full.values[past], wn_part.values[past])

    def test_grid_mismatch(self):
        w = sample_brownian(1, np.linspace(0, 1, 10), seed=1)
        with pytest.raises(GridMismatch):
            adapted_interpolation(w, 3, 1.0)


class TestControl:
    def test_first_cell_derivative_zero(self):
        grid = dyadic_grid(1.0, 4)
        w = sample_brownian(1, grid, seed=11)
        h = control_from_path(w, 4, 1.0)
        assert np.allclose(h.derivative[0], 0.0)

    def test_hand_derivative(self):
        t = np.array([0.0, 0.5, 1.0])
        w = SamplePath(t, np.array([0.0, 0.6, 0.2]))
        h = control_from_path(w, 1, 1.0)
        assert h.derivative[1, 0] == pytest.approx(1.2)

    def test_energy_quadrature(self):
        grid = dyadic_grid(1.0, 5)
        w = sample_brownian(2, grid, seed=12)
        h = control_from_path(w, 5, 1.0)
        delta = 1.0 / 32
        inc = np.diff(w.values, axis=0)
        expected = np.sum(np.sum(inc[:-1] ** 2, axis=1)) / delta
        assert h.energy[-1] == pytest.approx(expected)

    def test_derivative_invariant(self):
        h = control_from_values([0.0, 0.25, 1.0], [[0.0], [1.0], [0.5]])
        dt = np.diff(h.times)
        dv = np.diff(h.path.values, axis=0)
        assert np.allclose(h.derivative, dv / dt[:, None])
        assert np.all(np.diff(h.energy) >= 0)

    def test_window_energy(self):
        h = linear_control(1.0, [2.0], n_cells=4)
        assert h.window_energy(0.25, 0.75) == pytest.approx(4.0 * 0.5)


class TestNorms:
    def test_linear_path_holder(self):
        t = np.linspace(0, 1, 101)
        p = SamplePath(t, t)
        assert holder_seminorm(p, 1.0, 0.5) == pytest.approx(1.0)

    def test_constant_path(self):
        p = SamplePath(np.linspace(0, 1, 11), np.full(11, 2.5))
        assert sup_norm(p) == pytest.approx(2.5)
        assert holder_seminorm(p, 1.0, 0.3) == 0.0

    def test_alpha_zero_is_double_oscillation(self):
        p = SamplePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert sup_norm(p) + holder_seminorm(p, 1.0, 0.0) == pytest.approx(2.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_alpha(self, seed):
        w = sample_brownian(1, np.linspace(0, 1, 33), seed=seed)
        alphas = [0.0, 0.2, 0.4, 0.49]
        vals = [holder_seminorm(w, 1.0, a) for a in alphas]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))

    def test_dyadic_method_is_lower_bound(self):
        w = sample_brownian(1, np.linspace(0, 1, 257), seed=77)
        exact = holder_seminorm(w, 1.0, 0.3, method="exact")
        dyadic = holder_seminorm(w, 1.0, 0.3, method="dyadic")
        assert dyadic <= exact + 1e-12

    def test_oscillation_flat_input_is_one_column(self):
        flat = np.array([0.0, 1.0, 3.0])
        assert oscillation(flat) == 3.0
        assert oscillation(flat) == oscillation(flat[:, None])
        assert oscillation(np.array([2.0])) == 0.0


def _grid(kind, n, rng):
    if kind == "uniform":
        return np.linspace(0.0, 1.0, n)
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])


class TestLagScan:
    ULP = np.finfo(float).eps

    def test_dyadic_lags(self):
        assert dyadic_lags(1) == []
        assert dyadic_lags(2) == [1]
        assert dyadic_lags(257) == [2 ** k for k in range(9)]
        assert dyadic_lags(258) == [2 ** k for k in range(9)]

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("P", [1, 63, 65, 130])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force(self, grid, P, d):
        rng = np.random.default_rng(1000 * P + 10 * d + (grid == "uniform"))
        for N in (2, 17):
            t = _grid(grid, N, rng)
            v = rng.standard_normal((P, N, d))
            for alpha in (0.0, 0.2, 0.5):
                want = np.array([holder_pairs_brute(t, v[i], alpha)
                                 for i in range(P)])
                exact = lag_scan_sq(t, v, alpha)
                for got in (np.sqrt(exact), holder_seminorm_batch(t, v, alpha)):
                    assert np.all(np.abs(got - want) <= 4 * self.ULP * want)
                assert np.all(lag_scan_sq(t, v, alpha, dyadic_lags(N)) <= exact)

    def test_rows_independent_of_tiling(self):
        rng = np.random.default_rng(7)
        for N, walk in ((65, False), (65, True), (257, True)):
            t = _grid("nonuniform", N, rng)
            v = rng.standard_normal((130, N, 2))
            if walk:  # pruned: each row evaluates its own block pairs
                v = np.cumsum(v, axis=1)
            batch = holder_seminorm_batch(t, v, 0.2)
            for i in range(len(v)):
                assert batch[i] == holder_seminorm_batch(t, v[i:i + 1], 0.2)[0]


def _tile_rows(N):
    """Rows per tile of the exact scan of N nodes."""
    nb = -(-N // pth.LAG_SCAN_BLOCK)
    if nb < pth.LAG_SCAN_MIN_BLOCKS:
        return pth.LAG_SCAN_TILE
    return max(1, pth.LAG_SCAN_BUDGET // (nb * nb))


def _walk(rng, P, N, d):
    return np.cumsum(rng.standard_normal((P, N, d)), axis=1)


class TestExactScanBits:
    """The pruned exact scan against the all-lags loop, bit for bit."""

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("N", [2, 3, 9, 17, 64, 65, 257, 513])
    def test_random_walks(self, N, grid):
        rng = np.random.default_rng(N + 1000 * (grid == "uniform"))
        t = _grid(grid, N, rng)
        t *= 0.7 / t[-1]
        for d in (1, 2, 3):
            # one tile, then one row past a tile edge
            for P in (1, _tile_rows(N) + 1):
                v = _walk(rng, P, N, d)
                for alpha in (0.0, 0.2, 0.5):
                    want = lag_scan_sq_reference(t, v, alpha)
                    assert np.array_equal(lag_scan_sq(t, v, alpha), want)
                    if alpha == 0.0:
                        assert np.array_equal(lag_scan_sq(None, v, 0.0), want)

    @pytest.mark.parametrize("N", [65, 257])
    def test_degenerate_paths(self, N):
        t = np.linspace(0.0, 0.7, N)
        flat = np.full((3, N, 2), 0.25)
        line = np.stack([t, -2.0 * t], axis=1)[None]
        steps = np.floor(4.0 * t / 0.7)[None, :, None] * np.ones((1, 1, 2))
        spike = np.zeros((4, N, 2))
        for p, at in enumerate((0, 1, N // 2, N - 1)):
            spike[p, at, p % 2] = 3.0
        for v in (flat, line, steps, spike):
            for alpha in (0.0, 0.2, 0.5):
                assert np.array_equal(lag_scan_sq(t, v, alpha),
                                      lag_scan_sq_reference(t, v, alpha))
        assert np.all(lag_scan_sq(t, flat, 0.5) == 0.0)

    def test_non_finite_rows_as_reference(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 100)
        v = _walk(rng, 5, 100, 2)
        v[1, 50, 0] = np.nan
        v[2, 10, 1] = np.inf
        v[3, 10:12, 1] = np.inf
        with np.errstate(invalid="ignore"):
            got = lag_scan_sq(t, v, 0.3)
            want = lag_scan_sq_reference(t, v, 0.3)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 300), P=st.integers(1, 4), d=st.integers(1, 3),
           alpha=st.sampled_from([0.0, 0.1, 0.25, 0.45, 0.5, 0.9]),
           uniform=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_bit_equal(self, N, P, d, alpha, uniform, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 0.7, N) if uniform else _grid("nonuniform", N, rng)
        v = _walk(rng, P, N, d)
        assert np.array_equal(lag_scan_sq(t, v, alpha),
                              lag_scan_sq_reference(t, v, alpha))

    @pytest.mark.parametrize("P, N", [(64, 4096), (1024, 257), (16, 4096),
                                      (1, 4096)])
    def test_memory_within_twice_reference(self, P, N):
        rng = np.random.default_rng(P)
        t = np.linspace(0.0, 1.0, N)
        v = _walk(rng, P, N, 2)
        peaks, got = [], []
        for scan in (lag_scan_sq_reference, lag_scan_sq):
            tracemalloc.start()
            try:
                got.append(scan(t, v, 0.2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(got[1], got[0])
        assert peaks[1] <= 2 * peaks[0]

    @pytest.mark.parametrize("N", [65, 100, 257])
    def test_bounds_in_strips(self, N, monkeypatch):
        # a budget below one row's nb^2 bounds takes them in strips of
        # LAG_SCAN_BLOCK block rows, the last one short
        monkeypatch.setattr(pth, "LAG_SCAN_BUDGET", 64)
        nb = -(-N // pth.LAG_SCAN_BLOCK)
        plan = pth._BlockPlan(np.linspace(0.0, 1.0, N), 64, N, 0.2)
        assert plan.strip == pth.LAG_SCAN_BLOCK < nb
        rng = np.random.default_rng(N)
        t = _grid("nonuniform", N, rng)
        for v in (_walk(rng, 3, N, 2), _walk(rng, 1, N, 1),
                  np.stack([t, -t], axis=1)[None], np.zeros((2, N, 3))):
            for alpha in (0.0, 0.2, 0.5):
                assert np.array_equal(lag_scan_sq(t, v, alpha),
                                      lag_scan_sq_reference(t, v, alpha))


    @pytest.mark.parametrize("P, N, whole", [
        (1024, 257, True), (1, 257, True), (256, 513, True), (1, 512, True),
        (64, 1025, True), (3, 1025, False), (1, 513, False),
        (63, 2048, False), (64, 4096, False)])
    def test_few_long_rows_take_strips(self, P, N, whole):
        # holder-disc's 257-node rows and criterion 09's 256 rows of 513
        # nodes keep whole strips; fewer than LAG_SCAN_TILE rows of more
        # than 512 nodes take strips of LAG_SCAN_BLOCK block rows
        plan = pth._BlockPlan(np.linspace(0.0, 1.0, N), P, N, 0.2)
        assert plan.strip == (plan.nb if whole else pth.LAG_SCAN_BLOCK)

    def test_few_long_rows_bounded_memory(self):
        # (3, 1025, 2) peaked at 1.54 MB with whole strips; in strips it
        # peaks near 0.31 MB, where evaluating block pairs dominates
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 1025)
        v = _walk(rng, 3, 1025, 2)
        tracemalloc.start()
        try:
            got = lag_scan_sq(t, v, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, lag_scan_sq_reference(t, v, 0.2))
        assert peak < 0.5e6


    @pytest.mark.parametrize("P, N, rows, batch", [
        (1024, 257, 60, 1024), (256, 513, 15, 1024), (1, 1025, 1, 129),
        (3, 1025, 3, 387)])
    def test_block_pair_batch_follows_the_tile(self, P, N, rows, batch):
        # holder-disc's and criterion 09's tiles keep batches of 1024 block
        # pairs; a few long rows take B node pairs per bound of a strip
        plan = pth._BlockPlan(np.linspace(0.0, 1.0, N), P, N, 0.2)
        assert min(P, plan.tile_rows) == rows
        assert plan.batch == batch

    def test_few_rows_block_pairs_bounded_memory(self):
        # alpha 0 on uniform noise: every block pair of a strip beats the
        # row's best, so the batch fills; in batches of 1024 block pairs
        # this (1, 1025, 2) scan peaked at 0.864 MB, now near 0.34 MB
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 1025)
        v = rng.uniform(0.0, 1.0, (1, 1025, 2))
        tracemalloc.start()
        try:
            got = lag_scan_sq(t, v, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, lag_scan_sq_reference(t, v, 0.0))
        assert peak < 0.45e6


class TestSqNorm:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sqrt_has_linalg_norm_bits(self, d):
        rng = np.random.default_rng(d)
        V = rng.standard_normal((4096, d)) * 10.0 ** rng.integers(-8, 8, (4096, d))
        V[::7] = 0.0
        V[1::11, 0] = 1e-200
        V[2::13] = 1e200
        V[3::17, -1] = -1e200
        with np.errstate(over="ignore"):
            for rows in (V, V[::3], np.repeat(V[:, None], 3, axis=1)[:, 1]):
                assert np.array_equal(np.sqrt(_sq_norm(rows)),
                                      np.linalg.norm(rows, axis=1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sup_distance_of_path_batches(self, d):
        # (P, N, d) against (N, d) and (P, N, d), as _sup_dist takes them;
        # one row holds a NaN, one path is all zeros
        rng = np.random.default_rng(10 + d)
        A = rng.standard_normal((37, 65, d)) * 10.0 ** rng.integers(
            -8, 8, (37, 65, d))
        A[3, 7, 0] = np.nan
        A[5] = 0.0
        A[6, ::5] = 1e-200
        for B in (np.zeros((65, d)), rng.standard_normal((65, d)),
                  rng.standard_normal((37, 65, d)), A[:, ::-1]):
            norms = np.linalg.norm(A - B, axis=-1)
            assert np.array_equal(np.sqrt(_sq_norm(A - B)), norms,
                                  equal_nan=True)
            want = np.max(norms, axis=-1)
            got = mc._sup_dist(A, B)
            assert np.isnan(got[3]) and np.isnan(want[3])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


    @pytest.mark.parametrize("d", [8, 9, 16])
    def test_sums_left_to_right_from_eight_coordinates(self, d):
        # from 8 coordinates np.linalg.norm's order depends on the layout
        # and row count; _sq_norm keeps the left-to-right order, so each
        # row has the bits of its own Python float sum in any batch
        rng = np.random.default_rng(d)
        V = rng.standard_normal((513, d)) * 10.0 ** rng.integers(-8, 8, (513, d))
        V[::7, :3] = 0.0
        V[1::11, -1] = 1e-200
        want = np.empty(len(V))
        for i, row in enumerate(V.tolist()):
            acc = row[0] * row[0]
            for v in row[1:]:
                acc += v * v
            want[i] = acc
        for rows, w in ((V, want), (V[::3], want[::3]), (V[:8], want[:8]),
                        (V[5:6], want[5:6]), (np.asfortranarray(V), want),
                        (V[:, None].repeat(2, axis=1)[:, 1], want)):
            assert np.array_equal(_sq_norm(rows).view(np.int64),
                                  w.view(np.int64))


class TestNodeIndices:
    def test_matches_scalar_node_index(self):
        grid = pth.dyadic_grid(1.0, 6)
        rng = np.random.default_rng(3)
        times = np.concatenate([
            pth.dyadic_grid(1.0, 3), grid[rng.permutation(len(grid))],
            grid[[0, 1, -2, -1]] + [-5e-13, 9e-13, -9e-13, 5e-13],
            [0.5, 0.25 + 1e-13]])
        want = [node_index_reference(grid, t) for t in times]
        got = pth.node_indices(grid, times)
        assert got.tolist() == want
        assert SamplePath(grid, np.zeros((len(grid), 1))).node_index(
            times[-1]) == want[-1]

    def test_nearest_of_three_candidates_wins_in_order(self):
        # with a tolerance wider than the mesh, the node before the sorted
        # position comes first, as in the scalar lookup
        grid = np.linspace(0.0, 1.0, 11)
        times = np.linspace(0.0, 1.0, 41)
        got = pth.node_indices(grid, times, tol=0.15)
        assert got.tolist() == [node_index_reference(grid, t, 0.15)
                                for t in times]

    @pytest.mark.parametrize("bad", [[0.3], [0.25, 1.0 / 3.0, 0.7],
                                     [1.0 + 1e-9], [-1e-9], [np.nan]])
    def test_off_grid_times_raise_as_the_scalar_lookup(self, bad):
        grid = pth.dyadic_grid(1.0, 6)
        times = np.concatenate([[0.5], bad])
        first = next(t for t in times
                     if not np.any(np.abs(grid - t) <= 1e-12))
        with pytest.raises(GridMismatch) as want:
            node_index_reference(grid, first)
        with pytest.raises(GridMismatch) as got:
            pth.node_indices(grid, times)
        assert str(got.value) == str(want.value)
        with pytest.raises(GridMismatch):
            SamplePath(grid, np.zeros((len(grid), 1))).restrict(times)


class TestLevy:
    def test_analytic_parabola(self):
        # w = (t, t^2): int w1 o dw2 = 2/3, int w2 o dw1 = 1/3, area = 1/6
        t = np.linspace(0, 1, 4001)
        w = SamplePath(t, np.stack([t, t ** 2], axis=1))
        zeta, kappa = levy_functionals(w)
        assert zeta[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert zeta[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert kappa[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_one_dimensional_identities(self):
        w = sample_brownian(1, np.linspace(0, 1, 129), seed=21)
        zeta, kappa = levy_functionals(w)
        assert kappa[0, 0] == 0.0
        assert zeta[0, 0] == pytest.approx(w.values[-1, 0] ** 2 / 2.0, abs=1e-14)

    def test_parts_identity_exact(self):
        w = sample_brownian(3, np.linspace(0, 1, 257), seed=22)
        zeta, kappa = levy_functionals(w)
        wT = w.values[-1]
        assert np.allclose(zeta + zeta.T, np.outer(wT, wT), atol=1e-13)
        assert np.allclose(kappa, -kappa.T)

    def test_levy_sup_dominates_endpoint(self):
        w = sample_brownian(2, np.linspace(0, 1, 129), seed=23)
        zeta, _ = levy_functionals(w)
        zsup, _ = levy_sup(w)
        assert np.all(zsup >= np.abs(zeta) - 1e-14)


class TestTube:
    def test_huge_tube_first_try(self):
        h = zero_control(1.0, 1)
        w, attempts = tube_sample(h, 1e6, np.linspace(0, 1, 33), seed=1)
        assert attempts == 1

    def test_postcondition_replay(self):
        h = linear_control(1.0, [0.3])
        grid = np.linspace(0, 1, 65)
        w, _ = tube_sample(h, 0.9, grid, seed=2)
        dev = np.max(np.abs(w.values - h(grid)))
        assert dev < 0.9

    def test_acceptance_matches_smallball_oracle(self):
        # empirical acceptance within a factor 2 of the series value
        delta = 0.5
        grid = dyadic_grid(1.0, 9)
        h = zero_control(1.0, 1)
        total_attempts = 0
        accepted = 60
        for j in range(accepted):
            _, attempts = tube_sample(h, delta, grid, seed=31, stream=j,
                                      max_attempts=100_000)
            total_attempts += attempts
        rate = accepted / total_attempts
        oracle = smallball_1d(delta)
        assert oracle / 2 < rate < oracle * 2

    def test_too_narrow(self):
        h = zero_control(1.0, 1)
        with pytest.raises(TubeTooNarrow):
            tube_sample(h, 0.02, np.linspace(0, 1, 129), seed=3,
                        max_attempts=50)

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            tube_sample(zero_control(1.0, 1), 0.0, np.linspace(0, 1, 5), seed=1)
