import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rsdekit import (Ball, HalfSpace, NotchedDisc, dyadic_grid, levy_sup,
                     linear_control, make_coefficients, sine_control,
                     tube_sample, zero_control)
from rsdekit import maxprinciple as mp
from rsdekit import montecarlo as mc
from rsdekit.paths import TUBE_SLAB, tube_block

HALF_LINE = HalfSpace([1.0], 0.0)
DISC = Ball([0.0, 0.0], 1.0)
NOTCHED = NotchedDisc()
SIGMA0 = dict(sigma="const", sigma_params={"value": 0.0})
SIN_1D = make_coefficients(1, 1, sigma="sin",
                           sigma_params={"base": 0.5, "amp": 0.25})
HALF_2D = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.5})
SINE_2D = sine_control(1.0, dim=2, n_cells=64)


class TestStatistics:
    def test_mean_ci(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        m, ci = mc.mean_ci(samples)
        assert m == pytest.approx(2.5)
        assert ci == pytest.approx(1.96 * np.std(samples, ddof=1) / 2.0)

    def test_wilson_bounds(self):
        for k, n in ((0, 10), (5, 10), (10, 10), (3, 1000)):
            center, half = mc.wilson(k, n)
            assert 0.0 <= center - half <= center + half <= 1.0

    def test_loglog_fit_exact_power_law(self):
        scales = [2.0 ** -n for n in range(3, 9)]
        values = [7.0 * s ** 0.62 for s in scales]
        fit = mc.loglog_fit(scales, values)
        assert fit.slope == pytest.approx(0.62)
        assert fit.r2 == pytest.approx(1.0)

    def test_chunks_fixed(self):
        assert mc._chunks(600) == [(0, 256), (256, 512), (512, 600)]


class TestDegenerateAndTrivial:
    def test_wz_sigma_zero_degenerate(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        rep = mc.wz_convergence(HALF_LINE, cf, [1.0], 1.0, [3, 4], 8, seed=1,
                                check_substeps=False)
        assert rep.verdict == "degenerate"

    def test_approx_continuity_trivial(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        h = zero_control(1.0, 1)
        rep = mc.approx_continuity(HALF_LINE, cf, [1.0], 1.0, h, 0.3,
                                   [1.5, 1.2], 50, seed=2, grid_level=6)
        for label in ("state", "regulator", "joint"):
            for e in rep.estimates:
                if e.label.startswith(f"P_{label}"):
                    assert e.value == 1.0
        assert rep.verdict == "pass"

    def test_exp_tail_degenerate(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        rep = mc.exp_tail(HALF_LINE, cf, [1.0], 1.0, 64, seed=3, grid_level=5)
        assert rep.verdict == "degenerate"

    def test_moment_scaling_degenerate(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        rep = mc.moment_scaling(HALF_LINE, cf, [1.0],
                                [(0.0, 0.25), (0.0, 0.5)], 1.0, 32, seed=4)
        assert rep.verdict == "degenerate"

    def test_regulator_conditional_sigma_zero(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        rep = mc.regulator_conditional(HALF_LINE, cf, [1.0], 1.0, [1.5, 1.0],
                                       c3=0.25, paths=9000, seed=5,
                                       grid_level=5)
        for e in rep.estimates:
            if e.label.startswith("P_K"):
                assert e.value == 0.0
        assert rep.verdict == "pass"

    def test_support_sigma_zero(self):
        cf = make_coefficients(1, 1, **SIGMA0)
        h = zero_control(1.0, 1)
        rep = mc.support_inclusions(HALF_LINE, cf, [1.0], 1.0, h, 4, 0.5,
                                    40, seed=6, reverse_paths=40,
                                    reverse_grid_level=5)
        assert rep.estimate("forward_mean").value == 0.0
        assert rep.estimate("reverse_hit_proportion").value == 1.0

    def test_holder_deterministic_flow(self):
        # sigma = 0, constant drift c: the flow is Lipschitz with constant c,
        # so the theta-seminorm is c * T^(1-theta), identical across levels
        c, theta = 0.7, 0.2
        cf = make_coefficients(1, 1, **SIGMA0, b="const",
                               b_params={"value": c})
        rep = mc.holder_tightness(HALF_LINE, cf, [0.5], 1.0, theta, [3, 4, 5],
                                  16, seed=7)
        assert rep.estimate("level_mean_spread").value == pytest.approx(1.0)
        for n in (3, 4, 5):
            val = rep.estimate(f"holder_mean_level_{n}").value
            assert val <= c * 1.0 ** (1 - theta) + 1e-9

    def test_holder_near_critical_flag(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 0.5})
        rep = mc.holder_tightness(HALF_LINE, cf, [1.0], 1.0, 0.45, [3, 4],
                                  16, seed=8)
        assert rep.verdict == "near-critical"

    def test_approx_continuity_regulator_channel_nontrivial(self):
        # start near the boundary so wide tubes produce boundary pushes:
        # the regulator channel must then climb toward 1 as the tube narrows
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 0.5})
        h = zero_control(1.0, 1)
        rep = mc.approx_continuity(HALF_LINE, cf, [0.3], 1.0, h, epsilon=0.3,
                                   deltas=[1.3, 0.8, 0.55],
                                   target_accepted=600, seed=20, grid_level=7)
        reg = [rep.estimate(f"P_regulator_delta_{d}").value
               for d in (1.3, 0.8, 0.55)]
        assert reg[0] < 1.0  # pushes exceed epsilon on the widest tube
        assert reg[0] <= reg[1] <= reg[2] == 1.0
        state = rep.estimate("P_state_delta_0.55").value
        assert state >= 0.9
        assert rep.verdict == "pass"

    def test_regulator_conditional_decreasing_with_oracle_crosscheck(self):
        # tighter tubes push less: exceedance proportions fall as delta
        # shrinks, and the proportions agree with the explicit running-max
        # formula evaluated on independently drawn tube samples
        from oracles import reflect_half_line
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        c3, x0 = 0.25, 0.1
        deltas = [0.8, 0.5]
        rep = mc.regulator_conditional(HALF_LINE, cf, [x0], 1.0, deltas, c3,
                                       paths=65536, seed=18, grid_level=7)
        fixed = [rep.estimate(f"P_K_fixed_delta_{d}") for d in deltas]
        assert fixed[1].value <= fixed[0].value
        assert rep.verdict == "pass"
        grid = dyadic_grid(1.0, 7)
        h = zero_control(1.0, 1)
        for delta, est in zip(deltas, fixed):
            hits = 0
            n_oracle = 200
            for j in range(n_oracle):
                w, _ = tube_sample(h, delta, grid, seed=19, stream=j)
                _, ks = reflect_half_line(x0, w.values)
                hits += ks[-1] > c3
            lo, hi = hits / n_oracle - 3 * 0.5 / np.sqrt(n_oracle), \
                hits / n_oracle + 3 * 0.5 / np.sqrt(n_oracle)
            assert lo <= est.value <= hi

    def test_levy_trivial_bound_d1(self):
        # on the tube, |zeta^{11}|_T = sup w^2 / 2 <= delta^2 / 2
        delta = 0.7
        grid = dyadic_grid(1.0, 7)
        h = zero_control(1.0, 1)
        for stream in range(5):
            w, _ = tube_sample(h, delta, grid, seed=9, stream=stream)
            zsup, _ = levy_sup(w)
            assert zsup[0, 0] <= delta ** 2 / 2.0 + 1e-12


class TestTubeMachinery:
    def test_tube_too_narrow_pilot(self):
        with pytest.raises(mc.TubeTooNarrow) as err:
            mc._collect_tube_samples(1, dyadic_grid(1.0, 7),
                                     np.zeros((129, 1)), 0.02, 0, 100,
                                     seed=10, workers=1, tag=1,
                                     max_attempts=100_000)
        assert err.value.acceptance_estimate is not None

    def test_deterministic_accepted_set(self):
        args = (1, dyadic_grid(1.0, 6), np.zeros((65, 1)), 0.8, 0, 200, 11)
        W1, a1, _ = mc._collect_tube_samples(*args, workers=1, tag=2,
                                             max_attempts=10 ** 7)
        W2, a2, _ = mc._collect_tube_samples(*args, workers=3, tag=2,
                                             max_attempts=10 ** 7)
        assert a1 == a2
        assert np.array_equal(W1, W2)


class TestTubeKernel:
    """The time-major block kernel against its plain per-slab form and, in
    law, against the candidate-major kernel in oracles.py; the batch driver
    against its first-written form, bit for bit."""

    TIMES = dyadic_grid(1.0, 5)
    DELTA = {1: 1.0, 2: 1.3, 3: 1.5}

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.int64)

    @classmethod
    def _payload(cls, d1, shifted):
        t, delta = cls.TIMES[:, None], cls.DELTA[d1]
        # a control with |href(0)| = 0.85 delta: node 0 holds the max
        # deviation of every hit that stays closer than that afterwards
        href = 0.85 * delta / np.sqrt(d1) * (1.0 - t) ** 2 \
            + 0.05 * np.arange(d1) * t if shifted else None
        return {"d1": d1, "size": mc.TUBE_BLOCK, "times": cls.TIMES,
                "href": href, "delta": delta, "delta_idx": 1, "seed": 31,
                "tag": 0x7E, "block0": 3}

    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_tube_block_matches_reference(self, d1, shifted):
        from oracles import tube_block_slab_reference
        payload = self._payload(d1, shifted)
        got = tube_block(1, 3, payload)
        want = tube_block_slab_reference(1, 3, payload, TUBE_SLAB)
        assert got["counts"] == want["counts"]
        assert all(0 < c < mc.TUBE_BLOCK for c in got["counts"])
        for key in ("accepted", "rows", "dev"):
            assert len(got[key]) == len(want[key]) == 2
            for a, b in zip(got[key], want[key]):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
                if key != "rows":
                    assert np.array_equal(self._bits(a), self._bits(b))
        if shifted:
            assert np.linalg.norm(payload["href"][0]) in np.concatenate(
                got["dev"])

    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    @pytest.mark.parametrize("d1", [1, 3])
    def test_hit_dev_is_its_max_node_deviation(self, d1, shifted):
        payload = self._payload(d1, shifted)
        href = payload["href"]
        got = tube_block(0, 2, payload)
        for W, dev in zip(got["accepted"], got["dev"]):
            assert np.all(W[:, 0] == 0.0)
            again = np.max(np.linalg.norm(
                W if href is None else W - href, axis=2), axis=1)
            assert np.array_equal(self._bits(dev), self._bits(again))
            assert np.all(dev < payload["delta"])

    @pytest.mark.parametrize("d1", [1, 2])
    def test_hit_counts_agree_with_candidate_major_law(self, d1):
        # same law, independent streams: the Wilson intervals of the two
        # hit proportions over 6 blocks each must overlap
        from oracles import tube_block_reference
        payload = self._payload(d1, False)
        n = 6 * mc.TUBE_BLOCK
        k_time = sum(tube_block(0, 6, payload)["counts"])
        k_cand = sum(tube_block_reference(
            0, 6, {**payload, "tag": 0x7F})["counts"])
        (p_t, h_t), (p_c, h_c) = mc.wilson(k_time, n), mc.wilson(k_cand, n)
        assert abs(p_t - p_c) <= h_t + h_c
        assert 0.05 < k_time / n < 0.95

    @pytest.mark.parametrize("d1", [1, 3])
    def test_brownian_batch_matches_reference(self, d1):
        from oracles import brownian_batch_reference
        times = np.concatenate([[0.0], np.cumsum(
            np.random.default_rng(32).uniform(0.01, 0.05, 40))])
        got = mc.brownian_batch(d1, times, 33, 5, 70)
        want = brownian_batch_reference(d1, times, 33, 5, 70)
        assert got.shape == want.shape == (65, 41, d1)
        assert np.array_equal(self._bits(got), self._bits(want))


class TestNestedDeltaPool:
    """Both nested-delta experiments classify one pool drawn at the widest
    delta, so adding a narrower delta leaves the widest one untouched."""

    @staticmethod
    def _widest(rep, suffix, note_prefixes):
        est = [e for e in rep.estimates if e.label.endswith(suffix)]
        notes = [n for n in rep.notes if n.startswith(note_prefixes)]
        assert est and notes
        return est, notes

    def test_levy_pool(self):
        def run(levy_deltas):
            return mc.smallball_and_levy(
                0.5, [0.5, 0.7, 1.0], [0.25, 0.5, 1.0], 300, seed=34,
                grid_level=5, levy_deltas=levy_deltas,
                levy_attempts=2 * mc.TUBE_BLOCK, levy_grid_level=4)

        both, alone = run((0.8, 0.5)), run((0.8,))
        key = ("_delta_0.8", ("levy delta=0.8", "levy pool"))
        assert self._widest(both, *key) == self._widest(alone, *key)
        wide = both.estimate("P_zeta_gt_0.5delta_delta_0.8").n
        narrow = both.estimate("P_zeta_gt_0.5delta_delta_0.5").n
        assert 0 < narrow <= wide
        assert f"levy delta=0.5: conditioned samples={narrow} of " \
            f"{2 * mc.TUBE_BLOCK} attempts" in both.notes

    def test_regulator_pool(self):
        def run(deltas):
            return mc.regulator_conditional(
                HALF_LINE, SIN_1D, [0.0], 0.5, deltas, 1.0,
                2 * mc.TUBE_BLOCK, seed=35, grid_level=4)

        both, alone = run([0.8, 0.5]), run([0.8])
        key = ("_delta_0.8", ("delta=0.8",))
        assert self._widest(both, *key) == self._widest(alone, *key)
        wide = both.estimate("P_K_fixed_delta_0.8").n
        narrow = both.estimate("P_K_fixed_delta_0.5").n
        assert 0 < narrow <= wide


class TestFitGuards:
    def test_fit_needs_two_distinct_x(self):
        for xs in ([1.0], [2.0, 2.0, 2.0]):
            with pytest.raises(ValueError, match="two distinct"):
                mc._fit(xs, np.arange(len(xs), dtype=float))

    @pytest.mark.parametrize("levels", [[3], [4, 4]])
    def test_rate_experiments_need_two_levels(self, levels):
        with pytest.raises(ValueError, match="two distinct levels"):
            mc.wz_convergence(HALF_LINE, SIN_1D, [1.0], 1.0, levels, 8,
                              seed=1, check_substeps=False)
        with pytest.raises(ValueError, match="two distinct levels"):
            mc.skeleton_convergence(DISC, HALF_2D, [0.0, 0.0], 1.0, SINE_2D,
                                    levels, 8, seed=1)

    @pytest.mark.parametrize("windows", [[(0.0, 0.25)],
                                         [(0.0, 0.25), (0.25, 0.5)]])
    def test_moment_scaling_needs_two_window_lengths(self, windows):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        with pytest.raises(ValueError, match="two distinct lengths"):
            mc.moment_scaling(HALF_LINE, cf, [0.0], windows, 1.0, 16, seed=1)

    def test_exp_tail_with_coinciding_quantiles_is_degenerate(self):
        # from x0 = 3.2 about 0.14% of paths reach the boundary, so every
        # upper-decade quantile of |K|_T is 0 although |K|_T is not constant
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        rep = mc.exp_tail(HALF_LINE, cf, [3.2], 1.0, 4000, seed=1,
                          grid_level=5)
        assert rep.verdict == "degenerate"
        assert rep.rate_fit is None
        assert "upper-decade quantiles of |K|_T coincide; tail fit skipped" \
            in rep.notes

    @pytest.mark.parametrize("deltas, hit", [([0.05, 0.06], 0),
                                             ([0.05, 1.0], 1)])
    def test_smallball_with_fewer_than_two_hit_deltas_fails(self, deltas,
                                                            hit):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mc.smallball_and_levy(0.5, deltas, [0.5], 200, seed=1,
                                        grid_level=6, levy_attempts=8192,
                                        levy_grid_level=4)
        assert rep.verdict == "fail"
        assert rep.rate_fit is None
        assert f"smallball fit needs two hit deltas, got {hit}" in rep.notes


class TestDeterminism:
    CONFIG = dict(x0=[1.0], T=1.0, levels=[3, 4, 5], paths=300, seed=123,
                  check_substeps=True)

    def _run(self, workers):
        cf = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.5, "amp": 0.25})
        return mc.wz_convergence(HALF_LINE, cf, workers=workers, **self.CONFIG)

    def test_repeat_identical(self):
        a, b = self._run(1), self._run(1)
        assert a.to_json() == b.to_json()

    def test_workers_identical(self):
        a, b = self._run(1), self._run(3)
        assert a.to_json() == b.to_json()

    def test_custom_coefficients_fall_back_to_serial(self):
        from rsdekit import coefficients_from_pointwise
        cf = coefficients_from_pointwise(1, 1, sigma=lambda x: np.ones((1, 1)),
                                         b=lambda x: np.zeros(1))
        rep = mc.moment_scaling(HALF_LINE, cf, [0.0], [(0.0, 0.25), (0.0, 0.5)],
                                1.0, 32, seed=5, workers=4)
        assert rep.name == "moment_scaling"

    # each run spans more than one chunk (a chunk holds 256 paths or 8 tube
    # blocks), so workers=2 really splits it across the pool
    EXPERIMENTS = {
        "skeleton_convergence": lambda w: mc.skeleton_convergence(
            DISC, HALF_2D, [0.0, 0.0], 1.0, SINE_2D, [3, 4], 300, seed=21,
            workers=w),
        "holder_tightness": lambda w: mc.holder_tightness(
            DISC, HALF_2D, [0.0, 0.0], 1.0, 0.2, [3, 4], 300, seed=22,
            workers=w, h=SINE_2D),
        "support_inclusions": lambda w: mc.support_inclusions(
            HALF_LINE, SIN_1D, [1.0], 1.0, linear_control(1.0, [0.5]), n=4,
            epsilon=0.5, paths=300, seed=23, reverse_paths=300, workers=w),
        "exp_tail": lambda w: mc.exp_tail(HALF_LINE, SIN_1D, [0.0], 1.0, 300,
                                          seed=24, grid_level=5, workers=w),
        "submartingale_test": lambda w: mp.submartingale_test(
            DISC, HALF_2D, lambda x: float(np.sum(np.square(x))), [0.0, 0.0],
            [0.0, 0.1, 0.2], 300, seed=25, grid_level=5, workers=w),
        "regulator_conditional": lambda w: mc.regulator_conditional(
            HALF_LINE, SIN_1D, [0.0], 0.5, [0.8, 0.5], 1.0, 9 * mc.TUBE_BLOCK,
            seed=26, grid_level=4, workers=w),
        "smallball_and_levy": lambda w: mc.smallball_and_levy(
            0.5, [0.5, 0.7, 1.0], [0.25, 0.5, 1.0], 300, seed=27,
            grid_level=5, levy_attempts=9 * mc.TUBE_BLOCK, levy_grid_level=3,
            workers=w),
        # tube hits given as driver arrays: 300 of them span two chunks
        "approx_continuity": lambda w: mc.approx_continuity(
            HALF_LINE, SIN_1D, [1.0], 1.0, zero_control(1.0, 1), 0.5,
            [0.8, 0.6], 300, seed=31, grid_level=4, workers=w),
        # the nonconvex kind: projection and per-row bisection substeps
        "wz_convergence": lambda w: mc.wz_convergence(
            NOTCHED, HALF_2D, [0.5, 0.4], 1.0, [3, 4], 300, seed=29,
            workers=w),
    }

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_workers_identical(self, name):
        run = self.EXPERIMENTS[name]
        assert run(1).to_json() == run(2).to_json()


class TestOwnedChunkResults:
    """Chunk results are arrays of their own: a view would keep its chunk's
    whole base alive until the runner concatenates every chunk."""

    RUNS = dict(TestDeterminism.EXPERIMENTS, moment_scaling=lambda w:
                mc.moment_scaling(HALF_LINE, SIN_1D, [0.0],
                                  [(0.0, 0.25), (0.0, 0.5)], 1.0, 300, seed=32,
                                  workers=w))

    @staticmethod
    def _arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from TestOwnedChunkResults._arrays(v)
        elif isinstance(value, dict):
            for v in value.values():
                yield from TestOwnedChunkResults._arrays(v)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_every_chunk_result_owns_its_data(self, name, monkeypatch):
        seen = []
        runner = mc.parallel_chunks

        def checked(fn, *args, **kwargs):
            results = runner(fn, *args, **kwargs)
            for result in results:
                for key, value in result.items():
                    seen.extend((fn.__name__, key, a.base is None)
                                for a in self._arrays(value))
            return results

        monkeypatch.setattr(mc, "parallel_chunks", checked)
        self.RUNS[name](1)
        assert seen
        assert [s for s in seen if not s[2]] == []

    def test_serial_exp_tail_holds_one_chunk(self):
        # ten chunks of 256 paths on 513 nodes: one retained (256, 513)
        # total-variation array per chunk would add 10.5 MB to the peak;
        # holding one chunk's work at a time peaks near 5.3 MB
        tracemalloc.start()
        try:
            mc.exp_tail(HALF_LINE, SIN_1D, [0.0], 1.0, 2560, seed=24,
                        grid_level=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _tracing():
    """A fresh import of perfbench/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(run):
    """Call run() under the perfbench/tracing.py tracer; returns the tracer."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        run()
    finally:
        tracing.uninstall(saved)
    return tracer


def test_benchmark_tracer_sees_the_runner():
    # perfbench/tracing.py wraps parallel_chunks and brownian_batch where
    # montecarlo and maxprinciple bind them; a traced run counts chunks and
    # driver draws only if the runner calls them through those bindings
    tracer = _traced(lambda: mc.wz_convergence(
        HALF_LINE, SIN_1D, [1.0], 1.0, [3, 4], 300, seed=28))
    draws = sum(1 for span in tracer.spans if span[0] == "paths.sample")
    assert draws == tracer.counters["montecarlo.chunks"] == 2


def test_benchmark_tracer_sees_the_projection():
    # the tracer wraps project_rows only on classes that define it
    # themselves, so the geometry counts need it on NotchedDisc
    tracer = _traced(lambda: mc.wz_convergence(
        NOTCHED, HALF_2D, [0.5, 0.4], 1.0, [3, 4], 16, seed=30,
        check_substeps=False))
    assert tracer.counters["geometry.rows_in"] > 0
    assert tracer.counters["geometry.rows_moved"] > 0


def test_benchmark_tracer_counts_one_levy_pool():
    # small-ball paths are keyed in one vectorized pass, so the only
    # generators built are one per block of the single Levy pool; the
    # tracer labels tube chunks by their function's name
    tracer = _traced(lambda: mc.smallball_and_levy(
        0.5, [0.5, 0.7, 1.0], [0.25, 0.5, 1.0], 300, seed=36, grid_level=5,
        levy_deltas=(0.8, 0.5), levy_attempts=3 * mc.TUBE_BLOCK,
        levy_grid_level=3))
    assert tracer.counters["paths.streams"] == 3
    assert _tracing().self_times(tracer.spans)["montecarlo.tube"] > 0


class TestReportShape:
    def test_json_roundtrip_and_fields(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        rep = mc.exp_tail(HALF_LINE, cf, [0.0], 1.0, 4000, seed=14,
                          grid_level=7)
        doc = json.loads(rep.to_json())
        for key in ("name", "parameters", "estimates", "rate_fit", "verdict",
                    "seeds", "thresholds", "notes"):
            assert key in doc
        assert doc["seeds"]["seed"] == 14
        sources = {t["source"] for t in doc["thresholds"]}
        assert sources <= {"theory", "policy"}

    def test_proportions_in_unit_interval(self):
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 0.5})
        h = zero_control(1.0, 1)
        rep = mc.approx_continuity(HALF_LINE, cf, [1.0], 1.0, h, 0.3,
                                   [1.0, 0.8], 150, seed=15, grid_level=7)
        for e in rep.estimates:
            if e.kind == "proportion":
                assert 0.0 <= e.value <= 1.0
                assert 0.0 <= e.ci_halfwidth <= 0.5

    def test_moment_scaling_offset_windows(self):
        # windows away from the origin exercise the [s, t] index path
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        rep = mc.moment_scaling(HALF_LINE, cf, [0.0],
                                [(0.125, 0.1875), (0.125, 0.25), (0.125, 0.375)],
                                1.0, 2000, seed=17)
        assert rep.verdict == "pass"

    def test_substeps2x_interval_is_its_own(self, monkeypatch):
        results, run_chunks = [], mc.parallel_chunks

        def capture(*args, **kwargs):
            results.extend(run_chunks(*args, **kwargs))
            return results

        monkeypatch.setattr(mc, "parallel_chunks", capture)
        cf = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.5, "amp": 0.25})
        rep = mc.wz_convergence(HALF_LINE, cf, [1.0], 1.0, [3, 4], 48, seed=9)
        est = {e.label: e for e in rep.estimates}
        for n in (3, 4):
            errs2 = np.concatenate([r[("err2x", n)] for r in results])
            e2 = est[f"E_sup_err_level_{n}_substeps2x"]
            assert (e2.value, e2.ci_halfwidth) == mc.mean_ci(errs2)

    def test_csv_emission(self):
        import io
        cf = make_coefficients(1, 1, sigma="const", sigma_params={"value": 1.0})
        rep = mc.moment_scaling(HALF_LINE, cf, [0.0], [(0.0, 0.25), (0.0, 0.5)],
                                1.0, 64, seed=16)
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "label,value,ci_halfwidth,n,kind"
        assert len(lines) == len(rep.estimates) + 1


def test_serial_run_imports_no_process_pool():
    # the pool module is imported only when a pool starts, so a serial run
    # (the CLI included) does not pay for importing it
    code = ("import sys, rsdekit.cli, rsdekit.montecarlo as mc; "
            "mc.parallel_chunks(slice, 600, 1, {}); "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False"]
