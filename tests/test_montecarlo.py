import importlib.util
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsdekit import (Ball, HalfSpace, NotchedDisc, dyadic_grid, levy_sup,
                     linear_control, make_coefficients, sine_control,
                     tube_sample, zero_control)
from rsdekit import maxprinciple as mp
from rsdekit import montecarlo as mc
from rsdekit.paths import (TUBE_SLAB, SamplePath, tube_block, tube_draw,
                           tube_payload)

from oracles import peak_bytes

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

    def test_skeleton_convergence_degenerate(self):
        # every level's shifted-driver error is 0, so no ratio is formed
        cf = make_coefficients(1, 1, **SIGMA0)
        rep = mc.skeleton_convergence(HALF_LINE, cf, [0.5], 1.0,
                                      linear_control(1.0, [0.5], 256), [3, 4],
                                      16, seed=1)
        assert rep.verdict == "degenerate"
        assert rep.checks == [] and rep.rate_fit is None

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
        # the outcome overrides the spread rule, which is then not judged
        assert [(c.label, c.passed) for c in rep.checks] == [
            ("stability_factor", None), ("critical_theta", False)]

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
    @staticmethod
    def _collect(monkeypatch, workers, delta, target, seed, grid_level):
        """approx_continuity's tube rounds around a zero control: the
        result of each `_tube_pool` call with its (block0, blocks), and the
        attempt count the report notes."""
        rounds, pool = [], mc._tube_pool

        def recorded(reduce, block0, n, w, payload):
            rounds.append((block0, n, pool(reduce, block0, n, w, payload)))
            return rounds[-1][2]

        with monkeypatch.context() as m:
            m.setattr(mc, "_tube_pool", recorded)
            rep = mc.approx_continuity(
                HALF_LINE, SIN_1D, [1.0], 1.0, zero_control(1.0, 1), 0.5,
                [delta], target, seed, grid_level=grid_level,
                workers=workers, max_attempts=10 ** 7)
        attempts = [int(note.split("attempts=")[1].split()[0])
                    for note in rep.notes if "attempts=" in note]
        return rounds, attempts

    def test_tube_too_narrow_pilot(self):
        with pytest.raises(mc.TubeTooNarrow) as err:
            mc.approx_continuity(HALF_LINE, SIN_1D, [1.0], 1.0,
                                 zero_control(1.0, 1), 0.5, [0.02], 100,
                                 seed=10, grid_level=7, max_attempts=100_000)
        assert err.value.acceptance_estimate is not None

    def test_deterministic_accepted_set(self, monkeypatch):
        (r1, a1), (r3, a3) = (self._collect(monkeypatch, w, 0.8, 200, 11, 6)
                              for w in (1, 3))
        W1, W3 = (np.concatenate([got["W"] for *_, got in r])[:200]
                  for r in (r1, r3))
        assert a1 == a3
        assert np.array_equal(W1, W3)

    def test_top_up_round_spans_two_chunks(self, monkeypatch):
        # the pilot block's 44 hits (acceptance 0.5%) ask a round of 11
        # blocks for the rest of the target, two chunks of the pool
        runs = [self._collect(monkeypatch, w, 0.4, 400, 12, 6)
                for w in (1, 2)]
        for rounds, attempts in runs:
            assert rounds[0][:2] == (0, 1)
            assert len(rounds) == 2 and rounds[1][0] == 1 and rounds[1][1] > 8
            assert attempts == [(1 + rounds[1][1]) * mc.TUBE_BLOCK]
        (r1, a1), (r2, a2) = runs
        assert a1 == a2
        for (b1, n1, got1), (b2, n2, got2) in zip(r1, r2):
            assert (b1, n1) == (b2, n2)
            for key in ("W", "dev", "row"):
                assert np.array_equal(got1[key], got2[key])


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
        return dict(tube_payload(d1, mc.TUBE_BLOCK, cls.TIMES, href, delta,
                                 1, 31, 0x7E), block0=3)

    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_tube_block_matches_reference(self, d1, shifted):
        from oracles import tube_block_slab_reference
        payload = self._payload(d1, shifted)
        got = tube_block(1, 3, payload)
        want = tube_block_slab_reference(1, 3, payload, TUBE_SLAB)
        counts = [len(tube_block(b, b + 1, payload)["W"]) for b in (1, 2)]
        assert counts == [len(tube_block_slab_reference(
            b, b + 1, payload, TUBE_SLAB)["W"]) for b in (1, 2)]
        assert all(0 < c < mc.TUBE_BLOCK for c in counts)
        for key in ("W", "row", "dev"):
            a, b = got[key], want[key]
            assert a.shape == b.shape
            assert np.array_equal(a, b)
            if key != "row":
                assert np.array_equal(self._bits(a), self._bits(b))
        if shifted:
            assert np.linalg.norm(payload["href"][0]) in got["dev"]

    def _draws_agree(self, payload, block, scratch, stack):
        """tube_draw in `scratch` against the allocating loop, bit for bit:
        its result and every argument of every consume call.  The consume
        overwrites the scratch, as the Levy pool's does.  Returns the
        consume calls."""
        from oracles import tube_draw_reference
        n, size, d1 = len(payload["times"]), payload["size"], payload["d1"]
        calls = ([], [])

        def recorder(seen, scribble):
            def consume(*args):
                seen.append([None if a is None else a.copy() for a in args])
                if scribble:
                    scratch.fill(np.nan)
            return consume

        got = tube_draw(payload, block, np.empty((n - 1) * size * d1),
                        scratch, recorder(calls[0], True), stack)
        want = tube_draw_reference(payload, block,
                                   np.empty((n - 1) * size * d1),
                                   recorder(calls[1], False), stack)
        assert len(calls[0]) == len(calls[1])
        for a, b in zip([*got, *sum(calls[0], [])],
                        [*want, *sum(calls[1], [])]):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.shape == b.shape
                assert np.array_equal(self._bits(a), self._bits(b))
        return calls[0]

    @pytest.mark.parametrize("stack", [False, True], ids=["reuse", "stack"])
    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_tube_draw_matches_allocating_loop(self, d1, shifted, stack):
        payload = self._payload(d1, shifted)
        # the second block finds the scratch as the first one left it
        scratch = np.full((2, TUBE_SLAB * payload["size"]), np.nan)
        for block in (3, 4):
            calls = self._draws_agree(payload, block, scratch, stack)
            assert len(calls) == 2 and 0 < len(calls[1][0]) < len(calls[0][0])

    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    def test_tube_draw_every_row_leaves_in_the_first_slab(self, shifted):
        # the tube and its href shrunk a thousandfold
        payload = self._payload(2, shifted)
        payload["delta"] *= 1e-3
        if shifted:
            payload["href"] = payload["href"] * 1e-3
        scratch = np.zeros((2, TUBE_SLAB * payload["size"]))
        calls = self._draws_agree(payload, 5, scratch, False)
        assert len(calls) == 1 and not calls[0][3].any()

    @pytest.mark.parametrize("shifted", [False, True], ids=["zero", "href"])
    @pytest.mark.parametrize("d1", [1, 3])
    def test_hit_dev_is_its_max_node_deviation(self, d1, shifted):
        payload = self._payload(d1, shifted)
        href = payload["href"]
        got = tube_block(0, 2, payload)
        W, dev = got["W"], got["dev"]
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
        k_time = len(tube_block(0, 6, payload)["W"])
        k_cand = len(tube_block_reference(
            0, 6, {**payload, "tag": 0x7F})["W"])
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


class TestStreamedLevyPool:
    """The Levy pool reduced slab by slab while it is drawn, against the
    reduction of each block's whole hit paths in oracles.py, bit for bit;
    the small-ball sups taken path by path against brownian_batch."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.int64)

    @staticmethod
    def _payload(seed, level, delta=0.8):
        # smallball_and_levy's pool at T = 0.5
        return tube_payload(2, mc.TUBE_BLOCK, dyadic_grid(0.5, level), None,
                            delta, 0, seed, 0x1E)

    @staticmethod
    def _slabs_and_hits(payload, block):
        """How many slabs block `block` draws, and its hit count."""
        slabs = []
        m = TUBE_SLAB * payload["size"]
        _, rows, _ = tube_draw(payload, block, np.empty(m * payload["d1"]),
                               np.empty((2, m)),
                               lambda *slab: slabs.append(len(slab[0])))
        return len(slabs), len(rows)

    def _check(self, payload, lo, hi):
        from oracles import levy_blocks_reference
        got = mc._levy_blocks(lo, hi, payload)
        want = levy_blocks_reference(lo, hi, payload)
        for key in ("zeta_sup", "dev"):
            assert got[key].shape == want[key].shape
            assert np.array_equal(self._bits(got[key]),
                                  self._bits(want[key]))
        return got

    @pytest.mark.parametrize("level", [3, 7])
    @pytest.mark.parametrize("seed", [1, 7, 40])
    def test_matches_path_reference(self, seed, level):
        # level 3 draws one slab of 8 steps, shorter than TUBE_SLAB
        payload = self._payload(seed, level)
        assert self._slabs_and_hits(payload, 1)[0] == \
            -(-(2 ** level) // TUBE_SLAB)
        got = self._check(payload, 0, 2)
        assert len(got["zeta_sup"]) > 100

    def test_block_without_hits(self):
        # candidates survive the first slab, but none stays in the tube
        payload = self._payload(3, 7, delta=0.12)
        slabs, hits = self._slabs_and_hits(payload, 0)
        assert slabs > 1 and hits == 0
        assert len(self._check(payload, 0, 1)["zeta_sup"]) == 0

    def test_every_candidate_leaves_in_the_first_slab(self):
        payload = self._payload(5, 7, delta=1e-3)
        assert self._slabs_and_hits(payload, 0) == (1, 0)
        assert len(self._check(payload, 0, 1)["zeta_sup"]) == 0

    def test_hit_sup_is_levy_sup(self):
        payload = self._payload(11, 6)
        W = tube_block(2, 3, payload)["W"][0]
        zeta_sup = levy_sup(SamplePath(payload["times"], W))[0][0, 1]
        assert self._bits(mc._levy_blocks(2, 3, payload)["zeta_sup"][0]) == \
            self._bits(zeta_sup)

    @pytest.mark.parametrize("lo, hi", [(0, 256), (3840, 4000), (100, 137)],
                             ids=["full", "last-of-4000", "partial-buffer"])
    def test_smallball_sups_match_brownian_batch(self, lo, hi):
        times = dyadic_grid(0.5, 10)
        got = mc._smallball_chunk(lo, hi, {"times": times, "seed": 9})["sup"]
        want = np.max(np.abs(mc.brownian_batch(1, times, 9, lo, hi)[..., 0]),
                      axis=1)
        assert got.shape == (hi - lo,)
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

    @pytest.mark.parametrize("levy_deltas", [(0.8, -0.5), (-0.8, -0.5),
                                             (0.8, 0.0)])
    def test_smallball_rejects_non_positive_levy_deltas(self, levy_deltas,
                                                        monkeypatch):
        # rejected before any path is drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths")

        monkeypatch.setattr(mc, "parallel_chunks", no_draws)
        with pytest.raises(ValueError, match="levy_deltas must be positive"):
            mc.smallball_and_levy(0.5, [0.5, 1.0], [0.5], 200, seed=1,
                                  grid_level=6, levy_deltas=levy_deltas,
                                  levy_attempts=8192, levy_grid_level=4)

    @pytest.mark.parametrize("deltas, hit", [([0.05, 0.06], 0),
                                             ([0.05, 1.0], 1)])
    def test_smallball_with_fewer_than_two_hit_deltas_fails(self, deltas,
                                                            hit):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mc.smallball_and_levy(0.5, deltas, [0.5, 1.0], 200, seed=1,
                                        grid_level=6, levy_attempts=8192,
                                        levy_grid_level=4)
        assert rep.verdict == "fail"
        assert rep.rate_fit is None
        # the hit-delta rule alone decides the verdict
        assert [(c.label, c.value, c.bound) for c in rep.checks
                if c.passed is False] == [("smallball_hit_deltas", hit, 2)]

    @pytest.mark.parametrize("M_values", [[0.5], [1.0, 1.0]])
    def test_smallball_needs_two_distinct_M_values(self, M_values,
                                                   monkeypatch):
        # one M compares the exceedance with itself, which never falls
        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths")

        monkeypatch.setattr(mc, "parallel_chunks", no_draws)
        with pytest.raises(ValueError, match="two distinct M_values"):
            mc.smallball_and_levy(0.5, [0.5, 1.0], M_values, 200, seed=1,
                                  grid_level=6, levy_attempts=8192,
                                  levy_grid_level=4)


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


def test_wz_substep_check_runs_one_refined_step_loop(monkeypatch):
    # levels 4-7 on 257 nodes with the substep check: 256 Euler steps, then
    # one loop over the x8 grid (2,048 steps) that also steps the x4 rows on
    # every other iteration.  Two separate solves took 256 + 1,024 + 2,048
    iters = []
    drive = mc.rsde.drive_batch

    def counted(domain, times, x0, increment_fn, *args, **kwargs):
        def inc(i, X):
            iters.append(len(X))
            return increment_fn(i, X)

        return drive(domain, times, x0, inc, *args, **kwargs)

    monkeypatch.setattr(mc.rsde, "drive_batch", counted)
    mc.wz_convergence(HALF_LINE, SIN_1D, [1.0], 1.0, [4, 5, 6, 7], 8, seed=1)
    assert len(iters) == 2304
    assert sorted(set(iters)) == [8, 32, 64]  # Euler, x8 rows, both


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

    # Each bound below measures the call after one untraced warm-up call
    # (oracles.peak_bytes), so the modules a first call imports are not
    # counted and the test order does not move the peak

    def test_serial_wz_convergence_keeps_only_x(self):
        # wz-halfline's call: 4 levels x 256 paths on 257 nodes, both
        # substep refinements solved in one batch.  Recording x alone, both
        # refinements' x (2.1 MB each) are alive together, and each level's
        # error is formed in place in its x: the call peaks at 6.21 MB
        # (6.74 MB with the error formed twice, once per statistic).  The
        # bound leaves about 0.2 MB over the peak; recording k and tv as
        # well would add 8.4 MB, and the slopes copied onto every grid cell
        # 0.9 MB
        peak = peak_bytes(lambda: mc.wz_convergence(
            HALF_LINE, SIN_1D, [1.0], 1.0, [4, 5, 6, 7], 256, seed=1))
        assert peak < 6.42e6

    def test_serial_holder_tightness_drops_each_batch(self):
        # holder-disc's call with a control: 4 levels x 256 paths on 257
        # nodes, a Wong-Zakai and a shifted-driver stack, each dropped once
        # scanned.  The call peaks at 12.59 MB; the bound leaves about
        # 0.2 MB over it.  Keeping the Wong-Zakai batch alive through the
        # shifted solve would add up to its 4.2 MB x
        peak = peak_bytes(lambda: mc.holder_tightness(
            DISC, HALF_2D, [0.0, 0.0], 1.0, 0.2, [4, 5, 6, 7], 256, seed=31,
            h=SINE_2D))
        assert peak < 12.8e6

    def test_serial_holder_tightness_at_holder_disc_shape(self):
        # holder-disc's call: 4 levels x 256 paths on 257 nodes, one
        # Wong-Zakai stack reading each level's slopes on its own cells
        # (0.98 MB).  The call peaks at 7.41 MB; the bound leaves about
        # 0.2 MB over it.  The slopes copied onto every grid cell would add
        # 2.3 MB
        peak = peak_bytes(lambda: mc.holder_tightness(
            DISC, HALF_2D, [0.0, 0.0], 1.0, 0.2, [4, 5, 6, 7], 256, seed=31))
        assert peak < 7.6e6

    def test_serial_exp_tail_holds_one_chunk(self):
        # ten chunks of 256 paths on 513 nodes: one retained (256, 513)
        # total-variation array per chunk would add 10.5 MB to the peak;
        # holding one chunk's work at a time peaked near 5.3 MB, and near
        # 3.2 MB since a chunk records tv alone
        peak = peak_bytes(lambda: mc.exp_tail(HALF_LINE, SIN_1D, [0.0], 1.0,
                                              2560, seed=24, grid_level=9))
        assert peak < 8e6

    def test_serial_exp_tail_records_tv_at_the_ends(self):
        # the exp_tail run above: recording tv at all 513 nodes, with the
        # drivers differenced before a step-major copy, peaked at 3.2 MB;
        # tv at the first and last node, differenced step-major, peaks at
        # 2.27 MB.  The bound leaves about 0.2 MB over it
        peak = peak_bytes(lambda: mc.exp_tail(HALF_LINE, SIN_1D, [0.0], 1.0,
                                              2560, seed=24, grid_level=9))
        assert peak < 2.47e6

    def test_levy_blocks_reduce_block_by_block(self):
        # tube-levy's Levy pool, 4 blocks of 8192 candidates on 129 nodes
        # at delta 0.8: holding every block's hits until all were drawn
        # peaked at 31.8-32.5 MB; reducing each block's hit paths before
        # the next, from a 16.8 MB buffer of all its slabs, at 21.5-22.3 MB;
        # reducing each slab as it is drawn, in one 4.2 MB slab buffer and
        # term buffers, at 7.81 MB with each slab's deviations allocated
        # afresh, and at 4.96 MB on seeds 1, 2, 3 and 11 with the term
        # buffers as their scratch.  The bound leaves about 0.2 MB over it
        payload = tube_payload(2, mc.TUBE_BLOCK, dyadic_grid(0.5, 7), None,
                               0.8, 0, 1, 0x1E)
        assert peak_bytes(lambda: mc._levy_blocks(0, 4, payload)) < 5.16e6

    def test_tube_block_block_at_approx_continuity_shape(self):
        # one block of 8192 candidates on 257 nodes, d1 2, delta 1.0 around
        # a zero href (approx_continuity's tube with a zero control, one
        # grid level coarser): the 33.6 MB buffer of all its slabs and 885
        # hits (3.6 MB) peak at 38.00 MB.  Each slab's deviations allocated
        # afresh, with S - href, peaked at 39.14 MB, and a deviation
        # scratch held while the hits are copied out at 40.10 MB.  The
        # bound leaves about 0.2 MB over the peak
        times = dyadic_grid(1.0, 8)
        payload = tube_payload(2, mc.TUBE_BLOCK, times,
                               np.zeros((len(times), 2)), 1.0, 0, 1, 0x5A)
        assert peak_bytes(lambda: tube_block(0, 1, payload)) < 38.2e6

    def test_smallball_chunk_reuses_one_small_buffer(self):
        # one 256-path chunk on tube-levy's 1025 nodes: a (256, 1025, 1)
        # driver batch peaked at 4.2-5.0 MB; a reused buffer of 16 rows
        # peaks at 0.22 MB.  The bound leaves about 50 KB over it
        payload = {"times": dyadic_grid(0.5, 10), "seed": 1}
        peak = peak_bytes(lambda: mc._smallball_chunk(0, 256, payload))
        assert peak < 0.28e6


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


def test_benchmark_tracer_sees_the_holder_scan():
    # holder_tightness scans every stacked level in one call of
    # paths.holder_seminorm_batch, through the binding the tracer wraps,
    # which counts levels * P * N (N - 1) / 2 pairs
    levels, P = [3, 4, 5], 40
    tracer = _traced(lambda: mc.holder_tightness(
        DISC, HALF_2D, [0.0, 0.0], 1.0, 0.2, levels, P, seed=33))
    N = len(dyadic_grid(1.0, max(levels) + 1))
    assert tracer.counters["paths.holder_pairs"] == \
        len(levels) * P * N * (N - 1) // 2
    assert _tracing().self_times(tracer.spans)["paths.holder"] > 0


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
        assert set(doc) == {"name", "parameters", "estimates", "rate_fit",
                            "verdict", "seeds", "checks", "notes"}
        assert doc["seeds"]["seed"] == 14
        for check in doc["checks"]:
            assert set(check) == {"label", "value", "bound", "passed",
                                  "source"}
            assert check["source"] in ("theory", "policy")

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
    # the pool module, and numpy.random ahead of the fork, are imported
    # only when a pool starts, so a serial run (the CLI included) does not
    # pay for importing them
    code = ("import sys, rsdekit.cli, rsdekit.montecarlo as mc; "
            "mc.parallel_chunks(slice, 600, 1, {}); "
            "print('concurrent.futures.process' in sys.modules, "
            "'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the parent's modules")
def test_pool_workers_inherit_numpy_random():
    # a pool imports numpy.random in the parent before it forks, so no
    # worker pays for that import on its first draw
    code = ("import sys, rsdekit.montecarlo as mc\n"
            "def seen(lo, hi, payload):\n"
            "    return 'numpy.random' in sys.modules\n"
            "print(mc.parallel_chunks(seen, 600, 2, {}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[True,", "True,", "True]"]
