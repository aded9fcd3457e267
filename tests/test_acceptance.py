"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Every tolerance is pinned here; the statistical configurations match the
spec of each experiment.  Heavy reports are shared via module fixtures
(criterion 10 reuses criterion 3's level-9 estimate as its forward limit).
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import json
import textwrap
import time

import numpy as np
import pytest

from rsdekit import (AxisBox, Ball, HalfSpace, SamplePath, cli,
                     linear_control, make_coefficients, sine_control, solve,
                     verify_bv_comparison, zero_control)
from rsdekit import maxprinciple as mp
from rsdekit import montecarlo as mc
from rsdekit.skorohod import BV_COMPARISON_BOUND

from oracles import reflect_half_line, solve_batch

pytestmark = pytest.mark.acceptance

HALF_LINE = HalfSpace([1.0], 0.0)
DISC = Ball([0.0, 0.0], 1.0)
SQUARE = AxisBox([0.0, 0.0], [1.0, 1.0])

SIN_COEFFS = make_coefficients(1, 1, sigma="sin",
                               sigma_params={"base": 0.5, "amp": 0.25})
UNIT_COEFFS_1D = make_coefficients(1, 1, sigma="const",
                                   sigma_params={"value": 1.0})
HALF_COEFFS_1D = make_coefficients(1, 1, sigma="const",
                                   sigma_params={"value": 0.5})
HALF_COEFFS_2D = make_coefficients(2, 2, sigma="const",
                                   sigma_params={"value": 0.5})
EYE_COEFFS_2D = make_coefficients(2, 2, sigma="const",
                                  sigma_params={"value": 1.0})


def report_line(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s < {limit}s)"
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


# -- shared heavy reports ----------------------------------------------------


@pytest.fixture(scope="module")
def wz_report():
    return mc.wz_convergence(HALF_LINE, SIN_COEFFS, [1.0], 1.0,
                             [4, 5, 6, 7, 8, 9], 2000, seed=0xA3,
                             check_substeps=True)


def test_criterion_01_half_line_oracle_exactness():
    # 1000 drivers go through the same stepping kernel in one batch (the
    # per-path op is proven row-identical to the batch in test_skorohod);
    # a 50-driver subsample additionally exercises solve() itself
    with Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence((0xA1, 1)))
        times = np.linspace(0.0, 1.0, 257)
        inc = rng.uniform(-0.2, 0.2, size=(1000, 256, 1))
        vals = np.concatenate([np.zeros((1000, 1, 1)), np.cumsum(inc, axis=1)],
                              axis=1)
        x0 = rng.uniform(0.0, 2.0, size=(1000, 1))
        batch = solve_batch(HALF_LINE, times, inc, x0)
        free = x0[:, None, :] + vals
        ks = np.maximum.accumulate(np.maximum(-free[..., 0], 0.0), axis=1)
        xs = free[..., 0] + ks
        worst = max(float(np.max(np.abs(batch.x[..., 0] - xs))),
                    float(np.max(np.abs(batch.tv - ks))))
        for j in range(0, 1000, 20):
            sol = solve(HALF_LINE, SamplePath(times, vals[j]), x0=x0[j])
            oxs, oks = reflect_half_line(float(x0[j, 0]), vals[j])
            worst = max(worst,
                        float(np.max(np.abs(sol.x.values[:, 0] - oxs))),
                        float(np.max(np.abs(sol.tv - oks))))
    ok = worst <= 1e-12 and t.elapsed < 5.0
    report_line(1, f"half-line reflection formula, worst {worst:.2e}", ok,
                t.elapsed, 5)
    assert worst <= 1e-12
    assert t.elapsed < 5.0


def test_criterion_02_bv_comparison_constant():
    with Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence((0xA2, 1)))
        times = np.linspace(0.0, 1.0, 129)
        worst = 0.0
        for dom, x0 in ((SQUARE, [0.5, 0.5]), (DISC, [0.0, 0.0])):
            for _ in range(1000):
                inc = rng.uniform(-0.25, 0.25, size=(128, 2))
                vals = np.concatenate([np.zeros((1, 2)), np.cumsum(inc, axis=0)])
                rep = verify_bv_comparison(dom, SamplePath(times, vals), x0=x0)
                worst = max(worst, rep.max_ratio)
    ok = worst <= BV_COMPARISON_BOUND + 1e-6 and t.elapsed < 30.0
    report_line(2, f"BV comparison ratio {worst:.4f} <= 2(sqrt2+1)", ok,
                t.elapsed, 30)
    assert worst <= BV_COMPARISON_BOUND + 1e-6
    assert t.elapsed < 30.0


def test_criterion_03_wz_decrease_and_rate(wz_report):
    with Timer() as t:
        rep = wz_report
        means = [rep.estimate(f"E_sup_err_level_{n}").value
                 for n in range(4, 10)]
        decreasing = all(means[i + 1] < means[i] for i in range(5))
        ok = (decreasing and rep.rate_fit.slope >= 0.25
              and rep.rate_fit.r2 >= 0.9 and rep.verdict == "pass")
    report_line(3, f"WZ decrease, slope {rep.rate_fit.slope:.3f}, "
                   f"r2 {rep.rate_fit.r2:.3f}", ok, t.elapsed, 180)
    assert decreasing
    assert rep.rate_fit.slope >= 0.25
    assert rep.rate_fit.r2 >= 0.9
    assert rep.verdict == "pass"


def test_criterion_03_runtime_budget(wz_report):
    # fixture creation dominates; re-running at full scale must stay in budget
    with Timer() as t:
        mc.wz_convergence(HALF_LINE, SIN_COEFFS, [1.0], 1.0, [4, 5, 6, 7, 8, 9],
                          2000, seed=0xA3, check_substeps=True)
    assert t.elapsed < 180.0


def test_criterion_04_skeleton_convergence():
    with Timer() as t:
        h = sine_control(1.0, amplitude=1.0, frequency=1.0, dim=2, axis=0,
                         n_cells=1024)
        rep = mc.skeleton_convergence(DISC, HALF_COEFFS_2D, [0.0, 0.0], 1.0, h,
                                      [4, 5, 6, 7, 8, 9], 2000, seed=0xA4,
                                      theta=0.5)
        lvl4 = rep.estimate("E_supsq_level_4").value
        lvl9 = rep.estimate("E_supsq_level_9").value
        consts = [rep.estimate(f"node_constant_level_{n}").value
                  for n in range(4, 10)]
        ratios = [consts[i + 1] / consts[i] for i in range(5)]
        stable = all(0.5 <= r <= 2.0 for r in ratios)
        ok = lvl9 <= 0.5 * lvl4 and stable and rep.verdict == "pass"
    report_line(4, f"skeleton decay {lvl9 / lvl4:.3f} <= 0.5, node constant "
                   f"per-level ratios in [1/2,2]", ok, t.elapsed, 240)
    assert lvl9 <= 0.5 * lvl4
    assert stable
    assert rep.verdict == "pass"
    assert t.elapsed < 240.0


def test_criterion_05_approximate_continuity():
    with Timer() as t:
        h = zero_control(1.0, 1)
        rep = mc.approx_continuity(HALF_LINE, HALF_COEFFS_1D, [1.0], 1.0, h,
                                   epsilon=0.3, deltas=[0.8, 0.6, 0.5],
                                   target_accepted=2000, seed=0xA5)
        state = [rep.estimate(f"P_state_delta_{d}") for d in (0.8, 0.6, 0.5)]
        reg = [rep.estimate(f"P_regulator_delta_{d}") for d in (0.8, 0.6, 0.5)]
        mono_state = all(state[i + 1].value >= state[i].value
                         - (state[i].ci_halfwidth + state[i + 1].ci_halfwidth)
                         for i in range(2))
        mono_reg = all(reg[i + 1].value >= reg[i].value
                       - (reg[i].ci_halfwidth + reg[i + 1].ci_halfwidth)
                       for i in range(2))
        final = state[-1].value
        ok = mono_state and mono_reg and final >= 0.9 and rep.verdict == "pass"
    report_line(5, f"approximate continuity, final P {final:.3f} >= 0.9", ok,
                t.elapsed, 300)
    assert mono_state and mono_reg
    assert final >= 0.9
    assert rep.verdict == "pass"
    assert t.elapsed < 300.0


def test_criterion_06_moment_scaling():
    with Timer() as t:
        windows = [(0.0, 2.0 ** -k) for k in range(6, 1, -1)]
        rep = mc.moment_scaling(HALF_LINE, UNIT_COEFFS_1D, [0.0], windows,
                                p=1.0, paths=10_000, seed=0xA6,
                                slope_band=(0.8, 1.2))
        slopes = {e.label: e.value for e in rep.estimates
                  if e.label.endswith("_slope")}
        in_band = all(0.8 <= s <= 1.2 for s in slopes.values())
        ok = in_band and rep.verdict == "pass"
    report_line(6, "moment exponents " + ", ".join(
        f"{v:.3f}" for v in slopes.values()) + " in [0.8, 1.2]", ok,
        t.elapsed, 120)
    assert in_band
    assert rep.verdict == "pass"
    assert t.elapsed < 120.0


def test_criterion_07_exponential_tail():
    with Timer() as t:
        rep = mc.exp_tail(HALF_LINE, UNIT_COEFFS_1D, [0.0], 1.0,
                          paths=100_000, seed=0xA7,
                          oracle_coefficient=0.5, oracle_factor=2.0)
        est = rep.estimate("quadratic_coefficient")
        positive = est.value > 0 and est.value - est.ci_halfwidth > 0
        ratio = est.value / 0.5
        ok = positive and 0.5 <= ratio <= 2.0 and rep.verdict == "pass"
    report_line(7, f"tail coefficient {est.value:.3f}, oracle ratio "
                   f"{ratio:.2f} in [1/2, 2]", ok, t.elapsed, 120)
    assert positive
    assert 0.5 <= ratio <= 2.0
    assert rep.verdict == "pass"
    assert t.elapsed < 120.0


def test_criterion_08_smallball_and_levy():
    with Timer() as t:
        rep = mc.smallball_and_levy(
            1.0, deltas=[0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0],
            M_values=[0.25, 0.5, 1.0], paths=100_000, seed=0xA8,
            levy_deltas=(0.8, 0.5), levy_attempts=4_000_000, epsilon=0.5)
        slope = rep.rate_fit.slope
        oracle = -np.pi ** 2 / 8.0
        factor_ok = (1.0 / 1.5) <= slope / oracle <= 1.5
        r2_ok = rep.rate_fit.r2 >= 0.95
        ok = slope < 0 and factor_ok and r2_ok and rep.verdict == "pass"
    report_line(8, f"small-ball slope {slope:.3f} vs {oracle:.3f}, "
                   f"r2 {rep.rate_fit.r2:.4f}; levy conditionals decreasing",
                ok, t.elapsed, 180)
    assert slope < 0
    assert factor_ok
    assert r2_ok
    assert rep.verdict == "pass"
    assert t.elapsed < 180.0


def test_criterion_09_holder_tightness():
    with Timer() as t:
        rep = mc.holder_tightness(DISC, HALF_COEFFS_2D, [0.0, 0.0], 1.0,
                                  theta=0.2, levels=[4, 5, 6, 7, 8],
                                  paths=2000, seed=0xA9)
        spread = rep.estimate("level_mean_spread").value
        ok = spread <= 2.0 and rep.verdict == "pass"
    report_line(9, f"Holder level-mean spread {spread:.3f} <= 2", ok,
                t.elapsed, 120)
    assert spread <= 2.0
    assert rep.verdict == "pass"
    assert t.elapsed < 120.0


def test_criterion_10_support_inclusions(wz_report):
    with Timer() as t:
        level9_mean = wz_report.estimate("E_sup_err_level_9").value
        h = linear_control(1.0, [0.5], n_cells=512)
        rep = mc.support_inclusions(HALF_LINE, SIN_COEFFS, [1.0], 1.0, h,
                                    n=9, epsilon=0.5, paths=2000, seed=0xA3,
                                    reverse_paths=100_000,
                                    forward_p95_limit=3.0 * level9_mean)
        p95 = rep.estimate("forward_p95").value
        hits = rep.estimate("reverse_hit_count").value
        ok = p95 <= 3.0 * level9_mean and hits >= 1 and rep.verdict == "pass"
    report_line(10, f"forward p95 {p95:.4f} <= {3 * level9_mean:.4f}, "
                    f"reverse hits {int(hits)} >= 1", ok, t.elapsed, 180)
    assert p95 <= 3.0 * level9_mean
    assert hits >= 1
    assert rep.verdict == "pass"
    assert t.elapsed < 180.0


def test_criterion_11_maximum_principle():
    with Timer() as t:
        u_const = lambda x: 2.0
        u_quad = lambda x: float(np.sum(np.asarray(x, dtype=float) ** 2))
        cloud = mp.reachable_sample(DISC, EYE_COEFFS_2D, [0.0, 0.0], 2000,
                                    1.0, seed=0xAB)
        v_const = mp.max_principle_check(DISC, u_const,
                                         [0.0, 0.0], cloud, 1e-6)
        vals = [u_const(p) for p in cloud.points]
        osc = max(vals) - min(vals)
        v_quad = mp.max_principle_check(DISC, u_quad,
                                        [0.0, 0.0], cloud, 1e-6)
        sub_up = mp.submartingale_test(DISC, EYE_COEFFS_2D, u_quad,
                                       [0.0, 0.0], [0.0, 0.05, 0.1, 0.2],
                                       10_000, seed=0xAC)
        sub_dn = mp.submartingale_test(DISC, EYE_COEFFS_2D,
                                       lambda x: -u_quad(x), [0.0, 0.0],
                                       [0.0, 0.05, 0.1, 0.2], 10_000,
                                       seed=0xAC)
        ok = (v_const == "pass" and osc == 0.0
              and v_quad == "premise not met"
              and sub_up.verdict == "pass" and sub_dn.verdict == "fail")
    report_line(11, f"max principle: constant {v_const}, quadratic "
                    f"{v_quad!r}, submartingale pass/fail", ok, t.elapsed, 120)
    assert v_const == "pass" and osc == 0.0
    assert v_quad == "premise not met"
    assert sub_up.verdict == "pass"
    assert sub_dn.verdict == "fail"
    assert t.elapsed < 120.0


DETERMINISM_CONFIGS = {
    "moment": """
        [run]
        experiment = moment_scaling
        seed = 166
        [domain]
        kind = half_space
        params = {"normal": [1.0], "offset": 0.0}
        [coefficients]
        d = 1
        d1 = 1
        sigma = const
        sigma_params = {"value": 1.0}
        [experiment]
        windows = [[0.0, 0.015625], [0.0, 0.03125], [0.0, 0.0625], [0.0, 0.125], [0.0, 0.25]]
        p = 1.0
        x0 = [0.0]
        paths = 10000
    """,
    "skeleton": """
        [run]
        experiment = skeleton_convergence
        seed = 164
        [domain]
        kind = ball
        params = {"center": [0.0, 0.0], "radius": 1.0}
        [coefficients]
        d = 2
        d1 = 2
        sigma = const
        sigma_params = {"value": 0.5}
        [control]
        kind = sin
        params = {"amplitude": 1.0, "frequency": 1.0}
        grid_level = 10
        [experiment]
        T = 1.0
        x0 = [0.0, 0.0]
        levels = [4, 5, 6, 7, 8, 9]
        paths = 2000
    """,
}


@pytest.mark.parametrize("name", sorted(DETERMINISM_CONFIGS))
def test_criterion_12_determinism_across_workers(name, tmp_path):
    with Timer() as t:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(textwrap.dedent(DETERMINISM_CONFIGS[name]))
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"{name}_w{workers}"
            code = cli.main(["run", str(cfg), "--workers", str(workers),
                             "--output", str(out)])
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        identical = outs[0] == outs[1]
    report_line(12, f"byte-identical report.json ({name}, workers 1 vs 8)",
                identical, t.elapsed, 600)
    assert identical
    payload = json.loads(outs[0])
    assert payload["verdict"] == "pass"
