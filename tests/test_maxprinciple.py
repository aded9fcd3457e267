import numpy as np
import pytest

from rsdekit import Ball, make_coefficients
from rsdekit import maxprinciple as mp

DISC = Ball([0.0, 0.0], 1.0)
SIGMA_I = make_coefficients(2, 2, sigma="const", sigma_params={"value": 1.0})
SIGMA_0 = make_coefficients(2, 2, sigma="const", sigma_params={"value": 0.0})


def u_quad(x):
    return float(np.sum(np.asarray(x, dtype=float) ** 2))


class TestReachableSample:
    def test_no_controllability_single_point(self):
        cloud = mp.reachable_sample(DISC, SIGMA_0, [0.2, -0.1], 200, 1.0, seed=1)
        assert np.allclose(cloud.points, [0.2, -0.1])

    def test_base_point_included(self):
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.1, 0.1], 50, 1.0, seed=2)
        assert np.allclose(cloud.points[0], [0.1, 0.1])
        assert cloud.controls[0][0] == 0.0

    def test_points_stay_in_closure(self):
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 500, 1.0, seed=3)
        assert np.all(np.linalg.norm(cloud.points, axis=1) <= 1.0 + 1e-9)

    def test_prefix_monotonicity(self):
        small = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 100, 1.0, seed=4)
        big = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 200, 1.0, seed=4)
        assert np.array_equal(big.points[:100], small.points)

    def test_full_controllability_covers_disc(self):
        # sigma = I: the cloud reaches everywhere; measure coverage on a grid
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 10_000, 1.0,
                                    seed=5)
        xs = np.linspace(-0.95, 0.95, 20)
        grid = np.array([[a, b] for a in xs for b in xs
                         if a * a + b * b <= 0.95 ** 2])
        d = np.min(np.linalg.norm(grid[:, None, :] - cloud.points[None, :, :],
                                  axis=2), axis=1)
        assert float(np.max(d)) <= 0.1

    def test_degenerate_sigma_freezes_coordinate(self):
        # sigma = diag(1, 0), b = 0, short horizon: no reflection is hit and
        # the second coordinate never moves
        cf = make_coefficients(2, 2, sigma="const",
                               sigma_params={"matrix": [[1.0, 0.0], [0.0, 0.0]]})
        cloud = mp.reachable_sample(DISC, cf, [0.0, 0.3], 300, 0.15, seed=6,
                                    slope_max=2.0)
        assert np.allclose(cloud.points[:, 1], 0.3, atol=1e-12)
        assert np.std(cloud.points[:, 0]) > 0.01

    def test_csv_export(self):
        import io
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 10, 1.0, seed=7)
        buf = io.StringIO()
        cloud.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "y1,y2,t0,control_id"
        assert len(lines) == 11


class TestSubmartingale:
    def test_constant_is_flat_pass(self):
        rep = mp.submartingale_test(DISC, SIGMA_I, lambda x: 3.0, [0.0, 0.0],
                                    [0.0, 0.1, 0.2], 500, seed=8)
        vals = [e.value for e in rep.estimates]
        assert vals == [3.0, 3.0, 3.0]
        assert rep.verdict == "pass"

    def test_quadratic_grows_like_two_t(self):
        rep = mp.submartingale_test(DISC, SIGMA_I, u_quad, [0.0, 0.0],
                                    [0.0, 0.05, 0.1, 0.2], 4000, seed=9)
        assert rep.verdict == "pass"
        # small-time growth E|X_t|^2 = 2t before reflection matters
        e = rep.estimate("E_u_at_t_0.05")
        assert e.value == pytest.approx(0.1, rel=0.15)

    def test_negated_quadratic_fails(self):
        rep = mp.submartingale_test(DISC, SIGMA_I, lambda x: -u_quad(x),
                                    [0.0, 0.0], [0.0, 0.05, 0.1, 0.2], 4000,
                                    seed=9)
        assert rep.verdict == "fail"

    def test_not_both_directions_pass(self):
        for seed in (10, 11):
            up = mp.submartingale_test(DISC, SIGMA_I, u_quad, [0.0, 0.0],
                                       [0.0, 0.1, 0.2], 2000, seed=seed)
            dn = mp.submartingale_test(DISC, SIGMA_I, lambda x: -u_quad(x),
                                       [0.0, 0.0], [0.0, 0.1, 0.2], 2000,
                                       seed=seed)
            assert not (up.verdict == "pass" and dn.verdict == "pass")


class TestMaxPrinciple:
    def test_constant_passes(self):
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 300, 1.0, seed=12)
        assert mp.max_principle_check(DISC, lambda x: 2.0,
                                      [0.0, 0.0], cloud, 1e-6) == "pass"

    def test_center_premise_not_met(self):
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 300, 1.0, seed=13)
        assert mp.max_principle_check(DISC, u_quad, [0.0, 0.0],
                                      cloud, 1e-6) == "premise not met"
        # the outcome overrides the oscillation rule, which is then not judged
        rep, _ = mp.max_principle_report(DISC, SIGMA_I, u_quad, [0.0, 0.0],
                                         300, 1.0, seed=13)
        assert rep.verdict == "premise not met"
        assert [(c.label, c.passed) for c in rep.checks] == [
            ("premise_base_attains_max", False), ("oscillation_limit", None)]

    def test_boundary_max_nonconstant_fails(self):
        # u = |x|^2 attains its cloud maximum at a boundary base point but is
        # not constant: the checker must flag it
        base = [1.0, 0.0]
        cloud = mp.reachable_sample(DISC, SIGMA_I, base, 300, 1.0, seed=14)
        assert mp.max_principle_check(DISC, u_quad, base, cloud,
                                      1e-6) == "fail"

    def test_wrong_base_rejected(self):
        cloud = mp.reachable_sample(DISC, SIGMA_I, [0.0, 0.0], 20, 1.0, seed=15)
        with pytest.raises(ValueError):
            mp.max_principle_check(DISC, u_quad, [0.5, 0.0], cloud,
                                   1e-6)

    def test_report_wrapper(self):
        rep, cloud = mp.max_principle_report(DISC, SIGMA_I, lambda x: 1.0,
                                             [0.0, 0.0], 100, 1.0, seed=16)
        assert rep.verdict == "pass"
        assert rep.estimate("cloud_size").value == 100.0
        assert len(cloud) == 100

    def test_report_evaluates_u_once_per_point(self):
        calls = []

        def u(x):
            calls.append(1)
            return u_quad(x)

        rep, cloud = mp.max_principle_report(DISC, SIGMA_I, u, [1.0, 0.0],
                                             200, 1.0, seed=17)
        # one call per cloud point and one at the base, which was 402
        assert len(calls) == len(cloud.points) + 1 == 201
        assert rep.verdict == mp.max_principle_check(DISC, u_quad, [1.0, 0.0],
                                                     cloud, 1e-6) == "fail"
        assert rep.estimate("u_at_base").value == 1.0
        assert rep.estimate("cloud_max").value == max(map(u_quad, cloud.points))
