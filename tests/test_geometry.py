import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsdekit import (AmbiguousProjection, AxisBox, Ball, ConvexPolytope,
                     HalfSpace, Membership, NotchedDisc, UnsupportedKind,
                     check_conditions, make_domain)

from oracles import (ball_project_rows_reference, box_project_brute,
                     box_project_rows_reference, notched_project_one)

DISC = Ball([0.0, 0.0], 1.0, c0=0.5)
HALF = HalfSpace([1.0, 0.0], 0.0)
SQUARE = AxisBox([0.0, 0.0], [1.0, 1.0])
NOTCHED = NotchedDisc()
DIAMOND = ConvexPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]],
                         [1, 1, 1, 1], [0.0, 0.0])

CONVEX = [DISC, HALF, SQUARE, DIAMOND]


class TestContains:
    def test_disc_center(self):
        m, sd = DISC.contains([0.0, 0.0])
        assert m is Membership.INTERIOR
        assert sd == pytest.approx(-1.0, abs=1e-12)

    def test_disc_boundary(self):
        m, sd = DISC.contains([1.0, 0.0])
        assert m is Membership.BOUNDARY
        assert abs(sd) <= 1e-12

    def test_half_space_exterior(self):
        m, sd = HALF.contains([-0.3, 7.0])
        assert m is Membership.EXTERIOR
        assert sd == pytest.approx(0.3, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DISC.contains([np.nan, 0.0])


class TestProject:
    def test_disc_radial(self):
        x, n, dist = DISC.project([2.0, 0.0])
        assert np.allclose(x, [1.0, 0.0])
        assert np.allclose(n, [-1.0, 0.0])
        assert dist == pytest.approx(1.0)

    def test_half_space(self):
        x, n, dist = HALF.project([-0.4, 2.0])
        assert np.allclose(x, [0.0, 2.0])
        assert np.allclose(n, [1.0, 0.0])
        assert dist == pytest.approx(0.4)

    def test_square_corner_vs_brute_force(self):
        x, n, dist = SQUARE.project([-1.0, -1.0])
        bx, bdist = box_project_brute([-1.0, -1.0], [0, 0], [1, 1])
        assert np.allclose(x, bx)
        assert dist == pytest.approx(bdist)
        assert np.allclose(n, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_random_box_points_vs_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y = rng.uniform(-2, 3, size=2)
            x, _, dist = SQUARE.project(y)
            bx, bdist = box_project_brute(y, [0, 0], [1, 1])
            assert dist == pytest.approx(bdist, abs=1e-12)
            assert np.allclose(x, bx, atol=1e-12)

    def test_polytope_vs_brute_force_grid(self):
        # brute force: dense boundary sampling of the diamond
        ts = np.linspace(-1, 1, 4001)
        verts = np.concatenate([
            np.stack([ts, 1 - np.abs(ts)], axis=1),
            np.stack([ts, np.abs(ts) - 1], axis=1)])
        rng = np.random.default_rng(7)
        for _ in range(25):
            y = rng.uniform(-2, 2, size=2)
            if DIAMOND.contains(y)[0] is not Membership.EXTERIOR:
                continue
            x, _, dist = DIAMOND.project(y)
            brute = np.min(np.linalg.norm(verts - y, axis=1))
            assert dist == pytest.approx(brute, abs=1e-5)

    def test_inside_is_fixed(self):
        for dom in CONVEX + [NOTCHED]:
            y = np.array([0.4, 0.3]) if dom is not HALF else np.array([0.5, 0.0])
            x, n, dist = dom.project(y)
            assert np.allclose(x, y)
            assert dist == 0.0
            assert np.allclose(n, 0.0)

    @given(st.tuples(st.floats(-4, 4), st.floats(-4, 4)))
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, point):
        y = np.asarray(point)
        for dom in (DISC, SQUARE, NOTCHED):
            try:
                x, _, _ = dom.project(y)
            except AmbiguousProjection:
                continue
            x2, _, d2 = dom.project(x)
            assert np.allclose(x, x2, atol=1e-12)
            assert d2 <= 1e-12

    def test_projection_never_exterior(self):
        rng = np.random.default_rng(11)
        for dom in (DISC, SQUARE, DIAMOND, NOTCHED):
            for _ in range(100):
                y = rng.uniform(-2, 2, size=2)
                try:
                    x, _, _ = dom.project(y)
                except AmbiguousProjection:
                    continue
                assert dom.contains(x)[0] is not Membership.EXTERIOR

    def test_convex_projection_lipschitz(self):
        rng = np.random.default_rng(3)
        P = 10_000
        for dom in (DISC, SQUARE, DIAMOND):
            Y1 = rng.uniform(-3, 3, size=(P, 2))
            Y2 = rng.uniform(-3, 3, size=(P, 2))
            X1, _, _ = dom.project_rows(Y1)
            X2, _, _ = dom.project_rows(Y2)
            lhs = np.linalg.norm(X1 - X2, axis=1)
            rhs = np.linalg.norm(Y1 - Y2, axis=1)
            assert np.all(lhs <= rhs + 1e-9)

    def test_normal_at_corner_without_hint(self):
        # no direction hint: normalized average of the active facet normals
        n = SQUARE.normal_at([0.0, 0.0])
        assert np.allclose(n, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_normal_at_with_hint(self):
        n = SQUARE.normal_at([0.0, 0.5], hint=[2.0, 0.0])
        assert np.allclose(n, [1.0, 0.0])
        with pytest.raises(ValueError):
            SQUARE.normal_at([0.5, 0.5])  # interior point has no normal

    def test_normals_unit_and_inward(self):
        rng = np.random.default_rng(13)
        for dom in (DISC, SQUARE, NOTCHED):
            for y in rng.uniform(-2, 2, size=(300, 2)):
                x, n, dist = dom.project(y)
                if dist <= 1e-9:
                    assert np.all(n == 0.0)
                    continue
                assert np.linalg.norm(n) == pytest.approx(1.0)
                # smooth boundary points: a small inward step lands inside
                if len(dom.active_normals(x, tol=1e-9)) == 1:
                    m, _ = dom.contains(x + 1e-6 * n)
                    assert m is not Membership.EXTERIOR

    @pytest.mark.parametrize("dom", CONVEX + [NOTCHED],
                             ids=lambda dom: dom.kind)
    def test_push_is_x_minus_y(self, dom):
        # K is the push X - Y bit for bit, signed zeros included
        rng = np.random.default_rng(19)
        Y = _rows_with_corners(rng, 2, -0.5, 1.0)
        Y = Y[np.abs(Y[:, 0] - 0.5) > 1e-3]  # off the notch's ambiguous rows
        X, K, dist = dom.project_rows(Y)
        assert np.array_equal(K.view(np.int64), (X - Y).view(np.int64))
        assert np.all(K[dom.signed_distance(Y) < -1e-9] == 0.0)


def _rows_with_corners(rng, d, lo, hi):
    """Random rows around [lo, hi]^d, plus rows on the faces with signed
    zeros, 1e-170 and 1e-150 beyond them, and exactly at the centre."""
    Y = rng.uniform(lo - 1.0, hi + 1.0, (3000, d))
    special = np.array([-0.0, 0.0, lo, hi, -1e-170, 1e-170, -1e-150,
                        1e-150, hi + 1e-15, lo - 1e-15, 0.5 * (lo + hi)])
    Y[:1000] = rng.choice(special, (1000, d))
    return Y


def _assert_rows_equal(got, want):
    # int64 views, so that a sign change of a zero shows as a difference
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def _with_push(Y, reference):
    """A reference's (X, N, dist) as project_rows returns them now: the
    normals give way to the push X - Y."""
    X, _, dist = reference
    return X, X - Y, dist


class TestRowKernelsAsFirstWritten:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box(self, d):
        rng = np.random.default_rng(40 + d)
        box = AxisBox(np.zeros(d), np.linspace(1.0, 2.0, d))
        Y = _rows_with_corners(rng, d, 0.0, 1.0)
        for rows in (Y, Y[:1], Y[1500:1501], Y[:0],
                     np.clip(Y, box.low, box.high)):
            _assert_rows_equal(box.project_rows(rows), _with_push(
                rows, box_project_rows_reference(box, rows)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball(self, d):
        rng = np.random.default_rng(50 + d)
        ball = Ball(np.full(d, 0.25), 0.75)
        Y = _rows_with_corners(rng, d, -0.5, 1.0)
        Y[1000:1100] = ball.boundary_points(100, rng)
        Y[1100] = ball.center
        for rows in (Y, Y[:1], Y[1050:1051], Y[:0], Y[1100:1101]):
            _assert_rows_equal(ball.project_rows(rows), _with_push(
                rows, ball_project_rows_reference(ball, rows)))


class TestProjectRowsLayout:
    # the step loop keeps its state column-major; each kind projects the
    # same rows to the same bits in either layout and answers in its input's
    @pytest.mark.parametrize("dom", CONVEX + [NOTCHED],
                             ids=lambda dom: dom.kind)
    def test_row_and_column_major_bit_equal(self, dom):
        rng = np.random.default_rng(23)
        Y = _rows_with_corners(rng, 2, -0.5, 1.0)
        Y = Y[np.abs(Y[:, 0] - 0.5) > 1e-3]  # off the notch's ambiguous rows
        Y[:7] = [[np.inf, 0.2], [0.3, -np.inf], [np.nan, 0.4], [0.6, np.nan],
                 [5e-324, -5e-324], [-0.0, 2.2e-308], [1e300, -1e300]]
        if dom is DIAMOND:  # the per-row solve takes finite rows only
            Y = Y[7:]
        subsets = [np.arange(len(Y))] + [
            np.sort(rng.choice(len(Y), n, replace=False)) for n in (1, 5, 21)]
        with np.errstate(invalid="ignore", over="ignore"):
            for rows in subsets:
                C = Y[rows]
                F = np.asfortranarray(C)
                assert F.flags.f_contiguous and not F.flags.c_contiguous \
                    or len(rows) == 1
                got_c, got_f = dom.project_rows(C), dom.project_rows(F)
                _assert_rows_equal(got_f, got_c)
                for (X, K, _), order in ((got_c, "C"), (got_f, "F")):
                    assert X.flags[order + "_CONTIGUOUS"]
                    assert K.flags[order + "_CONTIGUOUS"]


class TestNotched:
    def test_membership(self):
        assert NOTCHED.contains([0.5, 0.1])[0] is Membership.EXTERIOR
        assert NOTCHED.contains([0.5, 0.2])[0] is Membership.BOUNDARY
        assert NOTCHED.contains([0.5, 0.5])[0] is Membership.INTERIOR

    def test_notch_projection_radial(self):
        x, n, dist = NOTCHED.project([0.5, 0.1])
        assert np.allclose(x, [0.5, 0.2])
        assert np.allclose(n, [0.0, 1.0])
        assert dist == pytest.approx(0.1)

    def test_ambiguous_below_gap_center(self):
        with pytest.raises(AmbiguousProjection):
            NOTCHED.project([0.5, -0.3])

    def test_ambiguous_at_notch_center(self):
        with pytest.raises(AmbiguousProjection):
            NOTCHED.project([0.5, 0.0])

    def test_below_gap_goes_to_junction(self):
        x, n, dist = NOTCHED.project([0.62, -0.1])
        assert np.allclose(x, [0.7, 0.0])
        assert dist == pytest.approx(np.hypot(0.08, 0.1))

    def _batch(self, seed):
        # uniform points around the box, plus points packed into the notch
        # and below the notch gap, where the junction corners compete
        rng = np.random.default_rng(seed)
        c, rho = NOTCHED.c, NOTCHED.rho
        th, u = rng.uniform(0.0, np.pi, 3000), rng.uniform(0.0, 1.0, 3000)
        notch = c + (rho * u)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
        gap = rng.uniform([c[0] - rho, -0.6], [c[0] + rho, 0.0], (3000, 2))
        return np.vstack([rng.uniform(-0.6, 1.6, (8000, 2)), notch, gap])

    @staticmethod
    def _assert_matches_scalar_reference(Y):
        got = NOTCHED.project_rows(Y)
        ref = [notched_project_one(NOTCHED, y) for y in Y]
        X = np.array([x for x, _, _ in ref]).reshape(Y.shape)
        dist = np.array([d for _, _, d in ref])
        _assert_rows_equal(got, _with_push(Y, (X, None, dist)))
        return got

    # rows on the faces with a signed zero coordinate, exactly on the faces,
    # the arc and the junctions, one ulp either side of a junction, and
    # outside by one ulp or by a signed zero
    CORNERS = np.array(
        [[-0.0, 0.5], [0.0, 0.5], [0.1, -0.0], [0.1, 0.0], [-0.0, -0.0],
         [0.9, -0.0], [1.0, -0.0], [-0.0, 1.0], [-1e-3, -0.0], [-0.0, -1e-3],
         [0.5, 1.2], [-0.0, 1.2], [1.3, -0.0], [0.2, -1e-3], [0.0, 0.3],
         [1.0, 0.3], [0.4, 1.0], [0.85, 0.0], [0.0, 0.0], [1.0, 1.0],
         [0.3, 0.0], [0.7, 0.0], [0.3, -0.0], [0.7, -0.0], [0.5, 0.2],
         [np.nextafter(0.3, 0.0), 0.0], [np.nextafter(0.3, 1.0), 0.0],
         [np.nextafter(0.7, 1.0), -0.0], [np.nextafter(0.7, 0.0), -0.0],
         [0.3, 5e-324], [0.7, 5e-324], [0.3, -5e-324], [0.62, -0.0],
         [np.nextafter(0.0, -1.0), 0.5], [np.nextafter(1.0, 2.0), 0.5],
         [0.5 + 0.2 * np.cos(1.0), 0.2 * np.sin(1.0)],
         [0.5 - 0.2 * np.cos(0.3), 0.2 * np.sin(0.3)]])
    # 1e-170 beyond a face at 0 squares to 0, so these count as in the box
    # and stay where they are; 1e-150 squares to 1e-300 and is projected
    UNDERFLOW = np.array([[-1e-170, 0.5], [0.1, -1e-170], [-1e-170, -1e-170],
                          [0.9, -1e-170], [-1e-170, 1.0], [-1e-150, 0.5],
                          [0.1, -1e-150], [0.45, -1e-170]])

    def test_project_rows_matches_scalar_reference(self):
        Y = np.vstack([self._batch(31), self.CORNERS, self.UNDERFLOW])
        X, K, dist = self._assert_matches_scalar_reference(Y)
        under = dist[-len(self.UNDERFLOW):]
        assert np.all(under[:5] == 0.0) and np.all(under[5:] > 0.0)
        # every case of the projection is exercised
        in_box = np.all((Y >= NOTCHED.low) & (Y <= NOTCHED.high), axis=1)
        below_gap = (np.abs(Y[:, 0] - NOTCHED.c[0]) < NOTCHED.rho) & (Y[:, 1] < 0)
        counts = [np.sum(in_box & (dist == 0)), np.sum(in_box & (dist > 0)),
                  np.sum(~in_box & ~below_gap), np.sum(below_gap)]
        assert min(counts) > 100, counts

    def test_project_rows_all_in_box_all_outside_one_row(self):
        Y = self._batch(33)
        in_box = np.all((Y >= NOTCHED.low) & (Y <= NOTCHED.high), axis=1)
        for rows in (Y[in_box], Y[~in_box], Y[:1], Y[~in_box][:1],
                     self.CORNERS[:1], self.UNDERFLOW[-1:], Y[:0]):
            self._assert_matches_scalar_reference(rows)
        X, K, dist = NOTCHED.project_rows(Y[in_box & (Y[:, 1] > 0.5)])
        assert np.all(dist == 0.0) and np.all(K == 0.0)

    @pytest.mark.parametrize("bad", [[0.5, 0.0], [0.5, -0.3]],
                             ids=["notch_center", "junction_tie"])
    def test_project_rows_raises_on_one_ambiguous_row(self, bad):
        Y = self._batch(32)
        Y[4321] = bad
        with pytest.raises(AmbiguousProjection):
            NOTCHED.project_rows(Y)

    def test_exterior_ball_empty_at_boundary(self):
        # condition (A): B(x - r0 n, r0) avoids the open domain
        rng = np.random.default_rng(17)
        pts = NOTCHED.boundary_points(200, rng)
        r0 = NOTCHED.r0
        assert np.isfinite(r0)
        for x in pts:
            for n in NOTCHED.normal_cone_samples(x, 2, rng):
                center = x - r0 * n
                probes = center + r0 * 0.999 * rng.standard_normal((64, 2))
                probes = center + (probes - center) / np.maximum(
                    np.linalg.norm(probes - center, axis=1, keepdims=True) / (r0 * 0.999), 1.0)
                sd = NOTCHED.signed_distance(probes)
                assert np.min(sd) >= -1e-9


class TestConditions:
    def test_h1_inequality_sampled(self):
        # (y - x, n) + c0 |x - y|^2 >= 0 on 10^4 random triples per domain
        rng = np.random.default_rng(29)
        for dom in (DISC, SQUARE, NOTCHED):
            xs = dom.boundary_points(100, rng)
            ys = dom.interior_points(100, rng)
            count = 0
            for x in xs:
                ns = dom.normal_cone_samples(x, 2, rng)
                diff = ys - x
                sq = np.sum(diff ** 2, axis=1)
                for n in ns:
                    lhs = diff @ n + dom.c0 * sq
                    assert np.min(lhs) >= -1e-9
                    count += len(ys)
            assert count >= 10_000

    def test_disc_h1_pass(self):
        rep = check_conditions(DISC, 200, 300, seed=1)
        assert rep["H1"].passed
        assert rep["H1"].margin >= -1e-9

    def test_half_space_A_pass(self):
        dom = HalfSpace([1.0, 0.0], 0.0, r0=1e6)
        rep = check_conditions(dom, 100, 100, seed=2)
        assert rep["A"].passed

    def test_notched_A_and_H1(self):
        rep = check_conditions(NOTCHED, 300, 300, seed=3)
        assert rep["A"].passed
        assert rep["H1"].passed
        assert NOTCHED.c0 == pytest.approx(1.0 / (2 * 0.2))

    def test_all_conditions_all_domains(self):
        for dom in (DISC, SQUARE, NOTCHED, DIAMOND):
            rep = check_conditions(dom, 250, 300, seed=5)
            for cond, res in rep.results.items():
                assert res.passed, f"{dom.kind} {cond} margin={res.margin}"

    def test_unsupported_condition_raises(self):
        dom = Ball([0.0, 0.0], 1.0)
        dom.cone_b = None
        with pytest.raises(UnsupportedKind):
            check_conditions(dom, 10, 10, seed=1, conditions=("B",))

    def test_sample_counts_validated(self):
        with pytest.raises(ValueError):
            check_conditions(DISC, 0, 10, seed=1)


class TestConfigRoundtrip:
    def test_make_domain_roundtrip(self):
        for dom in (DISC, HALF, SQUARE, NOTCHED, DIAMOND):
            cfg = dom.to_config()
            dom2 = make_domain(cfg["kind"], cfg["params"], cfg["r0"],
                               cfg["c0"], cfg["gamma"])
            y = np.array([1.7, -0.3])
            try:
                x1, _, d1 = dom.project(y)
                x2, _, d2 = dom2.project(y)
                assert np.allclose(x1, x2)
                assert d1 == pytest.approx(d2)
            except AmbiguousProjection:
                pass

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedKind):
            make_domain("mesh", {})

    def test_cover_is_valid_certificate(self):
        for dom in (Ball([0.0, 0.0], 1.0), AxisBox([0, 0], [1, 1])):
            patches = dom.ensure_cover()
            lam = patches[0].lam
            R = patches[0].radius
            assert lam > 0 and R > 0
            rng = np.random.default_rng(31)
            pts = dom.boundary_points(300, rng)
            centers = np.array([p.center for p in patches])
            d = np.linalg.norm(pts[:, None] - centers[None], axis=2)
            assert np.all(np.min(d, axis=1) <= R)
