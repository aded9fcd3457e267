"""Domain descriptors: membership, nearest-point projection, inward normal cones.

Every domain kind supports a signed distance estimate (negative inside,
positive outside), batched nearest-point projection returning the push
onto the closure, and sampled numerical verification of the boundary
regularity conditions used by the reflected integrators:

  (A)  uniform exterior sphere of radius r0,
  (B)  uniform interior cone (delta, beta),
  (C)  Lyapunov field phi with constant gamma,
  (D)  finite boundary cover with directionally aligned normals,
  (H1) (y-x, n) + c0 |x-y|^2 >= 0 for boundary x, y in the closure,
  (H2) Dphi(x) . n >= alpha * c0 on the boundary.

Convex kinds satisfy (A) for every radius; r0 is stored as a large finite
number there.  The notched square is the shipped nonconvex example: the
unit box minus an open disc centered on an edge, whose exterior sphere
radius equals the notch radius exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import AmbiguousProjection, UnsupportedKind
from .paths import _sq_norm

BOUNDARY_TOL = 1e-12
AMBIGUITY_RTOL = 1e-9
CONDITION_TOL = 1e-9


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class PhiField:
    """Scalar field with gradient used by conditions (H2) and (C)."""

    value: object  # callable point -> float
    grad: object  # callable point -> vector
    alpha: float  # constant such that Dphi(x).n >= alpha * c0 should hold

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CoverPatch:
    """One patch of a condition (D) cover: boundary point, direction, lambda, radius."""

    center: np.ndarray
    direction: np.ndarray
    lam: float
    radius: float


class Domain:
    """Base class; subclasses implement the per-kind geometry kernels."""

    kind = "abstract"
    convex = True

    def __init__(self, dim, r0, c0, gamma, phi=None, cone_b=None, cover_d=None):
        self.dim = int(dim)
        self.r0 = float(r0)
        self.c0 = float(c0)
        self.gamma = float(gamma)
        self.phi = phi
        self.cone_b = cone_b  # (delta, beta) or None
        self.cover_d = cover_d  # list[CoverPatch] or None

    # -- per-kind kernels ------------------------------------------------

    def signed_distance(self, X):
        """Signed distance estimate, vectorized over rows of X (negative inside)."""
        raise NotImplementedError

    def project_rows(self, Y):
        """Nearest points on the closure for each row of Y.

        Returns (X, K, dist): projected points, the pushes K = X - Y
        (zero rows for finite points already in the closure), distances.
        X and K keep Y's memory layout; their bits do not depend on it.
        """
        raise NotImplementedError

    def boundary_points(self, n, rng):
        """Sample n points on the boundary (uniform-ish per kind)."""
        raise NotImplementedError

    def interior_points(self, n, rng):
        """Sample n points in the closure."""
        raise NotImplementedError

    def active_normals(self, x, tol=1e-9):
        """Unit inward normals of the boundary pieces active at x (extreme rays of N_x)."""
        raise NotImplementedError

    def params(self):
        """Kind-specific shape parameters, JSON-serializable."""
        raise NotImplementedError

    # -- shared operations -------------------------------------------------

    def contains(self, x):
        """Classify a point as interior / boundary / exterior with a signed distance."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("contains: point must be finite")
        sd = float(self.signed_distance(x[None, :])[0])
        if sd < -BOUNDARY_TOL:
            return Membership.INTERIOR, sd
        if sd > BOUNDARY_TOL:
            return Membership.EXTERIOR, sd
        return Membership.BOUNDARY, sd

    def project(self, y):
        """Nearest point of the closure, unit inward normal, and distance.

        Points already in the closure map to themselves with a zero normal;
        otherwise the normal is the push divided by the distance.
        """
        y = np.asarray(y, dtype=float)
        X, K, dist = self.project_rows(y[None, :])
        dist = float(dist[0])
        return X[0], K[0] / dist if dist > 0 else np.zeros_like(K[0]), dist

    def normal_at(self, x, hint=None):
        """A unit inward normal at a boundary point.

        With a direction hint, returns the hint normalized (callers pass the
        push direction of a projection, which is a valid cone element).  With
        no hint, returns the normalized average of the active piece normals,
        which lies in the cone for every shipped kind.
        """
        if hint is not None:
            h = np.asarray(hint, dtype=float)
            nh = np.linalg.norm(h)
            if nh > 0:
                return h / nh
        normals = self.active_normals(np.asarray(x, dtype=float))
        if not normals:
            raise ValueError("normal_at: point is not on the boundary")
        avg = np.mean(normals, axis=0)
        return avg / np.linalg.norm(avg)

    def normal_cone_samples(self, x, k, rng):
        """Up to k unit vectors from the inward normal cone at boundary point x."""
        rays = self.active_normals(np.asarray(x, dtype=float))
        if not rays:
            return []
        if len(rays) == 1:
            return [rays[0]]
        rays = np.asarray(rays)
        out = [r for r in rays]
        while len(out) < k:
            lam = rng.dirichlet(np.ones(len(rays)))
            v = lam @ rays
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                out.append(v / nv)
        return out[:k]

    def ensure_cover(self, spacing=None):
        """Boundary cover for condition (D), built lazily when absent."""
        if self.cover_d is None:
            self.cover_d = build_cover(self, spacing=spacing)
        return self.cover_d

    def to_config(self):
        cfg = {"kind": self.kind, "params": self.params(), "r0": self.r0,
               "c0": self.c0, "gamma": self.gamma}
        return cfg


# ---------------------------------------------------------------------------
# Concrete kinds
# ---------------------------------------------------------------------------


class HalfSpace(Domain):
    """Open half-space {x : <normal, x> > offset}."""

    kind = "half_space"

    def __init__(self, normal, offset=0.0, r0=1e6, c0=0.5, gamma=1.0,
                 sample_halfwidth=5.0):
        normal = np.asarray(normal, dtype=float)
        self.normal = normal / np.linalg.norm(normal)
        self.offset = float(offset)
        self.sample_halfwidth = float(sample_halfwidth)
        d = self.normal.size
        phi = PhiField(
            value=lambda x, n=self.normal: float(np.dot(n, x)),
            grad=lambda x, n=self.normal: n.copy(),
            alpha=0.5 / c0,
        )
        super().__init__(d, r0, c0, gamma, phi=phi, cone_b=(1.0, 1.25),
                         cover_d=None)
        base = self.offset * self.normal
        self.cover_d = [CoverPatch(base, self.normal.copy(), 1.0, 1e6)]

    def signed_distance(self, X):
        return self.offset - X @ self.normal

    def project_rows(self, Y):
        # ndarray.dot has matmul's bits at a fraction of its cost, on rows
        s = np.ascontiguousarray(Y).dot(self.normal) - self.offset
        dist = np.maximum(-s, 0.0)
        X = Y + np.multiply.outer(self.normal, dist).T  # in Y's layout
        return X, X - Y, dist

    def boundary_points(self, n, rng):
        d = self.dim
        base = self.offset * self.normal
        pts = np.empty((n, d))
        # random tangential offsets within the sampling window
        for i in range(n):
            v = rng.uniform(-self.sample_halfwidth, self.sample_halfwidth, size=d)
            v -= np.dot(v, self.normal) * self.normal
            pts[i] = base + v
        return pts

    def interior_points(self, n, rng):
        pts = self.boundary_points(n, rng)
        depth = rng.uniform(0.0, self.sample_halfwidth, size=n)
        return pts + depth[:, None] * self.normal[None, :]

    def active_normals(self, x, tol=1e-9):
        if abs(np.dot(self.normal, x) - self.offset) <= tol:
            return [self.normal.copy()]
        return []

    def params(self):
        return {"normal": self.normal.tolist(), "offset": self.offset}


class Ball(Domain):
    """Open ball {x : |x - center| < radius}."""

    kind = "ball"

    def __init__(self, center, radius, r0=1e6, c0=0.5, gamma=1.0):
        center = np.asarray(center, dtype=float)
        self.center = center
        self.radius = float(radius)
        phi = PhiField(
            value=lambda x, c=center: -0.5 * float(np.sum((x - c) ** 2)),
            grad=lambda x, c=center: c - x,
            alpha=0.5 * self.radius / c0,
        )
        super().__init__(center.size, r0, c0, gamma, phi=phi,
                         cone_b=(0.25 * self.radius, 1.5), cover_d=None)

    def signed_distance(self, X):
        return np.linalg.norm(X - self.center, axis=1) - self.radius

    def project_rows(self, Y):
        v = Y - self.center
        r = np.sqrt(_sq_norm(v))
        out = (r > self.radius).nonzero()[0]
        X = Y.copy(order="K")
        dist = np.zeros(len(Y))
        if len(out):
            vo, ro = v[out], r[out]
            X[out] = self.center + vo * (self.radius / ro)[:, None]
            dist[out] = ro - self.radius
        return X, X - Y, dist

    def boundary_points(self, n, rng):
        v = rng.standard_normal((n, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.center + self.radius * v

    def interior_points(self, n, rng):
        v = rng.standard_normal((n, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        u = rng.uniform(0.0, 1.0, size=n) ** (1.0 / self.dim)
        return self.center + self.radius * u[:, None] * v

    def active_normals(self, x, tol=1e-9):
        v = x - self.center
        r = np.linalg.norm(v)
        if abs(r - self.radius) <= tol and r > 0:
            return [-v / r]
        return []

    def params(self):
        return {"center": self.center.tolist(), "radius": self.radius}


class AxisBox(Domain):
    """Open axis-aligned box {x : low < x < high} (componentwise)."""

    kind = "axis_box"

    def __init__(self, low, high, r0=1e6, c0=0.5, gamma=1.0):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if np.any(high <= low):
            raise ValueError("axis_box: high must exceed low componentwise")
        self.low, self.high = low, high
        center = 0.5 * (low + high)
        halfwidth = float(np.min(0.5 * (high - low)))
        phi = PhiField(
            value=lambda x, c=center: -0.5 * float(np.sum((x - c) ** 2)),
            grad=lambda x, c=center: c - x,
            alpha=0.5 * halfwidth / c0,
        )
        super().__init__(low.size, r0, c0, gamma, phi=phi,
                         cone_b=(0.25 * halfwidth, 1.0 / (0.9 / math.sqrt(low.size))),
                         cover_d=None)

    def signed_distance(self, X):
        q = np.maximum(self.low - X, X - self.high)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(np.max(q, axis=1), 0.0)
        return outside + inside

    def project_rows(self, Y):
        # on columns, maximum then minimum give np.clip's bits on rows
        X = np.clip(Y, self.low, self.high) if Y.flags.c_contiguous else \
            np.minimum(np.maximum(Y, self.low), self.high)
        K = X - Y
        return X, K, np.sqrt(_sq_norm(K))

    def boundary_points(self, n, rng):
        d = self.dim
        widths = self.high - self.low
        # facet areas: prod of widths excluding the fixed axis, two sides each
        areas = np.array([np.prod(np.delete(widths, i)) for i in range(d)])
        probs = np.repeat(areas, 2)
        probs = probs / probs.sum()
        faces = rng.choice(2 * d, size=n, p=probs)
        pts = self.low + rng.uniform(0.0, 1.0, size=(n, d)) * widths
        for j, f in enumerate(faces):
            axis, side = divmod(f, 2)
            pts[j, axis] = self.low[axis] if side == 0 else self.high[axis]
        return pts

    def interior_points(self, n, rng):
        return self.low + rng.uniform(0.0, 1.0, size=(n, self.dim)) * (self.high - self.low)

    def active_normals(self, x, tol=1e-9):
        normals = []
        for i in range(self.dim):
            if abs(x[i] - self.low[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = 1.0
                normals.append(e)
            if abs(x[i] - self.high[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = -1.0
                normals.append(e)
        return normals

    def params(self):
        return {"low": self.low.tolist(), "high": self.high.tolist()}


class ConvexPolytope(Domain):
    """Open polytope {x : A x < b}, rows of A unit outward normals."""

    kind = "convex_polytope"

    def __init__(self, A, b, interior_point, r0=1e6, c0=0.5, gamma=1.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        norms = np.linalg.norm(A, axis=1)
        self.A = A / norms[:, None]
        self.b = b / norms
        self.interior_point = np.asarray(interior_point, dtype=float)
        if np.any(self.A @ self.interior_point >= self.b):
            raise ValueError("convex_polytope: interior_point is not interior")
        margin = float(np.min(self.b - self.A @ self.interior_point))
        c = self.interior_point
        phi = PhiField(
            value=lambda x, c=c: -0.5 * float(np.sum((x - c) ** 2)),
            grad=lambda x, c=c: c - x,
            alpha=0.5 * margin / c0,
        )
        super().__init__(A.shape[1], r0, c0, gamma, phi=phi,
                         cone_b=(0.25 * margin, 2.0), cover_d=None)

    def signed_distance(self, X):
        slack = X @ self.A.T - self.b  # positive rows are violated
        inside = np.max(slack, axis=1)
        sd = inside.copy()
        out = inside > 0
        if np.any(out):
            Xp, _, dist = self.project_rows(X[out])
            sd[out] = dist
        return sd

    def project_rows(self, Y):
        X = Y.copy(order="K")
        dist = np.zeros(len(Y))
        rows = np.ascontiguousarray(Y)  # BLAS sums as it does on rows
        slack = rows @ self.A.T - self.b
        out_idx = np.nonzero(np.max(slack, axis=1) > 0)[0]
        for i in out_idx:
            X[i] = self._project_one(rows[i])
            dist[i] = np.linalg.norm(X[i] - rows[i])
        return X, X - Y, dist

    def _project_one(self, y):
        m, d = self.A.shape
        best, best_d = None, np.inf
        for size in range(1, min(m, d) + 1):
            for S in combinations(range(m), size):
                As = self.A[list(S)]
                G = As @ As.T
                rhs = As @ y - self.b[list(S)]
                try:
                    lam = np.linalg.solve(G, rhs)
                except np.linalg.LinAlgError:
                    continue
                if np.any(lam < -1e-10):
                    continue
                x = y - As.T @ lam
                if np.max(self.A @ x - self.b) > 1e-9:
                    continue
                dd = np.linalg.norm(x - y)
                if dd < best_d:
                    best, best_d = x, dd
        if best is None:
            raise ValueError("convex_polytope: projection failed (unbounded?)")
        return best

    def boundary_points(self, n, rng):
        # shoot rays from the interior point and stop at the first facet
        pts = np.empty((n, self.dim))
        for i in range(n):
            v = rng.standard_normal(self.dim)
            v /= np.linalg.norm(v)
            av = self.A @ v
            ts = (self.b - self.A @ self.interior_point) / np.where(av > 1e-12, av, np.inf)
            t = np.min(ts[ts > 0])
            pts[i] = self.interior_point + t * v
        return pts

    def interior_points(self, n, rng):
        pts = self.boundary_points(n, rng)
        u = rng.uniform(0.0, 1.0, size=n)[:, None]
        return self.interior_point + u * (pts - self.interior_point)

    def active_normals(self, x, tol=1e-9):
        slack = self.A @ x - self.b
        return [-self.A[i] for i in range(len(self.b)) if abs(slack[i]) <= tol]

    def params(self):
        return {"A": self.A.tolist(), "b": self.b.tolist(),
                "interior_point": self.interior_point.tolist()}


class NotchedDisc(Domain):
    """Unit-box-like domain with a circular notch: box minus an open disc
    centered on the bottom edge.  The shipped nonconvex kind: the notch disc
    itself is the exterior sphere at arc points, so condition (A) holds with
    r0 equal to the notch radius, and (H1) holds with c0 = 1/(2 r0).
    """

    kind = "notched_disc"
    convex = False

    def __init__(self, low=(0.0, 0.0), high=(1.0, 1.0),
                 notch_center=None, notch_radius=0.2,
                 r0=None, c0=None, gamma=None):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if low.size != 2:
            raise ValueError("notched_disc is two-dimensional")
        if notch_center is None:
            notch_center = np.array([0.5 * (low[0] + high[0]), low[1]])
        notch_center = np.asarray(notch_center, dtype=float)
        if abs(notch_center[1] - low[1]) > 1e-12:
            raise ValueError("notch center must lie on the bottom edge")
        rho = float(notch_radius)
        if not (low[0] + rho < notch_center[0] < high[0] - rho):
            raise ValueError("notch must not reach the box corners")
        if rho >= high[1] - low[1]:
            raise ValueError("notch radius too large for the box")
        self.low, self.high = low, high
        self.c = notch_center
        self.rho = rho
        self.junctions = np.array([
            [notch_center[0] - rho, low[1]],
            [notch_center[0] + rho, low[1]],
        ])
        r0 = rho if r0 is None else float(r0)
        c0 = 1.0 / (2.0 * r0) if c0 is None else float(c0)
        gamma = 0.5 / c0 if gamma is None else float(gamma)
        clamp = 0.5 * min(rho, float(np.min(high - low)))
        phi = PhiField(
            value=lambda x, m=clamp: m * math.tanh(-float(self._sd_one(x)) / m),
            grad=lambda x, m=clamp: (1.0 / math.cosh(float(self._sd_one(x)) / m) ** 2)
            * (-self._sd_grad(x)),
            alpha=0.5 / c0,
        )
        super().__init__(2, r0, c0, gamma, phi=phi, cone_b=(0.05, 2.5),
                         cover_d=None)

    # -- helpers -----------------------------------------------------------

    def _box_sd(self, X):
        q = np.maximum(self.low - X, X - self.high)
        outside = np.sqrt(_sq_norm(np.maximum(q, 0.0)))
        inside = np.minimum(np.max(q, axis=1), 0.0)
        return outside + inside

    def _sd_one(self, x):
        return self.signed_distance(np.asarray(x, dtype=float)[None, :])[0]

    def _sd_grad(self, x):
        """Gradient of the signed distance at x, piecewise analytic.

        Ill-defined exactly on corners and the medial axis; callers sample
        continuous boundary points where the nearest piece is unique.
        """
        x = np.asarray(x, dtype=float)
        sd_box = float(self._box_sd(x[None, :])[0])
        v = x - self.c
        r = float(np.linalg.norm(v))
        sd_notch = self.rho - r
        if sd_notch >= sd_box and r > 1e-12:
            return -v / r
        # nearest box face
        q_low = x - self.low
        q_high = self.high - x
        grads = []
        vals = []
        for i in range(2):
            e = np.zeros(2)
            e[i] = -1.0
            grads.append(e)
            vals.append(q_low[i])
            grads.append(-e)
            vals.append(q_high[i])
        j = int(np.argmin(vals))
        return grads[j]

    # -- kernels -----------------------------------------------------------

    def signed_distance(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        sd_box = self._box_sd(X)
        r = np.linalg.norm(X - self.c, axis=1)
        sd = np.maximum(sd_box, self.rho - r)
        # outside the box below the notch gap the nearest points are junctions
        below = (sd_box > 0) & (np.abs(X[:, 0] - self.c[0]) < self.rho) \
            & (X[:, 1] < self.low[1])
        if np.any(below):
            d0 = np.linalg.norm(X[below] - self.junctions[0], axis=1)
            d1 = np.linalg.norm(X[below] - self.junctions[1], axis=1)
            sd[below] = np.minimum(d0, d1)
        return sd

    def project_rows(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        X = Y.copy(order="K")
        dist = np.zeros(len(Y))
        # a row is in the box when its excess beyond the faces squares to 0,
        # exactly when _box_sd <= 0: NaN is outside, an excess whose square
        # underflows is inside
        excess = _sq_norm(np.maximum(self.low - Y, Y - self.high).clip(0.0))
        v = Y - self.c
        r = np.sqrt(_sq_norm(v))
        # inside the box but in the notch: radial push onto the arc
        notch = ((excess == 0.0) & (r < self.rho)).nonzero()[0]
        if len(notch):
            rn = r[notch]
            if rn.min() < 1e-12:
                raise AmbiguousProjection(
                    "projection from the notch center is direction-free")
            X[notch] = self.c + v[notch] * (self.rho / rn)[:, None]
            dist[notch] = self.rho - rn
        out = excess.nonzero()[0]
        if not len(out):
            return X, X - Y, dist
        # outside the box: clamp, unless that lands in the notch gap; the
        # distances go through _row_norms, as np.linalg.norm of one row
        y = Y[out]
        clamp = y.clip(self.low, self.high)
        face = _row_norms(clamp - self.c) >= self.rho - 1e-15
        gap = not face.all()
        if gap:
            rows, yf, clamp = out[face], y[face], clamp[face]
        else:
            rows, yf = out, y
        X[rows] = clamp
        dist[rows] = _row_norms(clamp - yf)
        if not gap:
            return X, X - Y, dist
        # clamped point landed in the notch gap: junction corners compete
        rows, y = out[~face], y[~face]
        d0 = _row_norms(y - self.junctions[0])
        d1 = _row_norms(y - self.junctions[1])
        lo, hi = np.minimum(d0, d1), np.maximum(d0, d1)
        if np.any(hi - lo <= AMBIGUITY_RTOL * np.maximum(hi, 1.0)):
            raise AmbiguousProjection(
                "two junction corners are equidistant within tolerance")
        x = np.where((d0 < d1)[:, None], self.junctions[0], self.junctions[1])
        X[rows], dist[rows] = x, lo
        return X, X - Y, dist

    def boundary_points(self, n, rng):
        widths = self.high - self.low
        gap = 2.0 * self.rho
        pieces = [
            ("bottom_left", self.junctions[0, 0] - self.low[0]),
            ("bottom_right", self.high[0] - self.junctions[1, 0]),
            ("top", widths[0]),
            ("left", widths[1]),
            ("right", widths[1]),
            ("arc", math.pi * self.rho),
        ]
        lengths = np.array([p[1] for p in pieces])
        probs = lengths / lengths.sum()
        choice = rng.choice(len(pieces), size=n, p=probs)
        u = rng.uniform(0.0, 1.0, size=n)
        pts = np.empty((n, 2))
        for j in range(n):
            name = pieces[choice[j]][0]
            t = u[j]
            if name == "bottom_left":
                pts[j] = [self.low[0] + t * (self.junctions[0, 0] - self.low[0]), self.low[1]]
            elif name == "bottom_right":
                pts[j] = [self.junctions[1, 0] + t * (self.high[0] - self.junctions[1, 0]), self.low[1]]
            elif name == "top":
                pts[j] = [self.low[0] + t * widths[0], self.high[1]]
            elif name == "left":
                pts[j] = [self.low[0], self.low[1] + t * widths[1]]
            elif name == "right":
                pts[j] = [self.high[0], self.low[1] + t * widths[1]]
            else:
                th = t * math.pi
                pts[j] = self.c + self.rho * np.array([math.cos(th), math.sin(th)])
        return pts

    def interior_points(self, n, rng):
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            cand = self.low + rng.uniform(0.0, 1.0, size=(2 * (n - filled), 2)) \
                * (self.high - self.low)
            keep = np.linalg.norm(cand - self.c, axis=1) >= self.rho
            cand = cand[keep]
            take = min(len(cand), n - filled)
            out[filled:filled + take] = cand[:take]
            filled += take
        return out

    def active_normals(self, x, tol=1e-9):
        normals = []
        for i in range(2):
            if abs(x[i] - self.low[i]) <= tol:
                e = np.zeros(2)
                e[i] = 1.0
                normals.append(e)
            if abs(x[i] - self.high[i]) <= tol:
                e = np.zeros(2)
                e[i] = -1.0
                normals.append(e)
        v = x - self.c
        r = np.linalg.norm(v)
        if abs(r - self.rho) <= tol and r > 0:
            normals.append(v / r)
        # drop the bottom-edge normal if x is strictly inside the notch gap
        if abs(x[1] - self.low[1]) <= tol and abs(x[0] - self.c[0]) < self.rho - tol:
            normals = [nv for nv in normals if not np.allclose(nv, [0.0, 1.0])]
        return normals

    def params(self):
        return {"low": self.low.tolist(), "high": self.high.tolist(),
                "notch_center": self.c.tolist(), "notch_radius": self.rho}


def _row_norms(V):
    """Euclidean norm of each row, bitwise equal to np.linalg.norm(row): both
    take sqrt(v . v) through numpy's dot; norm(axis=1) differs in the last bit."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _maximin_direction(normals):
    """A unit l maximizing (approximately) the worst inner product with the
    given unit normals; exact extreme-pair bisector in the plane."""
    N = np.asarray(normals, dtype=float)
    if len(N) == 1:
        return N[0].copy()
    if N.shape[1] == 2:
        dots = N @ N.T
        i, j = np.unravel_index(int(np.argmin(dots)), dots.shape)
        v = N[i] + N[j]
        nv = np.linalg.norm(v)
        if nv < 1e-9:
            return N[0].copy()
        return v / nv
    l = N.mean(axis=0)
    nl = np.linalg.norm(l)
    l = N[0].copy() if nl < 1e-12 else l / nl
    for _ in range(200):
        worst = N[int(np.argmin(N @ l))]
        l = l + 0.05 * worst
        l /= np.linalg.norm(l)
    return l


def build_cover(domain, n_dense=2048, spacing=None, safety=0.9, seed=0):
    """Data-driven condition (D) cover with one global (lambda, R).

    A dense deterministic boundary sample is subsampled greedily at the
    requested spacing into patch centers; each patch direction is the
    maximin direction of all normal-cone rays seen within twice the cover
    radius, and lambda is a safety fraction of the worst patch inner
    product.  Coverage and alignment are therefore certified on the dense
    sample, which is what the sampled condition check re-verifies.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC0E)))
    dense = domain.boundary_points(int(n_dense), rng)
    if spacing is None:
        span = np.max(dense, axis=0) - np.min(dense, axis=0)
        spacing = float(np.linalg.norm(span)) / 40.0
    centers = []
    for x in dense:
        if all(np.linalg.norm(x - c) >= spacing for c in centers):
            centers.append(x)
    centers = np.asarray(centers)
    dmat = np.linalg.norm(dense[:, None, :] - centers[None, :, :], axis=2)
    # headroom over the dense sample: fresh boundary points can sit in the
    # gaps between dense samples
    R = float(np.max(np.min(dmat, axis=1))) * 1.1 + 1e-9
    rays = [domain.active_normals(x) for x in dense]
    patches = []
    lam_min = np.inf
    for jc, c in enumerate(centers):
        reach = [n for i in np.nonzero(dmat[:, jc] < 2.0 * R)[0]
                 for n in rays[i]]
        if not reach:
            continue
        a = _maximin_direction(reach)
        worst = float(np.min(np.asarray(reach) @ a))
        lam_min = min(lam_min, worst)
        patches.append((c, a))
    lam = max(safety * lam_min, 1e-6)
    return [CoverPatch(c, a, lam, R) for c, a in patches]


_KINDS = {
    "half_space": HalfSpace,
    "ball": Ball,
    "axis_box": AxisBox,
    "convex_polytope": ConvexPolytope,
    "notched_disc": NotchedDisc,
}


def make_domain(kind, params, r0=None, c0=None, gamma=None):
    """Build a domain from its config representation."""
    if kind not in _KINDS:
        raise UnsupportedKind(f"unknown domain kind {kind!r}")
    kwargs = dict(params)
    for key, val in (("r0", r0), ("c0", c0), ("gamma", gamma)):
        if val is not None:
            kwargs[key] = val
    return _KINDS[kind](**kwargs)


# ---------------------------------------------------------------------------
# Condition verification
# ---------------------------------------------------------------------------

ALL_CONDITIONS = ("A", "B", "C", "D", "H1", "H2")


@dataclass
class ConditionResult:
    condition: str
    passed: bool
    margin: float
    n_samples: int
    note: str = ""


@dataclass
class ConditionReport:
    results: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(r.passed for r in self.results.values())

    def __getitem__(self, key):
        return self.results[key]


def _supported_conditions(domain, build_cover_if_missing=True):
    sup = ["A", "H1"]
    if domain.cone_b is not None:
        sup.append("B")
    if domain.phi is not None:
        sup.extend(["C", "H2"])
    if domain.cover_d is None and build_cover_if_missing:
        try:
            domain.ensure_cover()
        except Exception:
            pass
    if domain.cover_d is not None:
        sup.append("D")
    return tuple(c for c in ALL_CONDITIONS if c in sup)


def check_conditions(domain, n_boundary_samples, n_pair_samples, seed,
                     conditions=None):
    """Sampled verification of the boundary conditions.

    For each condition the reported margin is the minimum of the defining
    inequality's left side over all sampled boundary points, closure points
    and normal-cone vectors; pass means margin >= -1e-9.  Conditions whose
    metadata the domain lacks are skipped by default and raise
    UnsupportedKind when requested explicitly.
    """
    if n_boundary_samples < 1 or n_pair_samples < 1:
        raise ValueError("sample counts must be >= 1")
    explicit = conditions is not None
    if conditions is None:
        conditions = _supported_conditions(domain)
    supported = _supported_conditions(domain)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9E0)))

    bpts = domain.boundary_points(n_boundary_samples, rng)
    ipts = domain.interior_points(n_pair_samples, rng)
    normals = [domain.normal_cone_samples(x, 3, rng) for x in bpts]

    report = ConditionReport()
    for cond in conditions:
        if cond not in supported:
            if explicit:
                raise UnsupportedKind(
                    f"condition ({cond}) needs metadata this domain lacks")
            continue
        checker = _CHECKERS[cond]
        report.results[cond] = checker(domain, bpts, normals, ipts, rng)
    return report


def _check_A(domain, bpts, normals, ipts, rng, n_probe=64):
    r0 = domain.r0
    margin = np.inf
    count = 0
    for x, ns in zip(bpts, normals):
        for n in ns:
            center = x - r0 * n
            u = rng.standard_normal((n_probe, domain.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radii = r0 * rng.uniform(0.0, 1.0, size=n_probe) ** (1.0 / domain.dim)
            probes = center + radii[:, None] * u
            # every probe of the open ball must stay out of the open domain
            sd = domain.signed_distance(probes)
            margin = min(margin, float(np.min(sd)))
            count += n_probe
    return ConditionResult("A", margin >= -CONDITION_TOL, margin, count,
                           note=f"exterior ball radius {r0:g}")


def _check_H1(domain, bpts, normals, ipts, rng):
    margin = np.inf
    count = 0
    m = len(ipts)
    for j, (x, ns) in enumerate(zip(bpts, normals)):
        y = ipts[(j * 7) % m:(j * 7) % m + 16]
        if len(y) == 0:
            y = ipts[:16]
        diff = y - x
        sq = np.sum(diff ** 2, axis=1)
        for n in ns:
            lhs = diff @ n + domain.c0 * sq
            margin = min(margin, float(np.min(lhs)))
            count += len(y)
    return ConditionResult("H1", margin >= -CONDITION_TOL, margin, count,
                           note=f"c0={domain.c0:g}")


def _check_H2(domain, bpts, normals, ipts, rng):
    alpha = domain.phi.alpha
    bound = alpha * domain.c0
    margin = np.inf
    count = 0
    for x, ns in zip(bpts, normals):
        g = np.asarray(domain.phi.grad(x), dtype=float)
        for n in ns:
            margin = min(margin, float(np.dot(g, n)) - bound)
            count += 1
    return ConditionResult("H2", margin >= -CONDITION_TOL, margin, count,
                           note=f"alpha={alpha:g}")


def _check_C(domain, bpts, normals, ipts, rng):
    margin = np.inf
    count = 0
    m = len(ipts)
    for j, (x, ns) in enumerate(zip(bpts, normals)):
        y = ipts[(j * 5) % m:(j * 5) % m + 16]
        if len(y) == 0:
            y = ipts[:16]
        diff = y - x
        sq = np.sum(diff ** 2, axis=1)
        g = np.asarray(domain.phi.grad(x), dtype=float)
        for n in ns:
            lhs = diff @ n + (np.dot(g, n) / domain.gamma) * sq
            margin = min(margin, float(np.min(lhs)))
            count += len(y)
    return ConditionResult("C", margin >= -CONDITION_TOL, margin, count,
                           note=f"gamma={domain.gamma:g}")


def _check_B(domain, bpts, normals, ipts, rng):
    """Certificate check: a maximin direction l over all normals sampled
    within delta of the base point must satisfy <l, n> >= 1/beta."""
    delta, beta = domain.cone_b
    margin = np.inf
    count = 0
    base = np.asarray(bpts)
    for j, x in enumerate(base):
        near = np.nonzero(np.linalg.norm(base - x, axis=1) <= delta)[0]
        cone = [n for i in near for n in normals[i]]
        if not cone:
            continue
        cone = np.asarray(cone)
        l = _maximin_direction(cone)
        margin = min(margin, float(np.min(cone @ l)) - 1.0 / beta)
        count += len(cone)
    return ConditionResult("B", margin >= -CONDITION_TOL, margin, count,
                           note=f"delta={delta:g} beta={beta:g}")


def _check_D(domain, bpts, normals, ipts, rng):
    patches = domain.cover_d
    centers = np.asarray([p.center for p in patches])
    radii = np.asarray([p.radius for p in patches])
    margin = np.inf
    count = 0
    for x, ns in zip(bpts, normals):
        d = np.linalg.norm(centers - x, axis=1)
        # coverage: some patch ball of radius R contains x
        margin = min(margin, float(np.max(radii - d)))
        hits = np.nonzero(d <= 2.0 * radii)[0]
        for i in hits:
            for n in ns:
                margin = min(margin, float(np.dot(n, patches[i].direction)) - patches[i].lam)
                count += 1
    return ConditionResult("D", margin >= -CONDITION_TOL, margin, count,
                           note=f"{len(patches)} patches")


_CHECKERS = {"A": _check_A, "B": _check_B, "C": _check_C, "D": _check_D,
             "H1": _check_H1, "H2": _check_H2}
