"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's own code paths: closed forms,
brute-force enumeration, classical series, and the first-written form of
kernels since rewritten for speed, kept as bitwise references.
"""

import itertools
import math

import numpy as np

from rsdekit.errors import AmbiguousProjection, StartOutsideDomain
from rsdekit.geometry import AMBIGUITY_RTOL, BOUNDARY_TOL
from rsdekit.paths import rng_for


def reflect_half_line(x0, w_values):
    """Explicit reflection on the half-line: running-max formula.

    x_t = (x0 + w_t - w_0) + sup_{s<=t} (-(x0 + w_s - w_0))^+ and the
    regulator equals that running max.
    """
    w = np.asarray(w_values, dtype=float).ravel()
    free = x0 + (w - w[0])
    k = np.maximum.accumulate(np.maximum(-free, 0.0))
    return free + k, k


def smallball_1d(delta, T=1.0, terms=40):
    """P(sup_{t<=T} |w_t| < delta) by the classical alternating series."""
    k = np.arange(terms)
    coef = (-1.0) ** k / (2 * k + 1)
    expo = np.exp(-((2 * k + 1) ** 2) * np.pi ** 2 * T / (8.0 * delta ** 2))
    return float(4.0 / np.pi * np.sum(coef * expo))


def box_project_brute(y, low, high):
    """Nearest point of a box by enumerating facet/edge/corner candidates."""
    y = np.asarray(y, dtype=float)
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    d = len(y)
    best, best_dist = None, np.inf
    for combo in itertools.product(range(3), repeat=d):
        cand = np.empty(d)
        for i, c in enumerate(combo):
            cand[i] = (low[i], high[i], min(max(y[i], low[i]), high[i]))[c]
        dist = np.linalg.norm(cand - y)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best, best_dist


def notched_project_one(dom, y):
    """Projection of one point onto a NotchedDisc closure, case by case:
    (point, unit inward normal, distance), zero normal and distance for a
    point already in the closure.  Raises AmbiguousProjection at the notch
    centre and where the two junction corners tie."""
    y = np.asarray(y, dtype=float)
    v = y - dom.c
    r = math.sqrt(v[0] * v[0] + v[1] * v[1])
    q = np.maximum(dom.low - y, y - dom.high)
    in_box = np.linalg.norm(np.maximum(q, 0.0)) + min(q.max(), 0.0) <= 0
    if in_box:
        if r >= dom.rho:
            return y.copy(), np.zeros(2), 0.0
        # in the notch: radial push onto the arc
        if r < 1e-12:
            raise AmbiguousProjection("notch centre")
        return dom.c + v * (dom.rho / r), v / r, dom.rho - r
    clamp = np.clip(y, dom.low, dom.high)
    if np.linalg.norm(clamp - dom.c) >= dom.rho - 1e-15:
        d = np.linalg.norm(clamp - y)
        return clamp, (clamp - y) / d, d
    # the clamped point lies in the notch gap: nearer junction corner
    d0 = np.linalg.norm(y - dom.junctions[0])
    d1 = np.linalg.norm(y - dom.junctions[1])
    lo, hi = (d0, d1) if d0 <= d1 else (d1, d0)
    if hi - lo <= AMBIGUITY_RTOL * max(hi, 1.0):
        raise AmbiguousProjection("equidistant junction corners")
    x = dom.junctions[0] if d0 < d1 else dom.junctions[1]
    return x, (x - y) / lo, lo


def gauss_tail(z):
    """Standard normal survival function via erfc."""
    from math import erfc, sqrt
    return 0.5 * erfc(z / sqrt(2.0))


def holder_pairs_brute(times, values, alpha):
    """sup over node pairs i < j of |v_j - v_i| / (t_j - t_i)^alpha for one
    path (N, d), by a double loop over pairs."""
    t = [float(x) for x in times]
    v = [[float(x) for x in row] for row in values]
    best = 0.0
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            best = max(best, math.dist(v[i], v[j]) / (t[j] - t[i]) ** alpha)
    return best


def tube_block_reference(lo, hi, payload, block_size):
    """Tube rejection as first written: draw, scale, zero-prefixed cumsum,
    max over nodes of np.linalg.norm of the deviation from href.  Returns
    the kernel's accepted rows and counts per block, plus each hit's dev."""
    d1 = payload["d1"]
    times = np.asarray(payload["times"])
    href = payload["href"]
    block0 = payload.get("block0", 0)
    dt_sqrt = np.sqrt(np.diff(times))
    accepted, counts, devs = [], [], []
    for block in range(block0 + lo, block0 + hi):
        rng = rng_for(payload["seed"], payload["tag"], payload["delta_idx"],
                      block)
        incs = rng.standard_normal((block_size, len(times) - 1, d1)) \
            * dt_sqrt[None, :, None]
        W = np.concatenate([np.zeros((block_size, 1, d1)),
                            np.cumsum(incs, axis=1)], axis=1)
        dev = np.max(np.linalg.norm(W if href is None else W - href[None],
                                    axis=2), axis=1)
        hit = dev < payload["delta"]
        counts.append(int(np.sum(hit)))
        accepted.append(W[hit])
        devs.append(dev[hit])
    return {"accepted": accepted, "counts": counts, "dev": devs}


def brownian_batch_reference(d1, times, seed, lo, hi):
    """Driver values path by path: each path's increments drawn, scaled and
    summed on their own."""
    dt_sqrt = np.sqrt(np.diff(np.asarray(times, dtype=float)))[:, None]
    W = np.zeros((hi - lo, len(times), d1))
    for j, stream in enumerate(range(lo, hi)):
        incs = rng_for(seed, stream).standard_normal((len(times) - 1, d1))
        W[j, 1:] = np.cumsum(incs * dt_sqrt, axis=0)
    return W


# The reflected step as first written: coefficient families that copy their
# constants at every call, an Ito drift that evaluates sigma again and adds
# a zero correction, and a step that sizes a sub-step array on every kind.
# Kept as bitwise references for the integrators.


def const_family_reference(d, d1, params):
    if "matrix" in params:
        M = np.asarray(params["matrix"], dtype=float).reshape(d, d1)
    else:
        M = float(params.get("value", 1.0)) * np.eye(d, d1)

    def sigma(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(M, X.shape[:-1] + (d, d1)).copy()

    def jac(X):
        X = np.asarray(X, dtype=float)
        return np.zeros(X.shape[:-1] + (d, d1, d))

    return sigma, jac


def sin_family_reference(d, d1, params):
    base = float(params.get("base", 0.5))
    amp = float(params.get("amp", 0.25))
    freq = float(params.get("freq", 1.0))

    def sigma(X):
        X = np.asarray(X, dtype=float)
        diag = base + amp * np.sin(freq * X)
        out = np.zeros(X.shape[:-1] + (d, d))
        idx = np.arange(d)
        out[..., idx, idx] = diag
        return out

    def jac(X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1] + (d, d, d))
        idx = np.arange(d)
        out[..., idx, idx, idx] = amp * freq * np.cos(freq * X)
        return out

    return sigma, jac


def const_drift_reference(d, params):
    v = np.asarray(params.get("value", np.zeros(d)), dtype=float)
    v = np.broadcast_to(np.atleast_1d(v), (d,)).astype(float)

    def b(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(v, X.shape[:-1] + (d,)).copy()

    return b


def btilde_reference(coeffs, x, S=None):
    """Ito-corrected drift; a given S is ignored and sigma evaluated again."""
    x = np.asarray(x, dtype=float)
    S = coeffs.sigma_at(x)
    J = coeffs.jacobian_at(x)
    corr = 0.5 * np.einsum("...ikj,...jk->...i", J, S)
    return coeffs.b_at(x) + corr


def advance_reference(domain, X, du):
    nsub = np.ones(len(du))
    if not domain.convex:
        half = 0.5 * domain.r0
        norms = np.linalg.norm(du, axis=1)
        big = norms > half
        nsub[big] = np.ldexp(1.0, np.ceil(np.log2(norms[big] / half)).astype(int))
        du = du / nsub[:, None]
    Y = X + du
    X, _, tv_inc = domain.project_rows(Y)
    k_inc = X - Y
    for s in range(1, int(nsub.max(initial=1.0))):
        rows = np.nonzero(nsub > s)[0]
        Y = X[rows] + du[rows]
        Xr, _, dist = domain.project_rows(Y)
        X[rows] = Xr
        k_inc[rows] += Xr - Y
        tv_inc[rows] += dist
    return X, k_inc, tv_inc


def drive_batch_reference(domain, times, x0, increment_fn, check_start=True,
                          stride=1):
    times = np.asarray(times, dtype=float)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    P, d = x0.shape
    if check_start and np.any(domain.signed_distance(x0) > BOUNDARY_TOL):
        raise StartOutsideDomain("initial state outside the closure")
    N = (len(times) - 1) // stride + 1
    x = np.empty((P, N, d))
    k = np.zeros((P, N, d))
    tv = np.zeros((P, N))
    pushes = np.zeros((P, N, d))
    X = x0.copy()
    K = np.zeros((P, d))
    TV = np.zeros(P)
    x[:, 0] = X
    for i in range(len(times) - 1):
        du = increment_fn(i, X)
        X, k_inc, tv_inc = advance_reference(domain, X, du)
        K = K + k_inc
        TV = TV + tv_inc
        j, off = divmod(i + 1, stride)
        if off:
            continue
        x[:, j] = X
        k[:, j] = K
        tv[:, j] = TV
        norms = np.linalg.norm(k_inc, axis=1)
        hit = norms > 0
        pushes[hit, j] = k_inc[hit] / norms[hit, None]
    return x, k, tv, pushes
