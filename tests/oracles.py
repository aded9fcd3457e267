"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's own code paths: closed forms,
brute-force enumeration, classical series, and the first-written form of
kernels since rewritten for speed, kept as bitwise references.  Last,
`peak_bytes`, the measure every absolute `tracemalloc` bound of the tests
takes.
"""

import itertools
import math
import tracemalloc

import numpy as np

from rsdekit.errors import (AmbiguousProjection, GridMismatch,
                            StartOutsideDomain)
from rsdekit.geometry import AMBIGUITY_RTOL, BOUNDARY_TOL
from rsdekit.paths import (TUBE_SLAB, _cumsum_rows, _sq_norm, dyadic_grid,
                           node_indices, rng_for, tube_block)
from rsdekit.rsde import euler_reflected_batch
from rsdekit.skorohod import BatchPaths, drive_batch


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


def ball_project_rows_reference(dom, Y):
    """Ball.project_rows as first written: boolean masks, each outside
    row's v and r gathered once per use."""
    v = Y - dom.center
    r = np.sqrt(_sq_norm(v))
    out = r > dom.radius
    X = Y.copy()
    N = np.zeros_like(Y)
    dist = np.zeros(len(Y))
    if np.any(out):
        ro = r[out][:, None]
        X[out] = dom.center + v[out] * (dom.radius / ro)
        N[out] = -v[out] / ro
        dist[out] = r[out] - dom.radius
    return X, N, dist


def box_project_rows_reference(dom, Y):
    """AxisBox.project_rows as first written, distances by
    np.linalg.norm, except that a row with a zero coordinate takes its own
    maximum-then-minimum bits: np.clip gives a -0.0 on a face at 0 a sign
    that follows the dimension and, on some CPUs, the row's place in its
    batch, while maximum then minimum give +0.0 at every d and position."""
    X = np.clip(Y, dom.low, dom.high)
    for p in np.flatnonzero(np.any(Y == 0, axis=1)):
        X[p] = np.minimum(np.maximum(Y[p], dom.low), dom.high)
    diff = X - Y
    dist = np.linalg.norm(diff, axis=1)
    N = np.zeros_like(Y)
    out = dist > 0
    N[out] = diff[out] / dist[out][:, None]
    return X, N, dist


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


def lag_scan_sq_reference(times, values, alpha, lags=None):
    """The all-lags loop as first written: per path the max over node pairs
    (i, i + L) of |v_{i+L} - v_i|^2 / (t_{i+L} - t_i)^(2 alpha), every lag
    scanned in full on 64-path tiles."""
    axes = np.moveaxis(np.asarray(values), 2, 0).astype(float, order="C")
    d, P, N = axes.shape
    best = np.zeros(P)
    if N < 2:
        return best
    lags = range(1, N) if lags is None else lags
    acc_buf, tmp_buf = np.empty((2, min(P, 64) * (N - 1)))
    for p0 in range(0, P, 64):
        tile = axes[:, p0:p0 + 64]
        rows = tile.shape[1]
        out = best[p0:p0 + rows]
        for L in lags:
            n = N - L
            acc = acc_buf[:rows * n].reshape(rows, n)
            np.subtract(tile[0, :, L:], tile[0, :, :n], out=acc)
            np.multiply(acc, acc, out=acc)
            for k in range(1, d):
                tmp = tmp_buf[:rows * n].reshape(rows, n)
                np.subtract(tile[k, :, L:], tile[k, :, :n], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                acc += tmp
            if alpha != 0:
                acc /= (times[L:] - times[:n]) ** (2.0 * alpha)
            np.maximum(out, acc.max(axis=1), out=out)
    return best


def tube_block_reference(lo, hi, payload):
    """Tube rejection as first written, candidate-major: each candidate's
    whole driver drawn at once from its block's stream, then the max over
    nodes of np.linalg.norm of the deviation from href.  The streams differ
    from the time-major kernel's, the law of the hits does not, so this is
    a law oracle.  Returns the hits `W` and each hit's `dev`, block after
    block, as `tube_block` does."""
    d1, block_size = payload["d1"], payload["size"]
    times = np.asarray(payload["times"])
    href = payload["href"]
    block0 = payload["block0"]
    dt_sqrt = np.sqrt(np.diff(times))
    accepted, devs = [], []
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
        accepted.append(W[hit])
        devs.append(dev[hit])
    return {"W": np.concatenate(accepted), "dev": np.concatenate(devs)}


def tube_block_slab_reference(lo, hi, payload, slab):
    """Time-major tube rejection, plainly: every candidate of a block keeps
    its whole driver; slab by slab the block's stream gives
    (steps, live candidates, d1) normals, each live driver is extended node
    by node, and a candidate stops being live once a node's squared
    deviation from href reaches delta^2.  Hits are the candidates live at
    the end whose max node norm is below delta.  Returns `W`, `row` and
    `dev` of the hits, block after block, as `tube_block` does."""
    d1, size, delta = payload["d1"], payload["size"], payload["delta"]
    times = np.asarray(payload["times"])
    n = len(times)
    href = np.zeros((n, d1)) if payload["href"] is None else payload["href"]
    block0 = payload["block0"]
    dt_sqrt = np.sqrt(np.diff(times))
    out = {"W": [], "row": [], "dev": []}
    for block in range(block0 + lo, block0 + hi):
        rng = rng_for(payload["seed"], payload["tag"], payload["delta_idx"],
                      block)
        W = np.zeros((size, n, d1))
        live = np.full(size, np.sum(href[0] ** 2) < delta * delta)
        for k0 in range(1, n, slab):
            rows = np.flatnonzero(live)
            if not len(rows):
                break
            steps = min(slab, n - k0)
            incs = rng.standard_normal((steps, len(rows), d1))
            for j in range(steps):
                k = k0 + j
                W[rows, k] = W[rows, k - 1] + incs[j] * dt_sqrt[k - 1]
                sq = np.sum((W[rows, k] - href[k]) ** 2, axis=1)
                live[rows[sq >= delta * delta]] = False
        dev = np.max(np.linalg.norm(W - href, axis=2), axis=1)
        hit = np.flatnonzero(live & (dev < delta))
        out["W"].append(W[hit])
        out["row"].append(hit)
        out["dev"].append(dev[hit])
    return {key: np.concatenate(parts) for key, parts in out.items()}


def tube_draw_reference(payload, block, buf, consume, stack=False):
    """`paths.tube_draw` as first written: each slab's squared node
    deviations are a new array, `_sq_norm` of S, or of a new S - href."""
    d1, size, delta = payload["d1"], payload["size"], payload["delta"]
    delta_sq = delta * delta
    times = np.asarray(payload["times"])
    href = payload["href"]
    n = len(times)
    dt_sqrt = np.sqrt(np.diff(times))
    sq0 = 0.0 if href is None else float(_sq_norm(href[0]))
    rng = rng_for(payload["seed"], payload["tag"], payload["delta_idx"], block)
    live = np.arange(size if sq0 < delta_sq else 0)
    worst = np.full(len(live), sq0)
    pos, used = None, 0
    for k0 in range(1, n, TUBE_SLAB):
        if not len(live):
            break
        k1 = min(k0 + TUBE_SLAB, n)
        S = buf[used:used + (k1 - k0) * len(live) * d1].reshape(
            k1 - k0, len(live), d1)
        if stack:
            used += S.size
        rng.standard_normal(out=S)
        S *= dt_sqrt[k0 - 1:k1 - 1, None, None]
        if pos is not None:
            S[0] += pos
        _cumsum_rows(S)
        sq = _sq_norm(S if href is None else S - href[k0:k1, None])
        np.maximum(worst, sq.max(axis=0), out=worst)
        keep = worst < delta_sq
        consume(live, S, pos, keep)
        live, worst, pos = live[keep], worst[keep], S[-1, keep]
    dev = np.sqrt(worst)
    hit = dev < delta
    return hit, live[hit], dev[hit]


def levy_blocks_reference(lo, hi, payload):
    """The Levy pool's reduction as first written: each block's hits taken
    whole from tube_block, then per hit the max over nodes of |.| of the
    cumsum of the midpoint-rule terms 0.5 (w^1_{k-1} + w^1_k)
    (w^2_k - w^2_{k-1}), with each hit's node deviation."""
    zeta, dev = [], []
    for block in range(lo, hi):
        tube = tube_block(block, block + 1, payload)
        Wh = tube["W"]
        mid = 0.5 * (Wh[:, :-1, 0] + Wh[:, 1:, 0])
        dv = np.diff(Wh[:, :, 1], axis=1)
        running = np.cumsum(mid * dv, axis=1)
        zeta.append(np.max(np.abs(running), axis=1))
        dev.append(tube["dev"])
    return {"zeta_sup": np.concatenate(zeta), "dev": np.concatenate(dev)}


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
                          stride=1, record=("x",), blocks=((0, 1),)):
    """The step loop as first written; it records every array and returns
    those named in `record`, None for the others.  Every row steps on every
    iteration: it takes one block of rows only."""
    if len(blocks) != 1:
        raise ValueError("the reference steps every row on every iteration")
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
    return tuple(a if name in record else None for name, a in
                 zip(("x", "k", "tv", "pushes"), (x, k, tv, pushes)))


def solve_batch(domain, times, dW, x0):
    """Skorohod map of P drivers given as increments dW (P, N-1, d) through
    the package's step loop: the batch form of skorohod.solve, for tests
    that check many drivers against closed forms or single-path solves."""
    dW = np.asarray(dW, dtype=float)
    x, k, tv, _ = drive_batch(domain, times, x0, lambda i, X: dW[:, i],
                              record=("x", "k", "tv"))
    return BatchPaths(np.asarray(times, dtype=float), x, k, tv)


def refined_grid_reference(grid, substeps):
    """rsde._refined_grid as first written: one np.linspace per cell."""
    grid = np.asarray(grid, dtype=float)
    if substeps <= 1:
        return grid
    pieces = [np.linspace(grid[i], grid[i + 1], substeps, endpoint=False)
              for i in range(len(grid) - 1)]
    return np.concatenate(pieces + [grid[-1:]])


def node_index_reference(times, t, tol=1e-12):
    """SamplePath.node_index as first written, one time at a time."""
    i = int(np.searchsorted(times, t))
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(times) and abs(times[j] - t) <= tol:
            return j
    raise GridMismatch(f"t={t!r} is not a grid node")


def expand_cell_slopes(slopes, grid, T):
    """Slopes (P, cells, d1) on the equal cells of [0, T], read off on the
    cells of grid: each grid cell takes the slope of the cell holding its
    midpoint (grids here never put a midpoint on a cell boundary), stored
    cell-major."""
    cells = slopes.shape[1]
    mids = 0.5 * (grid[:-1] + grid[1:])
    cell = np.minimum((mids / (T / cells)).astype(int), cells - 1)
    return np.moveaxis(slopes, 0, -1).take(cell, axis=0).transpose(2, 0, 1)


def adapted_slopes_reference(times, W, levels, T=None):
    """rsde._adapted_slopes as first written: the grid of the nodes up to T
    and every level's slopes copied onto every grid cell, (len(levels) * P,
    cells, d1) rows level-major, stored cell-major."""
    times = np.asarray(times, dtype=float)
    T = float(times[-1]) if T is None else float(T)
    grid = times[times <= T + 1e-12]
    levels, (P, _, d1) = np.atleast_1d(levels), W.shape
    out = np.empty((len(grid) - 1, d1, len(levels) * P)).transpose(2, 0, 1)
    for j, n in enumerate(levels):
        delta = T / 2 ** int(n)
        w_nodes = W[:, node_indices(times, dyadic_grid(T, n))]
        slopes = np.zeros_like(w_nodes[:, :-1])
        slopes[:, 1:] = (w_nodes[:, 1:-1] - w_nodes[:, :-2]) / delta
        out[j * P:(j + 1) * P] = expand_cell_slopes(slopes, grid, T)
    return grid, out


def shifted_driver_batch_reference(domain, coeffs, times, W, n, h, x0,
                                   T=None, record=("x",)):
    """rsde.shifted_driver_batch as first written: the driver increments
    tiled across the levels, less the expanded slopes times dt, plus the
    control's increments."""
    grid, slopes = adapted_slopes_reference(times, W, n, T)
    dt = np.diff(grid)
    V = np.moveaxis(W[:, :len(grid)], 0, -1)
    dW = np.tile(np.subtract(V[1:], V[:-1], order="C"), len(slopes) // len(W))
    dh = np.diff(np.atleast_2d(h(grid)), axis=0)
    du_total = dW - np.ascontiguousarray(np.moveaxis(slopes, 0, -1)) \
        * dt[:, None, None] + dh[:, :, None]
    return euler_reflected_batch(domain, coeffs, grid,
                                 np.moveaxis(du_total, -1, 0), x0, record)


def peak_bytes(run):
    """tracemalloc's peak over a call of run() made after one untraced
    call, so the modules and caches a first call loads are not counted."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
