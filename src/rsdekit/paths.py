"""Sampled paths and path functionals.

Covers the driver side of the toolkit: Brownian sampling with counter-based
per-(seed, stream) generators, Brownian-bridge refinement, the one-cell-
delayed adapted interpolation used by the Wong-Zakai scheme, piecewise-linear
controls with exact energy, sup and Holder norms, iterated Stratonovich
integrals by midpoint sums, and rejection sampling of tube-conditioned
drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, TubeTooNarrow

HOLDER_EXACT_LIMIT = 4096
LAG_SCAN_TILE = 64
# pruned exact lag scan: nodes per block, fewest blocks worth pruning,
# block pairs evaluated first per row, elements per tile-sized array, and
# the longest rows whose bounds a scan of few rows takes whole (_BlockPlan)
LAG_SCAN_BLOCK = 8
LAG_SCAN_MIN_BLOCKS = 4
LAG_SCAN_TOP = 4
LAG_SCAN_BUDGET = 1 << 16
LAG_SCAN_WHOLE_NODES = 512
TUBE_SLAB = 16
TUBE_SAMPLE_BLOCK = 256

# numpy's SeedSequence hash (O'Neill's seed_seq_fe): a 4-word pool.  The
# hash multipliers are stepped as Python ints; every array operand is uint32
# and meets only np.uint32 scalars, so products wrap mod 2**32 under both the
# legacy (NumPy 1) and the NEP 50 (NumPy 2) promotion rules.
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT16 = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def rng_for(seed, *stream_key):
    """Counter-based generator, identical for an identical key tuple."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(seed),) + tuple(int(k) for k in stream_key))))


def _words32(k):
    """An int as SeedSequence reads it: 32-bit words, least significant first."""
    k = int(k)
    if k < 0:
        raise ValueError("stream key entries must be non-negative")
    words = [k & _MASK32]
    while k > _MASK32:
        k >>= 32
        words.append(k & _MASK32)
    return words


def stream_keys(seed, lo, hi, prefix=()):
    """Philox keys of rng_for(seed, *prefix, s) for s = lo .. hi-1, shape
    (hi - lo, 2), from one vectorized pass of SeedSequence's hash.

    The stream index is the last entropy word, so it must fit in 32 bits.
    """
    if not 0 <= lo <= hi <= 1 << 32:
        raise ValueError("streams must lie in [0, 2**32)")
    n = hi - lo
    words = [np.full(n, w, dtype=np.uint32)
             for k in (seed, *prefix) for w in _words32(k)]
    words.append(np.arange(lo, hi, dtype=np.uint32))
    hc = _HASH_INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * _HASH_MULT_A & _MASK32
        v = v * np.uint32(hc)
        return v ^ (v >> _SHIFT16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> _SHIFT16)

    pool = [hashmix(words[i] if i < len(words) else np.zeros(n, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hb, state = _HASH_INIT_B, []
    for v in pool:
        v = v ^ np.uint32(hb)
        hb = hb * _HASH_MULT_B & _MASK32
        v = v * np.uint32(hb)
        state.append((v ^ (v >> _SHIFT16)).astype(np.uint64))
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


@dataclass(frozen=True)
class SamplePath:
    """Time grid plus one vector value per node.

    times must start at 0 and increase strictly; evaluation between nodes
    follows the declared interpolation rule.
    """

    times: np.ndarray
    values: np.ndarray
    interpolation: str = "piecewise_linear"

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values = np.ascontiguousarray(values)
        if times.ndim != 1 or times[0] != 0.0:
            raise ValueError("times must be a 1-d grid starting at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must increase strictly")
        if len(times) != len(values):
            raise ValueError("times and values lengths disagree")
        if self.interpolation not in ("piecewise_linear", "piecewise_constant_left"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def duration(self):
        return float(self.times[-1])

    def __call__(self, t):
        """Evaluate at scalar or array t inside [0, duration]."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        if np.any(tq < 0) or np.any(tq > self.times[-1] + 1e-12):
            raise ValueError("evaluation time outside the grid span")
        if self.interpolation == "piecewise_linear":
            out = np.column_stack([
                np.interp(tq, self.times, self.values[:, j])
                for j in range(self.dim)])
        else:
            idx = np.searchsorted(self.times, tq, side="right") - 1
            idx = np.clip(idx, 0, len(self.times) - 1)
            out = self.values[idx]
        return out[0] if scalar else out

    def node_index(self, t, tol=1e-12):
        return int(node_indices(self.times, [t], tol)[0])

    def restrict(self, times, tol=1e-12):
        """Restriction to a subset grid; every requested time must be a node."""
        idx = node_indices(self.times, times, tol)
        return SamplePath(self.times[idx], self.values[idx], self.interpolation)

    def to_csv(self, fileobj):
        header = "t," + ",".join(f"x{j + 1}" for j in range(self.dim))
        fileobj.write(header + "\n")
        for t, row in zip(self.times, self.values):
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
            fileobj.write(",".join(cells) + "\n")


def node_indices(grid, times, tol=1e-12):
    """Index in `grid` of each of `times` (1-d): the first of the nodes
    before, at and after its sorted position within tol, as node_index
    finds it.  Raises GridMismatch for the first time that is no node."""
    t = np.asarray(times, dtype=float)
    # clipping an end only repeats a neighbour that is tried as well
    around = np.clip(np.searchsorted(grid, t) + np.arange(-1, 2)[:, None], 0,
                     len(grid) - 1)
    near = np.abs(grid[around] - t) <= tol
    bad = (~near.any(axis=0)).nonzero()[0]
    if len(bad):
        raise GridMismatch(f"t={t[bad[0]]!r} is not a grid node")
    return around[near.argmax(axis=0), np.arange(len(t))]


@dataclass(frozen=True)
class Control:
    """Piecewise-linear control with its derivative and cumulative energy.

    derivative[i] is constant on [times[i], times[i+1]); energy is the exact
    integral of |h'|^2 up to each node (exact because h' is piecewise
    constant).
    """

    path: SamplePath
    derivative: np.ndarray = field(default=None)
    energy: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.path.interpolation != "piecewise_linear":
            raise ValueError("controls are piecewise linear")
        dt = np.diff(self.path.times)
        deriv = np.diff(self.path.values, axis=0) / dt[:, None]
        en = np.concatenate([[0.0], np.cumsum(np.sum(deriv ** 2, axis=1) * dt)])
        object.__setattr__(self, "derivative", deriv)
        object.__setattr__(self, "energy", en)

    @property
    def times(self):
        return self.path.times

    @property
    def dim(self):
        return self.path.dim

    def __call__(self, t):
        return self.path(t)

    def slope_at(self, t):
        """Derivative on the cell containing t (left-closed cells)."""
        idx = np.clip(np.searchsorted(self.path.times, t, side="right") - 1,
                      0, len(self.derivative) - 1)
        return self.derivative[idx]

    def window_energy(self, s, t):
        """Exact integral of |h'|^2 over [s, t]."""
        times, deriv = self.path.times, self.derivative
        lo = np.clip(times[:-1], s, t)
        hi = np.clip(times[1:], s, t)
        return float(np.sum(np.sum(deriv ** 2, axis=1) * np.maximum(hi - lo, 0.0)))


def control_from_values(times, values):
    return Control(SamplePath(np.asarray(times, dtype=float),
                              np.asarray(values, dtype=float)))


def zero_control(T, dim, n_cells=1):
    times = np.linspace(0.0, T, n_cells + 1)
    return control_from_values(times, np.zeros((n_cells + 1, dim)))


def linear_control(T, slope, n_cells=1):
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    times = np.linspace(0.0, T, n_cells + 1)
    return control_from_values(times, times[:, None] * slope[None, :])


def sine_control(T, amplitude=1.0, frequency=1.0, dim=1, axis=0, n_cells=256):
    """Piecewise-linear sampling of t -> amplitude * sin(2 pi f t) e_axis."""
    times = np.linspace(0.0, T, n_cells + 1)
    vals = np.zeros((n_cells + 1, dim))
    vals[:, axis] = amplitude * np.sin(2.0 * np.pi * frequency * times)
    return control_from_values(times, vals)


# ---------------------------------------------------------------------------
# Brownian sampling
# ---------------------------------------------------------------------------


def brownian_increments(dim, times, seed, stream):
    """Gaussian increments with variance dt per coordinate, shape (N-1, dim)."""
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    rng = rng_for(seed, stream)
    return rng.standard_normal((len(dt), int(dim))) * np.sqrt(dt)[:, None]


def sample_brownian(dim, times, seed, stream=0):
    """Brownian path on the given grid, w(0) = 0.

    Identical (seed, stream) give bit-identical output regardless of how
    many other streams are sampled or in which order.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or (len(times) > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("grid must increase strictly from 0")
    vals = np.zeros((len(times), int(dim)))
    if len(times) > 1:
        vals[1:] = np.cumsum(brownian_increments(dim, times, seed, stream), axis=0)
    return SamplePath(times, vals)


def refine_bridge(w, seed):
    """Dyadic refinement: midpoints drawn from the Brownian bridge law.

    The returned path agrees with w exactly on the original nodes; each new
    midpoint is N(average of endpoints, dt/4) per coordinate.
    """
    times, vals = w.times, w.values
    if len(times) < 2:
        return w
    mid_t = 0.5 * (times[:-1] + times[1:])
    dt = np.diff(times)
    rng = rng_for(seed, 0x6B71D)
    noise = rng.standard_normal((len(mid_t), w.dim)) * (0.5 * np.sqrt(dt))[:, None]
    mid_v = 0.5 * (vals[:-1] + vals[1:]) + noise
    out_t = np.empty(2 * len(times) - 1)
    out_v = np.empty((2 * len(times) - 1, w.dim))
    out_t[0::2], out_t[1::2] = times, mid_t
    out_v[0::2], out_v[1::2] = vals, mid_v
    return SamplePath(out_t, out_v)


# ---------------------------------------------------------------------------
# Adapted interpolation
# ---------------------------------------------------------------------------


def dyadic_grid(T, n):
    return np.linspace(0.0, float(T), 2 ** int(n) + 1)


def _dyadic_indices(w, n, T):
    nodes = dyadic_grid(T, n)
    try:
        return node_indices(w.times, nodes), nodes
    except GridMismatch as exc:
        raise GridMismatch(
            f"driver grid lacks level-{n} dyadic nodes on [0, {T}]") from exc


def adapted_interpolation(w, n, T):
    """One-cell-delayed piecewise-linear interpolation w^n of the driver.

    On the dyadic cell [t_i, t_{i+1}) of mesh D = T 2^-n the value is
    w(t_{i-1}) + (w(t_i) - w(t_{i-1})) (t - t_i) / D, with t_{-1} read as 0,
    so the path is continuous, adapted, constant equal to w(0) on the first
    cell, and satisfies w^n(t_{i+1}) = w(t_i) exactly at the nodes.
    """
    idx, nodes = _dyadic_indices(w, n, T)
    cells = 2 ** int(n)
    delta = float(T) / cells
    keep = w.times <= float(T) + 1e-12
    t = w.times[keep]
    cell = np.searchsorted(nodes, t + 1e-9 * delta) - 1
    cell = np.clip(cell, 0, cells)
    prev = np.maximum(cell - 1, 0)
    w_nodes = w.values[idx]
    base = w_nodes[prev]
    inc = w_nodes[cell] - base
    frac = (t - nodes[cell]) / delta
    vals = base + inc * frac[:, None]
    vals[cell == 0] = w.values[0]
    # dyadic nodes take their delayed values exactly, no rounding residue
    vals[idx[1:]] = w_nodes[:-1]
    vals[idx[0]] = w.values[0]
    return SamplePath(t, vals)


def control_from_path(w, n, T):
    """The adapted interpolation as a control H_n on the dyadic grid.

    The derivative on [t_i, t_{i+1}) equals (w(t_i) - w(t_{i-1})) / mesh,
    zero on the first cell.
    """
    idx, nodes = _dyadic_indices(w, n, T)
    w_nodes = w.values[idx]
    vals = np.empty_like(w_nodes)
    vals[0] = w_nodes[0]
    vals[1:] = w_nodes[:-1]
    return control_from_values(nodes, vals)


# ---------------------------------------------------------------------------
# Norms and functionals
# ---------------------------------------------------------------------------


def _sq_norm(D):
    """|D|^2 over the last axis, coordinates summed left to right, so a
    row's bits depend on that row alone.  Below 8 coordinates np.sqrt of it
    has np.linalg.norm's bits at a fraction of its cost on short rows (the
    step loop's row norms); from 8 numpy's order depends on the layout."""
    sq = D[..., 0] * D[..., 0]
    for k in range(1, D.shape[-1]):
        sq += D[..., k] * D[..., k]
    return sq


def sup_norm(x, T=None):
    """sup of |x_t| (Euclidean) over grid nodes up to T."""
    T = x.duration if T is None else float(T)
    if T > x.duration + 1e-12:
        raise ValueError("grid does not cover [0, T]")
    vals = x.values[x.times <= T + 1e-12]
    return float(np.max(np.linalg.norm(vals, axis=1)))


def holder_method(n_nodes):
    return "exact" if n_nodes <= HOLDER_EXACT_LIMIT else "dyadic_lower_bound"


def holder_seminorm(x, T=None, alpha=0.5, method="auto"):
    """sup over node pairs of |x_t - x_s| / |t - s|^alpha.

    Exact pair scan up to 4096 nodes; beyond that a dyadic-lag scan is used,
    which is a lower bound (see holder_method).
    """
    T = x.duration if T is None else float(T)
    keep = x.times <= T + 1e-12
    n = int(np.count_nonzero(keep))
    if method == "auto":
        method = holder_method(n)
    if method == "exact":
        lags = None
    elif method in ("dyadic", "dyadic_lower_bound"):
        lags = dyadic_lags(n)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.sqrt(lag_scan_sq(x.times[keep], x.values[None, keep],
                                     alpha, lags)[0]))


def holder_norm(x, T=None, alpha=0.5, method="auto"):
    return sup_norm(x, T) + holder_seminorm(x, T, alpha, method)


def dyadic_lags(n_nodes):
    """The lags 1, 2, 4, ... below n_nodes."""
    return [1 << k for k in range(max(int(n_nodes) - 1, 0).bit_length())]


def lag_scan_sq(times, values, alpha, lags=None):
    """Per-path max over node pairs (i, i + L) of
    |v_{i+L} - v_i|^2 / (t_{i+L} - t_i)^(2 alpha), for values (P, N, d).

    lags=None gives the max over every node pair (exact); otherwise only
    the given lags are scanned, which gives a lower bound.  times is not
    read when alpha is 0.  The result is squared, so callers take one sqrt
    per path.  Every pair value it takes is computed as a scan of every lag
    computes it, so the exact max has that scan's bits, and each row
    depends on that row alone.

    The exact scan prunes once a path has LAG_SCAN_MIN_BLOCKS blocks of
    LAG_SCAN_BLOCK nodes: it evaluates only the block pairs whose bound can
    still reach the row's best (see _scan_pruned), on tiles of rows whose
    bounds are taken in strips of at most LAG_SCAN_BUDGET elements (see
    _BlockPlan).  Shorter paths, a given lag list and tiles with a
    non-finite value scan lag by lag, LAG_SCAN_TILE paths at a time.
    """
    values = np.asarray(values)
    P, N, d = values.shape
    best = np.zeros(P)
    if N < 2:
        return best
    if lags is not None or -(-N // LAG_SCAN_BLOCK) < LAG_SCAN_MIN_BLOCKS:
        _scan_lags(np.moveaxis(values, 2, 0).astype(float, order="C"), times,
                   alpha, range(1, N) if lags is None else lags, best)
        return best
    plan = _BlockPlan(times, P, N, alpha)
    for p0 in range(0, P, plan.tile_rows):
        tile = np.moveaxis(values[p0:p0 + plan.tile_rows], 2, 0)
        blocks = tile[:, :, plan.nodes].astype(float, copy=False)
        out = best[p0:p0 + plan.tile_rows]
        if np.isfinite(blocks).all():
            _scan_pruned(blocks, times, alpha, plan, out)
        else:
            _scan_lags(tile.astype(float, order="C"), times, alpha,
                       range(1, N), out)
    return best


def _scan_lags(axes, times, alpha, lags, best):
    """Raise best (P,) to each path's max over the pairs (i, i + L) of the
    given lags, for an axis-major copy (d, P, N), LAG_SCAN_TILE paths at a
    time."""
    d, P, N = axes.shape
    acc_buf, tmp_buf = np.empty((2, min(P, LAG_SCAN_TILE) * (N - 1)))
    for p0 in range(0, P, LAG_SCAN_TILE):
        tile = axes[:, p0:p0 + LAG_SCAN_TILE]
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


class _BlockPlan:
    """Layout of the pruned exact scan of P rows of N nodes.

    Block b holds nodes b*B .. b*B + B - 1, the last block padded by
    repeating node N - 1 (`nodes`, (nb, B)).  A tile of `tile_rows` rows
    takes its (nb, nb) block-pair bounds in strips of `strip` block rows:
    all at once while one row's nb^2 fit LAG_SCAN_BUDGET and the scan has
    LAG_SCAN_TILE rows or rows of at most LAG_SCAN_WHOLE_NODES (below
    LAG_SCAN_TILE rows the all-lags loop's buffers shrink, whole bounds do
    not), else strips of B block rows, about as many bounds per row as it
    has nodes.  Block pairs go `batch` at a time: at most LAG_SCAN_BUDGET
    node pairs, and B per bound of a tile's strip, so that a few-row scan's
    memory follows its bounds.  Strips and batches only order the work;
    each row's bits are its own.
    """

    def __init__(self, times, P, N, alpha):
        B = LAG_SCAN_BLOCK
        self.nb = nb = -(-N // B)
        self.nodes = np.minimum(np.arange(nb * B).reshape(nb, B), N - 1)
        whole = P >= LAG_SCAN_TILE or N <= LAG_SCAN_WHOLE_NODES
        self.strip = nb if nb * nb <= LAG_SCAN_BUDGET and whole else B
        self.tile_rows = max(1, LAG_SCAN_BUDGET // (self.strip * nb))
        rows = min(P, self.tile_rows)
        self.batch = min(LAG_SCAN_BUDGET, rows * self.strip * nb * B) // B**2
        self.alpha = alpha
        if alpha != 0:
            tb = times[self.nodes]
            real = self.nodes[:, 1:] != self.nodes[:, :-1]
            self.first, self.last = tb[:, 0].copy(), tb[:, -1].copy()
            self.inner = np.where(real, np.diff(tb, axis=1), np.inf).min(axis=1)
        self._whole = None
        if self.strip == nb:
            self._whole = self.den(0)

    def den(self, i0):
        """(strip, nb) divisors of the strip of block rows from i0: for
        I <= J the smallest span between blocks I and J raised to 2 alpha
        (1 when alpha is 0), and inf below the diagonal, so that dividing by
        it zeroes the bounds of the pairs I > J; a one-node diagonal block
        has no pair and an infinite span.  One strip is made once."""
        if self._whole is not None:
            return self._whole
        I = np.arange(i0, min(i0 + self.strip, self.nb))
        lower = np.arange(self.nb)[None, :] < I[:, None]
        if self.alpha == 0:
            return np.where(lower, np.inf, 1.0)
        span = self.first[None, :] - self.last[I, None]
        span[np.arange(len(I)), I] = self.inner[I]
        span[lower] = np.inf
        return np.power(span, 2.0 * self.alpha, out=span)


def _scan_pruned(blocks, times, alpha, plan, out):
    """Raise out (rows,) to each row's max over all node pairs, evaluating
    only the block pairs that can still reach it, for the padded blocks
    (d, rows, nb, B) of a tile.

    The bound of block pair (I, J) sums, coordinate by coordinate, the
    square of the widest difference the two blocks' min/max boxes allow,
    and divides by the smallest span between the blocks raised to 2 alpha.
    Subtraction, squares, sums and division round monotonically, so it
    dominates every computed pair value of the two blocks up to pow's last
    bit, which the factor 1 + 1e-12 covers.  A block pair whose bound is not
    strictly above a value the row already attains cannot raise its max.

    Strip by strip, each row's LAG_SCAN_TOP highest bounds are evaluated
    first and raise its best (a pair I > J evaluated there is a pair J, I
    mirrored), then the strip's pairs whose bound still beats it.  The best
    only grows, so a pair skipped in an earlier strip cannot reach the
    final max either.
    """
    rows, nb = blocks.shape[1], plan.nb
    lo, hi = blocks.min(axis=3), blocks.max(axis=3)
    top = LAG_SCAN_TOP
    row_of = np.repeat(np.arange(rows), top)
    for i0 in range(0, nb, plan.strip):
        bound = _strip_bounds(lo, hi, plan, i0)
        first = np.argpartition(bound, bound.shape[1] - top,
                                axis=1)[:, -top:].ravel()
        _eval_block_pairs(blocks, times, alpha, plan, row_of,
                          first + i0 * nb, out)
        bound[row_of, first] = 0.0
        bound *= 1.0 + 1e-12
        r, pair = np.nonzero(bound > out[:, None])
        del bound  # before the next strip's bounds are made
        _eval_block_pairs(blocks, times, alpha, plan, r, pair + i0 * nb, out)


def _strip_bounds(lo, hi, plan, i0):
    """Bounds (rows, strip * nb) of the block pairs (I, J), I in the strip
    of block rows from i0, for blocks' per-coordinate min/max (d, rows, nb)."""
    i1 = min(i0 + plan.strip, plan.nb)
    rows, nb = lo.shape[1], plan.nb
    bound = np.empty((rows, i1 - i0, nb))
    wide, other = np.empty_like(bound), np.empty_like(bound)
    for k in range(len(lo)):
        np.subtract(hi[k][:, None, :], lo[k][:, i0:i1, None], out=wide)
        np.subtract(hi[k][:, i0:i1, None], lo[k][:, None, :], out=other)
        np.maximum(wide, other, out=wide)
        np.multiply(wide, wide, out=bound if k == 0 else wide)
        if k:
            bound += wide
    del wide, other  # before the divisors are made
    bound /= plan.den(i0)
    return bound.reshape(rows, -1)


def _eval_block_pairs(blocks, times, alpha, plan, row_of, pair, out):
    """Raise out[row_of[q]] to the max pair value of block pair
    pair[q] = I * nb + J, plan.batch block pairs at a time."""
    step = plan.batch
    for q0 in range(0, len(pair), step):
        r = row_of[q0:q0 + step]
        I, J = np.divmod(pair[q0:q0 + step], plan.nb)
        acc = None
        for k in range(len(blocks)):
            dv = blocks[k][r, J][:, None, :] - blocks[k][r, I][:, :, None]
            np.multiply(dv, dv, out=dv)
            if acc is None:
                acc = dv
            else:
                acc += dv
        if alpha != 0:
            # spans of the distinct block pairs only; a node paired with
            # itself (diagonal or padding) has value 0 and span set to 1
            up, inv = np.unique(pair[q0:q0 + step], return_inverse=True)
            ni, nj = (plan.nodes[u] for u in np.divmod(up, plan.nb))
            span = np.abs(times[nj][:, None, :] - times[ni][:, :, None])
            span[ni[:, :, None] == nj[:, None, :]] = 1.0
            acc /= (span ** (2.0 * alpha))[inv]
        np.maximum.at(out, r, acc.reshape(len(r), -1).max(axis=1))


def holder_seminorm_batch(times, values, alpha):
    """Per-path Holder seminorm for values of shape (P, N, m), exact pair scan."""
    return np.sqrt(lag_scan_sq(np.asarray(times, dtype=float), values, alpha))


def oscillation(values):
    """sup over node pairs of |x_u - x_v| for node values (N, m) or (N,)."""
    v = np.asarray(values)
    if v.ndim < 2:
        v = v.reshape(-1, 1)
    if len(v) < 2:
        return 0.0
    if v.shape[1] == 1:
        return float(np.max(v) - np.min(v))
    return float(np.sqrt(lag_scan_sq(None, v[None], 0.0)[0]))


def levy_functionals(w, T=None):
    """Midpoint-rule iterated integrals at time T.

    Returns (zeta, kappa): zeta[i, j] approximates the Stratonovich integral
    of w^i against dw^j, kappa is its antisymmetric part.  The midpoint rule
    makes the integration-by-parts identity zeta + zeta^T = w_T w_T^T exact.
    """
    T = w.duration if T is None else float(T)
    keep = w.times <= T + 1e-12
    v = w.values[keep]
    mid = 0.5 * (v[:-1] + v[1:])
    dv = np.diff(v, axis=0)
    zeta = mid.T @ dv
    kappa = 0.5 * (zeta - zeta.T)
    return zeta, kappa


def levy_sup(w, T=None):
    """sup over grid times of |zeta^{ij}(t)| and |kappa^{ij}(t)|, entrywise."""
    T = w.duration if T is None else float(T)
    keep = w.times <= T + 1e-12
    v = w.values[keep]
    mid = 0.5 * (v[:-1] + v[1:])
    dv = np.diff(v, axis=0)
    inc = mid[:, :, None] * dv[:, None, :]
    running = np.cumsum(inc, axis=0)
    zeta_sup = np.max(np.abs(running), axis=0)
    running_kappa = 0.5 * (running - np.transpose(running, (0, 2, 1)))
    kappa_sup = np.max(np.abs(running_kappa), axis=0)
    return zeta_sup, kappa_sup


# ---------------------------------------------------------------------------
# Tube sampling
# ---------------------------------------------------------------------------


def tube_block(lo, hi, payload):
    """Draw candidate-driver blocks block0 + lo .. block0 + hi - 1, each of
    `size` candidates from the stream (seed, tag, delta_idx, block), and
    return the rows of each that stay in the delta-tube around href (the
    zero path when href is None): per block the hits' zero-prefixed values
    (hits, n, d1) in row order, their rows and each hit's node deviation
    max_k |W_k - href_k| in `dev`.

    A block is drawn time-major, TUBE_SLAB steps at a time, as
    (steps, live candidates, d1); a candidate stops drawing once its running
    max of squared node deviations reaches delta^2.  Each candidate's
    increments are still iid N(0, dt), but which normals it gets depends on
    which other rows of its block are still live.  Only each hit's max is
    rooted: sqrt is monotone and correctly rounded, so `dev` equals the max
    of the node norms bit for bit.
    """
    d1, size, delta = payload["d1"], payload["size"], payload["delta"]
    delta_sq = delta * delta
    times = np.asarray(payload["times"])
    href = payload["href"]
    block0 = payload.get("block0", 0)
    n = len(times)
    dt_sqrt = np.sqrt(np.diff(times))
    # every candidate starts at 0, so node 0 deviates by |href(0)|
    sq0 = 0.0 if href is None else float(_sq_norm(href[0]))
    # one buffer for a block's slabs, back to back, reused block after
    # block: a block writes only as much of it as it draws
    arena = np.empty((n - 1) * size * d1)
    accepted, counts, rows, devs = [], [], [], []
    for block in range(block0 + lo, block0 + hi):
        rng = rng_for(payload["seed"], payload["tag"], payload["delta_idx"],
                      block)
        live = np.arange(size if sq0 < delta_sq else 0)
        worst = np.full(len(live), sq0)
        slabs, pos, used = [], None, 0
        for k0 in range(1, n, TUBE_SLAB):  # nodes k0 .. k1-1
            if not len(live):
                break
            k1 = min(k0 + TUBE_SLAB, n)
            S = arena[used:used + (k1 - k0) * len(live) * d1].reshape(
                k1 - k0, len(live), d1)
            used += S.size
            rng.standard_normal(out=S)
            S *= dt_sqrt[k0 - 1:k1 - 1, None, None]
            if pos is not None:
                S[0] += pos
            for j in range(1, k1 - k0):  # cumsum over the leading axis
                np.add(S[j - 1], S[j], out=S[j])
            sq = _sq_norm(S if href is None else S - href[k0:k1, None])
            np.maximum(worst, sq.max(axis=0), out=worst)
            slabs.append((live, S))
            keep = worst < delta_sq
            live, worst, pos = live[keep], worst[keep], S[-1, keep]
        dev = np.sqrt(worst)
        hit = dev < delta
        live, dev = live[hit], dev[hit]
        W = np.zeros((len(live), n, d1))
        for k0, (slab_rows, S) in zip(range(1, n, TUBE_SLAB), slabs):
            W[:, k0:k0 + len(S)] = np.swapaxes(
                S[:, np.searchsorted(slab_rows, live)], 0, 1)
        accepted.append(W)
        counts.append(len(W))
        rows.append(live)
        devs.append(dev)
    return {"accepted": accepted, "counts": counts, "rows": rows, "dev": devs}


def tube_sample(h, delta, times, seed, max_attempts=100000, stream=0):
    """Rejection-sample a Brownian path with sup_t |w_t - h_t| < delta.

    Candidates come from `tube_block` in blocks of TUBE_SAMPLE_BLOCK keyed
    by (seed, 0x7B, stream, block); the first hit in block order
    is returned with its 1-based attempt index.  The tube event is checked
    at grid nodes only, so excursions between nodes are not seen: the
    sampler over-accepts slightly, with bias vanishing as the mesh shrinks.
    Returns (path, attempts).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    times = np.asarray(times, dtype=float)
    href = np.atleast_2d(h(times))
    payload = {"d1": href.shape[1], "size": TUBE_SAMPLE_BLOCK,
               "times": times, "href": href, "delta": float(delta),
               "seed": int(seed), "tag": 0x7B,
               "delta_idx": int(stream)}
    for block in range(-(-int(max_attempts) // TUBE_SAMPLE_BLOCK)):
        got = tube_block(block, block + 1, payload)
        if got["counts"][0]:
            attempts = block * TUBE_SAMPLE_BLOCK + int(got["rows"][0][0]) + 1
            if attempts <= max_attempts:
                return SamplePath(times, got["accepted"][0][0]), attempts
            break
    raise TubeTooNarrow(
        f"no tube sample within {max_attempts} attempts (delta={delta})",
        acceptance_estimate=0.0, attempts=int(max_attempts))
