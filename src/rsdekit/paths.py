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
    vals[:, int(axis)] = amplitude * np.sin(2.0 * np.pi * frequency * times)
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
    has the bits of np.linalg.norm(D, axis=-1) at a fraction of its cost on
    short rows (the step loop's row norms); from 8 numpy's order depends on
    the layout.  It is not np.linalg.norm of one row, which takes sqrt of a
    dot product: geometry._row_norms has those bits."""
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
    LAG_SCAN_BLOCK nodes: it bounds the block pairs I <= J and evaluates
    only those whose bound can still reach the row's best (see
    _scan_pruned), on tiles of rows whose bounds are taken in strips of at
    most LAG_SCAN_BUDGET elements (see _BlockPlan).  Shorter paths, a given
    lag list and tiles with a non-finite value scan lag by lag,
    LAG_SCAN_TILE paths at a time.
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
            _scan_pruned(blocks, plan, out)
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
    repeating node N - 1 (`nodes`, (nb, B)).  Only the block pairs I <= J
    are bounded, in strips of `strip` block rows (`pairs`): all at once
    while nb^2 fit LAG_SCAN_BUDGET and the scan has LAG_SCAN_TILE rows or
    rows of at most LAG_SCAN_WHOLE_NODES (below LAG_SCAN_TILE rows the
    all-lags loop's buffers shrink, whole bounds do not), else strips of B
    block rows, about as many bounds per row as it has nodes.  A tile has
    `tile_rows` rows, as many as the widest strip's bounds fit
    LAG_SCAN_BUDGET.  Block pairs go `batch` at a time: at most
    LAG_SCAN_BUDGET / 2 node pairs, as a batch holds two arrays of their
    values, and B per block pair of a tile's strip rows, so that a few-row
    scan's memory follows its bounds.  A scan of more than one tile raises
    the node spans of the whole triangle to 2 alpha once (`spans`) while
    its nb (nb + 1) / 2 B^2 spans fit LAG_SCAN_BUDGET; otherwise each batch
    raises those of its distinct block pairs, which keeps a one-tile scan
    within its memory.  Strips and batches only order the work; each row's
    bits are its own.
    """

    def __init__(self, times, P, N, alpha):
        B = LAG_SCAN_BLOCK
        self.nb = nb = -(-N // B)
        self.nodes = np.minimum(np.arange(nb * B).reshape(nb, B), N - 1)
        whole = P >= LAG_SCAN_TILE or N <= LAG_SCAN_WHOLE_NODES
        self.strip = s = nb if nb * nb <= LAG_SCAN_BUDGET and whole else B
        self.tile_rows = max(1, LAG_SCAN_BUDGET // (s * nb - s * (s - 1) // 2))
        rows = min(P, self.tile_rows)
        self.batch = max(1, min(LAG_SCAN_BUDGET // 2, rows * s * nb * B) // B**2)
        self.times, self.alpha = times, alpha
        if alpha != 0:
            tb = times[self.nodes]
            real = self.nodes[:, 1:] != self.nodes[:, :-1]
            self.first, self.last = tb[:, 0].copy(), tb[:, -1].copy()
            self.inner = np.where(real, np.diff(tb, axis=1), np.inf).min(axis=1)
        self._whole = self._spans = None
        if s == nb:
            self._whole = self.pairs(0)
        if (alpha != 0 and P > self.tile_rows
                and nb * (nb + 1) // 2 * B * B <= LAG_SCAN_BUDGET):
            self._spans = self._span_pow(*np.triu_indices(nb))

    def pairs(self, i0):
        """The block pairs (I, J), J >= I, of the strip of block rows from
        i0, row by row, and the divisors of their bounds: the smallest span
        between blocks I and J raised to 2 alpha (None when alpha is 0); a
        one-node diagonal block has no pair and an infinite span.  One
        strip is made once."""
        if self._whole is not None:
            return self._whole
        i1 = min(i0 + self.strip, self.nb)
        I, J = np.triu_indices(i1 - i0, i0, self.nb)
        I += i0
        if self.alpha == 0:
            return I, J, None
        span = self.first[J] - self.last[I]
        diag = I == J
        span[diag] = self.inner[I[diag]]
        return I, J, np.power(span, 2.0 * self.alpha, out=span)

    def spans(self, I, J):
        """(n, B, B) node spans of the block pairs (I, J) raised to 2 alpha,
        from the triangle's table when it is made."""
        if self._spans is not None:
            return self._spans[I * (2 * self.nb - I - 1) // 2 + J]
        _, at, inv = np.unique(I * self.nb + J, return_index=True,
                               return_inverse=True)
        return self._span_pow(I[at], J[at])[inv]

    def _span_pow(self, I, J):
        # a node paired with itself (diagonal or padding) has value 0 and
        # span set to 1
        ni, nj = self.nodes[I], self.nodes[J]
        span = self.times[nj][:, None, :] - self.times[ni][:, :, None]
        np.abs(span, out=span)
        span[ni[:, :, None] == nj[:, None, :]] = 1.0
        span **= 2.0 * self.alpha
        return span


def _scan_pruned(blocks, plan, out):
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
    first and raise its best, then the strip's pairs whose bound still
    beats it.  The best only grows, so a pair skipped in an earlier strip
    cannot reach the final max either.
    """
    rows = blocks.shape[1]
    every = np.arange(rows)
    lo, hi = blocks.min(axis=3), blocks.max(axis=3)
    for i0 in range(0, plan.nb, plan.strip):
        I, J, den = plan.pairs(i0)
        bound = _strip_bounds(lo, hi, i0, min(i0 + plan.strip, plan.nb), den)
        first = np.empty((min(LAG_SCAN_TOP, len(I)), rows), dtype=np.intp)
        for at in first:
            # a taken pair's bound drops below every value: not taken again
            bound.argmax(axis=1, out=at)
            bound[every, at] = -1.0
        row_of, first = np.tile(every, len(first)), first.ravel()
        _eval_block_pairs(blocks, plan, row_of, I[first], J[first], out)
        bound *= 1.0 + 1e-12
        r, pair = np.nonzero(bound > out[:, None])
        del bound  # before the next strip's bounds are made
        _eval_block_pairs(blocks, plan, r, I[pair], J[pair], out)


def _strip_bounds(lo, hi, i0, i1, den):
    """Bounds (rows, pairs) of the block pairs (I, J), i0 <= I < i1, J >= I,
    row by row as `_BlockPlan.pairs` lists them, for blocks' per-coordinate
    min/max (d, rows, nb)."""
    d, rows, nb = lo.shape
    m = i1 - i0
    bound = np.empty((rows, m * (nb - i0) - m * (m - 1) // 2))
    c = 0
    for I in range(i0, i1):
        seg = bound[:, c:c + nb - I]
        c += nb - I
        wide = hi[:, :, I:] - lo[:, :, I, None]
        np.maximum(wide, hi[:, :, I, None] - lo[:, :, I:], out=wide)
        np.multiply(wide, wide, out=wide)
        np.copyto(seg, wide[0])
        for k in range(1, d):
            seg += wide[k]
    if den is not None:
        bound /= den
    return bound


def _eval_block_pairs(blocks, plan, row_of, I, J, out):
    """Raise out[row_of[q]] to the max pair value of block pair
    (I[q], J[q]), plan.batch block pairs at a time."""
    step = plan.batch
    for q0 in range(0, len(I), step):
        r = row_of[q0:q0 + step]
        bi, bj = I[q0:q0 + step], J[q0:q0 + step]
        acc = None
        for k in range(len(blocks)):
            dv = blocks[k][r, bj][:, None, :] - blocks[k][r, bi][:, :, None]
            np.multiply(dv, dv, out=dv)
            if acc is None:
                acc = dv
            else:
                acc += dv
        del dv  # before the spans are gathered
        if plan.alpha != 0:
            acc /= plan.spans(bi, bj)
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


def _cumsum_rows(A):
    """Running sums of A along its leading axis, in place, one np.add per
    row: np.cumsum(A, axis=0, out=A) has the same bits, but numpy's
    accumulate along a leading axis is several times slower on the
    (TUBE_SLAB, rows) slabs of a tube draw."""
    for j in range(1, len(A)):
        np.add(A[j - 1], A[j], out=A[j])


def tube_draw(payload, block, buf, scratch, consume, stack=False):
    """Draw tube candidate block `block` of `payload`; its hits stay in the
    delta-tube around href (the zero path when href is None).  Returns
    which of the rows live after the last slab are hits, the hits' rows
    and each hit's node deviation max_k |W_k - href_k| (`dev`).

    The block's `size` candidates come from the stream (seed, tag,
    delta_idx, block), drawn time-major, TUBE_SLAB steps at a time, as
    (steps, live candidates, d1) node values in `buf`: each slab at its
    start, or after the previous one when `stack` is set.  A candidate
    stops drawing once its running max of squared node deviations reaches
    delta^2.  Each candidate's increments are still iid N(0, dt), but which
    normals it gets depends on which other rows of its block are still
    live.  A slab's squared node deviations are summed coordinate by
    coordinate, as `_sq_norm` sums them, in `scratch`: two rows of at least
    TUBE_SLAB * size doubles, free for `consume` to overwrite.  After each
    slab `consume(live, S, pos, keep)` gets the live rows, the slab S, their
    previous node values `pos` (None before the first slab, whose previous
    node is 0) and which of them stay live.  Only each hit's max is rooted:
    sqrt is monotone and correctly rounded, so `dev` equals the max of the
    node norms bit for bit.
    """
    d1, size, delta = payload["d1"], payload["size"], payload["delta"]
    delta_sq = delta * delta
    times = np.asarray(payload["times"])
    href = payload["href"]
    n = len(times)
    dt_sqrt = np.sqrt(np.diff(times))
    # every candidate starts at 0, so node 0 deviates by |href(0)|
    sq0 = 0.0 if href is None else float(_sq_norm(href[0]))
    rng = rng_for(payload["seed"], payload["tag"], payload["delta_idx"], block)
    live = np.arange(size if sq0 < delta_sq else 0)
    worst = np.full(len(live), sq0)
    pos, used = None, 0
    for k0 in range(1, n, TUBE_SLAB):  # nodes k0 .. k1-1
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
        sq, tmp = scratch[:, :S.shape[0] * S.shape[1]].reshape(
            2, *S.shape[:2])
        for j in range(d1):
            D = S[..., j] if href is None else np.subtract(
                S[..., j], href[k0:k1, None, j], out=tmp)
            if j:
                sq += np.multiply(D, D, out=tmp)
            else:
                np.multiply(D, D, out=sq)
        np.maximum(worst, sq.max(axis=0), out=worst)
        keep = worst < delta_sq
        consume(live, S, pos, keep)
        live, worst, pos = live[keep], worst[keep], S[-1, keep]
    dev = np.sqrt(worst)
    hit = dev < delta
    return hit, live[hit], dev[hit]


def tube_payload(d1, size, times, href, delta, delta_idx, seed, tag):
    """The tube candidate blocks that `tube_draw` and its block reducers
    read: `size` candidates each on `times`, tested against the delta-tube
    around href (the zero path when None).  A reducer's block b is keyed
    (seed, tag, delta_idx, block0 + b); block0 is 0 until a pool sets it."""
    return {"d1": int(d1), "size": int(size), "times": times, "href": href,
            "delta": float(delta), "delta_idx": int(delta_idx),
            "seed": int(seed), "tag": int(tag), "block0": 0}


def _block_hits(payload, block, arena):
    """Block `block` of `payload`, its slabs back to back in `arena`: its
    hits' zero-prefixed values (hits, n, d1), rows and node deviations.  The
    deviation scratch is freed before the hits are copied out of `arena`."""
    n, d1 = len(payload["times"]), payload["d1"]
    slabs = []
    scratch = np.empty((2, TUBE_SLAB * payload["size"]))
    _, live, dev = tube_draw(
        payload, block, arena, scratch,
        lambda slab_rows, S, pos, keep: slabs.append((slab_rows, S)),
        stack=True)
    del scratch
    W = np.zeros((len(live), n, d1))
    for k0, (slab_rows, S) in zip(range(1, n, TUBE_SLAB), slabs):
        W[:, k0:k0 + len(S)] = np.swapaxes(
            S[:, np.searchsorted(slab_rows, live)], 0, 1)
    return W, live, dev


def tube_block(lo, hi, payload):
    """Tube blocks block0 + lo .. block0 + hi - 1 of `payload`: the hits
    `W` (hits, n, d1), each one's `row` in its block and node deviation
    `dev`, in (block, row) order.  The blocks share one slab buffer, each
    writing only what it draws, freed before their hits are joined."""
    arena = np.empty((len(payload["times"]) - 1) * payload["size"]
                     * payload["d1"])
    hits = [_block_hits(payload, block, arena)
            for block in range(payload["block0"] + lo, payload["block0"] + hi)]
    del arena
    W, rows, devs = zip(*hits)
    return {"W": np.concatenate(W), "row": np.concatenate(rows),
            "dev": np.concatenate(devs)}


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
    payload = tube_payload(href.shape[1], TUBE_SAMPLE_BLOCK, times, href,
                           delta, stream, seed, 0x7B)
    for block in range(-(-int(max_attempts) // TUBE_SAMPLE_BLOCK)):
        got = tube_block(block, block + 1, payload)
        if len(got["row"]):
            attempts = block * TUBE_SAMPLE_BLOCK + int(got["row"][0]) + 1
            if attempts <= max_attempts:
                return SamplePath(times, got["W"][0]), attempts
            break
    raise TubeTooNarrow(
        f"no tube sample within {max_attempts} attempts (delta={delta})",
        acceptance_estimate=0.0, attempts=int(max_attempts))
