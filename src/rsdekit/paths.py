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


def rng_for(seed, *stream_key):
    """Counter-based generator, identical for an identical key tuple."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(seed),) + tuple(int(k) for k in stream_key))))


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
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= tol:
                return j
        raise GridMismatch(f"t={t!r} is not a grid node")

    def restrict(self, times, tol=1e-12):
        """Restriction to a subset grid; every requested time must be a node."""
        idx = [self.node_index(t, tol) for t in np.asarray(times, dtype=float)]
        return SamplePath(self.times[idx], self.values[idx], self.interpolation)

    def to_csv(self, fileobj):
        header = "t," + ",".join(f"x{j + 1}" for j in range(self.dim))
        fileobj.write(header + "\n")
        for t, row in zip(self.times, self.values):
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
            fileobj.write(",".join(cells) + "\n")


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
        return np.array([w.node_index(t) for t in nodes]), nodes
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

    lags=None scans every lag, hence every node pair (exact); otherwise only
    the given lags, which gives a lower bound.  times is not read when alpha
    is 0.  The result is squared, so callers take one sqrt per path.  Paths
    are scanned LAG_SCAN_TILE at a time from an axis-major copy, with
    elementwise arithmetic only, so each row depends on that row alone.
    """
    axes = np.moveaxis(np.asarray(values), 2, 0).astype(float, order="C")
    d, P, N = axes.shape
    best = np.zeros(P)
    if N < 2:
        return best
    lags = range(1, N) if lags is None else lags
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
    return best


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


def tube_sample(h, delta, times, seed, max_attempts=100000, stream=0):
    """Rejection-sample a Brownian path with sup_t |w_t - h_t| < delta.

    The tube event is checked at grid nodes only, so excursions between
    nodes are not seen: the sampler over-accepts slightly, with bias
    vanishing as the mesh shrinks.  Returns (path, attempts).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    times = np.asarray(times, dtype=float)
    href = np.atleast_2d(h(times))
    dim = href.shape[1]
    dt_sqrt = np.sqrt(np.diff(times))[:, None]
    vals = np.zeros((len(times), dim))
    for attempt in range(1, int(max_attempts) + 1):
        rng = rng_for(seed, stream, attempt, 0x7B)
        vals[1:] = np.cumsum(rng.standard_normal((len(times) - 1, dim)) * dt_sqrt,
                             axis=0)
        dev = np.max(np.linalg.norm(vals - href, axis=1))
        if dev < delta:
            return SamplePath(times, vals.copy()), attempt
    raise TubeTooNarrow(
        f"no tube sample within {max_attempts} attempts (delta={delta})",
        acceptance_estimate=0.0, attempts=int(max_attempts))
