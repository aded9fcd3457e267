"""Reflected SDE and skeleton integrators.

Four schemes share the projection-stepping kernel of the Skorohod module:

  euler_reflected  projected Euler for the diffusion, Ito increments with
                   the corrected drift btilde = b + (1/2) (grad sigma) sigma
                   (the Ito form of the Stratonovich equation);
  wong_zakai       the reflected ODE driven by the one-cell-delayed
                   interpolation of the driver, plain drift b since the
                   interpolation has bounded variation;
  skeleton         the deterministic reflected ODE driven by a control,
                   plain drift b;
  shifted_driver   projected Euler for the driver w - w^n + h, Ito
                   increments with btilde.

Which drift a scheme uses is the classic silent bug in such code, so it is
fixed here once per scheme and asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paths as pth
from .skorohod import RECORD_ALL, BatchPaths, drive_batch

FD_STEP_SCALE = 1e-6


@dataclass(frozen=True)
class Coefficients:
    """Diffusion matrix sigma, drift b, optional analytic Jacobian of sigma.

    sigma maps states (..., d) to matrices (..., d, d1); b maps (..., d) to
    an array that broadcasts to (..., d); sigma_jac, when given, maps
    (..., d) to (..., d, d1, d) with entry [i, k, j] = d sigma[i, k] / d x_j.
    All shipped families are vectorized over leading axes.  The constant
    families return read-only views of one array at every call, so callers
    must not write into what sigma_at, b_at or jacobian_at return.

    A model is `constant` when sigma comes from the const family (whose
    Jacobian is a _ZeroJacobian) and b from the const drift family; the
    integrators then form its increments once per cell or per block of
    steps, with the per-step bits.
    """

    d: int
    d1: int
    sigma: object
    b: object
    sigma_jac: object = None
    name: str = "custom"
    meta: dict = None

    @property
    def constant(self):
        return isinstance(self.sigma_jac, _ZeroJacobian) \
            and isinstance(self.b, _ConstDrift)

    def sigma_at(self, X):
        return np.asarray(self.sigma(np.asarray(X, dtype=float)), dtype=float)

    def b_at(self, X):
        return np.asarray(self.b(np.asarray(X, dtype=float)), dtype=float)

    def jacobian_at(self, X):
        X = np.asarray(X, dtype=float)
        if self.sigma_jac is not None:
            return np.asarray(self.sigma_jac(X), dtype=float)
        return self._fd_jacobian(X)

    def _fd_jacobian(self, X):
        single = X.ndim == 1
        Xb = np.atleast_2d(X)
        P = Xb.shape[0]
        h = FD_STEP_SCALE * (1.0 + np.linalg.norm(Xb, axis=1))
        J = np.empty((P, self.d, self.d1, self.d))
        for j, e in enumerate(np.eye(self.d)):
            step = h[:, None] * e
            J[..., j] = (self.sigma_at(Xb + step) - self.sigma_at(Xb - step)) \
                / (2.0 * h)[:, None, None]
        return J[0] if single else J


def btilde(coeffs, x, S=None):
    """Ito-corrected drift b + (1/2) sum_jk (d_j sigma[i,k]) sigma[j,k].

    S is sigma at x if the caller has it.  A constant sigma adds nothing."""
    x = np.asarray(x, dtype=float)
    b = coeffs.b_at(x)
    if isinstance(coeffs.sigma_jac, _ZeroJacobian):
        return b
    S = coeffs.sigma_at(x) if S is None else S
    c = np.einsum("...ikj,...jk->...i", coeffs.jacobian_at(x), S)
    c *= 0.5
    c += b  # b + c: the same sum
    return c


# ---------------------------------------------------------------------------
# Named coefficient families (selectable from config)
# ---------------------------------------------------------------------------


class _ZeroJacobian:
    """Jacobian of a constant sigma: zero, so btilde skips its Ito term."""

    def __init__(self, d1):
        self.d1 = d1

    def __call__(self, X):
        d = np.shape(X)[-1]
        return np.zeros(np.shape(X)[:-1] + (d, self.d1, d))


def _const_family(d, d1, value=1.0, matrix=None):
    if matrix is not None:
        M = np.array(matrix, dtype=float).reshape(d, d1)
    else:
        M = float(value) * np.eye(d, d1)
    M.flags.writeable = False
    last = [M]  # a step loop asks for one shape; broadcast_to is costly

    def sigma(X):
        shape = np.shape(X)[:-1] + (d, d1)
        view = last[0]
        if view.shape != shape:
            view = last[0] = np.broadcast_to(M, shape)
        return view

    return sigma, _ZeroJacobian(d1)


def _sin_family(d, d1, base=0.5, amp=0.25, freq=1.0):
    # diagonal sigma[i, i] = base + amp * sin(freq * x_i); requires d == d1
    if d != d1:
        raise ValueError("sin family needs d == d1")
    base, amp, freq = float(base), float(amp), float(freq)

    # in place on the one fresh array freq * X
    def sigma(X):
        v = freq * np.asarray(X, dtype=float)
        np.sin(v, out=v)
        v *= amp
        v += base
        return _diagonal(v, 2)

    def jac(X):
        v = freq * np.asarray(X, dtype=float)
        np.cos(v, out=v)
        v *= amp * freq
        return _diagonal(v, 3)

    return sigma, jac


def _diagonal(v, axes):
    """v (..., d) on the diagonal of `axes` trailing axes of length d: v
    itself at d = 1, else a zero fill and one store (v times an identity
    broadcasts slowly over short axes)."""
    d = v.shape[-1]
    if d == 1:
        return v[(Ellipsis,) + (None,) * (axes - 1)]
    out = np.zeros(v.shape + (d,) * (axes - 1))
    out[(Ellipsis,) + (np.arange(d),) * axes] = v
    return out


def _affine_family(d, d1, const=None, linear=None):
    C0 = np.asarray(np.zeros((d, d1)) if const is None else const, dtype=float).reshape(d, d1)
    Cs = np.asarray(np.zeros((d, d, d1)) if linear is None else linear, dtype=float).reshape(d, d, d1)

    def sigma(X):
        X = np.asarray(X, dtype=float)
        return C0 + np.einsum("...j,jik->...ik", X, Cs)

    def jac(X):
        X = np.asarray(X, dtype=float)
        J = np.transpose(Cs, (1, 2, 0))  # [i, k, j]
        return np.broadcast_to(J, X.shape[:-1] + (d, d1, d)).copy()

    return sigma, jac


_SIGMA_FAMILIES = {"const": _const_family, "sin": _sin_family,
                   "affine": _affine_family}


class _ConstDrift:
    """The const drift family: one read-only vector at every state."""

    def __init__(self, d, value=0.0):
        v = np.asarray(value, dtype=float)
        self.v = np.broadcast_to(np.atleast_1d(v), (d,)).astype(float)
        self.v.flags.writeable = False

    def __call__(self, X):
        return self.v


def _linear_drift(d, matrix=None, const=0.0):
    B = np.asarray(np.zeros((d, d)) if matrix is None else matrix, dtype=float).reshape(d, d)
    c = np.asarray(const, dtype=float)

    def b(X):
        X = np.asarray(X, dtype=float)
        return X @ B.T + c

    return b


_DRIFT_FAMILIES = {"const": _ConstDrift, "linear": _linear_drift}


def make_coefficients(d, d1, sigma="const", sigma_params=None, b="const",
                      b_params=None):
    if sigma not in _SIGMA_FAMILIES:
        raise ValueError(f"unknown sigma family {sigma!r}")
    if b not in _DRIFT_FAMILIES:
        raise ValueError(f"unknown drift family {b!r}")
    # a family's parameters are its keywords, so an unknown key raises
    sig, jac = _SIGMA_FAMILIES[sigma](int(d), int(d1), **(sigma_params or {}))
    drift = _DRIFT_FAMILIES[b](int(d), **(b_params or {}))
    return Coefficients(int(d), int(d1), sig, drift, sigma_jac=jac,
                        name=f"sigma={sigma},b={b}",
                        meta={"sigma": sigma, "sigma_params": sigma_params or {},
                              "b": b, "b_params": b_params or {}})


def coefficients_from_pointwise(d, d1, sigma, b, sigma_jac=None):
    """Wrap single-point evaluators (tests, custom models) into batch form."""

    def batched(fn, shape):
        def batch(X):
            X = np.asarray(X, dtype=float)
            if X.ndim == 1:
                return np.asarray(fn(X), dtype=float).reshape(shape)
            return np.stack([np.asarray(fn(x), dtype=float).reshape(shape)
                             for x in X])
        return batch

    jac = None if sigma_jac is None else batched(sigma_jac, (d, d1, d))
    return Coefficients(int(d), int(d1), batched(sigma, (d, d1)),
                        batched(b, (d,)), sigma_jac=jac)


# ---------------------------------------------------------------------------
# Integrators (batch kernels plus per-path wrappers)
# ---------------------------------------------------------------------------


def _broadcast_start(x0, P, d):
    """Starts for P rows: one shared start as a view (drive_batch copies
    it), or per-path starts repeated across the levels stacked in a batch."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim == 1:
        return np.broadcast_to(x0, (P, d))
    return np.tile(x0, (P // len(x0), 1))


def _step_major(A):
    """A (P, steps, d1) as a C-contiguous (steps, d1, P) array, whose A[i].T
    are step i's rows as d1 columns; no copy if A is stored so already."""
    return np.ascontiguousarray(np.moveaxis(A, 0, -1))


def _rows_dot(S, v):
    """Per-row S v for S (P, d, d1), v (P, d1): the einsum's bits on rows of
    v.  d1 = 1 is one product (+ 0.0 is the einsum's sum from zero); a
    broadcast S at d1 = 2 reads v's columns, redoing NaN rows on rows."""
    d1 = S.shape[-1]
    if d1 == 1:
        out = S[..., 0] * v
        out += 0.0
        return out
    v = np.ascontiguousarray(v) if d1 > 2 or S.strides[0] else v
    out = np.einsum("pik,pk->pi", S, v)
    if not v.flags.c_contiguous and np.isnan(out).any():
        rows = np.isnan(out).any(axis=1).nonzero()[0]
        out[rows] = np.einsum("pik,pk->pi", S[rows],
                              np.ascontiguousarray(v[rows]))
    return out


EULER_BLOCK = 16  # steps whose constant-model increments are formed at once


def _block_increments(coeffs, dW, dt):
    """increment_fn of a constant model: S dW_i + b dt_i formed for
    EULER_BLOCK steps at a time, the block's driver gathered column-major
    into one reused buffer, with the per-step rows' bits."""
    steps, d1, P = dW.shape
    rows = np.broadcast_to(0.0, (EULER_BLOCK * P, coeffs.d))
    S, b = coeffs.sigma_at(rows), coeffs.b_at(rows)
    buf = np.empty((d1, EULER_BLOCK, P))
    block = [-1, None]

    def inc(i, X):
        lo = i - i % EULER_BLOCK
        if lo != block[0]:
            n = min(EULER_BLOCK, steps - lo)
            v = buf[:, :n]
            np.copyto(v, dW[lo:lo + n].transpose(1, 0, 2))
            U = _rows_dot(S[:n * P], v.reshape(d1, n * P).T).reshape(n, P, -1)
            U += (b * dt[lo:lo + n, None])[:, None]
            block[:] = lo, U
        return block[1][i - lo]

    return inc


def euler_reflected_batch(domain, coeffs, times, dW, x0, record=("x",),
                          stride=1):
    """Projected Euler for the reflected diffusion, P paths at once.

    Per step: y = X + sigma(X) dW + btilde(X) dt, then project.  dW has
    shape (P, N-1, d1).  `record` names the arrays to keep, at every
    stride-th node, as in drive_batch.
    """
    times = np.asarray(times, dtype=float)
    dW = _step_major(np.asarray(dW, dtype=float))
    dt = np.diff(times)
    x0 = _broadcast_start(x0, dW.shape[2], coeffs.d)

    if coeffs.constant:
        inc = _block_increments(coeffs, dW, dt)
    else:
        def inc(i, X):
            S = coeffs.sigma_at(X)
            u = _rows_dot(S, dW[i].T)
            u += btilde(coeffs, X, S) * dt[i]
            return u

    return BatchPaths(times[::stride], *drive_batch(
        domain, times, x0, inc, stride=stride, record=record))


def euler_reflected(domain, coeffs, w, x0):
    """Reflected Ito-Euler solution (X, K, tv) driven by a sampled path."""
    return euler_reflected_batch(domain, coeffs, w.times,
                                 np.diff(w.values, axis=0)[None], x0,
                                 RECORD_ALL).single(0)


def _refined_grid(grid, substeps):
    """grid with each cell cut as np.linspace(endpoint=False) cuts it."""
    grid = np.asarray(grid, dtype=float)
    if substeps <= 1:
        return grid
    cells = np.linspace(grid[:-1], grid[1:], substeps, endpoint=False, axis=1)
    return np.concatenate([cells.ravel(), grid[-1:]])


def _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                        record=("x",)):
    """Projected explicit Euler for dx = sigma(x) hdot dt + b(x) dt.

    slopes gives the piecewise-constant driver derivative: shape (cells,
    d1), one per cell of the grid, shared across paths; (P, cells, d1) per
    path, read through _cell_index; or a list of (slopes (cells, d1, P),
    grid cells' index into them) pairs as _adapted_slopes builds them, one
    per stacked level, rows level-major.  Coefficients are re-evaluated at
    every substep state, or once per change of the slopes for a constant
    model; only the grid nodes are recorded.

    With a sequence of substep counts, each dividing the next, every
    refinement is solved in the same batch: rows refinement-major, coarsest
    first, len(substeps) times the rows of one solve.  The loop runs on the
    finest refined grid, and a refinement's rows step only on the
    iterations of their own refined grid, with its dt, so each row takes
    the steps of its separate solve.
    """
    grid = np.asarray(grid, dtype=float)
    subs = [max(int(m), 1) for m in np.atleast_1d(substeps)]
    if any(b % a for a, b in zip(subs, subs[1:])):
        raise ValueError(f"substeps {subs} must each divide the next")
    R, M = len(subs), subs[-1]
    dts = [np.diff(_refined_grid(grid, m)) for m in subs]
    if isinstance(slopes, np.ndarray) and slopes.ndim == 3:
        slopes = [(_step_major(slopes),
                   _cell_index(grid, slopes.shape[1], grid[-1]))]
    per_path = isinstance(slopes, list)
    if per_path:
        _, d1, p = slopes[0][0].shape
        P = len(slopes) * p
        # one running slope row per stacked row of a refinement, written
        # into every refinement at once; a level's block is rewritten only
        # when its cell changes
        buf = np.empty((d1, R, P))
        levels = [(s, idx.tolist(), slice(j * p, (j + 1) * p), [-1])
                  for j, (s, idx) in enumerate(slopes)]
    else:
        P, levels = int(np.atleast_2d(x0).shape[0]), []
    x0 = _broadcast_start(x0, R * P, coeffs.d)
    periods = [M // m for m in subs]

    def rate(S, b, s):
        u = _rows_dot(S, s) if per_path else S @ s
        u += b
        return u

    # a constant model's coefficients do not read the state, so its rate
    # sigma s + b is formed once per change of the slopes, for every row
    const = coeffs.constant and (coeffs.sigma_at(x0), coeffs.b_at(x0))
    last = [-1, None]  # coarse cell and its slopes, or its rate

    def inc(i, X):
        c, lo = i // M, R * P - len(X)
        if c != last[0]:
            last[0], moved = c, not per_path
            for own, idx, rows, cur in levels:
                if idx[c] != cur[0]:
                    cur[0], moved = idx[c], True
                    buf[:, :, rows] = own[idx[c]][:, None]
            if moved:  # per path (rows, d1), the same in every refinement
                s = buf.reshape(len(buf), -1).T if per_path else slopes[c]
                last[1] = rate(*const, s) if const else s
        # the due rows' rate, or their slopes (shared slopes have no rows)
        r = last[1][lo:] if lo and (const or per_path) else last[1]
        if not const:
            r = rate(coeffs.sigma_at(X), coeffs.b_at(X), r)
        u = np.empty_like(r) if const else r  # in the rate's layout
        for j in range(lo // P, R):
            rows = slice(j * P - lo, (j + 1) * P - lo)
            np.multiply(r[rows], dts[j][i // periods[j]], out=u[rows])
        return u

    return BatchPaths(grid, *drive_batch(
        domain, _refined_grid(grid, M), x0, inc, stride=M, record=record,
        blocks=[(j * P, q) for j, q in enumerate(periods)]))


def skeleton(domain, coeffs, h, substeps, x0, grid=None):
    """Deterministic reflected skeleton (Z, psi) driven by a control.

    Integrates on the control's breakpoint grid (refined by substeps), or on
    a caller grid that must contain the breakpoints.
    """
    if grid is None:
        grid = h.times
    grid = np.asarray(grid, dtype=float)
    slopes = h.slope_at(0.5 * (grid[:-1] + grid[1:]))
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                               RECORD_ALL).single(0)


def skeleton_batch(domain, coeffs, grid, slopes, x0, substeps, record=("x",)):
    """Skeletons for a batch of controls, slopes (P, cells, d1) per cell of
    the grid or on equal cells of [0, grid[-1]], read through
    _cell_index."""
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                               record)


def _cell_index(grid, cells, T):
    """Index of the cell of the `cells` equal cells of [0, T] holding each
    grid cell's midpoint (grids here never put a midpoint on a cell
    boundary); on a grid of `cells` cells, slopes given per grid cell, the
    identity."""
    if cells == len(grid) - 1:
        return np.arange(cells)
    mids = 0.5 * (grid[:-1] + grid[1:])
    return np.minimum((mids / (T / cells)).astype(int), cells - 1)


def _adapted_slopes(times, W, levels, T=None):
    """Grid of the nodes up to T and the one-cell-delayed adapted
    interpolation's slopes of each level on that level's own cells.

    W holds driver node values (P, N, d1) on a grid containing the dyadic
    nodes of every level; levels is one level or a sequence.  Each level
    gives a pair: its slopes (2^n, d1, P), stored step-major, and the
    index of the level cell holding each grid cell's midpoint.
    """
    times = np.asarray(times, dtype=float)
    T = float(times[-1]) if T is None else float(T)
    grid = times[times <= T + 1e-12]
    V = np.moveaxis(W, 0, -1)
    out = []
    for n in np.atleast_1d(levels):
        delta = T / 2 ** int(n)
        w_nodes = V[pth.node_indices(times, pth.dyadic_grid(T, n))]
        slopes = np.zeros((len(w_nodes) - 1,) + w_nodes.shape[1:])
        np.subtract(w_nodes[1:-1], w_nodes[:-2], out=slopes[1:])
        slopes[1:] /= delta
        out.append((slopes, _cell_index(grid, len(slopes), T)))
    return grid, out


def wong_zakai_batch(domain, coeffs, times, W, n, substeps, x0, T=None,
                     record=("x",)):
    """Reflected ODE driven by the adapted interpolation, P paths at once.

    W holds driver node values (P, N, d1) on a grid containing the level-n
    dyadic nodes; output is on that grid.  Stratonovich coefficients: drift
    b, no Ito correction, since the interpolation is of bounded variation.
    With a sequence of levels n, every level is solved in the same batch:
    rows level-major, len(n) * P of them.  A sequence of substep counts,
    each dividing the next, stacks the refinements the same way in front
    of that: rows refinement-major, coarsest first, each refinement's rows
    with the bits of its own solve.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                               record)


def wong_zakai(domain, coeffs, w, n, substeps, x0, T=None):
    """Adapted Wong-Zakai solution (X^n, K^n) on the driver's grid."""
    return wong_zakai_batch(domain, coeffs, w.times, w.values[None], n,
                            substeps, x0, T, RECORD_ALL).single(0)


def shifted_driver_batch(domain, coeffs, times, W, n, h, x0, T=None,
                         record=("x",)):
    """Projected Euler for the shifted driver w - w^n + h, P paths at once.

    Ito increments with the corrected drift btilde; the interpolation
    increment over a fine cell inside dyadic cell j is slope_j * dt.  With
    a sequence of levels n, rows are level-major as in wong_zakai_batch.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    dt = np.diff(grid)[:, None, None]
    # increments differenced straight into the step-major layout
    V = np.moveaxis(W[:, :len(grid)], 0, -1)
    dW = np.subtract(V[1:], V[:-1], order="C")
    dh = np.diff(np.atleast_2d(h(grid)), axis=0)[:, :, None]
    # dW - slope dt + dh written level block by level block
    P = dW.shape[2]
    du = np.empty(dW.shape[:2] + (len(slopes) * P,))
    for j, (s, idx) in enumerate(slopes):
        block = du[:, :, j * P:(j + 1) * P]
        # the indices are in range; "clip" writes into the block unbuffered
        np.take(s, idx, axis=0, out=block, mode="clip")
        block *= dt
        np.subtract(dW, block, out=block)
        block += dh
    # (P, steps, d1) view of the step-major increments: nothing is copied
    return euler_reflected_batch(domain, coeffs, grid, np.moveaxis(du, -1, 0),
                                 x0, record)


def shifted_driver(domain, coeffs, w, n, h, x0, T=None):
    """Solution (Y^n, phi^n) of the diffusion driven by w - w^n + h."""
    return shifted_driver_batch(domain, coeffs, w.times, w.values[None], n, h,
                                x0, T, RECORD_ALL).single(0)
