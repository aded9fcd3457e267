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
from .skorohod import BatchPaths, drive_batch

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
    """

    d: int
    d1: int
    sigma: object
    b: object
    sigma_jac: object = None
    name: str = "custom"
    meta: dict = None

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
    return b + 0.5 * np.einsum("...ikj,...jk->...i", coeffs.jacobian_at(x), S)


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


def _const_family(d, d1, params):
    if "matrix" in params:
        M = np.array(params["matrix"], dtype=float).reshape(d, d1)
    else:
        M = float(params.get("value", 1.0)) * np.eye(d, d1)
    M.flags.writeable = False
    last = [M]  # a step loop asks for one shape; broadcast_to is costly

    def sigma(X):
        shape = np.shape(X)[:-1] + (d, d1)
        view = last[0]
        if view.shape != shape:
            view = last[0] = np.broadcast_to(M, shape)
        return view

    return sigma, _ZeroJacobian(d1)


def _sin_family(d, d1, params):
    # diagonal sigma[i, i] = base + amp * sin(freq * x_i); requires d == d1
    if d != d1:
        raise ValueError("sin family needs d == d1")
    base = float(params.get("base", 0.5))
    amp = float(params.get("amp", 0.25))
    freq = float(params.get("freq", 1.0))

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
        return v.reshape(v.shape + (1,) * (axes - 1))
    out = np.zeros(v.shape + (d,) * (axes - 1))
    out[(Ellipsis,) + (np.arange(d),) * axes] = v
    return out


def _affine_family(d, d1, params):
    C0 = np.asarray(params.get("const", np.zeros((d, d1))), dtype=float).reshape(d, d1)
    Cs = np.asarray(params.get("linear", np.zeros((d, d, d1))), dtype=float).reshape(d, d, d1)

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


def _const_drift(d, params):
    v = np.asarray(params.get("value", np.zeros(d)), dtype=float)
    v = np.broadcast_to(np.atleast_1d(v), (d,)).astype(float)
    v.flags.writeable = False
    return lambda X: v


def _linear_drift(d, params):
    B = np.asarray(params.get("matrix", np.zeros((d, d))), dtype=float).reshape(d, d)
    c = np.asarray(params.get("const", np.zeros(d)), dtype=float)

    def b(X):
        X = np.asarray(X, dtype=float)
        return X @ B.T + c

    return b


_DRIFT_FAMILIES = {"const": _const_drift, "linear": _linear_drift}


def make_coefficients(d, d1, sigma="const", sigma_params=None, b="const",
                      b_params=None):
    if sigma not in _SIGMA_FAMILIES:
        raise ValueError(f"unknown sigma family {sigma!r}")
    if b not in _DRIFT_FAMILIES:
        raise ValueError(f"unknown drift family {b!r}")
    sig, jac = _SIGMA_FAMILIES[sigma](int(d), int(d1), sigma_params or {})
    drift = _DRIFT_FAMILIES[b](int(d), b_params or {})
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
        return S[..., 0] * v + 0.0
    v = np.ascontiguousarray(v) if d1 > 2 or S.strides[0] else v
    out = np.einsum("pik,pk->pi", S, v)
    if not v.flags.c_contiguous and np.isnan(out).any():
        rows = np.isnan(out).any(axis=1).nonzero()[0]
        out[rows] = np.einsum("pik,pk->pi", S[rows],
                              np.ascontiguousarray(v[rows]))
    return out


def euler_reflected_batch(domain, coeffs, times, dW, x0, pushes=False):
    """Projected Euler for the reflected diffusion, P paths at once.

    Per step: y = X + sigma(X) dW + btilde(X) dt, then project.  dW has
    shape (P, N-1, d1).
    """
    times = np.asarray(times, dtype=float)
    dW = _step_major(np.asarray(dW, dtype=float))
    dt = np.diff(times)
    x0 = _broadcast_start(x0, dW.shape[2], coeffs.d)

    def inc(i, X):
        S = coeffs.sigma_at(X)
        return _rows_dot(S, dW[i].T) + btilde(coeffs, X, S) * dt[i]

    return BatchPaths(times, *drive_batch(domain, times, x0, inc,
                                          pushes=pushes))


def euler_reflected(domain, coeffs, w, x0):
    """Reflected Ito-Euler solution (X, K, tv) driven by a sampled path."""
    return euler_reflected_batch(domain, coeffs, w.times,
                                 np.diff(w.values, axis=0)[None], x0,
                                 pushes=True).single(0)


def _refined_grid(grid, substeps):
    """grid with each cell cut as np.linspace(endpoint=False) cuts it."""
    grid = np.asarray(grid, dtype=float)
    if substeps <= 1:
        return grid
    cells = np.linspace(grid[:-1], grid[1:], substeps, endpoint=False, axis=1)
    return np.concatenate([cells.ravel(), grid[-1:]])


def _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                        pushes=False):
    """Projected explicit Euler for dx = sigma(x) hdot dt + b(x) dt.

    slopes gives the piecewise-constant driver derivative per cell of the
    grid: shape (cells, d1) shared across paths or (P, cells, d1) per path.
    Coefficients are re-evaluated at every substep state; only the grid
    nodes are recorded.
    """
    grid = np.asarray(grid, dtype=float)
    substeps = max(int(substeps), 1)
    refined = _refined_grid(grid, substeps)
    dt = np.diff(refined)
    # map refined cells back to coarse cells
    cell = np.clip(np.searchsorted(grid, refined[:-1], side="right") - 1,
                   0, len(grid) - 2)
    per_path = slopes.ndim == 3
    P = slopes.shape[0] if per_path else int(np.atleast_2d(x0).shape[0])
    x0 = _broadcast_start(x0, P, coeffs.d)
    slopes = _step_major(slopes) if per_path else slopes

    def inc(i, X):
        s = slopes[cell[i]].T if per_path else slopes[cell[i]]
        S = coeffs.sigma_at(X)
        du = _rows_dot(S, s) if per_path else S @ s
        return (du + coeffs.b_at(X)) * dt[i]

    return BatchPaths(grid, *drive_batch(domain, refined, x0, inc,
                                         stride=substeps, pushes=pushes))


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
                               pushes=True).single(0)


def skeleton_batch(domain, coeffs, grid, slopes, x0, substeps):
    """Skeletons for a batch of controls sharing breakpoints (slopes (P, cells, d1))."""
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps)


def expand_cell_slopes(slopes, grid, T):
    """Slopes (P, cells, d1) on the equal cells of [0, T], read off on the
    cells of grid: each grid cell takes the slope of the cell holding its
    midpoint (grids here never put a midpoint on a cell boundary), stored
    cell-major as _step_major leaves them."""
    cells = slopes.shape[1]
    mids = 0.5 * (grid[:-1] + grid[1:])
    cell = np.minimum((mids / (T / cells)).astype(int), cells - 1)
    return np.moveaxis(slopes, 0, -1).take(cell, axis=0).transpose(2, 0, 1)


def _adapted_slopes(times, W, levels, T=None):
    """Grid of the nodes up to T and the one-cell-delayed adapted
    interpolation's slope on each of its cells.

    W holds driver node values (P, N, d1) on a grid containing the dyadic
    nodes of every level; levels is one level or a sequence.  The slopes,
    (len(levels) * P, cells, d1) rows level-major, are stored cell-major.
    """
    times = np.asarray(times, dtype=float)
    T = float(times[-1]) if T is None else float(T)
    grid = times[times <= T + 1e-12]
    levels, (P, _, d1) = np.atleast_1d(levels), W.shape
    out = np.empty((len(grid) - 1, d1, len(levels) * P)).transpose(2, 0, 1)
    for j, n in enumerate(levels):
        delta = T / 2 ** int(n)
        w_nodes = W[:, pth.node_indices(times, pth.dyadic_grid(T, n))]
        slopes = np.zeros_like(w_nodes[:, :-1])
        slopes[:, 1:] = (w_nodes[:, 1:-1] - w_nodes[:, :-2]) / delta
        out[j * P:(j + 1) * P] = expand_cell_slopes(slopes, grid, T)
    return grid, out


def wong_zakai_batch(domain, coeffs, times, W, n, substeps, x0, T=None,
                     pushes=False):
    """Reflected ODE driven by the adapted interpolation, P paths at once.

    W holds driver node values (P, N, d1) on a grid containing the level-n
    dyadic nodes; output is on that grid.  Stratonovich coefficients: drift
    b, no Ito correction, since the interpolation is of bounded variation.
    With a sequence of levels n, every level is solved in the same batch:
    rows level-major, len(n) * P of them.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps,
                               pushes)


def wong_zakai(domain, coeffs, w, n, substeps, x0, T=None):
    """Adapted Wong-Zakai solution (X^n, K^n) on the driver's grid."""
    return wong_zakai_batch(domain, coeffs, w.times, w.values[None], n,
                            substeps, x0, T, pushes=True).single(0)


def shifted_driver_batch(domain, coeffs, times, W, n, h, x0, T=None,
                         pushes=False):
    """Projected Euler for the shifted driver w - w^n + h, P paths at once.

    Ito increments with the corrected drift btilde; the interpolation
    increment over a fine cell inside dyadic cell j is slope_j * dt.  With
    a sequence of levels n, rows are level-major as in wong_zakai_batch.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    dt = np.diff(grid)
    W = _step_major(W[:, :len(grid)])
    dW = np.tile(W[1:] - W[:-1], len(slopes) // W.shape[2])
    dh = np.diff(np.atleast_2d(h(grid)), axis=0)
    du_total = dW - _step_major(slopes) * dt[:, None, None] + dh[:, :, None]
    x0 = _broadcast_start(x0, len(slopes), coeffs.d)

    def inc(i, X):
        S = coeffs.sigma_at(X)
        return _rows_dot(S, du_total[i].T) + btilde(coeffs, X, S) * dt[i]

    return BatchPaths(grid, *drive_batch(domain, grid, x0, inc, pushes=pushes))


def shifted_driver(domain, coeffs, w, n, h, x0, T=None):
    """Solution (Y^n, phi^n) of the diffusion driven by w - w^n + h."""
    return shifted_driver_batch(domain, coeffs, w.times, w.values[None], n, h,
                                x0, T, pushes=True).single(0)
