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
    (..., d); sigma_jac, when given, maps (..., d) to (..., d, d1, d) with
    entry [i, k, j] = d sigma[i, k] / d x_j.  All shipped families are
    vectorized over leading axes.
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
        for j in range(self.d):
            e = np.zeros(self.d)
            e[j] = 1.0
            Xp = Xb + h[:, None] * e
            Xm = Xb - h[:, None] * e
            J[..., j] = (self.sigma_at(Xp) - self.sigma_at(Xm)) / (2.0 * h)[:, None, None]
        return J[0] if single else J


def btilde(coeffs, x):
    """Ito-corrected drift b + (1/2) sum_jk (d_j sigma[i,k]) sigma[j,k]."""
    x = np.asarray(x, dtype=float)
    S = coeffs.sigma_at(x)
    J = coeffs.jacobian_at(x)
    corr = 0.5 * np.einsum("...ikj,...jk->...i", J, S)
    return coeffs.b_at(x) + corr


# ---------------------------------------------------------------------------
# Named coefficient families (selectable from config)
# ---------------------------------------------------------------------------


def _const_family(d, d1, params):
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


def _sin_family(d, d1, params):
    # diagonal sigma[i, i] = base + amp * sin(freq * x_i); requires d == d1
    if d != d1:
        raise ValueError("sin family needs d == d1")
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

    def b(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(v, X.shape[:-1] + (d,)).copy()

    return b


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

    def sig(X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return np.asarray(sigma(X), dtype=float).reshape(d, d1)
        return np.stack([np.asarray(sigma(x), dtype=float).reshape(d, d1) for x in X])

    def drift(X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return np.asarray(b(X), dtype=float).reshape(d)
        return np.stack([np.asarray(b(x), dtype=float).reshape(d) for x in X])

    jac = None
    if sigma_jac is not None:
        def jac(X):
            X = np.asarray(X, dtype=float)
            if X.ndim == 1:
                return np.asarray(sigma_jac(X), dtype=float).reshape(d, d1, d)
            return np.stack([np.asarray(sigma_jac(x), dtype=float).reshape(d, d1, d)
                             for x in X])

    return Coefficients(int(d), int(d1), sig, drift, sigma_jac=jac)


# ---------------------------------------------------------------------------
# Integrators (batch kernels plus per-path wrappers)
# ---------------------------------------------------------------------------


def _broadcast_start(x0, P, d):
    """Starts for P rows: one shared start, or per-path starts repeated
    across the levels stacked into the batch."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (P, d))
    return np.tile(x0, (P // len(x0), 1))


def euler_reflected_batch(domain, coeffs, times, dW, x0):
    """Projected Euler for the reflected diffusion, P paths at once.

    Per step: y = X + sigma(X) dW + btilde(X) dt, then project.  dW has
    shape (P, N-1, d1).
    """
    times = np.asarray(times, dtype=float)
    dW = np.asarray(dW, dtype=float)
    dt = np.diff(times)
    x0 = _broadcast_start(x0, dW.shape[0], coeffs.d)

    def inc(i, X):
        S = coeffs.sigma_at(X)
        du = np.einsum("pik,pk->pi", S, dW[:, i])
        return du + btilde(coeffs, X) * dt[i]

    x, k, tv, pushes = drive_batch(domain, times, x0, inc)
    return BatchPaths(times, x, k, tv), pushes


def euler_reflected(domain, coeffs, w, x0):
    """Reflected Ito-Euler solution (X, K, tv) driven by a sampled path."""
    dW = np.diff(w.values, axis=0)[None]
    batch, pushes = euler_reflected_batch(domain, coeffs, w.times, dW,
                                          np.atleast_1d(np.asarray(x0, dtype=float))[None])
    return batch.single(0, pushes[0])


def _refined_grid(grid, substeps):
    grid = np.asarray(grid, dtype=float)
    if substeps <= 1:
        return grid
    pieces = [np.linspace(grid[i], grid[i + 1], substeps, endpoint=False)
              for i in range(len(grid) - 1)]
    return np.concatenate(pieces + [grid[-1:]])


def _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps):
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

    def inc(i, X):
        s = slopes[:, cell[i]] if per_path else slopes[cell[i]]
        S = coeffs.sigma_at(X)
        if per_path:
            du = np.einsum("pik,pk->pi", S, s)
        else:
            du = S @ s
        return (du + coeffs.b_at(X)) * dt[i]

    x, k, tv, pushes = drive_batch(domain, refined, x0, inc, stride=substeps)
    return BatchPaths(grid, x, k, tv), pushes


def skeleton(domain, coeffs, h, substeps, x0, grid=None):
    """Deterministic reflected skeleton (Z, psi) driven by a control.

    Integrates on the control's breakpoint grid (refined by substeps), or on
    a caller grid that must contain the breakpoints.
    """
    if grid is None:
        grid = h.times
    grid = np.asarray(grid, dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    slopes = h.slope_at(mids)
    batch, pushes = _bv_integrate_batch(
        domain, coeffs, grid, slopes, np.atleast_1d(np.asarray(x0, dtype=float))[None],
        substeps)
    return batch.single(0, pushes[0])


def skeleton_batch(domain, coeffs, grid, slopes, x0, substeps):
    """Skeletons for a batch of controls sharing breakpoints (slopes (P, cells, d1))."""
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps)


def _adapted_slopes(times, W, levels, T=None):
    """Grid of the nodes up to T and the one-cell-delayed adapted
    interpolation's slope on each of its cells.

    W holds driver node values (P, N, d1) on a grid containing the dyadic
    nodes of every level; levels is one level or a sequence.  The slopes
    have shape (len(levels) * P, cells, d1), rows level-major.
    """
    times = np.asarray(times, dtype=float)
    T = float(times[-1]) if T is None else float(T)
    grid = times[times <= T + 1e-12]
    mids = 0.5 * (grid[:-1] + grid[1:])
    ref = pth.SamplePath(times, np.zeros((len(times), 1)))
    out = []
    for n in np.atleast_1d(levels):
        cells = 2 ** int(n)
        delta = T / cells
        idx = np.array([ref.node_index(t) for t in pth.dyadic_grid(T, n)])
        w_nodes = W[:, idx]  # (P, cells+1, d1)
        slopes = np.zeros_like(w_nodes[:, :-1])
        slopes[:, 1:] = (w_nodes[:, 1:-1] - w_nodes[:, :-2]) / delta
        out.append(slopes[:, np.clip((mids / delta).astype(int), 0, cells - 1)])
    return grid, np.concatenate(out)


def wong_zakai_batch(domain, coeffs, times, W, n, substeps, x0, T=None):
    """Reflected ODE driven by the adapted interpolation, P paths at once.

    W holds driver node values (P, N, d1) on a grid containing the level-n
    dyadic nodes; output is on that grid.  Stratonovich coefficients: drift
    b, no Ito correction, since the interpolation is of bounded variation.
    With a sequence of levels n, every level is solved in the same batch:
    rows level-major, len(n) * P of them.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    return _bv_integrate_batch(domain, coeffs, grid, slopes, x0, substeps)


def wong_zakai(domain, coeffs, w, n, substeps, x0, T=None):
    """Adapted Wong-Zakai solution (X^n, K^n) on the driver's grid."""
    batch, pushes = wong_zakai_batch(
        domain, coeffs, w.times, w.values[None], n, substeps,
        np.atleast_1d(np.asarray(x0, dtype=float))[None], T)
    return batch.single(0, pushes[0])


def shifted_driver_batch(domain, coeffs, times, W, n, h, x0, T=None):
    """Projected Euler for the shifted driver w - w^n + h, P paths at once.

    Ito increments with the corrected drift btilde; the interpolation
    increment over a fine cell inside dyadic cell j is slope_j * dt.  With
    a sequence of levels n, rows are level-major as in wong_zakai_batch.
    """
    grid, slopes = _adapted_slopes(times, W, n, T)
    dt = np.diff(grid)
    dW = np.tile(np.diff(W[:, :len(grid)], axis=1), (len(slopes) // len(W), 1, 1))
    dh = np.diff(np.atleast_2d(h(grid)), axis=0)
    du_total = dW - slopes * dt[None, :, None] + dh[None]
    x0 = _broadcast_start(x0, len(slopes), coeffs.d)

    def inc(i, X):
        S = coeffs.sigma_at(X)
        du = np.einsum("pik,pk->pi", S, du_total[:, i])
        return du + btilde(coeffs, X) * dt[i]

    x, k, tv, pushes = drive_batch(domain, grid, x0, inc)
    return BatchPaths(grid, x, k, tv), pushes


def shifted_driver(domain, coeffs, w, n, h, x0, T=None):
    """Solution (Y^n, phi^n) of the diffusion driven by w - w^n + h."""
    batch, pushes = shifted_driver_batch(
        domain, coeffs, w.times, w.values[None], n, h,
        np.atleast_1d(np.asarray(x0, dtype=float))[None], T)
    return batch.single(0, pushes[0])
