"""Discrete Skorohod map: constrained path plus bounded-variation regulator.

The solver advances the recursive projection scheme
    y_{i+1} = x_i + (driver increment),  x_{i+1} = nearest point of the
closure, regulator increment = x_{i+1} - y_{i+1}.  The same stepping kernel
drives the reflected SDE integrators; they differ only in how the per-step
increment is produced.  For nonconvex kinds a row whose increment exceeds
r0/2 is cut into 2^j equal sub-steps, j the smallest with each under r0/2,
which keeps every projection inside the uniqueness tube of condition (A).
The cut is chosen per row, so a row's trajectory depends only on its own
driver and start, never on the other rows of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StartOutsideDomain
from .geometry import BOUNDARY_TOL
from .paths import SamplePath, _sq_norm, dyadic_lags, lag_scan_sq, oscillation


@dataclass(frozen=True)
class SkorohodSolution:
    """Constrained path x, regulator k, cumulative total variation, pushes.

    tv[i] is the total variation of k on [0, t_i]; pushes[i] is the unit
    inward normal applied on arrival at node i (zero when no contact; the
    net direction when a bisected step pushed more than once).
    """

    x: SamplePath
    k: SamplePath
    tv: np.ndarray
    pushes: np.ndarray

    def to_csv(self, fileobj):
        d = self.x.dim
        header = ["t"] + [f"x{j + 1}" for j in range(d)] \
            + [f"k{j + 1}" for j in range(d)] + ["tv"]
        fileobj.write(",".join(header) + "\n")
        for i, t in enumerate(self.x.times):
            cells = [format(t, ".17g")]
            cells += [format(v, ".17g") for v in self.x.values[i]]
            cells += [format(v, ".17g") for v in self.k.values[i]]
            cells.append(format(self.tv[i], ".17g"))
            fileobj.write(",".join(cells) + "\n")


RECORD_ALL = ("x", "k", "tv", "pushes")


@dataclass(frozen=True)
class BatchPaths:
    """Vectorized trajectories: one row per path, used by the harness.  An
    array the solve was not asked to record is None."""

    times: np.ndarray
    x: np.ndarray   # (P, N, d)
    k: np.ndarray   # (P, N, d)
    tv: np.ndarray  # (P, N)
    pushes: np.ndarray = None  # (P, N, d)

    def single(self, p=0):
        """Path p as a solution; the solve must have recorded RECORD_ALL."""
        return SkorohodSolution(SamplePath(self.times, self.x[p]),
                                SamplePath(self.times, self.k[p]),
                                self.tv[p].copy(), self.pushes[p])


def _advance(domain, X, du):
    """One constrained step from states X (P, d) by increments du (P, d).

    Convex kinds, and nonconvex steps with no increment over r0/2, project
    once.  Otherwise each row over r0/2 is bisected by its own increment
    norm; sub-step s projects only the rows with more than s sub-steps.
    """
    Y = np.add(X, du, order="F")
    if domain.convex:
        return domain.project_rows(Y)
    half = 0.5 * domain.r0
    norms = np.sqrt(_sq_norm(du))
    big = (norms > half).nonzero()[0]
    if not len(big):
        return domain.project_rows(Y)
    nsub = np.ldexp(1.0, np.ceil(np.log2(norms[big] / half)).astype(int))
    # indexing gathers a column-major X's rows faster than take does
    du = du[big] / nsub[:, None]
    Y[big] = X[big] + du
    X, k_inc, tv_inc = domain.project_rows(Y)
    for s in range(1, int(nsub.max())):
        sub = (nsub > s).nonzero()[0]
        rows = big[sub]
        Xr, Kr, dist = domain.project_rows(X[rows] + du.take(sub, axis=0))
        X[rows] = Xr
        k_inc[rows] += Kr
        tv_inc[rows] += dist
    return X, k_inc, tv_inc


def drive_batch(domain, times, x0, increment_fn, stride=1, record=("x",),
                blocks=((0, 1),)):
    """Run the projection scheme for P paths at once.

    increment_fn(i, X) must return the full step increments (P, d) for the
    step from times[i] to times[i+1] given the column-major states X.  Returns
    the (x, k, tv, pushes) arrays named in `record` (any of RECORD_ALL),
    each recorded at every stride-th node only (node 0 included; the stride
    must divide the step count), and None for each of the others.
    The running regulator and total-variation sums are kept only if `k` or
    `tv` is recorded.

    `blocks` lists (first row, period) pairs, first rows rising from 0 and
    each period a multiple of the next, the last 1: a block's rows step
    only on the iterations i that its period divides.  The rows due on an
    iteration are then a trailing block X[lo:], and increment_fn gets and
    answers for those rows only.  The stride must be a multiple of every
    period; a recorded push is the one from the row's own last step.
    """
    unknown = set(record) - set(RECORD_ALL)
    if unknown:
        raise ValueError(f"cannot record {sorted(unknown)}")
    steps = len(times) - 1
    if steps % stride:
        raise ValueError(f"stride {stride} does not divide {steps} steps")
    firsts, periods = zip(*blocks)
    if firsts[0] or periods[-1] != 1 \
            or any(a >= b for a, b in zip(firsts, firsts[1:])) \
            or any(a % b for a, b in zip(periods, periods[1:])):
        raise ValueError("blocks need rising first rows from 0 and each "
                         "period a multiple of the next, the last 1")
    if any(stride % q for q in periods):
        raise ValueError(f"stride {stride} is not a multiple of every "
                         f"block's period {list(periods)}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    P, d = x0.shape
    if np.any(domain.signed_distance(x0) > BOUNDARY_TOL):
        raise StartOutsideDomain("initial state outside the closure")
    # first due row per iteration; nested periods make the due rows trail
    due = np.zeros(steps, dtype=int)
    for first, q in reversed(blocks):
        due[::q] = first
    N = steps // stride + 1
    x = np.empty((P, N, d)) if "x" in record else None
    k = np.zeros((P, N, d)) if "k" in record else None
    tv = np.zeros((P, N)) if "tv" in record else None
    pushes = np.zeros((P, N, d)) if "pushes" in record else None
    X = np.array(x0, order="F")
    K = np.zeros((P, d), order="F")
    TV = np.zeros(P)
    # each row's own last regulator increment, for the pushes
    last = np.zeros((P, d)) if pushes is not None else None
    if x is not None:
        x[:, 0] = X
    for i, lo in enumerate(due.tolist()):
        Xd = X[lo:] if lo else X
        Xd, k_inc, tv_inc = _advance(domain, Xd, increment_fn(i, Xd))
        if lo:
            X[lo:] = Xd
        else:
            X = Xd
        if k is not None:
            K[lo:] += k_inc
        if tv is not None:
            TV[lo:] += tv_inc
        if pushes is not None:
            last[lo:] = k_inc
        j, off = divmod(i + 1, stride)
        if off:
            continue
        if x is not None:
            x[:, j] = X
        if k is not None:
            k[:, j] = K
        if tv is not None:
            tv[:, j] = TV
        if pushes is not None:
            norms = np.sqrt(_sq_norm(last))
            hit = norms > 0
            pushes[hit, j] = last[hit] / norms[hit, None]
    return x, k, tv, pushes


def solve(domain, driver, x0):
    """Skorohod map of a sampled driver from a start in the closure.

    The driver contributes its increments only; the constrained path starts
    at x0.  For convex domains the scheme is the exact discrete Skorohod
    map of the piecewise-linear driver.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if driver.dim != x0.size:
        raise ValueError("driver dimension and start dimension disagree")
    dW = np.diff(driver.values, axis=0)[None, :, :]
    out = drive_batch(domain, driver.times, x0[None, :], lambda i, X: dW[:, i],
                      record=RECORD_ALL)
    return BatchPaths(driver.times, *out).single(0)


# ---------------------------------------------------------------------------
# Dyadic-window verification of the regulator bounds
# ---------------------------------------------------------------------------


def _index_windows(n_nodes):
    """Aligned dyadic index windows (lo, hi) covering the grid at all scales."""
    windows = []
    span = n_nodes - 1
    j = 0
    while True:
        length = span >> j
        if length < 1:
            break
        for lo in range(0, span - length + 1, length):
            windows.append((lo, lo + length))
        j += 1
    return windows


@dataclass(frozen=True)
class TVBoundReport:
    fitted_C: float
    theta: float
    c1: float
    c2: float
    worst_window: tuple
    n_windows: int


def verify_tv_bound(sol, driver, theta, c1=1.0, c2=1.0):
    """Smallest C with |k|_t^s <= C (1 + ||w||_{[s,t],theta}^c1 (t-s))
    e^{c2 ||w||_{[s,t]}} ||w||_{[s,t]} over all aligned dyadic windows.

    The exponents are caller inputs; the result is a finiteness and mesh
    stability diagnostic, not a recovery of any particular constant.  The
    window Holder seminorm uses dyadic lags, which can only enlarge the
    fitted C.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    times = driver.times
    vals = driver.values
    tv = sol.tv
    best_C, worst = 0.0, (0, 0)
    windows = _index_windows(len(times))
    for lo, hi in windows:
        kvar = tv[hi] - tv[lo]
        if kvar <= 0.0:
            continue
        osc = oscillation(vals[lo:hi + 1])
        if osc <= 0.0:
            continue
        span = times[hi] - times[lo]
        hol = np.sqrt(lag_scan_sq(times[lo:hi + 1], vals[None, lo:hi + 1],
                                  theta, dyadic_lags(hi + 1 - lo))[0])
        denom = (1.0 + hol ** c1 * span) * np.exp(c2 * osc) * osc
        C = kvar / denom
        if C > best_C:
            best_C, worst = C, (float(times[lo]), float(times[hi]))
    return TVBoundReport(best_C, theta, c1, c2, worst, len(windows))


@dataclass(frozen=True)
class BVComparisonReport:
    max_ratio: float
    bound: float
    worst_window: tuple
    n_windows: int

    @property
    def passed(self):
        return self.max_ratio <= self.bound + 1e-6


BV_COMPARISON_BOUND = 2.0 * (np.sqrt(2.0) + 1.0)


def verify_bv_comparison(domain, driver, x0=None):
    """Worst ratio of constrained to driver total variation over windows.

    For continuous bounded-variation drivers the constrained path satisfies
    |x|_t^s <= 2 (sqrt(2) + 1) |w|_t^s; piecewise-linear drivers realize
    total variation exactly as node-sums.
    """
    if x0 is None:
        x0, _, _ = domain.project(driver.values[0])
    sol = solve(domain, driver, x0)
    xinc = np.linalg.norm(np.diff(sol.x.values, axis=0), axis=1)
    winc = np.linalg.norm(np.diff(driver.values, axis=0), axis=1)
    xcum = np.concatenate([[0.0], np.cumsum(xinc)])
    wcum = np.concatenate([[0.0], np.cumsum(winc)])
    best, worst = 0.0, (0, 0)
    windows = _index_windows(len(driver.times))
    for lo, hi in windows:
        wvar = wcum[hi] - wcum[lo]
        if wvar <= 0.0:
            continue
        ratio = (xcum[hi] - xcum[lo]) / wvar
        if ratio > best:
            best, worst = ratio, (float(driver.times[lo]), float(driver.times[hi]))
    return BVComparisonReport(best, BV_COMPARISON_BOUND, worst, len(windows))
