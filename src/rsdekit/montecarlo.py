"""Experiment harness: estimators, confidence intervals, log-log rate fits.

Every statistically checkable statement gets one experiment function that
returns an ExperimentReport.  Reports are reproducible bit for bit from
(config, seed) regardless of worker count: path workloads are cut into
fixed-size chunks addressed by path index, each path draws from its own
counter-based stream, and chunk results are merged in chunk order before
any floating-point reduction.  `run_paths` is the one place where path
experiments are cut into chunks, restored in workers and merged.

Pass thresholds fall into two classes, labeled in each report: "theory"
numbers anchor a stated limit or constant, "policy" numbers are harness
choices (minimum slopes, CI coverage, stability factors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import paths as pth
from . import rsde
from .errors import TubeTooNarrow
from .geometry import make_domain
from .rsde import make_coefficients

CHUNK = 256
TUBE_BLOCK = 8192
Z95 = 1.96


# ---------------------------------------------------------------------------
# Report containers and sample statistics
# ---------------------------------------------------------------------------


@dataclass
class Estimate:
    label: str
    value: float
    ci_halfwidth: float
    n: int
    kind: str = "mean"  # or "proportion", "quantile", "statistic"


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    points: list
    kind: str = "log2_vs_log2"


@dataclass
class Threshold:
    label: str
    value: float
    source: str  # "theory" or "policy"


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    estimates: list = field(default_factory=list)
    rate_fit: RateFit = None
    verdict: str = "pass"
    seeds: dict = field(default_factory=dict)
    thresholds: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, label, value, ci=0.0, n=0, kind="statistic"):
        self.estimates.append(Estimate(label, value, ci, n, kind))

    def add_mean(self, label, samples, kind="mean"):
        """Record the sample mean with its CI halfwidth; returns (mean, ci)."""
        m, ci = mean_ci(samples)
        self.add(label, m, ci, len(samples), kind)
        return m, ci

    def add_proportion(self, label, hits):
        """Record the share k/n of true `hits` with its Wilson halfwidth;
        returns (k/n, halfwidth)."""
        k, n = int(np.sum(hits)), len(hits)
        _, half = wilson(k, n)
        self.add(label, k / n, half, n, "proportion")
        return k / n, half

    def estimate(self, label):
        for e in self.estimates:
            if e.label == label:
                return e
        raise KeyError(label)

    def to_json_dict(self):
        return {"name": self.name, "parameters": self.parameters,
                "estimates": [asdict(e) for e in self.estimates],
                "rate_fit": asdict(self.rate_fit) if self.rate_fit else None,
                "verdict": self.verdict, "seeds": self.seeds,
                "thresholds": [asdict(t) for t in self.thresholds],
                "notes": list(self.notes)}

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def write_csv(self, fileobj):
        fileobj.write("label,value,ci_halfwidth,n,kind\n")
        for e in self.estimates:
            fileobj.write(f"{e.label},{e.value!r},{e.ci_halfwidth!r},{e.n},{e.kind}\n")


def mean_ci(samples):
    """Sample mean with 1.96 * std / sqrt(N) halfwidth."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    m = float(np.mean(samples))
    if n < 2:
        return m, float("inf")
    sd = float(np.std(samples, ddof=1))
    return m, Z95 * sd / np.sqrt(n)


def wilson(k, n, z=Z95):
    """Wilson score interval for a proportion, clipped to [0, 1].

    Returns (center, halfwidth) of the clipped interval.
    """
    if n == 0:
        return 0.5, 0.5
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = max(center - half, 0.0)
    hi = min(center + half, 1.0)
    return float(0.5 * (lo + hi)), float(0.5 * (hi - lo))


def _fit(xs, ys):
    """Least-squares line (slope, intercept, r2); a line needs two distinct
    x values."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    distinct = len(np.unique(xs))
    if distinct < 2:
        raise ValueError(f"a line fit needs two distinct x values, got "
                         f"{distinct}")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def loglog_fit(scales, values, kind="log2_vs_log2"):
    """Least squares on (log2 scale, log2 value)."""
    xs = np.log2(np.asarray(scales, dtype=float))
    ys = np.log2(np.asarray(values, dtype=float))
    slope, intercept, r2 = _fit(xs, ys)
    return RateFit(slope, intercept, r2,
                   [[float(a), float(b)] for a, b in zip(xs, ys)], kind=kind)


def _rate_levels(levels):
    """Sorted dyadic levels of a rate experiment: its fit needs two."""
    levels = sorted(int(n) for n in levels)
    if len(set(levels)) < 2:
        raise ValueError("a rate fit over levels needs two distinct levels")
    return levels


def nondecreasing_within_ci(stats):
    """Whether each of the (value, CI halfwidth) pairs `stats` is at least
    its predecessor less both halfwidths."""
    return all(b >= a - (ha + hb) for (a, ha), (b, hb) in zip(stats, stats[1:]))


def nonincreasing_within_ci(stats):
    return all(b <= a + (ha + hb) for (a, ha), (b, hb) in zip(stats, stats[1:]))


# ---------------------------------------------------------------------------
# Deterministic chunked parallelism
# ---------------------------------------------------------------------------


def _chunks(n_items, chunk=CHUNK):
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def parallel_chunks(fn, n_items, workers, payload, chunk=CHUNK, rows=()):
    """Run fn(lo, hi, payload) over fixed chunks; results in chunk order.

    Chunk boundaries depend only on n_items, never on the worker count, so
    merged results are identical for any workers value.  Payload entries
    named in `rows` hold one row per item; a chunk gets only its own rows.
    """
    parts = [(lo, hi, {**payload, **{k: payload[k][lo:hi] for k in rows}})
             for lo, hi in _chunks(n_items, chunk)]
    if workers is None or workers <= 1 or len(parts) <= 1:
        return [fn(*part) for part in parts]
    # imported here: a serial run never pays for the pool module's import.
    # numpy.random is imported before the pool starts, so that a forked
    # worker inherits it instead of importing it on its first draw; under
    # the spawn and forkserver start methods the import is only the parent's
    from concurrent.futures import ProcessPoolExecutor
    import numpy.random  # noqa: F401
    with ProcessPoolExecutor(max_workers=int(workers)) as ex:
        futures = [ex.submit(fn, *part) for part in parts]
        return [f.result() for f in futures]


def _joined(parts):
    """Each key's arrays of the chunk results `parts`, concatenated along
    the first axis in chunk order."""
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _path_streams(seed, lo, hi):
    """One generator re-keyed, path by path, to the stream of each path
    lo..hi-1: yields (j, gen) with gen at the start of path lo + j's
    stream.  The Philox keys of all paths are derived at once."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh stream: zero counter, empty buffer
    for j, key in enumerate(pth.stream_keys(seed, lo, hi)):
        state["state"]["key"] = key
        bitgen.state = state
        yield j, gen


def brownian_batch(d1, times, seed, lo, hi):
    """Driver values for paths lo..hi-1, one stream per path index.

    Each path fills its own row in place from `_path_streams`, and the
    whole batch is then scaled and summed at once.  That gives the bits of
    `paths.brownian_increments` path by path.
    """
    W = np.zeros((hi - lo, len(times), d1))
    Z = W[:, 1:]
    for j, gen in _path_streams(seed, lo, hi):
        gen.standard_normal(out=Z[j])
    Z *= np.sqrt(np.diff(np.asarray(times, dtype=float)))[:, None]
    np.cumsum(Z, axis=1, out=Z)
    return W


class PathChunk:
    """Paths lo..hi-1 of a run_paths call, as its chunk function sees them.

    Carries the restored domain and coefficients, the control h (or None),
    the shared grid `times` and start `x0`, the drivers W (hi - lo, N, d1),
    given or drawn by path index, `lo`, and each extra entry of the call as
    an attribute of the same name.
    """

    def __init__(self, payload, lo, hi):
        self.domain = make_domain(**payload["domain"])
        cf = payload["coeffs"]
        self.coeffs = cf if isinstance(cf, rsde.Coefficients) \
            else make_coefficients(**cf)
        self.h = payload["h"]
        self.times = payload["times"]
        self.x0 = np.asarray(payload["x0"], dtype=float)
        self.lo = lo
        self.__dict__.update(payload["extra"])
        self.W = payload["W"] if payload["W"] is not None else brownian_batch(
            self.coeffs.d1, self.times, payload["seed"], lo, hi)

    def euler(self, record=("x",), stride=1):
        """Reflected-Euler solution of these paths, the reference solve,
        keeping the arrays named in `record` at every stride-th node."""
        # increments differenced straight into the step-major layout the
        # solver reads, so it makes no second copy
        V = np.moveaxis(self.W, 0, -1)
        dW = np.subtract(V[1:], V[:-1], order="C")
        return rsde.euler_reflected_batch(self.domain, self.coeffs, self.times,
                                          np.moveaxis(dW, -1, 0), self.x0,
                                          record, stride)


def _path_chunk(lo, hi, payload):
    return payload["fn"](PathChunk(payload, lo, hi))


def run_paths(fn, drivers, workers, domain, coeffs, times, x0, seed, h=None,
              **extra):
    """Run fn(PathChunk) over the fixed chunks of the driver paths.

    drivers is a path count (each path drawn from `seed` by its index) or
    driver values (P, N, d1) on `times`.  fn must be a module-level function
    (it is pickled into pool workers) returning a dict of arrays.  The
    result maps each key to its arrays concatenated along the first axis in
    chunk order, so it is the same for any worker count.  Unnamed
    coefficients cannot cross process boundaries, so such runs stay serial.
    """
    if coeffs.meta is None:
        workers, cf = 1, coeffs
    else:
        cf = dict(coeffs.meta, d=coeffs.d, d1=coeffs.d1)
    W = None if np.ndim(drivers) == 0 else np.asarray(drivers, dtype=float)
    n, rows = (int(drivers), ()) if W is None else (len(W), ("W",))
    payload = {"fn": fn, "domain": domain.to_config(), "coeffs": cf, "h": h,
               "times": times, "x0": np.atleast_1d(x0), "seed": int(seed),
               "W": W, "extra": extra}
    return _joined(parallel_chunks(_path_chunk, n, workers, payload,
                                   rows=rows))


def _sup_dist(A, B=None):
    """Per-path sup_t |A_t - B_t| for arrays (P, N, d) against (N, d) or
    (P, N, d), or sup_t |A_t| when B is None.

    One sqrt per path: sqrt is monotone and correctly rounded, so this is
    the max of the node norms bit for bit."""
    return np.sqrt(np.max(pth._sq_norm(A if B is None else A - B), axis=-1))


# ---------------------------------------------------------------------------
# Wong-Zakai convergence (strong limit of the adapted scheme)
# ---------------------------------------------------------------------------


def _wz_chunk(c):
    ref = c.euler().x
    out = {}
    # every level and substep refinement in one batch: rows
    # refinement-major, then level-major
    subs = (c.substeps, 2 * c.substeps) if c.check_substeps else (c.substeps,)
    x = rsde.wong_zakai_batch(c.domain, c.coeffs, c.times, c.W, c.levels,
                              subs, c.x0).x
    for tag, xs in zip(("err", "err2x"), np.split(x, len(subs))):
        for n, err in zip(c.levels, np.split(xs, len(c.levels))):
            # the error x^n - ref, formed once where x^n was: nothing reads
            # x^n again, and both statistics square its differences, so
            # they have the bits of ref - x^n
            np.subtract(err, ref, out=err)
            out[(tag, n)] = _sup_dist(err)
            if tag == "err":
                out[("holder", n)] = out[(tag, n)] + np.sqrt(pth.lag_scan_sq(
                    c.times, err, c.theta, pth.dyadic_lags(len(c.times))))
    del x, xs, err
    crn_ok = True
    if c.lo == 0:
        # CRN discipline: the level-n driver must be a restriction of the
        # fine driver, never a re-simulation
        p0 = pth.SamplePath(c.times, c.W[0])
        for n in c.levels:
            nodes = pth.dyadic_grid(c.times[-1], n)
            idx = pth.node_indices(c.times, nodes)
            crn_ok &= bool(np.array_equal(p0.restrict(nodes).values,
                                          c.W[0][idx]))
    out["crn_ok"] = np.array([crn_ok])
    return out


def wz_convergence(domain, coeffs, x0, T, levels, paths, seed, substeps=4,
                   workers=1, check_substeps=True, min_slope=0.25, min_r2=0.9,
                   theta=0.2):
    """Common-random-number estimates of E sup|X - X^n| per level with a
    log-log rate fit in the dyadic mesh.

    The theta-Holder distance per level is reported as a supplementary
    statistic (dyadic-lag lower bound); pass/fail anchors on sup distances.
    """
    levels = _rate_levels(levels)
    nf = max(levels) + 1
    times = pth.dyadic_grid(T, nf)
    res = run_paths(_wz_chunk, paths, workers, domain, coeffs, times, x0, seed,
                    levels=levels, substeps=int(substeps),
                    check_substeps=bool(check_substeps), theta=float(theta))
    report = ExperimentReport(
        name="wz_convergence",
        parameters={"T": T, "levels": levels, "paths": int(paths),
                    "substeps": int(substeps), "fine_level": nf,
                    "x0": np.atleast_1d(x0).tolist(), "theta": float(theta),
                    "check_substeps": bool(check_substeps),
                    "holder_method": "dyadic_lower_bound"},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("min_rate_slope", min_slope, "policy"),
                    Threshold("min_r2", min_r2, "policy"),
                    Threshold("strict_decrease", 1.0, "theory")])
    means = []
    ok_substeps = True
    for n in levels:
        m, ci = report.add_mean(f"E_sup_err_level_{n}", res[("err", n)])
        means.append(m)
        report.add_mean(f"E_holder_err_level_{n}", res[("holder", n)],
                        kind="statistic")
        if check_substeps:
            m2, _ = report.add_mean(f"E_sup_err_level_{n}_substeps2x",
                                    res[("err2x", n)])
            ok_substeps &= abs(m2 - m) < max(ci, 1e-15)
    if max(means) < 1e-300:
        report.verdict = "degenerate"
        report.notes.append("scheme error vanished identically at all levels")
        return report
    meshes = [T * 2.0 ** (-n) for n in levels]
    report.rate_fit = loglog_fit(meshes, means)
    decreasing = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    crn_all = bool(np.all(res["crn_ok"]))
    report.notes.append(f"crn_restriction_check={'ok' if crn_all else 'FAILED'}")
    if check_substeps:
        report.notes.append(f"substep_insensitive={'yes' if ok_substeps else 'no'}")
    good = decreasing and report.rate_fit.slope >= min_slope \
        and report.rate_fit.r2 >= min_r2 and ok_substeps and crn_all
    report.verdict = "pass" if good else "fail"
    return report


# ---------------------------------------------------------------------------
# Skeleton convergence for the shifted driver
# ---------------------------------------------------------------------------


def _skeleton_chunk(c):
    batch = rsde.shifted_driver_batch(c.domain, c.coeffs, c.times, c.W,
                                      c.levels, c.h, c.x0)
    out = {}
    for n, x in zip(c.levels, np.split(batch.x, len(c.levels))):
        diff = x - c.Z[None]
        out[("supsq", n)] = np.max(np.sum(diff ** 2, axis=2), axis=1)
        # one row per chunk: the chunk's sum over its paths
        out[("nodesq_sum", n)] = np.sum(
            np.sum(diff[:, c.node_idx[n]] ** 2, axis=2), axis=0, keepdims=True)
    return out


def skeleton_convergence(domain, coeffs, x0, T, h, levels, paths, seed,
                         substeps=4, theta=0.5, workers=1,
                         decay_factor=0.5, stability_factor=2.0):
    """Per-level E sup|Y^n - Z|^2 plus the grid-node statistic
    sup_k E|Y^n_{t_k} - Z_{t_k}|^2 compared against mesh^(theta/2) plus the
    control modulus sup_k (integral of |h'|^2 over two adjacent cells)^(1/2)."""
    levels = _rate_levels(levels)
    nf = max(levels) + 1
    times = pth.dyadic_grid(T, nf)
    Zsol = rsde.skeleton(domain, coeffs, h, substeps, np.atleast_1d(x0),
                         grid=times)
    node_idx = {n: pth.node_indices(times, pth.dyadic_grid(T, n))
                for n in levels}
    res = run_paths(_skeleton_chunk, paths, workers, domain, coeffs, times, x0,
                    seed, h, levels=levels, Z=Zsol.x.values, node_idx=node_idx)
    report = ExperimentReport(
        name="skeleton_convergence",
        parameters={"T": T, "levels": levels, "paths": int(paths),
                    "substeps": int(substeps), "theta": theta,
                    "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("decay_factor", decay_factor, "policy"),
                    Threshold("node_constant_stability", stability_factor,
                              "policy")])
    sup_means, constants = [], []
    for n in levels:
        vals = res[("supsq", n)]
        sup_means.append(report.add_mean(f"E_supsq_level_{n}", vals)[0])
        node_mean = np.sum(res[("nodesq_sum", n)], axis=0) / len(vals)
        node_stat = float(np.max(node_mean))
        nodes = pth.dyadic_grid(T, n)
        modulus = max(np.sqrt(h.window_energy(nodes[k - 2], nodes[k]))
                      for k in range(2, len(nodes)))
        bound = (T * 2.0 ** (-n)) ** (theta / 2.0) + modulus
        constants.append(node_stat / bound)
        report.add(f"node_supmeansq_level_{n}", node_stat, n=len(vals))
        report.add(f"control_modulus_level_{n}", modulus)
        report.add(f"node_constant_level_{n}", constants[-1], n=len(vals))
    decay_ok = sup_means[-1] <= decay_factor * sup_means[0]
    # stability per refinement: the constant must move by less than the
    # factor from one level to the next (a growing sequence would falsify
    # the node bound; the bound itself is not tight, so the constant may
    # drift down over many levels)
    ratios = [constants[i + 1] / constants[i] for i in range(len(constants) - 1)]
    stable_ok = all(1.0 / stability_factor <= r <= stability_factor
                    for r in ratios)
    report.rate_fit = loglog_fit([T * 2.0 ** (-n) for n in levels], sup_means)
    report.verdict = "pass" if (decay_ok and stable_ok) else "fail"
    report.notes.append(f"decay_ok={decay_ok} node_constant_stable={stable_ok}")
    return report


# ---------------------------------------------------------------------------
# Tube-conditioned sampling machinery (shared by three experiments)
# ---------------------------------------------------------------------------


def _tube_pool(reduce, block0, n, workers, payload):
    """Tube blocks block0 .. block0 + n - 1 of a `paths.tube_payload`
    through `reduce` (`paths.tube_block` or `_levy_blocks`, passed as it is
    so a `parallel_chunks` wrapper sees its name), 8 blocks to a chunk:
    each key's per-hit arrays in block order, the same for any workers."""
    return _joined(parallel_chunks(reduce, n, workers,
                                   {**payload, "block0": block0}, chunk=8))


# ---------------------------------------------------------------------------
# Approximate continuity (conditional concentration near the skeleton)
# ---------------------------------------------------------------------------


def _tracking_chunk(c):
    # sup distances of the state and the regulator from the pair (Y, L)
    batch = c.euler(("x", "k"))
    return {"state": _sup_dist(batch.x, c.Y),
            "regulator": _sup_dist(batch.k, c.L)}


def approx_continuity(domain, coeffs, x0, T, h, epsilon, deltas,
                      target_accepted, seed, grid_level=9, substeps=4,
                      workers=1, max_attempts=50_000_000, final_min=0.9):
    """Conditional probabilities that the diffusion tracks the deterministic
    pair (Y, l) of h, given the driver stays in a shrinking tube around h."""
    deltas = [float(d) for d in deltas]
    if any(deltas[i + 1] >= deltas[i] for i in range(len(deltas) - 1)):
        raise ValueError("deltas must decrease")
    times = pth.dyadic_grid(T, grid_level)
    Ysol = rsde.skeleton(domain, coeffs, h, substeps, np.atleast_1d(x0),
                         grid=times)
    href = np.atleast_2d(h(times))
    report = ExperimentReport(
        name="approx_continuity",
        parameters={"T": T, "epsilon": epsilon, "deltas": deltas,
                    "target_accepted": int(target_accepted),
                    "grid_level": grid_level, "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed),
               "streams": "delta index, block, time-major",
               "rng": "philox"},
        thresholds=[Threshold("final_state_min", final_min, "policy"),
                    Threshold("limit_probability", 1.0, "theory")])
    stats = {"joint": [], "state": [], "regulator": []}
    target = int(target_accepted)
    for di, delta in enumerate(deltas):
        # the first `target` hits in (block, row) order: a pilot block, then
        # rounds of blocks sized by the pilot's acceptance
        payload = pth.tube_payload(coeffs.d1, TUBE_BLOCK, times, href, delta,
                                   di, seed, 0xAC)
        found = [_tube_pool(pth.tube_block, 0, 1, workers, payload)["W"]]
        got, blocks = len(found[0]), 1
        acc = got / TUBE_BLOCK
        if acc * max_attempts < target:
            raise TubeTooNarrow(
                f"pilot acceptance {acc:.2e} cannot reach {target} hits "
                f"within {max_attempts} attempts (delta={delta})",
                acceptance_estimate=acc, attempts=TUBE_BLOCK)
        while got < target:
            n = int(np.ceil((target - got) / max(acc, 1e-12) / TUBE_BLOCK
                            * 1.2)) + 1
            found.append(_tube_pool(pth.tube_block, blocks, n, workers,
                                    payload)["W"])
            got, blocks = got + len(found[-1]), blocks + n
            if blocks * TUBE_BLOCK > max_attempts:
                raise TubeTooNarrow(
                    f"attempt budget exhausted at {got}/{target} hits "
                    f"(delta={delta})", acceptance_estimate=acc,
                    attempts=blocks * TUBE_BLOCK)
        W, attempts = np.concatenate(found)[:target], blocks * TUBE_BLOCK
        dist = run_paths(_tracking_chunk, W, workers, domain, coeffs, times,
                         x0, seed, Y=Ysol.x.values, L=Ysol.k.values)
        dist_state, dist_reg = dist["state"], dist["regulator"]
        for label, hits in (("state", dist_state < epsilon),
                            ("regulator", dist_reg < epsilon),
                            ("joint", dist_state + dist_reg < epsilon)):
            stats[label].append(
                report.add_proportion(f"P_{label}_delta_{delta}", hits))
        report.notes.append(
            f"delta={delta}: accepted={len(W)} attempts={attempts} "
            f"acceptance={acc:.3e}")
    mono = all(nondecreasing_within_ci(stats[ch])
               for ch in ("state", "regulator"))
    final_ok = stats["state"][-1][0] >= final_min
    report.verdict = "pass" if (mono and final_ok) else "fail"
    return report


# ---------------------------------------------------------------------------
# Moment scaling in the window length
# ---------------------------------------------------------------------------


def _window_osc_sq(x, lo, hi):
    """Squared oscillation per path over node window [lo, hi]; exact for
    1-d values, dyadic-lag lower bound otherwise."""
    v = x[:, lo:hi + 1]
    if v.shape[2] == 1:
        return (np.max(v[..., 0], axis=1) - np.min(v[..., 0], axis=1)) ** 2
    return pth.lag_scan_sq(None, v, 0.0, pth.dyadic_lags(v.shape[1]))


def _moment_chunk(c):
    batch = c.euler(("x", "tv"))
    out = {}
    for j, (ilo, ihi) in enumerate(c.windows_idx):
        out[("x", j)] = _window_osc_sq(batch.x, ilo, ihi) ** c.p
        out[("k", j)] = (batch.tv[:, ihi] - batch.tv[:, ilo]) ** (2 * c.p)
    return out


def moment_scaling(domain, coeffs, x0, windows, p, paths, seed, workers=1,
                   grid_points_min=128, slope_band=(0.8, None)):
    """Fitted exponents of E osc(X)^{2p} and E (|K| variation)^{2p} versus
    window length.

    The default pass rule is one-sided (exponent >= 0.8 p): faster decay
    never violates the moment upper bound.  A finite upper band entry turns
    the check two-sided for configurations where the scaling is sharp.
    """
    windows = [(float(s), float(t)) for s, t in windows]
    spans = [t - s for s, t in windows]
    if len(set(spans)) < 2:
        raise ValueError("moment_scaling fits exponents over window lengths: "
                         "it needs two distinct lengths")
    tmax = max(t for _, t in windows)
    span_min = min(spans)
    mesh = span_min / grid_points_min
    n_cells = int(np.ceil(tmax / mesh))
    times = np.linspace(0.0, tmax, n_cells + 1)
    widx = [(int(np.argmin(np.abs(times - s))), int(np.argmin(np.abs(times - t))))
            for s, t in windows]
    res = run_paths(_moment_chunk, paths, workers, domain, coeffs, times, x0,
                    seed, p=float(p), windows_idx=widx)
    report = ExperimentReport(
        name="moment_scaling",
        parameters={"windows": [list(w) for w in windows], "p": p,
                    "paths": int(paths), "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("slope_low", slope_band[0] * p, "policy"),
                    Threshold("moment_exponent", float(p), "theory")])
    if slope_band[1] is not None:
        report.thresholds.append(Threshold("slope_high", slope_band[1] * p,
                                           "policy"))
    slopes = {}
    degenerate = False
    for tag, label in (("x", "osc_moment"), ("k", "regulator_moment")):
        means = []
        for j in range(len(windows)):
            means.append(report.add_mean(f"{label}_window_{j}",
                                         res[(tag, j)])[0])
        if max(means) < 1e-300:
            degenerate = True
            continue
        fit = loglog_fit(spans, means)
        slopes[label] = fit
        report.add(f"{label}_slope", fit.slope, n=int(paths))
        report.notes.append(f"{label}: slope={fit.slope:.3f} r2={fit.r2:.3f}")
    if degenerate:
        report.verdict = "degenerate"
        report.notes.append("a moment family vanished identically")
        return report
    report.rate_fit = slopes["osc_moment"]
    lo = slope_band[0] * p
    hi = np.inf if slope_band[1] is None else slope_band[1] * p
    report.verdict = "pass" if all(lo <= f.slope <= hi for f in slopes.values()) \
        else "fail"
    return report


# ---------------------------------------------------------------------------
# Exponential integrability of the regulator
# ---------------------------------------------------------------------------


def _tail_chunk(c):
    # tv recorded at the first and last node only, and copied, so no
    # result is a view
    return {"kT": c.euler(("tv",), len(c.times) - 1).tv[:, -1].copy()}


def exp_tail(domain, coeffs, x0, T, paths, seed, grid_level=9, workers=1,
             survival_range=(0.1, 0.001), n_points=10, oracle_coefficient=None,
             oracle_factor=2.0):
    """Quadratic fit of -log survival of |K|_T against k^2 over the upper
    decade of the sample; a positive coefficient evidences a Gaussian-type
    squared-exponential tail."""
    times = pth.dyadic_grid(T, grid_level)
    kT = run_paths(_tail_chunk, paths, workers, domain, coeffs, times, x0,
                   seed)["kT"]
    report = ExperimentReport(
        name="exp_tail",
        parameters={"T": T, "paths": int(paths), "grid_level": grid_level,
                    "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("quadratic_coefficient_positive", 0.0, "theory")])
    report.add_mean("mean_KT", kT)
    if float(np.std(kT)) < 1e-12:
        report.verdict = "degenerate"
        report.notes.append("|K|_T is constant; tail fit skipped")
        return report
    lo_s, hi_s = survival_range
    levels = np.geomspace(lo_s, max(hi_s, 10.0 / len(kT)), int(n_points))
    ks = np.quantile(kT, 1.0 - levels)
    surv = np.array([np.mean(kT > k) for k in ks])
    keep = surv > 0
    ks, surv = ks[keep], surv[keep]
    xs, ys = ks ** 2, -np.log(surv)
    if len(np.unique(xs)) < 2:
        report.verdict = "degenerate"
        report.notes.append("upper-decade quantiles of |K|_T coincide; tail "
                            "fit skipped")
        return report
    slope, intercept, r2 = _fit(xs, ys)
    resid = ys - (slope * xs + intercept)
    dof = max(len(xs) - 2, 1)
    se = float(np.sqrt(np.sum(resid ** 2) / dof / np.sum((xs - np.mean(xs)) ** 2)))
    half = Z95 * se
    report.rate_fit = RateFit(slope, intercept, r2,
                              [[float(a), float(b)] for a, b in zip(xs, ys)],
                              kind="neglog_survival_vs_k_sq")
    report.add("quadratic_coefficient", slope, half, len(kT))
    ok = slope > 0 and slope - half > 0
    if oracle_coefficient is not None:
        report.thresholds.append(Threshold("oracle_coefficient",
                                           oracle_coefficient, "theory"))
        ratio = slope / oracle_coefficient
        report.notes.append(f"oracle_ratio={ratio:.3f}")
        ok = ok and (1.0 / oracle_factor <= ratio <= oracle_factor)
    report.verdict = "pass" if ok else "fail"
    return report


# ---------------------------------------------------------------------------
# Small-ball law and conditional iterated-integral bounds
# ---------------------------------------------------------------------------


def _smallball_chunk(lo, hi, payload):
    """sup_t |w_t| of the 1-d paths lo..hi-1, with the bits of
    max |brownian_batch(1, times, seed, lo, hi)| over each path's nodes
    (node 0 included: every |w_t| is at least 0).  Paths are drawn one by
    one into a reused buffer of 16 rows; each full buffer, and the last,
    is scaled, summed and reduced at once."""
    dt_sqrt = np.sqrt(np.diff(np.asarray(payload["times"], dtype=float)))
    buf = np.empty((16, len(dt_sqrt)))
    sup = np.empty(hi - lo)
    for j, gen in _path_streams(payload["seed"], lo, hi):
        r = j % len(buf)
        gen.standard_normal(out=buf[r])
        if r == len(buf) - 1 or j == hi - lo - 1:
            Z = buf[:r + 1]
            Z *= dt_sqrt
            np.cumsum(Z, axis=1, out=Z)
            np.abs(Z, out=Z)
            Z.max(axis=1, out=sup[j - r:j + 1])
    return {"sup": sup}


def _levy_block(block, payload, buf, terms):
    """One Levy pool block (see `paths.tube_draw`) reduced while it is
    drawn: slab by slab, each live candidate's midpoint-rule iterated
    integral of w^1 against dw^2 and its running max of |.| are kept,
    compacted with the live rows.  Returns the hits' sups and their node
    deviations from zero.

    The slab buffer `buf` and the (2, TUBE_SLAB * size) `terms`, which
    hold a slab's midpoints and increments and, before them, its squared
    node deviations, are reused from block to block.  Each term is
    0.5 (w^1_{k-1} + w^1_k) (w^2_k - w^2_{k-1}) and the sum runs from the
    first term on, node by node, so the sups have the bits of
    `paths.levy_sup` on each hit.
    """
    run = top = None

    def consume(live, S, pos, keep):
        nonlocal run, top
        steps, rows, _ = S.shape
        mid = terms[0, :steps * rows].reshape(steps, rows)
        dv = terms[1, :steps * rows].reshape(steps, rows)
        prev0, prev1 = (0.0, 0.0) if pos is None else (pos[:, 0], pos[:, 1])
        np.add(S[0, :, 0], prev0, out=mid[0])
        np.add(S[1:, :, 0], S[:-1, :, 0], out=mid[1:])
        mid *= 0.5
        np.subtract(S[0, :, 1], prev1, out=dv[0])
        np.subtract(S[1:, :, 1], S[:-1, :, 1], out=dv[1:])
        mid *= dv
        if run is not None:
            mid[0] += run
        pth._cumsum_rows(mid)
        run = mid[-1, keep]
        np.abs(mid, out=mid)
        high = mid.max(axis=0)
        if top is not None:
            np.maximum(high, top, out=high)
        top = high[keep]

    hit, _, dev = pth.tube_draw(payload, block, buf, terms, consume)
    return top[hit], dev


def _levy_blocks(lo, hi, payload):
    """Tube-conditioned iterated-integral sups for blocks block0 + lo ..
    block0 + hi - 1 of `payload`, with each hit's node deviation from
    zero.  Each block is reduced while it is drawn, in a slab buffer and
    term buffers made once for all the blocks."""
    m = pth.TUBE_SLAB * payload["size"]
    # the pool's only slab-sized memory, the terms doubling as tube_draw's
    # deviation scratch.  One allocation, not two: once it is freed,
    # glibc's dynamic mmap and trim thresholds rise past the heap a call
    # uses, so later calls reuse its pages (two 2.1 MB arrays left 1,757
    # minor faults per tube-levy call, one 4.2 MB array none)
    work = np.empty((2 + payload["d1"]) * m)
    buf, terms = work[:-2 * m], work[-2 * m:].reshape(2, m)
    zeta_sups, devs = zip(*(
        _levy_block(b, payload, buf, terms)
        for b in range(payload["block0"] + lo, payload["block0"] + hi)))
    return {"zeta_sup": np.concatenate(zeta_sups),
            "dev": np.concatenate(devs)}


def smallball_and_levy(T, deltas, M_values, paths, seed, workers=1,
                       grid_level=10, epsilon=0.5, levy_deltas=(0.8, 0.5),
                       levy_attempts=4_000_000, levy_grid_level=7,
                       min_r2=0.95, slope_factor=1.5, min_conditioned=50):
    """1-d small-ball regression of log P(sup|w| < delta) against 1/delta^2,
    plus conditional iterated-integral exceedance proportions in d1 = 2."""
    if any(d <= 0 for d in levy_deltas):
        raise ValueError("levy_deltas must be positive")
    deltas = sorted(float(d) for d in deltas)
    times = pth.dyadic_grid(T, grid_level)
    sups = _joined(parallel_chunks(_smallball_chunk, int(paths), workers,
                                   {"times": times, "seed": int(seed)}))["sup"]
    oracle_slope = -np.pi ** 2 / 8.0 * T
    report = ExperimentReport(
        name="smallball_and_levy",
        parameters={"T": T, "deltas": deltas, "M_values": list(M_values),
                    "paths": int(paths), "grid_level": grid_level,
                    "epsilon": epsilon, "levy_deltas": list(levy_deltas),
                    "levy_attempts": int(levy_attempts),
                    "levy_grid_level": levy_grid_level},
        seeds={"seed": int(seed),
               "streams": "path index / block, time-major, one Levy pool "
                          "for all deltas",
               "rng": "philox"},
        thresholds=[Threshold("smallball_oracle_slope", oracle_slope, "theory"),
                    Threshold("slope_factor", slope_factor, "policy"),
                    Threshold("min_r2", min_r2, "policy")])
    probs, invsq = [], []
    for d in deltas:
        p, _ = report.add_proportion(f"P_smallball_delta_{d}", sups < d)
        if p > 0:
            probs.append(p)
            invsq.append(1.0 / d ** 2)
    if len(set(invsq)) < 2:
        slope_ok = False
        report.notes.append(f"smallball fit needs two hit deltas, got "
                            f"{len(set(invsq))}")
    else:
        slope, intercept, r2 = _fit(invsq, np.log(probs))
        report.rate_fit = RateFit(
            slope, intercept, r2,
            [[float(a), float(np.log(p))] for a, p in zip(invsq, probs)],
            kind="lnP_vs_inverse_delta_sq")
        slope_ok = slope < 0 and r2 >= min_r2 \
            and (1.0 / slope_factor) <= slope / oracle_slope <= slope_factor
        report.notes.append(f"smallball slope={slope:.4f} "
                            f"oracle={oracle_slope:.4f} r2={r2:.4f}")
    # conditional exceedance of the iterated integral, d1 = 2, from one
    # candidate pool drawn at the widest delta: a hit at a narrower delta
    # is a hit at the widest one
    ltimes = pth.dyadic_grid(T, levy_grid_level)
    max_blocks = max(1, int(np.ceil(levy_attempts / TUBE_BLOCK)))
    pool_deltas = sorted((float(d) for d in levy_deltas), reverse=True)
    pool = _tube_pool(_levy_blocks, 0, max_blocks, workers,
                      pth.tube_payload(2, TUBE_BLOCK, ltimes, None,
                                       pool_deltas[0], 0, seed, 0x1E))
    zeta, dev = pool["zeta_sup"], pool["dev"]
    report.notes.append(f"levy pool: {max_blocks * TUBE_BLOCK} candidates "
                        f"drawn once at delta={pool_deltas[0]} serve every "
                        f"delta")
    levy_ok = True
    prop_eps = []
    for delta in pool_deltas:
        zsups = zeta[dev < delta]
        n = len(zsups)
        report.notes.append(f"levy delta={delta}: conditioned samples={n} of "
                            f"{max_blocks * TUBE_BLOCK} attempts")
        if n < min_conditioned:
            levy_ok = False
            report.notes.append(f"levy delta={delta}: too few hits")
            continue
        series = [report.add_proportion(f"P_zeta_gt_{M}delta_delta_{delta}",
                                        zsups > M * delta)[0]
                  for M in M_values]
        levy_ok &= all(series[i + 1] <= series[i]
                       for i in range(len(series) - 1)) \
            and series[-1] < series[0]
        prop_eps.append(report.add_proportion(
            f"P_zeta_gt_eps_sqrtdelta_delta_{delta}",
            zsups > epsilon * np.sqrt(delta))[0])
    if len(prop_eps) >= 2:
        levy_ok &= all(prop_eps[i + 1] <= prop_eps[i]
                       for i in range(len(prop_eps) - 1))
    report.verdict = "pass" if (slope_ok and levy_ok) else "fail"
    return report


# ---------------------------------------------------------------------------
# Conditional regulator bounds
# ---------------------------------------------------------------------------


def regulator_conditional(domain, coeffs, x0, T, deltas, c3, paths, seed,
                          epsilon=0.5, grid_level=8, workers=1):
    """Conditional proportions of |K|_T >= eps delta^(-1/2) and |K|_T > c3
    given the driver stays in a delta-tube around zero."""
    deltas = sorted((float(d) for d in deltas), reverse=True)
    times = pth.dyadic_grid(T, grid_level)
    report = ExperimentReport(
        name="regulator_conditional",
        parameters={"T": T, "deltas": deltas, "c3": c3, "paths": int(paths),
                    "epsilon": epsilon, "grid_level": grid_level,
                    "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed),
               "streams": "block, time-major, one pool for all deltas",
               "rng": "philox"},
        thresholds=[Threshold("limit_probability", 0.0, "theory")])
    props = {"scaled": [], "fixed": []}
    # one candidate pool at the widest delta, integrated once; each
    # narrower delta takes the hits that deviate less than it
    max_blocks = max(1, int(np.ceil(paths / TUBE_BLOCK)))
    pool = _tube_pool(pth.tube_block, 0, max_blocks, workers,
                      pth.tube_payload(coeffs.d1, TUBE_BLOCK, times, None,
                                       deltas[0], 0, seed, 0x4E6))
    W, dev = pool["W"], pool["dev"]
    kT_pool = run_paths(_tail_chunk, W, workers, domain, coeffs, times, x0,
                        seed)["kT"] if len(W) else np.zeros(0)
    for delta in deltas:
        kT = kT_pool[dev < delta]
        n = len(kT)
        if n == 0:
            report.notes.append(f"delta={delta}: no tube hits")
            continue
        for label, exceed in (("scaled", kT >= epsilon * delta ** -0.5),
                              ("fixed", kT > c3)):
            props[label].append(
                report.add_proportion(f"P_K_{label}_delta_{delta}", exceed))
        report.notes.append(f"delta={delta}: conditioned samples={n}")
    ok = all(nonincreasing_within_ci(p) for p in props.values())
    report.verdict = "pass" if ok else "fail"
    return report


# ---------------------------------------------------------------------------
# Holder tightness of the approximating laws
# ---------------------------------------------------------------------------


def _holder_chunk(c):
    def scan(x):
        # every stacked level in one scan (rows scan alone); each level's
        # slice copied, so no result is a view
        return [s.copy() for s in np.split(
            pth.holder_seminorm_batch(c.times, x, c.theta), len(c.levels))]

    # each batch is dropped once scanned, before the next solve
    out = dict(zip(c.levels, scan(rsde.wong_zakai_batch(
        c.domain, c.coeffs, c.times, c.W, c.levels, c.substeps, c.x0).x)))
    if c.h is not None:
        out.update(zip([("shifted", n) for n in c.levels],
                       scan(rsde.shifted_driver_batch(
                           c.domain, c.coeffs, c.times, c.W, c.levels, c.h,
                           c.x0).x)))
    return out


def holder_tightness(domain, coeffs, x0, T, theta, levels, paths, seed,
                     substeps=4, workers=1, stability_factor=2.0,
                     critical_theta=0.25, h=None):
    """Per-level means and upper quantiles of the theta-Holder seminorm of
    the adapted approximations; tightness shows as level means staying
    within a fixed factor.  With a control h the shifted-driver solutions
    are measured alongside (their seminorms share the same uniform bound)."""
    levels = sorted(int(n) for n in levels)
    nf = max(levels) + 1
    times = pth.dyadic_grid(T, nf)
    if len(times) > pth.HOLDER_EXACT_LIMIT:
        raise ValueError("fine grid too large for the exact Holder scan")
    res = run_paths(_holder_chunk, paths, workers, domain, coeffs, times, x0,
                    seed, h, theta=float(theta), levels=levels,
                    substeps=int(substeps))
    report = ExperimentReport(
        name="holder_tightness",
        parameters={"T": T, "theta": theta, "levels": levels,
                    "paths": int(paths), "x0": np.atleast_1d(x0).tolist(),
                    "holder_method": "exact"},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("stability_factor", stability_factor, "policy"),
                    Threshold("critical_theta", critical_theta, "theory")])
    means = []
    for n in levels:
        vals = res[n]
        means.append(report.add_mean(f"holder_mean_level_{n}", vals)[0])
        report.add(f"holder_q95_level_{n}", float(np.quantile(vals, 0.95)),
                   n=len(vals), kind="quantile")
        if h is not None:
            report.add_mean(f"holder_shifted_mean_level_{n}",
                            res[("shifted", n)])
    spread = max(means) / max(min(means), 1e-300)
    report.add("level_mean_spread", spread, n=int(paths))
    if theta >= critical_theta:
        report.verdict = "near-critical"
        report.notes.append(f"theta={theta} is outside the tight window "
                            f"(0, {critical_theta}); spread reported, not judged")
    else:
        report.verdict = "pass" if spread <= stability_factor else "fail"
    return report


# ---------------------------------------------------------------------------
# Support inclusions
# ---------------------------------------------------------------------------


def _forward_chunk(c):
    # the skeleton of a path's adapted control H_n is its level-n
    # Wong-Zakai solution
    batch = rsde.wong_zakai_batch(c.domain, c.coeffs, c.times, c.W, c.n,
                                  c.substeps, c.x0)
    return {"dist": _sup_dist(c.euler().x, batch.x)}


def _reverse_chunk(c):
    return {"dist": _sup_dist(c.euler().x, c.Z)}


def support_inclusions(domain, coeffs, x0, T, h, n, epsilon, paths, seed,
                       substeps=4, workers=1, reverse_paths=None,
                       reverse_grid_level=9, forward_p95_limit=None):
    """Forward: the diffusion sits near the skeleton of its own adapted
    control.  Reverse: the diffusion enters an epsilon-ball of a target
    skeleton with positive empirical probability."""
    times = pth.dyadic_grid(T, int(n) + 1)
    dist = run_paths(_forward_chunk, paths, workers, domain, coeffs, times, x0,
                     seed, n=int(n), substeps=int(substeps))["dist"]
    report = ExperimentReport(
        name="support_inclusions",
        parameters={"T": T, "n": int(n), "epsilon": epsilon,
                    "paths": int(paths),
                    "reverse_paths": int(reverse_paths or paths),
                    "x0": np.atleast_1d(x0).tolist()},
        seeds={"seed": int(seed), "streams": "path index", "rng": "philox"},
        thresholds=[Threshold("reverse_hits_min", 1.0, "theory")])
    p95 = float(np.quantile(dist, 0.95))
    report.add_mean("forward_mean", dist)
    report.add("forward_p95", p95, n=len(dist), kind="quantile")
    ok = True
    if forward_p95_limit is not None:
        report.thresholds.append(Threshold("forward_p95_limit",
                                           forward_p95_limit, "policy"))
        ok &= p95 <= forward_p95_limit
    # reverse inclusion: unconditioned hit count near the skeleton of h
    rtimes = pth.dyadic_grid(T, reverse_grid_level)
    Z = rsde.skeleton(domain, coeffs, h, substeps, np.atleast_1d(x0),
                      grid=rtimes)
    rdist = run_paths(_reverse_chunk, reverse_paths or paths, workers, domain,
                      coeffs, rtimes, x0, int(seed) + 1, Z=Z.x.values)["dist"]
    hit = rdist < epsilon
    hits = int(np.sum(hit))
    report.add("reverse_hit_count", float(hits), n=len(rdist))
    report.add_proportion("reverse_hit_proportion", hit)
    ok &= hits >= 1
    report.notes.append("tube-conditioned counterpart of the reverse "
                        "inclusion: approx_continuity")
    report.verdict = "pass" if ok else "fail"
    return report
