"""Command-line entry point: config parsing, dispatch, report emission.

Configs are sectioned key-value files (INI syntax) with JSON-style literals
for values.  Parsing is strict: unknown sections or keys are rejected, and
the fully resolved configuration (all defaults materialized) is echoed next
to the report so every run is self-describing.

Exit codes: 0 all verdicts pass (informational verdicts such as
"degenerate", "near-critical" and "premise not met" count as non-failures),
1 a verdict failed, 2 configuration error, 3 tube sampling infeasible,
4 numerical error.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import maxprinciple, montecarlo
from .errors import (AmbiguousProjection, ConfigError, GridMismatch,
                     RsdekitError, StartOutsideDomain, TubeTooNarrow)
from .geometry import make_domain
from .paths import (HOLDER_EXACT_LIMIT, linear_control, sine_control,
                    zero_control)
from .rsde import make_coefficients

WORKERS_ENV = "RSDEKIT_WORKERS"

EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_TUBE = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# Experiment catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    anchor: str   # the mathematical claim the experiment checks
    sections: tuple  # config sections required besides [run]/[experiment]
    required: dict   # experiment keys -> validator name
    optional: dict   # experiment keys -> (default, validator name)
    optional_sections: tuple = ()


CATALOG = {
    "wz_convergence": ExperimentSpec(
        "wz_convergence",
        "strong limit of the adapted piecewise-linear driver scheme",
        ("domain", "coefficients"),
        {"T": "pos_float", "x0": "vector", "levels": "int_list",
         "paths": "pos_int"},
        {"substeps": (4, "pos_int"), "check_substeps": (True, "bool"),
         "min_slope": (0.25, "float"), "min_r2": (0.9, "float"),
         "theta": (0.2, "pos_float")}),
    "skeleton_convergence": ExperimentSpec(
        "skeleton_convergence",
        "mean-square convergence of shifted-driver solutions to the skeleton",
        ("domain", "coefficients", "control"),
        {"T": "pos_float", "x0": "vector", "levels": "int_list",
         "paths": "pos_int"},
        {"substeps": (4, "pos_int"), "theta": (0.5, "pos_float"),
         "decay_factor": (0.5, "pos_float"),
         "stability_factor": (2.0, "pos_float")}),
    "approx_continuity": ExperimentSpec(
        "approx_continuity",
        "conditional concentration near the skeleton on shrinking tubes",
        ("domain", "coefficients", "control"),
        {"T": "pos_float", "x0": "vector", "epsilon": "pos_float",
         "deltas": "decreasing_floats", "target_accepted": "pos_int"},
        {"grid_level": (9, "pos_int"), "substeps": (4, "pos_int"),
         "max_attempts": (50_000_000, "pos_int"),
         "final_min": (0.9, "float")}),
    "moment_scaling": ExperimentSpec(
        "moment_scaling",
        "window-length scaling of oscillation and regulator moments",
        ("domain", "coefficients"),
        {"windows": "window_list", "p": "pos_float", "x0": "vector",
         "paths": "pos_int"},
        {"grid_points_min": (128, "pos_int"),
         "slope_band": ((0.8, None), "band")}),
    "exp_tail": ExperimentSpec(
        "exp_tail",
        "squared-exponential integrability of the regulator total variation",
        ("domain", "coefficients"),
        {"T": "pos_float", "x0": "vector", "paths": "pos_int"},
        {"grid_level": (9, "pos_int"),
         "survival_range": ((0.1, 0.001), "pair_float"),
         "n_points": (10, "pos_int"), "oracle_coefficient": (None, "opt_float"),
         "oracle_factor": (2.0, "pos_float")}),
    "smallball_and_levy": ExperimentSpec(
        "smallball_and_levy",
        "Gaussian small-ball law and conditional iterated-integral bounds",
        (),
        {"T": "pos_float", "deltas": "float_list", "M_values": "float_list",
         "paths": "pos_int"},
        {"grid_level": (10, "pos_int"), "epsilon": (0.5, "pos_float"),
         "levy_deltas": ((0.8, 0.5), "pair_float"),
         "levy_attempts": (4_000_000, "pos_int"),
         "levy_grid_level": (7, "pos_int"), "min_r2": (0.95, "float"),
         "slope_factor": (1.5, "pos_float"),
         "min_conditioned": (50, "pos_int")}),
    "regulator_conditional": ExperimentSpec(
        "regulator_conditional",
        "vanishing conditional regulator exceedance on shrinking tubes",
        ("domain", "coefficients"),
        {"T": "pos_float", "x0": "vector", "deltas": "float_list",
         "c3": "pos_float", "paths": "pos_int"},
        {"epsilon": (0.5, "pos_float"), "grid_level": (8, "pos_int")}),
    "holder_tightness": ExperimentSpec(
        "holder_tightness",
        "uniform Holder tightness of the approximating laws",
        ("domain", "coefficients"),
        {"T": "pos_float", "x0": "vector", "theta": "pos_float",
         "levels": "int_list", "paths": "pos_int"},
        {"substeps": (4, "pos_int"), "stability_factor": (2.0, "pos_float"),
         "critical_theta": (0.25, "pos_float")},
        optional_sections=("control",)),
    "support_inclusions": ExperimentSpec(
        "support_inclusions",
        "two-sided support characterization via skeleton distances",
        ("domain", "coefficients", "control"),
        {"T": "pos_float", "x0": "vector", "n": "pos_int",
         "epsilon": "pos_float", "paths": "pos_int"},
        {"substeps": (4, "pos_int"), "reverse_paths": (None, "opt_int"),
         "reverse_grid_level": (9, "pos_int"),
         "forward_p95_limit": (None, "opt_float")}),
    "submartingale_test": ExperimentSpec(
        "submartingale_test",
        "submartingale property of candidate subharmonic functions",
        ("domain", "coefficients", "u"),
        {"time_grid": "nonneg_floats", "x": "vector", "paths": "pos_int"},
        {"grid_level": (9, "pos_int")}),
    "max_principle": ExperimentSpec(
        "max_principle",
        "boundary-interior maximum principle on the reachable set",
        ("domain", "coefficients", "u"),
        {"n_controls": "pos_int", "horizon": "pos_float", "x": "vector"},
        {"tolerance": (1e-6, "pos_float"), "segments": (8, "pos_int"),
         "slope_max": (4.0, "pos_float"), "substeps": (4, "pos_int")}),
}


# ---------------------------------------------------------------------------
# Value parsing and validation
# ---------------------------------------------------------------------------


def _literal(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_VALIDATORS = {
    "pos_int": lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
    "opt_int": lambda v: v is None or (isinstance(v, int) and v > 0),
    "pos_float": lambda v: _is_num(v) and v > 0,
    "float": lambda v: _is_num(v),
    "opt_float": lambda v: v is None or _is_num(v),
    "bool": lambda v: isinstance(v, bool),
    "vector": lambda v: (_is_num(v)
                         or (isinstance(v, (list, tuple)) and len(v) > 0
                             and all(_is_num(x) for x in v))),
    "int_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(isinstance(x, int) and x >= 0 for x in v),
    "float_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x > 0 for x in v),
    "nonneg_floats": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x >= 0 for x in v),
    "decreasing_floats": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x > 0 for x in v)
    and all(v[i + 1] < v[i] for i in range(len(v) - 1)),
    "pair_float": lambda v: isinstance(v, (list, tuple)) and len(v) == 2
    and all(_is_num(x) for x in v),
    "band": lambda v: isinstance(v, (list, tuple)) and len(v) == 2
    and _is_num(v[0]) and (v[1] is None or _is_num(v[1])),
    "window_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(isinstance(w, (list, tuple)) and len(w) == 2
            and _is_num(w[0]) and _is_num(w[1]) and w[1] > w[0] for w in v),
}

_RUN_KEYS = {"experiment": None, "seed": None, "workers": None, "output": None}
_DOMAIN_KEYS = {"kind", "params", "r0", "c0", "gamma"}
_COEFF_KEYS = {"d", "d1", "sigma", "sigma_params", "b", "b_params"}
_CONTROL_KEYS = {"kind", "params", "grid_level"}
_U_KEYS = {"kind", "params"}


def _check_keys(section, present, allowed):
    for key in present:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")


def parse_config(path, overrides=()):
    """Read, validate, and resolve a config file; returns a nested dict."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not readable")
    raw = {s: {k: _literal(v) for k, v in parser.items(s)}
           for s in parser.sections()}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        loc, val = item.split("=", 1)
        sec, key = loc.split(".", 1)
        raw.setdefault(sec, {})[key] = _literal(val)
    allowed_sections = {"run", "domain", "coefficients", "control", "u",
                        "experiment"}
    for sec in raw:
        if sec not in allowed_sections:
            raise ConfigError(f"unknown section [{sec}]")
    run = raw.get("run", {})
    _check_keys("run", run, _RUN_KEYS)
    name = run.get("experiment")
    if name not in CATALOG:
        raise ConfigError(f"run.experiment must be one of {sorted(CATALOG)}, "
                          f"got {name!r}")
    spec = CATALOG[name]
    if "seed" not in run or not isinstance(run["seed"], int):
        raise ConfigError("run.seed must be an integer")
    workers = run.get("workers", int(os.environ.get(WORKERS_ENV, "1")))
    if not (isinstance(workers, int) and workers >= 1):
        raise ConfigError("run.workers must be a positive integer")
    resolved = {"run": {"experiment": name, "seed": run["seed"],
                        "workers": workers,
                        "output": str(run.get("output", "out"))}}
    for sec in spec.sections:
        if sec not in raw:
            raise ConfigError(f"experiment {name!r} needs section [{sec}]")
    permitted = {"run", "experiment"} | set(spec.sections) \
        | set(spec.optional_sections)
    for sec in raw:
        if sec not in permitted:
            raise ConfigError(f"section [{sec}] is not used by {name!r}")
    # section payloads
    if "domain" in raw:
        _check_keys("domain", raw["domain"], _DOMAIN_KEYS)
        dom = dict(raw["domain"])
        if "kind" not in dom:
            raise ConfigError("domain.kind is required")
        dom.setdefault("params", {})
        if not isinstance(dom["params"], dict):
            raise ConfigError("domain.params must be a mapping")
        resolved["domain"] = dom
    if "coefficients" in raw:
        _check_keys("coefficients", raw["coefficients"], _COEFF_KEYS)
        co = dict(raw["coefficients"])
        for key in ("d", "d1"):
            if not isinstance(co.get(key), int) or co[key] < 1:
                raise ConfigError(f"coefficients.{key} must be a positive integer")
        co.setdefault("sigma", "const")
        co.setdefault("sigma_params", {})
        co.setdefault("b", "const")
        co.setdefault("b_params", {})
        resolved["coefficients"] = co
    if "control" in raw:
        _check_keys("control", raw["control"], _CONTROL_KEYS)
        ctl = dict(raw["control"])
        ctl.setdefault("kind", "zero")
        ctl.setdefault("params", {})
        ctl.setdefault("grid_level", 8)
        if ctl["kind"] not in ("zero", "linear", "sin"):
            raise ConfigError("control.kind must be zero, linear or sin")
        resolved["control"] = ctl
    if "u" in raw:
        _check_keys("u", raw["u"], _U_KEYS)
        uu = dict(raw["u"])
        uu.setdefault("kind", "quadratic")
        uu.setdefault("params", {})
        if uu["kind"] not in ("constant", "quadratic", "linear"):
            raise ConfigError("u.kind must be constant, quadratic or linear")
        resolved["u"] = uu
    # experiment parameters
    exp_raw = dict(raw.get("experiment", {}))
    params = {}
    for key, validator in spec.required.items():
        if key not in exp_raw:
            raise ConfigError(f"experiment.{key} is required for {name!r}")
        val = exp_raw.pop(key)
        if not _VALIDATORS[validator](val):
            raise ConfigError(f"experiment.{key} failed validation "
                              f"({validator}): {val!r}")
        params[key] = val
    for key, (default, validator) in spec.optional.items():
        val = exp_raw.pop(key, default)
        if not _VALIDATORS[validator](val):
            raise ConfigError(f"experiment.{key} failed validation "
                              f"({validator}): {val!r}")
        params[key] = val
    if exp_raw:
        raise ConfigError(f"unknown key {sorted(exp_raw)[0]!r} in "
                          f"section [experiment]")
    if name == "holder_tightness":
        nodes = 2 ** (max(params["levels"]) + 1) + 1  # fine grid: level max + 1
        if nodes > HOLDER_EXACT_LIMIT:
            raise ConfigError(f"experiment.levels: the fine grid would have "
                              f"{nodes} nodes, above the exact Holder scan's "
                              f"limit of {HOLDER_EXACT_LIMIT}")
    resolved["experiment"] = params
    return resolved


# ---------------------------------------------------------------------------
# Object builders
# ---------------------------------------------------------------------------


def _build_domain(cfg):
    return make_domain(cfg["kind"], cfg["params"], cfg.get("r0"),
                       cfg.get("c0"), cfg.get("gamma"))


def _build_coeffs(cfg):
    return make_coefficients(cfg["d"], cfg["d1"], cfg["sigma"],
                             cfg["sigma_params"], cfg["b"], cfg["b_params"])


def _build_control(cfg, T, d1):
    kind = cfg["kind"]
    n_cells = 2 ** int(cfg["grid_level"])
    p = cfg["params"]
    if kind == "zero":
        return zero_control(T, d1, n_cells=n_cells)
    if kind == "linear":
        slope = p.get("slope", [0.5] * d1)
        return linear_control(T, slope, n_cells=n_cells)
    return sine_control(T, amplitude=p.get("amplitude", 1.0),
                        frequency=p.get("frequency", 1.0), dim=d1,
                        axis=int(p.get("axis", 0)), n_cells=n_cells)


def _build_u(cfg):
    kind = cfg["kind"]
    p = cfg["params"]
    if kind == "constant":
        value = float(p.get("value", 1.0))
        return lambda x: value
    if kind == "linear":
        a = np.asarray(p.get("a", [1.0]), dtype=float)
        return lambda x: float(np.dot(a, np.atleast_1d(x)))
    sign = float(p.get("sign", 1.0))
    center = p.get("center")
    def u(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c = np.zeros_like(x) if center is None else np.asarray(center, dtype=float)
        return sign * float(np.sum((x - c) ** 2))
    return u


def run_experiment(resolved):
    """Dispatch a resolved config to its experiment; returns (report, extras)."""
    name = resolved["run"]["experiment"]
    seed = resolved["run"]["seed"]
    workers = resolved["run"]["workers"]
    params = dict(resolved["experiment"])
    kwargs = {"seed": seed, "workers": workers}
    extras = {}
    domain = _build_domain(resolved["domain"]) if "domain" in resolved else None
    coeffs = _build_coeffs(resolved["coefficients"]) \
        if "coefficients" in resolved else None
    if name == "smallball_and_levy":
        report = montecarlo.smallball_and_levy(**params, **kwargs)
    elif name == "submartingale_test":
        u = _build_u(resolved["u"])
        report = maxprinciple.submartingale_test(
            domain, coeffs, u, params.pop("x"), params.pop("time_grid"),
            params.pop("paths"), **params, **kwargs)
    elif name == "max_principle":
        u = _build_u(resolved["u"])
        report, cloud = maxprinciple.max_principle_report(
            domain, coeffs, u, params.pop("x"), params.pop("n_controls"),
            params.pop("horizon"), seed=seed, **params)
        extras["cloud"] = cloud
    else:
        fn = getattr(montecarlo, name)
        if "control" in resolved:
            T = params.get("T", 1.0)
            params["h"] = _build_control(resolved["control"], T, coeffs.d1)
        report = fn(domain, coeffs, **params, **kwargs)
    return report, extras


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _echo_config(resolved, fileobj):
    for sec in sorted(resolved):
        fileobj.write(f"[{sec}]\n")
        for key in sorted(resolved[sec]):
            fileobj.write(f"{key} = {resolved[sec][key]!r}\n")
        fileobj.write("\n")


def write_outputs(report, resolved, extras, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    # workers and output location cannot influence results, so they are kept
    # out of report.json to make it byte-identical across worker counts
    echo = {sec: dict(vals) for sec, vals in resolved.items()}
    echo["run"] = {k: v for k, v in echo["run"].items()
                   if k not in ("workers", "output")}
    doc["resolved_config"] = echo
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    (outdir / "report.json").write_text(payload)
    with open(outdir / "estimates.csv", "w") as f:
        report.write_csv(f)
    with open(outdir / "resolved_config.ini", "w") as f:
        _echo_config(resolved, f)
    if "cloud" in extras:
        with open(outdir / "cloud.csv", "w") as f:
            extras["cloud"].to_csv(f)
    return outdir / "report.json"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def cmd_run(args):
    try:
        resolved = parse_config(args.config, args.set or ())
        if args.seed is not None:
            resolved["run"]["seed"] = args.seed
        if args.workers is not None:
            resolved["run"]["workers"] = args.workers
        if args.output is not None:
            resolved["run"]["output"] = args.output
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dry_run:
        print(f"config ok: experiment {resolved['run']['experiment']!r}")
        return 0
    try:
        report, extras = run_experiment(resolved)
        path = write_outputs(report, resolved, extras,
                             resolved["run"]["output"])
    except TubeTooNarrow as exc:
        print(f"tube sampling infeasible: {exc} "
              f"(pilot acceptance {exc.acceptance_estimate})", file=sys.stderr)
        return EXIT_TUBE
    except (AmbiguousProjection, StartOutsideDomain, GridMismatch,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RsdekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        # a defect, not an outcome: keep it apart from "verdict failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{report.name}: verdict={report.verdict} -> {path}")
    return 0 if report.verdict != "fail" else EXIT_FAIL


def cmd_list(args):
    rows = []
    for name in sorted(CATALOG):
        spec = CATALOG[name]
        rows.append({"name": name, "claim": spec.anchor,
                     "required_keys": sorted(spec.required),
                     "optional_keys": sorted(spec.optional),
                     "sections": list(spec.sections)})
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        for row in rows:
            req = ", ".join(row["required_keys"])
            print(f"{row['name']}: checks {row['claim']}; requires {req}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rsdekit",
        description="simulate and statistically verify normally reflected "
                    "diffusions in nonsmooth domains")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("config")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--workers", type=int, default=None)
    runp.add_argument("--output", default=None)
    runp.add_argument("--dry-run", action="store_true")
    runp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                      help="override a config value")
    runp.set_defaults(func=cmd_run)
    listp = sub.add_parser("list-experiments", help="print the catalog")
    listp.add_argument("--json", action="store_true")
    listp.set_defaults(func=cmd_list)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
