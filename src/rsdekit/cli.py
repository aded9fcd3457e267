"""Command-line entry point: config parsing, dispatch, report emission.

Configs are sectioned key-value files (INI syntax) with JSON-style literals
for values.  Parsing is strict: unknown sections or keys are rejected, and
the fully resolved configuration (all defaults materialized) is echoed next
to the report so every run is self-describing.

Exit codes: 0 all verdicts pass (informational verdicts such as
"degenerate", "near-critical" and "premise not met" count as non-failures),
1 a verdict failed, 2 configuration error (a section value that its
builder rejects included), 3 tube sampling infeasible, 4 numerical error,
5 internal error.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import copy
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import maxprinciple, montecarlo
from .errors import (AmbiguousProjection, ConfigError, GridMismatch,
                     RsdekitError, StartOutsideDomain, TubeTooNarrow,
                     UnsupportedKind)
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
    """What the CLI adds to an experiment's function.  Its [experiment]
    keys, the sections it takes and which of either are required are the
    function's parameters (see `experiment_keys` and `experiment_sections`).
    """

    anchor: str   # the mathematical claim the experiment checks
    rules: dict = field(default_factory=dict)  # key -> rule, where not _RULES


CATALOG = {
    "wz_convergence": ExperimentSpec(
        "strong limit of the adapted piecewise-linear driver scheme",
        {"levels": "two distinct levels"}),
    "skeleton_convergence": ExperimentSpec(
        "mean-square convergence of shifted-driver solutions to the skeleton",
        {"levels": "two distinct levels"}),
    "approx_continuity": ExperimentSpec(
        "conditional concentration near the skeleton on shrinking tubes",
        {"deltas": "decreasing_floats"}),
    "moment_scaling": ExperimentSpec(
        "window-length scaling of oscillation and regulator moments",
        {"windows": "two distinct lengths"}),
    "exp_tail": ExperimentSpec(
        "squared-exponential integrability of the regulator total variation"),
    "smallball_and_levy": ExperimentSpec(
        "Gaussian small-ball law and conditional iterated-integral bounds",
        {"M_values": "two distinct values"}),
    "regulator_conditional": ExperimentSpec(
        "vanishing conditional regulator exceedance on shrinking tubes"),
    "holder_tightness": ExperimentSpec(
        "uniform Holder tightness of the approximating laws",
        {"levels": "levels within the exact Holder scan"}),
    "support_inclusions": ExperimentSpec(
        "two-sided support characterization via skeleton distances"),
    "submartingale_test": ExperimentSpec(
        "submartingale property of candidate subharmonic functions"),
    "max_principle": ExperimentSpec(
        "boundary-interior maximum principle on the reachable set"),
}

# The function behind each experiment, as (module, attribute), where it is
# not montecarlo.<name>.  It is looked up on its module at call time, so a
# wrapper set there is the one called.
_HOMES = {"submartingale_test": (maxprinciple, "submartingale_test"),
          "max_principle": (maxprinciple, "max_principle_report")}
# a **kwargs parameter passes its keys on to this function, whose defaulted
# parameters are then the keys it takes
_FORWARDED = {"cloud_kwargs": (maxprinciple, "reachable_sample")}
# the parameters the CLI fills in itself, by the section each is built from
_SECTION_PARAMS = {"domain": "domain", "coeffs": "coefficients",
                   "h": "control", "u": "u"}
_SUPPLIED = {*_SECTION_PARAMS, "seed", "workers"}
REQUIRED = inspect.Parameter.empty  # the default of a required key


def _function(name):
    module, attr = _HOMES.get(name, (montecarlo, name))
    return getattr(module, attr)


def experiment_keys(name):
    """{key: default} of experiment `name`'s [experiment] keys, read from its
    function's signature; a required key's default is `REQUIRED`."""
    keys = {}
    for param in inspect.signature(_function(name)).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            module, attr = _FORWARDED[param.name]
            keys.update((p.name, p.default) for p in inspect.signature(
                getattr(module, attr)).parameters.values()
                if p.default is not REQUIRED)
        elif param.name not in _SUPPLIED:
            keys[param.name] = param.default
    return keys


def experiment_sections(name):
    """{section: required} of the sections experiment `name` takes besides
    [run] and [experiment], in `_SECTION_PARAMS` order: one per section
    parameter of its function, required where that has no default."""
    params = inspect.signature(_function(name)).parameters
    return {sec: params[param].default is REQUIRED
            for param, sec in _SECTION_PARAMS.items() if param in params}


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


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


_VALIDATORS = {
    "pos_int": lambda v: _is_int(v) and v > 0,
    "nonneg_int": lambda v: _is_int(v) and v >= 0,
    "opt_int": lambda v: v is None or (_is_int(v) and v > 0),
    "pos_float": lambda v: _is_num(v) and v > 0,
    "float": lambda v: _is_num(v),
    "opt_float": lambda v: v is None or _is_num(v),
    "bool": lambda v: isinstance(v, bool),
    "vector": lambda v: (_is_num(v)
                         or (isinstance(v, (list, tuple)) and len(v) > 0
                             and all(_is_num(x) for x in v))),
    "int_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_int(x) and x >= 0 for x in v),
    "float_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x > 0 for x in v),
    "nonneg_floats": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x >= 0 for x in v),
    "decreasing_floats": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(_is_num(x) and x > 0 for x in v)
    and all(v[i + 1] < v[i] for i in range(len(v) - 1)),
    "pair_float": lambda v: isinstance(v, (list, tuple)) and len(v) == 2
    and all(_is_num(x) for x in v),
    "pos_pair": lambda v: isinstance(v, (list, tuple)) and len(v) == 2
    and all(_is_num(x) and x > 0 for x in v),
    "band": lambda v: isinstance(v, (list, tuple)) and len(v) == 2
    and _is_num(v[0]) and (v[1] is None or _is_num(v[1])),
    "window_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0
    and all(isinstance(w, (list, tuple)) and len(w) == 2
            and _is_num(w[0]) and _is_num(w[1]) and w[1] > w[0] for w in v),
    "str": lambda v: isinstance(v, str),
    "mapping": lambda v: isinstance(v, dict),
    "listed experiment": lambda v: isinstance(v, str) and v in CATALOG,
    # a rate or exponent fit needs two distinct abscissae
    "two distinct levels": lambda v: _VALIDATORS["int_list"](v)
    and len(set(v)) >= 2,
    "two distinct values": lambda v: _VALIDATORS["float_list"](v)
    and len(set(v)) >= 2,
    "two distinct lengths": lambda v: _VALIDATORS["window_list"](v)
    and len({t - s for s, t in v}) >= 2,
    # the fine grid, one level above the finest, within the exact scan
    "levels within the exact Holder scan": lambda v: _VALIDATORS["int_list"](v)
    and 2 ** (max(v) + 1) + 1 <= HOLDER_EXACT_LIMIT,
}

# the rule of each [experiment] key, the same in every experiment that has
# the key unless its spec's `rules` says otherwise
_RULES = {key: rule for rule, keys in {
    "pos_int": "paths substeps grid_level target_accepted max_attempts "
               "grid_points_min n_points levy_attempts levy_grid_level "
               "min_conditioned n reverse_grid_level n_controls segments",
    "opt_int": "reverse_paths",
    "pos_float": "T theta epsilon p c3 horizon tolerance slope_max "
                 "decay_factor stability_factor critical_theta "
                 "oracle_factor slope_factor",
    "float": "min_slope min_r2 final_min",
    "opt_float": "oracle_coefficient forward_p95_limit",
    "bool": "check_substeps",
    "vector": "x0 x",
    "int_list": "levels",
    "float_list": "deltas M_values",
    "nonneg_floats": "time_grid",
    "pair_float": "survival_range",
    "pos_pair": "levy_deltas",
    "band": "slope_band",
    "window_list": "windows",
}.items() for key in keys.split()}


def _env_workers():
    """run.workers when not given: RSDEKIT_WORKERS, else 1."""
    text = os.environ.get(WORKERS_ENV, "1")
    if not _VALIDATORS["pos_int"](workers := _literal(text)):
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, "
                          f"got {text!r}")
    return workers


_ABSENT = object()  # the default of a key left out when not given

# {section: {key: (default, rule)}} of [run] and of the sections an
# experiment takes; run.workers, when absent, is `_env_workers()`
_SECTIONS = {
    "run": {"experiment": (REQUIRED, "listed experiment"),
            "seed": (REQUIRED, "nonneg_int"),
            "workers": (_ABSENT, "pos_int"), "output": ("out", "str")},
    "domain": {"kind": (REQUIRED, "str"), "params": ({}, "mapping"),
               "r0": (_ABSENT, "pos_float"), "c0": (_ABSENT, "pos_float"),
               "gamma": (_ABSENT, "pos_float")},
    "coefficients": {"d": (REQUIRED, "pos_int"), "d1": (REQUIRED, "pos_int"),
                     "sigma": ("const", "str"), "sigma_params": ({}, "mapping"),
                     "b": ("const", "str"), "b_params": ({}, "mapping")},
    "control": {"kind": ("zero", "str"), "params": ({}, "mapping"),
                "grid_level": (8, "nonneg_int")},
    "u": {"kind": ("quadratic", "str"), "params": ({}, "mapping")},
}


def _resolve(section, given, keys):
    """The values of `section`: those `given`, checked against `keys`
    ({key: (default, rule)}), and the defaults of the others."""
    for key in given:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    values = {}
    for key, (default, rule) in keys.items():
        if key in given:
            val = given[key]
        elif default is REQUIRED:
            raise ConfigError(f"{section}.{key} is required")
        elif default is _ABSENT:
            continue
        else:
            val = copy.copy(default)  # no two configs share a mutable value
        if not _VALIDATORS[rule](val):
            listed = (f", not one of {sorted(CATALOG)}"
                      if rule == "listed experiment" else "")
            raise ConfigError(f"{section}.{key} failed validation "
                              f"({rule}): {val!r}{listed}")
        values[key] = val
    return values


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
    for sec in raw:
        if sec not in _SECTIONS and sec != "experiment":
            raise ConfigError(f"unknown section [{sec}]")
    resolved = {"run": _resolve("run", raw.get("run", {}), _SECTIONS["run"])}
    if "workers" not in resolved["run"]:
        resolved["run"]["workers"] = _env_workers()
    name = resolved["run"]["experiment"]
    sections = experiment_sections(name)
    for sec, required in sections.items():
        if required and sec not in raw:
            raise ConfigError(f"experiment {name!r} needs section [{sec}]")
    for sec in raw:
        if sec not in ("run", "experiment", *sections):
            raise ConfigError(f"section [{sec}] is not used by {name!r}")
        if sec in sections:
            resolved[sec] = _resolve(sec, raw[sec], _SECTIONS[sec])
    rules = CATALOG[name].rules
    keys = {key: (default, rules.get(key, _RULES[key]))
            for key, default in experiment_keys(name).items()}
    resolved["experiment"] = _resolve("experiment",
                                      raw.get("experiment", {}), keys)
    d = resolved.get("coefficients", {}).get("d")
    for key in ("x0", "x"):  # a listed start has d coordinates, a number all
        start = resolved["experiment"].get(key)
        if isinstance(start, (list, tuple)) and len(start) != d:
            raise ConfigError(f"experiment.{key} has {len(start)} "
                              f"coordinates, coefficients.d is {d}")
    _build_sections(resolved)  # a value no builder takes is a config error
    return resolved


# ---------------------------------------------------------------------------
# Object builders
# ---------------------------------------------------------------------------


def _entries(v, d, name):
    """The vector parameter `name` as d floats; a ValueError otherwise."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (d,):
        raise ValueError(f"{name} has length {v.size}, not {d}")
    return v


def _linear_u(d, a=None):
    a = np.eye(d)[0] if a is None else _entries(a, d, "a")
    return lambda x: float(np.dot(a, np.atleast_1d(x)))


def _quadratic_u(d, sign=1.0, center=None):
    sign = float(sign)
    c = np.zeros(d) if center is None else _entries(center, d, "center")
    return lambda x: sign * float(np.sum((np.asarray(x, dtype=float) - c) ** 2))


# the [control] and [u] kinds; a kind's builder takes the section's params as
# keywords (after a control's T, dimension and cell count, or the state
# dimension of a u), so a key the kind does not take is a TypeError
_KINDS = {
    "control": {"zero": zero_control,
                "linear": lambda T, d1, n_cells, slope=None: linear_control(
                    T, [0.5] * d1 if slope is None
                    else _entries(slope, d1, "slope"), n_cells),
                "sin": lambda T, d1, n_cells, **params: sine_control(
                    T, dim=d1, n_cells=n_cells, **params)},
    "u": {"constant": lambda d, value=1.0: lambda x, v=float(value): v,
          "quadratic": _quadratic_u, "linear": _linear_u},
}


def _build_kind(section, cfg, *args):
    """The [control] or [u] `section` built by its kind's builder."""
    kinds = _KINDS[section]
    if cfg["kind"] not in kinds:
        raise UnsupportedKind(f"{section}.kind must be one of {list(kinds)}")
    return kinds[cfg["kind"]](*args, **cfg["params"])


def _build_sections(resolved):
    """The [domain], [coefficients], [control] and [u] sections present,
    built; a value a builder rejects is a ConfigError naming its section.
    The [domain] and [coefficients] keys are their builders' parameters."""
    builders = {"domain": lambda cfg: make_domain(**cfg),
                "coefficients": lambda cfg: make_coefficients(**cfg),
                "control": lambda cfg: _build_kind(
                    "control", cfg, resolved["experiment"].get("T", 1.0),
                    resolved["coefficients"]["d1"], 2 ** cfg["grid_level"]),
                "u": lambda cfg: _build_kind(
                    "u", cfg, resolved["coefficients"]["d"])}
    built = {}
    for sec, build in builders.items():
        if sec in resolved:
            try:
                built[sec] = build(resolved[sec])
            except (TypeError, ValueError, UnsupportedKind) as exc:
                raise ConfigError(f"section [{sec}]: {exc}") from exc
    return built


def run_experiment(resolved):
    """Dispatch a resolved config to its experiment; returns (report, extras).

    The built sections, seed and workers are bound to the experiment's
    parameters of the same names; an experiment that also returns a
    reachable cloud has it written out as an extra."""
    fn = _function(resolved["run"]["experiment"])
    built = _build_sections(resolved)
    given = {param: built[sec] for param, sec in _SECTION_PARAMS.items()
             if sec in built}
    given.update(seed=resolved["run"]["seed"],
                 workers=resolved["run"]["workers"])
    accepted = inspect.signature(fn).parameters
    result = fn(**resolved["experiment"],
                **{k: v for k, v in given.items() if k in accepted})
    if isinstance(result, tuple):
        return result[0], {"cloud": result[1]}
    return result, {}


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
        # the flags are run.* overrides after --set, so they win over it
        flags = [f"run.{key}={value!r}" for key in ("seed", "workers", "output")
                 if (value := getattr(args, key)) is not None]
        resolved = parse_config(args.config, [*(args.set or ()), *flags])
        if args.dry_run:
            print(f"config ok: experiment {resolved['run']['experiment']!r}")
            return 0
        report, extras = run_experiment(resolved)
        path = write_outputs(report, resolved, extras,
                             resolved["run"]["output"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
        keys = experiment_keys(name)
        rows.append({"name": name, "claim": CATALOG[name].anchor,
                     "required_keys": sorted(k for k, default in keys.items()
                                             if default is REQUIRED),
                     "optional_keys": sorted(k for k, default in keys.items()
                                             if default is not REQUIRED),
                     "sections": [sec for sec, required in
                                  experiment_sections(name).items()
                                  if required]})
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
