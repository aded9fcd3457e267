"""Benchmark workloads: one `rsdekit run` config per (workload, seed).

Each workload is a config file a user could have written.  The seed given on
the benchmark's command line becomes `run.seed`, so the program receives
only the generated config.  Why each workload exists is recorded in
WORKLOADS.md beside this file.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

WORKLOADS = {
    # Python step loop plus per-step sigma/drift rebuilds; no Holder scan,
    # no tube sampling, no pool.
    "wz-halfline": {
        "run": {"experiment": "wz_convergence", "workers": 1},
        "domain": {"kind": "half_space",
                   "params": {"normal": [1.0], "offset": 0.0}},
        "coefficients": {"d": 1, "d1": 1, "sigma": "sin",
                         "sigma_params": {"base": 0.5, "amp": 0.25}},
        "experiment": {"T": 1.0, "x0": [1.0], "levels": [4, 5, 6, 7],
                       "paths": 256, "check_substeps": True},
    },
    # Exact O(N^2) Holder pair scan over the level solutions.
    "holder-disc": {
        "run": {"experiment": "holder_tightness", "workers": 1},
        "domain": {"kind": "ball",
                   "params": {"center": [0.0, 0.0], "radius": 1.0}},
        "coefficients": {"d": 2, "d1": 2, "sigma": "const",
                         "sigma_params": {"value": 0.5}},
        "experiment": {"T": 1.0, "x0": [0.0, 0.0], "theta": 0.2,
                       "levels": [4, 5, 6, 7], "paths": 256},
    },
    # Small-ball sampling (one generator per path) and Levy tube rejection;
    # no reflection stepping.
    "tube-levy": {
        "run": {"experiment": "smallball_and_levy", "workers": 1},
        "experiment": {"T": 0.5,
                       "deltas": [0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0],
                       "M_values": [0.25, 0.5, 1.0], "paths": 4000,
                       "levy_deltas": [0.8, 0.5], "levy_attempts": 32768},
    },
    # Nonconvex projection (per-row Python loop, bisection substeps) through
    # the process pool.
    "wz-notch-w2": {
        "run": {"experiment": "wz_convergence", "workers": 2},
        "domain": {"kind": "notched_disc", "params": {}},
        "coefficients": {"d": 2, "d1": 2, "sigma": "const",
                         "sigma_params": {"value": 1.0}},
        "experiment": {"T": 1.0, "x0": [0.5, 0.4], "levels": [4, 5, 6],
                       "paths": 512, "check_substeps": False},
    },
}

# report.json digests recorded at the commit that added the benchmark
DIGESTS = Path(__file__).resolve().parent / "digests.json"

_TUBE_NOTE = re.compile(r"conditioned samples=(\d+) of (\d+) attempts")


def write_config(name, seed, path, output):
    """Write the INI config of workload `name` for `seed` to `path`."""
    spec = WORKLOADS[name]
    lines = []
    for section, values in spec.items():
        values = dict(values)
        if section == "run":
            values.update(seed=int(seed), output=str(output))
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" for key, value in values.items()]
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))


def tube_counts(report):
    """(candidates, hits) of tube rejection, read from the report's notes."""
    candidates = hits = 0
    for note in report.get("notes", []):
        m = _TUBE_NOTE.search(note)
        if m:
            hits += int(m.group(1))
            candidates += int(m.group(2))
    return candidates, hits


def paths_per_call(report):
    """Driver paths one call simulates; tube candidates count, rejected too."""
    return int(report["parameters"]["paths"]) + tube_counts(report)[0]


def reference_digest(name, seed):
    """The recorded report.json digest for (workload, seed), if any."""
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def _largest(name, seconds, layers):
    """(label, ok): `seconds` exceeds every other layer's self time."""
    rest = max(layers.items(), key=lambda kv: kv[1])
    return (f"{name} {seconds:.3f} s is the largest layer "
            f"(next: {rest[0]} {rest[1]:.3f} s)", seconds > rest[1])


def attribution(name, metrics, layers):
    """The layer shares each workload exists to expose, as (label, ok) pairs.

    Shares describe the program at the commit that added the benchmark; a
    speed-up in the named layer is expected to change them, so they are
    reported, not part of the correctness gate.
    """
    wall = metrics["trace.wall_s"]
    if name == "holder-disc":
        share = metrics["paths.holder_s"] / wall
        return [(f"paths.holder_s is {share:.0%} of traced wall_s (> 50%)",
                 share > 0.5)]
    if name == "tube-levy":
        others = dict(layers)
        others["montecarlo"] -= metrics["montecarlo.tube_s"]
        return [_largest("montecarlo.tube_s", metrics["montecarlo.tube_s"],
                         others)]
    if name == "wz-notch-w2":
        others = {k: v for k, v in layers.items() if k != "geometry"}
        others["geometry"] = layers["geometry"] - metrics["geometry.project_s"]
        return [_largest("geometry.project_s", metrics["geometry.project_s"],
                         others)]
    if name == "wz-halfline":
        share = (layers["skorohod"] + layers["rsde"]) / wall
        return [(f"skorohod + rsde self time is {share:.0%} of traced wall_s "
                 f"(> 50%)", share > 0.5)]
    return []
