import functools
import hashlib
import inspect
import json
import os
import textwrap

import pytest

from rsdekit import cli, maxprinciple, montecarlo
from rsdekit.errors import ConfigError


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


MOMENT_CONFIG = """
    [run]
    experiment = moment_scaling
    seed = 77
    workers = 1
    output = {out}

    [domain]
    kind = half_space
    params = {{"normal": [1.0], "offset": 0.0}}

    [coefficients]
    d = 1
    d1 = 1
    sigma = const
    sigma_params = {{"value": 1.0}}

    [experiment]
    windows = [[0.0, 0.0625], [0.0, 0.125], [0.0, 0.25]]
    p = 1.0
    x0 = [0.0]
    paths = 400
"""


HOLDER_CONFIG = """
    [run]
    experiment = holder_tightness
    seed = 3
    output = {out}

    [domain]
    kind = half_space
    params = {{"normal": [1.0], "offset": 0.0}}

    [coefficients]
    d = 1
    d1 = 1
    sigma = const
    sigma_params = {{"value": 0.5}}

    [experiment]
    T = 1.0
    x0 = [1.0]
    theta = 0.2
    levels = [3, 4]
    paths = 64
"""


WZ_CONFIG = """
    [run]
    experiment = wz_convergence
    seed = 5
    output = {out}

    [domain]
    kind = half_space
    params = {{"normal": [1.0], "offset": 0.0}}

    [coefficients]
    d = 1
    d1 = 1
    sigma = const
    sigma_params = {{"value": 0.5}}

    [experiment]
    T = 1.0
    x0 = [1.0]
    levels = [3, 4]
    paths = 8
"""


EXP_TAIL_CONFIG = """
    [run]
    experiment = exp_tail
    seed = 1
    output = {out}

    [domain]
    kind = half_space
    params = {{"normal": [1.0], "offset": 0.0}}

    [coefficients]
    d = 1
    d1 = 1
    sigma = sin

    [experiment]
    T = 1.0
    x0 = [1.0]
    paths = 64
"""


class TestParsing:
    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, """
            [run]
            experiment = exp_tail
            seed = 1
            [mystery]
            a = 1
        """)
        with pytest.raises(ConfigError, match="mystery"):
            cli.parse_config(path)

    def test_unknown_experiment_key_named(self, tmp_path):
        path = write_config(tmp_path, MOMENT_CONFIG.format(out="o") + "\n    bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config(path)

    def test_negative_delta_cites_key(self, tmp_path):
        path = write_config(tmp_path, """
            [run]
            experiment = approx_continuity
            seed = 1

            [domain]
            kind = half_space
            params = {"normal": [1.0], "offset": 0.0}

            [coefficients]
            d = 1
            d1 = 1

            [control]
            kind = zero

            [experiment]
            T = 1.0
            x0 = [1.0]
            epsilon = 0.3
            deltas = [-1]
            target_accepted = 10
        """)
        with pytest.raises(ConfigError, match="deltas"):
            cli.parse_config(path)

    def test_extraneous_section_rejected(self, tmp_path):
        body = MOMENT_CONFIG.format(out="o") + textwrap.dedent("""
            [control]
            kind = zero
        """)
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match="control"):
            cli.parse_config(path)

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path, """
            [run]
            experiment = moment_scaling
            seed = 1
            [experiment]
            windows = [[0.0, 0.5]]
            p = 1.0
            x0 = [0.0]
            paths = 8
        """)
        with pytest.raises(ConfigError, match="domain"):
            cli.parse_config(path)

    def test_defaults_materialized(self, tmp_path):
        path = write_config(tmp_path, MOMENT_CONFIG.format(out="o"))
        resolved = cli.parse_config(path)
        assert resolved["experiment"]["grid_points_min"] == 128
        assert resolved["experiment"]["slope_band"] == (0.8, None)
        assert resolved["coefficients"]["b"] == "const"

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, MOMENT_CONFIG.format(out="o"))
        resolved = cli.parse_config(path, ["experiment.paths=64", "run.seed=9"])
        assert resolved["experiment"]["paths"] == 64
        assert resolved["run"]["seed"] == 9

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "3")
        body = MOMENT_CONFIG.format(out="o").replace("\n    workers = 1", "")
        path = write_config(tmp_path, body)
        resolved = cli.parse_config(path)
        assert resolved["run"]["workers"] == 3


class TestRun:
    def test_dry_run_no_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, MOMENT_CONFIG.format(out=out))
        code = cli.main(["run", path, "--dry-run"])
        assert code == 0
        assert not out.exists()

    def test_full_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, MOMENT_CONFIG.format(out=out))
        code = cli.main(["run", path])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["name"] == "moment_scaling"
        assert doc["verdict"] == "pass"
        assert doc["resolved_config"]["experiment"]["paths"] == 400
        assert (out / "estimates.csv").exists()
        assert (out / "resolved_config.ini").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[run]\nexperiment = nope\nseed = 1\n")
        assert cli.main(["run", path]) == 2
        # a misspelt experiment is answered with the names there are
        assert str(sorted(cli.CATALOG)) in capsys.readouterr().err

    def test_tube_too_narrow_exit_3(self, tmp_path):
        path = write_config(tmp_path, """
            [run]
            experiment = approx_continuity
            seed = 2
            output = {out}

            [domain]
            kind = half_space
            params = {{"normal": [1.0], "offset": 0.0}}

            [coefficients]
            d = 1
            d1 = 1
            sigma = const
            sigma_params = {{"value": 0.5}}

            [control]
            kind = zero

            [experiment]
            T = 1.0
            x0 = [1.0]
            epsilon = 0.3
            deltas = [0.03]
            target_accepted = 500
            grid_level = 7
        """.format(out=tmp_path / "o3"))
        assert cli.main(["run", path]) == 3

    def test_verdict_fail_exit_1(self, tmp_path):
        path = write_config(tmp_path, HOLDER_CONFIG.format(out=tmp_path / "o4")
                            + "    stability_factor = 1.0000001\n")
        assert cli.main(["run", path]) == 1

    @pytest.mark.parametrize("section, override", [
        ("coefficients", "coefficients.sigma=sinx"),
        ("coefficients", "coefficients.d1=2"),  # sin needs d == d1
        ("domain", "domain.kind=half_spac"),
        ("domain", 'domain.params={"normal": [1.0], "offst": 0.0}'),
        ("domain", 'domain.params={"normal": [0.0], "offset": 0.0}'),
        # the sin family takes base, amp and freq, not a value
        ("coefficients", 'coefficients.sigma_params={"value": "x"}'),
        ("coefficients", 'coefficients.b_params={"vlaue": 1.0}'),
    ])
    def test_invalid_section_value_exit_2(self, tmp_path, capsys, section,
                                          override):
        out = tmp_path / "o8"
        path = write_config(tmp_path, EXP_TAIL_CONFIG.format(out=out))
        assert cli.main(["run", path, "--dry-run"]) == 0
        with pytest.raises(ConfigError, match=rf"section \[{section}\]"):
            cli.parse_config(path, [override])
        capsys.readouterr()
        assert cli.main(["run", path, "--set", override]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: section [{section}]")
        assert not out.exists()

    def test_unexpected_exception_exit_5(self, tmp_path, monkeypatch, capsys):
        def broken(resolved):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run_experiment", broken)
        path = write_config(tmp_path, MOMENT_CONFIG.format(out=tmp_path / "o6"))
        assert cli.main(["run", path]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: boom\n"

    def test_oversized_holder_grid_exit_2(self, tmp_path):
        out = tmp_path / "o5"
        path = write_config(tmp_path, HOLDER_CONFIG.format(out=out))
        cli.parse_config(path, ["experiment.levels=[3, 10]"])
        with pytest.raises(ConfigError, match="levels"):
            cli.parse_config(path, ["experiment.levels=[3, 11]"])
        assert cli.main(["run", path, "--set", "experiment.levels=[12]"]) == 2
        assert not out.exists()

    def test_one_level_wz_convergence_exit_2(self, tmp_path):
        out = tmp_path / "o7"
        path = write_config(tmp_path, WZ_CONFIG.format(out=out))
        cli.parse_config(path)
        for levels in ("[3]", "[4, 4]"):
            with pytest.raises(ConfigError, match="two distinct levels"):
                cli.parse_config(path, [f"experiment.levels={levels}"])
        assert cli.main(["run", path, "--set", "experiment.levels=[3]"]) == 2
        assert not out.exists()

    def test_equal_window_lengths_exit_2(self, tmp_path):
        out = tmp_path / "o9"
        path = write_config(tmp_path, MOMENT_CONFIG.format(out=out))
        windows = "experiment.windows=[[0.0, 0.25], [0.25, 0.5]]"
        with pytest.raises(ConfigError, match="two distinct lengths"):
            cli.parse_config(path, [windows])
        assert cli.main(["run", path, "--set", windows]) == 2
        assert not out.exists()

    def test_smallball_without_two_hit_deltas_exit_1(self, tmp_path):
        path = write_config(tmp_path, """
            [run]
            experiment = smallball_and_levy
            seed = 1
            output = {out}

            [experiment]
            T = 0.5
            deltas = [0.05, 0.06]
            M_values = [0.5]
            paths = 200
            grid_level = 6
            levy_attempts = 8192
            levy_grid_level = 4
        """.format(out=tmp_path / "o8"))
        assert cli.main(["run", path]) == cli.EXIT_FAIL

    @pytest.mark.parametrize("levy_deltas", ["[0.8, -0.5]", "[-0.8, -0.5]",
                                             "[0.8, 0.0]"])
    def test_non_positive_levy_delta_exit_2(self, tmp_path, levy_deltas):
        out = tmp_path / "o10"
        path = write_config(tmp_path, """
            [run]
            experiment = smallball_and_levy
            seed = 1
            output = {out}

            [experiment]
            T = 0.5
            deltas = [0.5, 1.0]
            M_values = [0.5]
            paths = 200
            levy_attempts = 8192
            levy_grid_level = 4
        """.format(out=out))
        cli.parse_config(path)
        setting = f"experiment.levy_deltas={levy_deltas}"
        with pytest.raises(ConfigError, match="levy_deltas failed validation"):
            cli.parse_config(path, [setting])
        assert cli.main(["run", path, "--set", setting]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_byte_identical_across_workers(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        path = write_config(tmp_path, MOMENT_CONFIG.format(out=out1))
        assert cli.main(["run", path]) == 0
        assert cli.main(["run", path, "--workers", "2",
                         "--output", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_submartingale_dispatch(self, tmp_path):
        out = tmp_path / "sub"
        path = write_config(tmp_path, """
            [run]
            experiment = submartingale_test
            seed = 6
            output = {out}

            [domain]
            kind = ball
            params = {{"center": [0.0, 0.0], "radius": 1.0}}

            [coefficients]
            d = 2
            d1 = 2
            sigma = const
            sigma_params = {{"value": 1.0}}

            [u]
            kind = quadratic
            params = {{"sign": 1.0}}

            [experiment]
            time_grid = [0.0, 0.05, 0.1]
            x = [0.0, 0.0]
            paths = 500
            grid_level = 7
        """.format(out=out))
        assert cli.main(["run", path]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == "pass"

    def test_max_principle_writes_cloud(self, tmp_path):
        out = tmp_path / "mp"
        path = write_config(tmp_path, """
            [run]
            experiment = max_principle
            seed = 5
            output = {out}

            [domain]
            kind = ball
            params = {{"center": [0.0, 0.0], "radius": 1.0}}

            [coefficients]
            d = 2
            d1 = 2
            sigma = const
            sigma_params = {{"value": 1.0}}

            [u]
            kind = constant
            params = {{"value": 2.0}}

            [experiment]
            n_controls = 50
            horizon = 0.5
            x = [0.0, 0.0]
        """.format(out=out))
        assert cli.main(["run", path]) == 0
        assert (out / "cloud.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == "pass"


class TestCatalog:
    def test_validators_name_exactly_the_configurable_keys(self):
        # every key an experiment's signature makes configurable has a rule,
        # no rule or per-spec override names a key no experiment has, and
        # every validator is the rule of some key of some section
        used, rules = set(), set(cli._RULES.values())
        for name, spec in cli.CATALOG.items():
            keys = set(cli.experiment_keys(name))
            assert keys <= set(cli._RULES), (name, keys - set(cli._RULES))
            assert set(spec.rules) <= keys, (name, set(spec.rules) - keys)
            used |= keys
            rules |= set(spec.rules.values())
        assert used == set(cli._RULES), set(cli._RULES) - used
        rules |= {rule for keys in cli._SECTIONS.values()
                  for _, rule in keys.values()}
        assert rules == set(cli._VALIDATORS), rules ^ set(cli._VALIDATORS)
        # a section is taken by an experiment whose function builds it
        assert {sec for name in cli.CATALOG
                for sec in cli.experiment_sections(name)} \
            == set(cli._SECTIONS) - {"run"}

    def test_keys_and_defaults_come_from_the_signature(self):
        keys = cli.experiment_keys("wz_convergence")
        assert list(keys)[:4] == ["x0", "T", "levels", "paths"]
        assert all(keys[k] is cli.REQUIRED for k in ("x0", "T", "levels"))
        assert keys["substeps"] == 4 and keys["theta"] == 0.2
        assert not {"domain", "coeffs", "seed", "workers"} & set(keys)
        # max_principle's cloud keys are reachable_sample's defaults
        cloud = inspect.signature(maxprinciple.reachable_sample).parameters
        assert cli.experiment_keys("max_principle") == {
            "n_controls": cli.REQUIRED, "horizon": cli.REQUIRED,
            "x": cli.REQUIRED, "tolerance": 1e-6,
            **{k: cloud[k].default for k in ("segments", "slope_max",
                                             "substeps")}}

    def test_experiment_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a wrapper set on the module after import is the function called
        calls = []
        original = montecarlo.wz_convergence

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append(sorted(kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "wz_convergence", wrapper)
        path = write_config(tmp_path, WZ_CONFIG.format(out=tmp_path / "o"))
        assert cli.main(["run", path]) in (0, cli.EXIT_FAIL)
        assert len(calls) == 1 and "domain" in calls[0] \
            and "workers" in calls[0]

    def test_at_least_nine_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) >= 9

    def test_json_catalog_matches(self, capsys):
        cli.main(["list-experiments", "--json"])
        doc = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in doc}
        assert names == set(cli.CATALOG)
        for row in doc:
            assert row["claim"]
            assert isinstance(row["required_keys"], list)


# The four benchmark workloads' configs, copied so that this gate does not
# depend on the benchmark's files, and the first eight hex digits of the
# SHA-256 of each report.json at seeds 1 and 11.  A change that keeps the
# bits must leave this table alone; one that changes the streams or the
# estimates on purpose updates it and says why.
BENCHMARK_SHAPED = {
    "wz-halfline": {
        "run": {"experiment": "wz_convergence", "workers": 1},
        "domain": {"kind": "half_space",
                   "params": {"normal": [1.0], "offset": 0.0}},
        "coefficients": {"d": 1, "d1": 1, "sigma": "sin",
                         "sigma_params": {"base": 0.5, "amp": 0.25}},
        "experiment": {"T": 1.0, "x0": [1.0], "levels": [4, 5, 6, 7],
                       "paths": 256, "check_substeps": True},
    },
    "holder-disc": {
        "run": {"experiment": "holder_tightness", "workers": 1},
        "domain": {"kind": "ball",
                   "params": {"center": [0.0, 0.0], "radius": 1.0}},
        "coefficients": {"d": 2, "d1": 2, "sigma": "const",
                         "sigma_params": {"value": 0.5}},
        "experiment": {"T": 1.0, "x0": [0.0, 0.0], "theta": 0.2,
                       "levels": [4, 5, 6, 7], "paths": 256},
    },
    "tube-levy": {
        "run": {"experiment": "smallball_and_levy", "workers": 1},
        "experiment": {"T": 0.5,
                       "deltas": [0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0],
                       "M_values": [0.25, 0.5, 1.0], "paths": 4000,
                       "levy_deltas": [0.8, 0.5], "levy_attempts": 32768},
    },
    "wz-notch-w2": {
        "run": {"experiment": "wz_convergence", "workers": 2},
        "domain": {"kind": "notched_disc", "params": {}},
        "coefficients": {"d": 2, "d1": 2, "sigma": "const",
                         "sigma_params": {"value": 1.0}},
        "experiment": {"T": 1.0, "x0": [0.5, 0.4], "levels": [4, 5, 6],
                       "paths": 512, "check_substeps": False},
    },
}
REPORT_DIGESTS = {
    1: {"holder-disc": "fcc38fac", "tube-levy": "3d681139",
        "wz-halfline": "bfe7178a", "wz-notch-w2": "b0aadb5e"},
    7: {"holder-disc": "ca653664", "tube-levy": "d8601a95",
        "wz-halfline": "6a90d149", "wz-notch-w2": "8edf092f"},
    11: {"holder-disc": "422b12cb", "tube-levy": "8fe59174",
         "wz-halfline": "d0a4053a", "wz-notch-w2": "62fb99c4"},
}


def _perfbench_workloads():
    """perfbench/workloads.py, imported from the checkout without changing
    it."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["holder-disc", "tube-levy", "wz-halfline",
                                  "wz-notch-w2"])
def test_benchmark_workloads_pass(tmp_path, name):
    # the benchmark counts a call whose verdict is not "pass" as failed, so
    # each of its configs, written by its own code, must pass here first
    workloads = _perfbench_workloads()
    assert sorted(workloads.WORKLOADS) == sorted(BENCHMARK_SHAPED)
    path, out = tmp_path / "config.ini", tmp_path / "out"
    workloads.write_config(name, 1, path, out)
    assert cli.main(["run", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["seeds"]["seed"] == 1


# One small config of each of the other catalog experiments, with the same
# digests at seeds 1 and 7: together with the table above, every experiment's
# CLI report.json is pinned, its materialized defaults included.
_HALF = {"kind": "half_space", "params": {"normal": [1.0], "offset": 0.0}}
_DISC = {"kind": "ball", "params": {"center": [0.0, 0.0], "radius": 1.0}}
_CONST = {"d": 1, "d1": 1, "sigma": "const", "sigma_params": {"value": 0.5}}
_SIN = {"d": 1, "d1": 1, "sigma": "sin",
        "sigma_params": {"base": 0.5, "amp": 0.25}}
_CONST2 = {"d": 2, "d1": 2, "sigma": "const", "sigma_params": {"value": 1.0}}
CLI_SHAPED = {
    "skeleton_convergence": {
        "run": {"experiment": "skeleton_convergence", "workers": 1},
        "domain": _HALF, "coefficients": _SIN,
        "control": {"kind": "linear", "params": {"slope": [0.5]}},
        "experiment": {"T": 1.0, "x0": [0.5], "levels": [3, 4, 5],
                       "paths": 64},
    },
    "approx_continuity": {
        "run": {"experiment": "approx_continuity", "workers": 1},
        "domain": _HALF, "coefficients": _CONST, "control": {"kind": "zero"},
        "experiment": {"T": 1.0, "x0": [1.0], "epsilon": 0.3,
                       "deltas": [1.0, 0.8], "target_accepted": 64,
                       "grid_level": 6},
    },
    "moment_scaling": {
        "run": {"experiment": "moment_scaling", "workers": 1},
        "domain": _HALF, "coefficients": _CONST,
        "experiment": {"windows": [[0.0, 0.125], [0.0, 0.25], [0.0, 0.5]],
                       "p": 1.0, "x0": [0.0], "paths": 128,
                       "grid_points_min": 64},
    },
    "exp_tail": {
        "run": {"experiment": "exp_tail", "workers": 1},
        "domain": _HALF, "coefficients": _SIN,
        "experiment": {"T": 1.0, "x0": [0.2], "paths": 256, "grid_level": 6},
    },
    "regulator_conditional": {
        "run": {"experiment": "regulator_conditional", "workers": 1},
        "domain": _HALF, "coefficients": _CONST,
        "experiment": {"T": 1.0, "x0": [0.2], "deltas": [1.0, 0.8],
                       "c3": 1.0, "paths": 64, "grid_level": 6},
    },
    "support_inclusions": {
        "run": {"experiment": "support_inclusions", "workers": 1},
        "domain": _HALF, "coefficients": _SIN,
        "control": {"kind": "sin", "params": {"amplitude": 0.5}},
        "experiment": {"T": 1.0, "x0": [1.0], "n": 3, "epsilon": 0.5,
                       "paths": 64, "reverse_paths": 64,
                       "reverse_grid_level": 6},
    },
    "submartingale_test": {
        "run": {"experiment": "submartingale_test", "workers": 1},
        "domain": _DISC, "coefficients": _CONST2,
        "u": {"kind": "quadratic", "params": {"sign": 1.0}},
        "experiment": {"time_grid": [0.0, 0.05, 0.1], "x": [0.0, 0.0],
                       "paths": 128, "grid_level": 5},
    },
    "max_principle": {
        "run": {"experiment": "max_principle", "workers": 1},
        "domain": _DISC, "coefficients": _CONST2,
        "u": {"kind": "quadratic", "params": {"sign": -1.0}},
        "experiment": {"n_controls": 24, "horizon": 0.5, "x": [0.3, 0.0],
                       "segments": 4},
    },
}
CLI_DIGESTS = {
    1: {"approx_continuity": "ea08faee", "exp_tail": "e13139f2",
        "max_principle": "7326a050", "moment_scaling": "e332c2c3",
        "regulator_conditional": "0157ebdf", "skeleton_convergence": "cdb0a581",
        "submartingale_test": "98cf5d92", "support_inclusions": "c4ba5442"},
    7: {"approx_continuity": "f7486a76", "exp_tail": "476f7299",
        "max_principle": "0040055c", "moment_scaling": "d36c1dfa",
        "regulator_conditional": "f75d8cac", "skeleton_convergence": "d371d79e",
        "submartingale_test": "5b56ce43", "support_inclusions": "1bf214d4"},
}


def _write_shaped(tmp_path, config, seed, out):
    lines = []
    for section, values in config.items():
        if section == "run":
            values = dict(values, seed=seed, output=str(out))
        lines += [f"[{section}]"] + [f"{k} = {v!r}" for k, v in values.items()]
    path = tmp_path / "run.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _report_digest(tmp_path, config, seed):
    out = tmp_path / "out"
    path = _write_shaped(tmp_path, config, seed, out)
    assert cli.main(["run", path]) in (0, cli.EXIT_FAIL)
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()[:8]


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
@pytest.mark.parametrize("name", sorted(BENCHMARK_SHAPED))
def test_benchmark_shaped_reports_keep_their_bytes(tmp_path, name, seed):
    digest = _report_digest(tmp_path, BENCHMARK_SHAPED[name], seed)
    assert digest == REPORT_DIGESTS[seed][name]


@pytest.mark.parametrize("seed", sorted(CLI_DIGESTS))
@pytest.mark.parametrize("name", sorted(CLI_SHAPED))
def test_every_experiment_report_keeps_its_bytes(tmp_path, name, seed):
    covered = {*CLI_SHAPED, *(c["run"]["experiment"]
                              for c in BENCHMARK_SHAPED.values())}
    assert covered == set(cli.CATALOG)
    digest = _report_digest(tmp_path, CLI_SHAPED[name], seed)
    assert digest == CLI_DIGESTS[seed][name]


@pytest.mark.parametrize("seed, args", [
    (77, ["--workers", "-3"]),
    (77, ["--workers", "0"]),
    (77, ["--set", "run.workers=-3"]),
    (77, ["--seed", "-5"]),
    (77, ["--set", "run.seed=-1"]),
    (-1, []),
])
def test_bad_run_values_exit_2(tmp_path, capsys, seed, args):
    # a [run] value from a flag is validated like one from the file or --set
    out = tmp_path / "out"
    body = MOMENT_CONFIG.format(out=out).replace("seed = 77", f"seed = {seed}")
    path = write_config(tmp_path, body)
    for dry_run in ([], ["--dry-run"]):
        assert cli.main(["run", path, *args, *dry_run]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: run.")
    assert not out.exists()


def test_run_flags_win_over_set(tmp_path):
    out, other = tmp_path / "flag", tmp_path / "set"
    path = write_config(tmp_path, MOMENT_CONFIG.format(out=other))
    assert cli.main(["run", path, "--set", "run.seed=-1", "--seed", "77",
                     "--set", f"run.output='{other}'",
                     "--output", str(out)]) == 0
    assert (out / "report.json").exists() and not other.exists()


@pytest.mark.parametrize("name, setting", [
    ("wz_convergence", "experiment.levels=[True, 3]"),
    ("wz_convergence", "experiment.paths=True"),
    ("support_inclusions", "experiment.reverse_paths=True"),
    ("wz_convergence", "run.seed=True"),
    ("wz_convergence", "run.workers=True"),
    ("wz_convergence", "coefficients.d1=True"),
])
def test_booleans_are_not_integers_exit_2(tmp_path, name, setting):
    out = tmp_path / "out"
    config = CLI_SHAPED.get(name) or BENCHMARK_SHAPED["wz-halfline"]
    path = _write_shaped(tmp_path, config, 1, out)
    cli.parse_config(path)
    with pytest.raises(ConfigError, match=setting.split("=")[0].split(".")[1]):
        cli.parse_config(path, [setting])
    assert cli.main(["run", path, "--set", setting]) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_workers_env_exit_2(tmp_path, monkeypatch, capsys, value):
    # the environment's worker count is validated like run.workers, and
    # read only when the config does not set run.workers
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    out = tmp_path / "out"
    config = BENCHMARK_SHAPED["wz-halfline"]
    path = _write_shaped(tmp_path, {**config, "run": {
        "experiment": "wz_convergence"}}, 1, out)
    for dry_run in ([], ["--dry-run"]):
        assert cli.main(["run", path, *dry_run]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {cli.WORKERS_ENV}")
    assert not out.exists()
    path = write_config(tmp_path, WZ_CONFIG.format(out=out).replace(
        "seed = 5", "seed = 5\n    workers = 1"))
    assert cli.main(["run", path]) in (0, cli.EXIT_FAIL)
    assert (out / "report.json").exists()


@pytest.mark.parametrize("grid_level", ["2.7", "True", "-1", '"8"'])
def test_bad_control_grid_level_exit_2(tmp_path, grid_level):
    out = tmp_path / "out"
    path = _write_shaped(tmp_path, CLI_SHAPED["skeleton_convergence"], 1, out)
    setting = f"control.grid_level={grid_level}"
    with pytest.raises(ConfigError, match="grid_level"):
        cli.parse_config(path, [setting])
    for dry_run in ([], ["--dry-run"]):
        assert cli.main(["run", path, "--set", setting, *dry_run]) \
            == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("name, setting, match", [
    ("skeleton_convergence", 'control.params={"slpoe": [0.5]}', "control"),
    ("support_inclusions", 'control.params={"amplitud": 0.5}', "control"),
    ("skeleton_convergence", "control.kind='zero'", "control"),
    ("submartingale_test", 'u.params={"sing": 1.0}', "u"),
    ("skeleton_convergence", "experiment.x0=[1.0, 2.0]", "x0"),
    ("submartingale_test", "experiment.x=[0.0]", "experiment.x "),
])
def test_bad_control_u_and_start_exit_2(tmp_path, name, setting, match):
    # a misspelt family key, a params key its control kind does not take
    # (the zero control takes none) and a start vector of another
    # dimension than the state are config errors, also under --dry-run
    out = tmp_path / "out"
    path = _write_shaped(tmp_path, CLI_SHAPED[name], 1, out)
    cli.parse_config(path)
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(path, [setting])
    for dry_run in ([], ["--dry-run"]):
        assert cli.main(["run", path, "--set", setting, *dry_run]) \
            == cli.EXIT_CONFIG
    assert not out.exists()


def test_section_keys_without_default_stay_unset(tmp_path):
    path = _write_shaped(tmp_path, CLI_SHAPED["skeleton_convergence"], 1, "o")
    resolved = cli.parse_config(path)
    assert resolved["domain"] == _HALF
    assert resolved["control"] == {"kind": "linear",
                                   "params": {"slope": [0.5]},
                                   "grid_level": 8}
    resolved = cli.parse_config(path, ["domain.r0=2.0"])
    assert resolved["domain"]["r0"] == 2.0
    with pytest.raises(ConfigError, match="r0"):
        cli.parse_config(path, ["domain.r0=-2.0"])


def test_sections_come_from_the_signature():
    assert cli.experiment_sections("holder_tightness") == {
        "domain": True, "coefficients": True, "control": False}
    assert cli.experiment_sections("max_principle") == {
        "domain": True, "coefficients": True, "u": True}
    assert cli.experiment_sections("smallball_and_levy") == {}


def test_signature_defaults_are_not_called(monkeypatch):
    # a function that an experiment takes as its default is passed as it
    # is, and a mutable default is copied for each config
    monkeypatch.setitem(cli._VALIDATORS, "callable", callable)
    keys = {"statistic": (sum, "callable"), "params": ({}, "mapping")}
    first = cli._resolve("experiment", {}, keys)
    assert first == {"statistic": sum, "params": {}}
    assert cli._resolve("experiment", {}, keys)["params"] is not first["params"]


@pytest.mark.parametrize("args, digest", [
    ([], "96b8f7b9"), (["--json"], "95f964d0")])
def test_catalog_listing_keeps_its_bytes(capsys, args, digest):
    # the listing's sections and keys come from the experiment signatures
    assert cli.main(["list-experiments", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:8] == digest


def test_readme_config_is_valid(tmp_path, capsys):
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = write_config(tmp_path, body)
    assert cli.main(["run", path, "--dry-run"]) == 0
    assert capsys.readouterr().out == "config ok: experiment 'wz_convergence'\n"
