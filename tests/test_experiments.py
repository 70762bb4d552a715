import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import critical_atom_verdicts

from hball.cli import main
from hball.errors import NonConvergent
from hball.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _at_report_precision,
    _check_config,
    _growth_integral_curves,
    _report,
    default_config,
    report_to_csv,
    report_to_json,
    run_experiment,
    validate_report,
    verification_family,
)
from hball.kernel import CoeffProduct, eval_coeff_series_grid
from hball.quadrature import Verdict, shell_decomposition

GOLDEN = Path(__file__).parent / "golden"


def small_config(name: str) -> ExperimentConfig:
    if name == "membership":
        return ExperimentConfig(
            name,
            parameters={
                "n": 2,
                "p_grid": [1.0, 2.0],
                "s_grid": [0.0],
                "delta_grid": [-1.5, 0.75],
            },
            shells=10,
        )
    if name == "kernel-growth":
        return ExperimentConfig(
            name,
            parameters={
                "combos": [
                    {"n": 2, "p": 2.0, "alpha": 0.0, "d": 0.0},
                    {"n": 2, "p": 1.0, "alpha": 0.0, "d": 0.0},
                    {"n": 2, "p": 1.0, "alpha": -0.5, "d": 1.0},
                ],
                "j_radii": [3, 4, 5, 6, 7, 8, 9, 10],
            },
            shells=16,
        )
    if name == "inclusion":
        return ExperimentConfig(
            name,
            parameters={"n_grid": [2], "alpha_grid": [0.0], "p_grid": [1.0]},
        )
    if name == "levelset":
        return ExperimentConfig(
            name,
            parameters={
                "n_grid": [2], "alpha_grid": [1.0], "p_grid": [1.0],
                "eps_fractions": [0.5, 0.1],
            },
        )
    if name == "distance":
        return ExperimentConfig(
            name, parameters={"n_grid": [2], "alpha_grid": [0.0], "p_pair": [1.0, 2.0]}
        )
    if name == "verify-identities":
        return ExperimentConfig(
            name,
            parameters={"pairs": 6, "layers": 80, "reproduce_probes": 1},
            tol=1e-12,
        )
    raise ValueError(name)


@pytest.fixture(scope="module")
def valid_reports():
    """A report of every experiment at its small config."""
    return [run_experiment(name, small_config(name)) for name in EXPERIMENTS]


class TestFamily:
    def test_family_is_deterministic(self):
        a = verification_family(3, 1.0, seed=5)
        b = verification_family(3, 1.0, seed=5)
        assert a[0] == b[0] and a[1] == b[1]

    def test_seed_rotates_poles(self):
        base = verification_family(2, 0.0, seed=0)[2]
        rot = verification_family(2, 0.0, seed=3)[2]
        assert base != rot


class TestRunners:
    def test_membership_small(self):
        rep = run_experiment("membership", small_config("membership"))
        assert rep["summary"]["pass"]
        assert rep["summary"]["rows"] == 4
        predicates = {r["predicate"] for r in rep["rows"]}
        assert predicates == {"member", "non_member"}

    def test_kernel_growth_small(self):
        rep = run_experiment("kernel-growth", small_config("kernel-growth"))
        assert rep["summary"]["pass"]
        verdicts = [r["verdict"] for r in rep["rows"]]
        assert verdicts == ["power", "log", "bounded"]

    def test_inclusion_small(self):
        rep = run_experiment("inclusion", small_config("inclusion"))
        assert rep["summary"]["pass"]
        by_label = {r["f"]: r for r in rep["rows"]}
        assert by_label["atom_critical"]["decay"] == "non_decaying"
        assert by_label["atom_critical"]["norm_verdict"] == "divergent"
        assert by_label["atom_in_25"]["decay"] == "decaying"

    def test_inclusion_walks_read_the_filled_shells(self, monkeypatch):
        # the fill before the walks computes every shell of a series field
        # that the walks ask for, so no walk sums a series of its own
        import hball.spaces as spaces

        walk_side = []

        def evaluate(g, radii, units, **kw):
            walk_side.append(g)
            return spaces.evaluate_grids([g], [(radii, units, None)], **kw)[0][0]

        monkeypatch.setattr(spaces, "evaluate_grid", evaluate)
        monkeypatch.setattr("hball.experiments._GRIDS", {})  # no shell memoized yet
        rep = run_experiment("inclusion", small_config("inclusion"))
        assert rep["summary"]["pass"]
        assert walk_side and not any(spaces._has_series(g) for g in walk_side)

    def test_levelset_small(self):
        rep = run_experiment("levelset", small_config("levelset"))
        assert rep["summary"]["pass"]
        window_rows = [r for r in rep["rows"] if "window" in r]
        assert window_rows and all(r["agree"] for r in window_rows)

    def test_distance_small(self):
        cfg = small_config("distance")
        rep = run_experiment("distance", cfg)
        assert rep["summary"]["pass"]
        verdicts = critical_atom_verdicts(cfg)
        assert len(verdicts) == 2
        assert all(v == Verdict.DIVERGENT for v in verdicts.values()), verdicts

    def test_verify_identities_small(self):
        rep = run_experiment("verify-identities", small_config("verify-identities"))
        assert rep["summary"]["pass"]
        checks = {r["check"] for r in rep["rows"]}
        assert "two_sided_inverse" in checks and "radial_beta_moments" in checks

    def test_a_membership_row_without_certified_shells_is_inconclusive(self):
        # kernel(3e5) overflows the series majorant on shell 0
        cfg = small_config("membership")
        cfg.parameters.update(p_grid=[2.0], s_grid=[3e5], delta_grid=[0.75])
        (row,) = run_experiment("membership", cfg)["rows"]
        assert row["numeric"] == "inconclusive" and row["norm_estimate"] is None

    def test_inclusion_rows_without_certified_shells_are_inconclusive(self, monkeypatch):
        def no_shell(*args):
            raise NonConvergent("shell integral certified no shell")

        monkeypatch.setattr("hball.experiments.besov_norm_shells", no_shell)
        rows = run_experiment("inclusion", small_config("inclusion"))["rows"]
        assert rows and all(
            r["norm_verdict"] == "inconclusive" and r["norm_estimate"] is None and r["agree"] is None
            for r in rows
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("nope")


class TestKernelGrowthBatch:
    """kernel-growth evaluates the kernels of one dimension in one grid call
    per shell, on one direction per distinct cosine with the sphere weights
    folded onto them."""

    COMBOS = [
        {"n": 2, "p": 2.0, "alpha": 0.0, "d": 0.0},
        {"n": 3, "p": 1.0, "alpha": 0.0, "d": 0.0},
        {"n": 2, "p": 1.0, "alpha": -0.5, "d": 1.0},
        {"n": 3, "p": 2.0, "alpha": -1.0, "d": 0.5},
        {"n": 2, "p": 1.0, "alpha": 0.0, "d": 0.5},
        {"n": 2, "p": 2.0, "alpha": 1.0, "d": 0.0},
    ]
    RADII = 1.0 - 2.0 ** -np.arange(3.0, 8.0)
    DEPTH = 10

    def combos(self, n):
        return [c for c in self.COMBOS if c["n"] == n]

    def test_one_grid_call_per_shell_per_dimension(self, monkeypatch):
        import hball.experiments as experiments

        calls = []
        orig = experiments.eval_coeff_series_grids

        def counted(n, coeffs, pole, grids, **kw):
            ((_, units, _),) = grids
            calls.append((n, [c.single_kernel_parameter() for c in coeffs], units @ np.eye(n)[0]))
            return orig(n, coeffs, pole, grids, **kw)

        monkeypatch.setattr(experiments, "eval_coeff_series_grids", counted)
        for n in (2, 3):
            calls.clear()
            _growth_integral_curves(n, self.combos(n), self.RADII, self.DEPTH, 1e-6)
            assert len(calls) == self.DEPTH
            alphas = list(dict.fromkeys(c["alpha"] for c in self.combos(n)))
            for dim, called, u in calls:
                assert dim == n and called == alphas
                assert np.unique(u).shape == u.shape  # one direction per cosine

    @pytest.mark.parametrize("n", [2, 3])
    def test_curves_are_the_per_alpha_sums_over_all_directions(self, n):
        got = _growth_integral_curves(n, self.combos(n), self.RADII, self.DEPTH, 1e-6)
        e1 = (1.0,) + (0.0,) * (n - 1)
        grid = shell_decomposition(n, self.DEPTH, (e1,), azimuth=8)
        for combo, curve in zip(self.combos(n), got, strict=True):
            want = np.zeros(len(self.RADII))
            for shell, sph in zip(grid.shells, grid.spheres):
                vals = eval_coeff_series_grid(
                    n, CoeffProduct.kernel(combo["alpha"]), sph.units, e1,
                    [shell.nodes * r for r in self.RADII], tol_rel=1e-8,
                )
                wr = shell.weights * (1.0 - shell.nodes**2) ** combo["d"]
                want += [wr @ np.abs(v) ** combo["p"] @ sph.weights for v in vals]
            assert np.allclose(curve, want, rtol=1e-13, atol=0.0)

    def test_the_first_failing_combo_raises(self, monkeypatch):
        # alpha -1 (n = 3) fails at the last shell, alpha -0.5 (n = 2) at the
        # first: the n = 2 call runs first, but combo 1 comes first
        import hball.experiments as experiments

        orig = experiments.eval_coeff_series_grids
        shells = {2: 0, 3: 0}

        def failing(n, coeffs, *args, **kw):
            shells[n] += 1
            results = orig(n, coeffs, *args, **kw)
            fails = {2: (-0.5, 1), 3: (-1.0, self.DEPTH)}[n]
            return [
                [NonConvergent(f"alpha {alpha} at shell {shells[n]}")]
                if (alpha, shells[n]) == fails else result
                for alpha, result in zip((c.single_kernel_parameter() for c in coeffs), results)
            ]

        monkeypatch.setattr(experiments, "eval_coeff_series_grids", failing)
        cfg = ExperimentConfig(
            "kernel-growth",
            parameters={"combos": [self.COMBOS[0], self.COMBOS[3], self.COMBOS[2]], "j_radii": [3, 4, 5, 6, 7]},
            shells=self.DEPTH,
        )
        with pytest.raises(NonConvergent, match=f"alpha -1.0 at shell {self.DEPTH}"):
            run_experiment("kernel-growth", cfg)


def _combo(i=0, **changes):
    """The small kernel-growth parameters with combo i changed."""
    params = small_config("kernel-growth").parameters
    params["combos"] = [dict(c) for c in params["combos"]]
    params["combos"][i].update(changes)
    return params


def _radii(j_radii):
    return dict(small_config("kernel-growth").parameters, j_radii=j_radii)


# Parameters kernel-growth cannot fit, each with the key its refusal names.
GROWTH_REFUSALS = {
    "no_combos": (r"combos must be", dict(_radii([3, 4, 5, 6, 7]), combos=[])),
    "n_2.5": (r"combos\[1\]\.n must be", _combo(1, n=2.5)),
    "n_4": (r"combos\[0\]\.n must be", _combo(n=4)),
    "p_0": (r"combos\[0\]\.p must be", _combo(p=0.0)),
    "p_inf": (r"combos\[2\]\.p must be", _combo(2, p=math.inf)),
    "alpha_nan": (r"combos\[0\]\.alpha must be", _combo(alpha=math.nan)),
    "d_-1": (r"combos\[0\]\.d must be finite and > -1", _combo(d=-1.0)),
    "d_nan": (r"combos\[1\]\.d must be finite and > -1", _combo(1, d=math.nan)),
    "combo_q": (r"unknown key parameters\.combos\[0\]\.q\b", _combo(q=5)),
    "combo_list": (r"combos\[1\] must be an object", dict(_radii([3, 4, 5, 6, 7]), combos=[_combo()["combos"][0], [2, 1.0, 0.0, 0.0]])),
    "j_-1": (r"j_radii\[0\] must be finite and >= 0", _radii([-1, 4, 5, 6, 7])),
    "unsorted": (r"j_radii must be", _radii([5, 4, 3, 6, 7, 8])),
    "two": (r"j_radii must hold", _radii([3, 4])),
    "one": (r"j_radii must hold", _radii([3])),
    "none": (r"j_radii must be a nonempty list", _radii([])),
    "j_60": (r"j_radii must give", _radii([3, 4, 5, 6, 60])),
}


class TestKernelGrowthConfig:
    """kernel-growth refuses parameters it cannot fit before any work, with
    a ValueError naming the key and, through the CLI, an error and exit 1."""

    @pytest.mark.parametrize("case", list(GROWTH_REFUSALS))
    def test_refused_before_any_work(self, case, monkeypatch):
        import hball.kernel as kernel

        calls = []
        for name in ("_certified_degree", "_evaluate"):
            orig = getattr(kernel, name)
            monkeypatch.setattr(kernel, name, lambda *a, _orig=orig, **kw: calls.append(1) or _orig(*a, **kw))
        match, parameters = GROWTH_REFUSALS[case]
        cfg = ExperimentConfig("kernel-growth", parameters=parameters, shells=16)
        with pytest.raises(ValueError, match=match):
            run_experiment("kernel-growth", cfg)
        assert calls == []

    @pytest.mark.parametrize("case", list(GROWTH_REFUSALS))
    def test_the_cli_refuses_with_an_error(self, case, tmp_path):
        match, parameters = GROWTH_REFUSALS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(ExperimentConfig("kernel-growth", parameters=parameters, shells=16).to_json_dict()))
        out = tmp_path / "r.json"
        result = CliRunner().invoke(main, ["kernel-growth", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: " in result.output
        assert re.search(match, result.output)
        assert not out.exists()

    def test_five_radii_are_fitted(self):
        # the fit reads the last five radii; whether five resolve the
        # regime is the classifier's question, not the config's
        rep = run_experiment("kernel-growth", ExperimentConfig("kernel-growth", parameters=_radii([3, 4, 5, 6, 7]), shells=16))
        validate_report(rep)
        assert rep["summary"]["rows"] == 3


def _family(name, **changes):
    """The small parameters of family experiment `name` with keys changed,
    a key set to KeyError removed."""
    params = dict(small_config(name).parameters, **changes)
    return {k: v for k, v in params.items() if v is not KeyError}


# Parameters the family experiments cannot run, each with the key its
# refusal names.
FAMILY_REFUSALS = {
    "levelset_no_fractions": ("levelset", r"eps_fractions must be a nonempty list", _family("levelset", eps_fractions=[])),
    "levelset_fractions_missing": ("levelset", r"eps_fractions must be a nonempty list", _family("levelset", eps_fractions=KeyError)),
    "levelset_fraction_0": ("levelset", r"eps_fractions\[1\] must be finite and > 0", _family("levelset", eps_fractions=[0.5, 0.0])),
    "levelset_fraction_nan": ("levelset", r"eps_fractions\[0\] must be finite and > 0", _family("levelset", eps_fractions=[math.nan])),
    "levelset_p_inf": ("levelset", r"p_grid\[0\] must be finite and > 0", _family("levelset", p_grid=[math.inf])),
    "inclusion_no_p": ("inclusion", r"p_grid must be a nonempty list", _family("inclusion", p_grid=[])),
    "inclusion_p_0": ("inclusion", r"p_grid\[1\] must be finite and > 0", _family("inclusion", p_grid=[1.0, 0.0])),
    "inclusion_n_3.0": ("inclusion", r"n_grid\[0\] must be 2 or 3", _family("inclusion", n_grid=[3.0])),
    "inclusion_n_true": ("inclusion", r"n_grid\[0\] must be 2 or 3", _family("inclusion", n_grid=[True])),
    "inclusion_alpha_nan": ("inclusion", r"alpha_grid\[0\] must be finite", _family("inclusion", alpha_grid=[math.nan])),
    "distance_no_n": ("distance", r"n_grid must be a nonempty list", _family("distance", n_grid=[])),
    "distance_n_4": ("distance", r"n_grid\[0\] must be 2 or 3", _family("distance", n_grid=[4])),
    "distance_alpha_inf": ("distance", r"alpha_grid\[1\] must be finite", _family("distance", alpha_grid=[0.0, math.inf])),
    "distance_no_alpha": ("distance", r"alpha_grid must be a nonempty list", _family("distance", alpha_grid=KeyError)),
    "distance_p_nan": ("distance", r"p_pair\[1\] must be finite and >= 1", _family("distance", p_pair=[1.0, math.nan])),
    "distance_p_half": ("distance", r"p_pair\[1\] must be finite and >= 1", _family("distance", p_pair=[1.0, 0.5])),
    "distance_one_p": ("distance", r"p_pair must hold two exponents", _family("distance", p_pair=[1.0])),
    "distance_three_p": ("distance", r"p_pair must hold two exponents", _family("distance", p_pair=[1.0, 2.0, 3.0])),
    "membership_n_4": ("membership", r"\bn must be 2 or 3, not 4", _family("membership", n=4)),
    "membership_n_2.0": ("membership", r"\bn must be 2 or 3, not 2\.0", _family("membership", n=2.0)),
    "membership_n_missing": ("membership", r"\bn must be 2 or 3, not None", _family("membership", n=KeyError)),
    "membership_no_p": ("membership", r"p_grid must be a nonempty list", _family("membership", p_grid=[])),
    "membership_p_half": ("membership", r"p_grid\[1\] must be finite and >= 1", _family("membership", p_grid=[1.0, 0.5])),
    "membership_p_inf": ("membership", r"p_grid\[0\] must be finite and >= 1", _family("membership", p_grid=[math.inf])),
    "membership_no_s": ("membership", r"s_grid must be a nonempty list", _family("membership", s_grid=[])),
    "membership_s_nan": ("membership", r"s_grid\[0\] must be finite", _family("membership", s_grid=[math.nan])),
    "membership_delta_missing": ("membership", r"delta_grid must be a nonempty list", _family("membership", delta_grid=KeyError)),
    "membership_delta_inf": ("membership", r"delta_grid\[1\] must be finite", _family("membership", delta_grid=[0.75, -math.inf])),
    "identities_pairs_0": ("verify-identities", r"pairs must be an integer >= 1, not 0", _family("verify-identities", pairs=0)),
    "identities_pairs_2.7": ("verify-identities", r"pairs must be an integer >= 1, not 2\.7", _family("verify-identities", pairs=2.7)),
    "identities_probes_0": ("verify-identities", r"reproduce_probes must be an integer >= 1, not 0", _family("verify-identities", reproduce_probes=0)),
    "identities_layers_-1": ("verify-identities", r"layers must be an integer >= 0, not -1", _family("verify-identities", layers=-1)),
    "identities_layers_true": ("verify-identities", r"layers must be an integer >= 0, not True", _family("verify-identities", layers=True)),
    "identities_unknown_pair": ("verify-identities", r"unknown key parameters\.pair\b", {"pair": 1, "layers": 0, "reproduce_probes": 1}),
    "membership_unknown_n_grid": ("membership", r"unknown key parameters\.n_grid\b", _family("membership", n_grid=[2])),
    # a family report echoes its manifest; a config does not take it back
    "levelset_family": ("levelset", r"unknown key parameters\.family\b", _family("levelset", family={})),
    "distance_parameters_string": ("distance", r"parameters must be an object, not 'x'", "x"),
    "inclusion_parameters_list": ("inclusion", r"parameters must be an object", [["n_grid", [2]]]),
}

# Config files of no experiment's shape, each with the key its refusal names.
CONFIG_FILE_REFUSALS = {
    "no_name": (r"\bname must be the name of an experiment, not None", {"parameters": {}, "shells": 4}),
    "unknown_name": (r"\bname must be the name of an experiment, not 'nope'", {"name": "nope"}),
    "array": (r"the config must be an object", [{"name": "membership"}]),
    "unknown_key": (r"unknown key seeds\b", {"name": "membership", "seeds": 1}),
}


class TestFamilyConfig:
    """The experiments on the fixed test family, membership and
    verify-identities refuse parameters they cannot run before any work,
    with a ValueError naming the key and, through the CLI, an error and
    exit 1; their default configs pass."""

    @pytest.mark.parametrize("case", list(FAMILY_REFUSALS))
    def test_refused_before_any_work(self, case, monkeypatch):
        import hball.experiments as experiments
        import hball.kernel as kernel

        calls = []
        for module, name in (
            (kernel, "_certified_degree"), (kernel, "_evaluate"),
            (experiments, "verification_family"), (experiments, "_grid"),
        ):
            orig = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _orig=orig, **kw: calls.append(1) or _orig(*a, **kw))
        name, match, parameters = FAMILY_REFUSALS[case]
        with pytest.raises(ValueError, match=match):
            run_experiment(name, ExperimentConfig(name, parameters=parameters, shells=4))
        assert calls == []

    @pytest.mark.parametrize("case", list(FAMILY_REFUSALS))
    def test_the_cli_refuses_with_an_error(self, case, tmp_path):
        name, match, parameters = FAMILY_REFUSALS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(ExperimentConfig(name, parameters=parameters, shells=4).to_json_dict()))
        out = tmp_path / "r.json"
        result = CliRunner().invoke(main, [name, "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: " in result.output
        assert re.search(match, result.output)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["membership", "inclusion", "levelset", "distance", "verify-identities"])
    def test_default_and_small_configs_are_accepted(self, name):
        _check_config(name, default_config(name))
        _check_config(name, small_config(name))

    def test_identity_counts_may_be_left_to_their_defaults(self):
        _check_config("verify-identities", ExperimentConfig("verify-identities", parameters={}))
        _check_config("verify-identities", ExperimentConfig("verify-identities", parameters={"layers": 0}))

    def test_a_config_of_another_experiment_is_refused_before_any_work(self, monkeypatch):
        # unchecked, it passes the check of its own experiment's kinds and
        # fails inside the runner with KeyError: 'n'
        def never(cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(EXPERIMENTS, "membership", never)
        with pytest.raises(ValueError, match="config is for experiment 'distance', not 'membership'"):
            run_experiment("membership", default_config("distance"))

    @pytest.mark.parametrize("case", list(CONFIG_FILE_REFUSALS))
    def test_config_files_of_no_experiment_are_refused(self, case, tmp_path):
        match, raw = CONFIG_FILE_REFUSALS[case]
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["membership", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert re.search("Error: .*" + match, result.output)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_default_config_is_a_new_copy_each_call(self, name):
        # the CLI sets the shells and tol of the config it gets
        want = default_config(name).to_json_dict()
        cfg = default_config(name)
        cfg.shells += 1
        for value in cfg.parameters.values():
            if isinstance(value, list):
                if isinstance(value[0], dict):
                    value[0].clear()
                value.append(0)
        cfg.parameters["added"] = 1
        assert default_config(name).to_json_dict() == want


class TestReports:
    def test_schema_validation(self):
        rep = run_experiment("membership", small_config("membership"))
        validate_report(rep)
        with pytest.raises(Exception):
            validate_report({"experiment": "x"})

    def test_the_check_agrees_with_jsonschema(self, valid_reports):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).parents[1] / "src/hball/data/report.schema.json").read_text()
        )

        def verdicts(report):
            ours = theirs = True
            try:
                validate_report(report)
            except ValueError:
                ours = False
            try:
                jsonschema.validate(report, schema)
            except jsonschema.ValidationError:
                theirs = False
            return ours, theirs

        def mutated(report, where, key, value=KeyError):
            out = json.loads(json.dumps(report))
            target = out if where is None else out[where]
            if value is KeyError:
                del target[key]
            else:
                target[key] = value
            return out

        cases = []
        for report in valid_reports:
            cases.append(report)
            for where, keys in ((None, report), ("config", report["config"]), ("summary", report["summary"])):
                cases += [mutated(report, where, key) for key in keys]
                cases.append(mutated(report, where, "extra", 0))
            cases += [mutated(report, "summary", key, value)
                      for key in ("disagreements", "inconclusive", "rows")
                      for value in (-1, 0, 3.0, 2.5, True, None, "1")]
            cases += [mutated(report, "summary", "pass", value) for value in (False, 1, None)]
            cases += [mutated(report, "config", "shells", value) for value in (0, 1, 12.0, 1.5, True, "12")]
            cases += [mutated(report, "config", "tol", value)
                      for value in (0.0, -1e-9, 1e-300, 1, math.nan, math.inf, False, "1e-6")]
            cases += [mutated(report, "config", "seed", value) for value in (-3, 2.0, 0.5, None)]
            cases += [mutated(report, "config", key, value)
                      for key in ("name", "parameters") for value in (3, [], {}, "x")]
            cases += [mutated(report, None, "rows", value) for value in ([], [1], [[]], [{}], {})]
            cases += [mutated(report, None, key, value)
                      for key in ("experiment", "config", "summary") for value in (3, [], None)]
        cases += [[], "report", None]
        for case in cases:
            ours, theirs = verdicts(case)
            assert ours == theirs, case
        assert all(verdicts(report) == (True, True) for report in valid_reports)

    def test_byte_stable_across_runs(self):
        cfg = small_config("membership")
        a = report_to_json(run_experiment("membership", cfg))
        b = report_to_json(run_experiment("membership", small_config("membership")))
        assert a == b

    def test_csv_emission(self):
        rep = run_experiment("membership", small_config("membership"))
        text = report_to_csv(rep)
        lines = text.splitlines()
        assert len(lines) == 1 + rep["summary"]["rows"]
        assert "predicate" in lines[0]

    def test_matches_golden_file(self):
        golden = GOLDEN / "membership_small.json"
        text = report_to_json(run_experiment("membership", small_config("membership")))
        assert text == golden.read_text()

    def test_default_configs_cover_all_experiments(self):
        for name in ("kernel-growth", "membership", "inclusion", "levelset",
                     "distance", "verify-identities"):
            cfg = default_config(name)
            assert cfg.name == name


class TestReportPrecision:
    def test_platform_ulp_neighbours_emit_identical_bytes(self):
        # norm_estimate values of the golden membership run as computed under
        # different numpy SIMD dispatch and BLAS kernels
        for a, b in ((2.3886493636599933, 2.3886493636599937),
                     (3.8116051390791914, 3.811605139079192)):
            assert a != b
            assert json.dumps(_at_report_precision(a)) == json.dumps(_at_report_precision(b))

    def test_non_floats_keep_type_and_value(self):
        row = {
            "agree": True, "slope_ok": False, "n": 2, "norm_estimate": None,
            "f": "atom_critical", "verdicts": {"0.5": "finite"},
            "curve": [[0.875, 1.2345678901234], [0.9375, 2.0]],
            "bracket": (0.1, 0.30000000000000004),
        }
        out = _at_report_precision(row)
        assert out["agree"] is True and out["slope_ok"] is False
        assert type(out["n"]) is int and out["n"] == 2
        assert out["norm_estimate"] is None
        assert out["f"] == "atom_critical" and out["verdicts"] == {"0.5": "finite"}
        assert out["curve"] == [[0.875, 1.23456789], [0.9375, 2.0]]
        assert type(out["bracket"]) is tuple and out["bracket"] == (0.1, 0.3)

    def test_tiny_magnitudes_keep_significant_digits(self):
        assert _at_report_precision(3.2e-13) == 3.2e-13
        assert _at_report_precision(3.21234567891234e-13) == 3.212345679e-13
        assert _at_report_precision(-1.23456789051e-300) == -1.234567891e-300

    def test_non_finite_floats_pass_through(self):
        assert _at_report_precision(math.inf) == math.inf
        assert _at_report_precision(-math.inf) == -math.inf
        assert math.isnan(_at_report_precision(math.nan))

    def test_report_rounds_rows_and_echoes_config(self):
        cfg = ExperimentConfig("membership", {"x": 0.12345678901234}, tol=1.2345678901234e-7)
        rep = _report("membership", cfg, [{"v": 0.12345678901234, "agree": True}], 0, 0)
        assert rep["rows"] == [{"v": 0.123456789, "agree": True}]
        assert rep["config"]["parameters"]["x"] == 0.12345678901234
        assert rep["config"]["tol"] == 1.2345678901234e-7
        assert rep["summary"] == {"pass": True, "disagreements": 0, "inconclusive": 0, "rows": 1}


class TestCli:
    def test_help_lists_experiments(self):
        result = CliRunner().invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("kernel-growth", "membership", "levelset", "verify-identities"):
            assert name in result.output

    def test_membership_run_to_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("membership").to_json_dict()))
        out = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["membership", "--config", str(cfg_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["summary"]["pass"]

    def test_csv_format_to_stdout(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("membership").to_json_dict()))
        result = CliRunner().invoke(
            main, ["membership", "--config", str(cfg_path), "--format", "csv"]
        )
        assert result.exit_code == 0
        assert "predicate" in result.output.splitlines()[0]

    def test_config_name_mismatch_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("membership").to_json_dict()))
        result = CliRunner().invoke(main, ["distance", "--config", str(cfg_path)])
        assert result.exit_code != 0

    def test_shells_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("membership").to_json_dict()))
        out = tmp_path / "r.json"
        result = CliRunner().invoke(
            main,
            ["membership", "--config", str(cfg_path), "--out", str(out), "--shells", "8"],
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["config"]["shells"] == 8

    @pytest.mark.parametrize(
        "key, value", [("shells", 12.9), ("shells", True), ("seed", 1.7), ("seed", "1"), ("tol", "1e-6")]
    )
    def test_config_values_of_the_wrong_type_are_refused(self, key, value, tmp_path):
        d = dict(small_config("membership").to_json_dict(), **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be of type"):
            ExperimentConfig.from_json_dict(d)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        result = CliRunner().invoke(main, ["membership", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert f"Error: {key} must be of type" in result.output

    @pytest.mark.parametrize(
        "key, value",
        [("shells", True), ("tol", True), ("seed", True), ("seed", 1.5), ("tol", "1e-6"), ("tol", 1j)],
    )
    def test_config_values_of_the_wrong_type_are_refused_before_any_work(self, key, value, monkeypatch):
        # through the Python API such a value used to run the experiment and
        # fail only in `validate_report`
        import hball.kernel as kernel

        calls = []
        for name in ("_certified_degree", "_evaluate"):
            orig = getattr(kernel, name)
            monkeypatch.setattr(kernel, name, lambda *a, _orig=orig, **kw: calls.append(1) or _orig(*a, **kw))
        cfg = small_config("membership")
        setattr(cfg, key, value)
        with pytest.raises(ValueError, match=f"{key} must be of type"):
            run_experiment("membership", cfg)
        assert calls == []

    def test_a_config_file_that_is_not_json_is_refused(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"name": "membership",')
        result = CliRunner().invoke(main, ["membership", "--config", str(cfg_path)])
        assert result.exit_code == 1 and "Error: " in result.output

    def test_integral_floats_are_integers(self):
        d = dict(small_config("membership").to_json_dict(), shells=5.0, seed=2.0, tol=1)
        cfg = ExperimentConfig.from_json_dict(d)
        assert (cfg.shells, cfg.seed, cfg.tol) == (5, 2, 1.0)
        assert type(cfg.shells) is int and type(cfg.seed) is int and type(cfg.tol) is float

    @pytest.mark.parametrize(
        "option, value", [("shells", "0"), ("shells", "-2"), ("tol", "0"), ("tol", "nan"), ("tol", "inf")]
    )
    def test_invalid_shells_or_tol_refused_before_any_work(self, option, value, tmp_path, monkeypatch):
        def never(cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(EXPERIMENTS, "membership", never)
        cfg = small_config("membership")
        setattr(cfg, option, int(value) if option == "shells" else float(value))
        with pytest.raises(ValueError, match=option):
            run_experiment("membership", cfg)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("membership").to_json_dict()))
        out = tmp_path / "r.json"
        result = CliRunner().invoke(
            main, ["membership", "--config", str(cfg_path), "--out", str(out), f"--{option}={value}"]
        )
        assert result.exit_code == 1
        assert f"Error: {option} must be" in result.output
        assert not out.exists()
