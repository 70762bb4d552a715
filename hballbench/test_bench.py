"""Tests of the benchmark's own code: every reference check accepts the
program's report and rejects one with a verdict flipped, a reference number
moved beyond its tolerance or a row missing; a traced round writes the same
report bytes as an untraced one.

    python3 -m pytest hballbench -q

The test fixture runs one untraced and one traced round of every workload at
seed 0, about three minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 0


@pytest.fixture(scope="session")
def report_bytes():
    """workload -> (untraced report bytes, traced report bytes)."""
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run._runs_dir()))
    try:
        out = {}
        for w in checks.WORKLOADS:
            config_path = workdir / f"{w}.json"
            config_path.write_text(json.dumps(checks.config(w, SEED)))
            rounds = [run.Round(workdir, i, config_path, trace=trace, setup_only=False,
                                timeout=run.RUN_BUDGET_S)
                      for i, trace in ((2 * len(out), False), (2 * len(out) + 1, True))]
            assert all(r.ok for r in rounds), w
            out[w] = tuple(r.report_path.read_bytes() for r in rounds)
        yield out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _failures(workload: str, report: dict) -> list[checks.Outcome]:
    outcomes = checks.check(workload, report, SEED)
    assert len(outcomes) == len(checks.check(workload, {}, SEED))
    return [o for o in outcomes if not o.ok]


@pytest.mark.parametrize("workload", checks.WORKLOADS)
def test_program_reports_pass(report_bytes, workload):
    assert _failures(workload, json.loads(report_bytes[workload][0])) == []


@pytest.mark.parametrize("workload", checks.WORKLOADS)
def test_traced_report_is_byte_identical(report_bytes, workload):
    plain, traced = report_bytes[workload]
    assert plain == traced


@pytest.mark.parametrize("workload", checks.WORKLOADS)
def test_empty_report_fails_every_row(workload):
    outcomes = checks.check(workload, {}, SEED)
    rows = [o for o in outcomes if not o.name.startswith(("spot_values", "reproduce "))]
    assert rows and all(not o.ok and o.detail == "row missing" for o in rows)


@pytest.mark.parametrize("workload", checks.WORKLOADS)
def test_each_missing_row_is_rejected(report_bytes, workload):
    report = json.loads(report_bytes[workload][0])
    for i in range(len(report["rows"])):
        damaged = copy.deepcopy(report)
        del damaged["rows"][i]
        assert _failures(workload, damaged), f"row {i} removed"


def _row(report, **match):
    return next(r for r in report["rows"] if all(r.get(k) == v for k, v in match.items()))


def _flip(value: str, a: str, b: str) -> str:
    return b if value == a else a


# each mutation damages one copy of the report; the checks must reject it
MUTATIONS = {
    "closure-n2": [
        ("flip member_p0", lambda r: _row(r, f="approximant_s=-3.0").update(member_p0="non_member")),
        ("flip member_p1", lambda r: _row(r, f="approximant_s=-1.5").update(member_p1="member")),
        ("move const bloch_norm", lambda r: _row(r, f="const").update(bloch_norm=1.0 + 1e-8)),
        ("move zonal3 upper", lambda r: _row(r, f="zonal3")["bracket"].__setitem__(
            1, 2e-3 * _row(r, f="zonal3")["bloch_norm"])),
        ("move atom lower to 0", lambda r: _row(r, f="atom_critical")["bracket"].__setitem__(0, 0.0)),
        ("move atom upper past norm", lambda r: _row(r, f="atom_critical")["bracket"].__setitem__(
            1, 1.01 * _row(r, f="atom_critical")["bloch_norm"])),
    ],
    "inclusion-n3": (
        [(f"flip decay {i}", lambda r, i=i: r["rows"][i].update(
            decay=_flip(r["rows"][i]["decay"], "decaying", "non_decaying"))) for i in range(14)]
        + [(f"flip norm verdict {i}", lambda r, i=i: r["rows"][i].update(
            norm_verdict=_flip(r["rows"][i]["norm_verdict"], "finite", "divergent")))
           for i in range(14)]
        + [(f"move const p={p}", lambda r, p=p: _row(r, f="const", p=p).update(
            norm_estimate=_row(r, f="const", p=p)["norm_estimate"] * (1.0 + 1e-8)))
           for p in (1.0, 2.0)]
        + [("finite estimate on the critical atom",
            lambda r: _row(r, f="atom_critical", p=1.0).update(norm_estimate=1.0))]
    ),
    "growth-n2": (
        [(f"flip verdict {i}", lambda r, i=i: r["rows"][i].update(
            verdict=_flip(r["rows"][i]["verdict"], "power", "bounded"))) for i in range(6)]
        + [(f"move slope {i}", lambda r, i=i: r["rows"][i].update(slope=r["rows"][i]["w"] + 0.15))
           for i in (0, 1)]
        + [(f"move curve {i} at j={j}", lambda r, i=i, j=j: r["rows"][i]["curve"][j].__setitem__(
            1, r["rows"][i]["curve"][j][1] * (1.0 + 2e-4))) for i in (0, 3, 5) for j in (0, 7)]
    ),
    "identities": (
        [(f"flip pass {i}", lambda r, i=i: r["rows"][i].update({"pass": False}))
         for i in range(10)]
        + [(f"move {field} of {name}", lambda r, name=name, field=field, bound=bound: _row(
            r, check=name).update({field: 2.0 * bound}))
           for name, field, bound in checks.IDENTITY_BOUNDS if bound is not None]
        + [("move slope", lambda r: _row(r, check="pole_ray_growth_exponent").update(slope=2.2))]
    ),
}


@pytest.mark.parametrize("workload", checks.WORKLOADS)
def test_each_mutation_is_rejected(report_bytes, workload):
    report = json.loads(report_bytes[workload][0])
    for name, mutate in MUTATIONS[workload]:
        damaged = copy.deepcopy(report)
        mutate(damaged)
        assert _failures(workload, damaged), name


def test_spot_values_reject_a_moved_value():
    alpha = 0.5
    radii, units = checks.spot_points(SEED, alpha)
    z = radii[:, None] * (units[None, :, 0] + 1j * units[None, :, 1])
    exact = 2.0 * np.real((1.0 - z) ** (-(2.0 + alpha))) - 1.0
    mass = 2.0 * (1.0 - radii[:, None]) ** (-(2.0 + alpha)) - 1.0
    assert checks.spot_problems(alpha, radii, units, exact) == []
    moved = exact.copy()
    moved[1, 3] += 2.0 * checks.SPOT_TOL * mass[1, 0]
    assert checks.spot_problems(alpha, radii, units, moved)


def test_reproduce_probes_reject_a_moved_value(monkeypatch):
    import hball.spaces

    original = hball.spaces.reproduce
    monkeypatch.setattr(hball.spaces, "reproduce",
                        lambda *a, **k: original(*a, **k) + 2.0 * checks.REPRODUCE_TOL)
    outcomes = checks.check("identities", {}, SEED)
    probes = [o for o in outcomes if o.name.startswith("reproduce ")]
    assert probes and not any(o.ok for o in probes)


def test_closed_forms_match_direct_evaluation():
    """The n = 2 closed forms agree with the program's pointwise evaluation."""
    from hball.calculus import HarmonicExpansion, KernelAtom, ZonalTerm, evaluate

    for _, spec, x in checks.reproduce_probes(SEED):
        atom = (ZonalTerm(spec[1], spec[2], spec[3]) if spec[0] == "zonal"
                else KernelAtom(spec[1], spec[2]))
        direct = evaluate(HarmonicExpansion(2, (atom,)), x, tol=1e-12)
        assert abs(checks.closed_form_n2(spec, x) - direct) <= 1e-9
