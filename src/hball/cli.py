"""Command-line harness: run named verifications, emit JSON/CSV tables.

Exit codes: 0 when every check passes, 1 on a hard disagreement or a refused
config, 2 when the only failures are inconclusive verdicts.  A config is
refused before any work when its file is not JSON, is not an object, names
no experiment or another experiment, has a key the experiment does not read
(at any depth: a family report's echoed `family` manifest too), or holds a
value not of its key's kind (a seed, shell depth or tolerance not of its
report schema type, a shell depth below 1, a tolerance that is not finite
and positive, a missing or empty list, a bad entry, dimension or count; see
`experiments._check_config`).  A refusal is printed as `Error: ...` naming
the key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _check_config,
    default_config,
    report_to_csv,
    report_to_json,
    run_experiment,
)


def _exit_code(report: dict) -> int:
    summary = report["summary"]
    if summary["pass"]:
        return 0
    if summary["disagreements"] > 0:
        return 1
    return 2


def _load_config(name: str, config_path: str | None, shells: int | None, tol: float | None) -> ExperimentConfig:
    try:
        if config_path is None:
            cfg = default_config(name)
        else:
            cfg = ExperimentConfig.from_json_dict(json.loads(Path(config_path).read_text()))
        if shells is not None:
            cfg.shells = shells
        if tol is not None:
            cfg.tol = tol
        _check_config(name, cfg)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    return cfg


def _emit(report: dict, out: str | None, fmt: str) -> None:
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        summary = report["summary"]
        click.echo(
            f"{report['experiment']}: pass={summary['pass']} "
            f"disagreements={summary['disagreements']} "
            f"inconclusive={summary['inconclusive']} rows={summary['rows']} -> {out}"
        )


def _make_command(name: str):
    @click.command(name=name, help=f"Run the {name} verification.")
    @click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                  help="JSON experiment config (defaults to the built-in grid).")
    @click.option("--out", "out", type=click.Path(), default=None,
                  help="Output path (stdout when omitted).")
    @click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
    @click.option("--shells", type=int, default=None,
                  help="Shell depth override; verify-identities reads no shell depth.")
    @click.option("--tol", type=float, default=None,
                  help="Tolerance override; only kernel-growth reads it, as min(tol, 1e-8).")
    def cmd(config_path, out, fmt, shells, tol):
        cfg = _load_config(name, config_path, shells, tol)
        report = run_experiment(name, cfg)
        _emit(report, out, fmt)
        sys.exit(_exit_code(report))

    return cmd


@click.group()
def main():
    """Desk-scale verification harness for the harmonic-ball machinery."""


for _name in EXPERIMENTS:
    main.add_command(_make_command(_name))


if __name__ == "__main__":
    main()
