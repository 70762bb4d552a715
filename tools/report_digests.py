"""Print the sha256 of every report a checkout writes, as JSON.

    python tools/report_digests.py <checkout>

The reports are those of the four benchmark workloads at seeds 0-3, with
the configs `hballbench/checks.config` gives (the checkout's, which is
only read), and of the six experiments at their default configs, each
serialized as the CLI writes it (`report_to_json`).  Two checkouts write
byte-identical reports when the printed digests are equal:

    python tools/report_digests.py <old> > old.json
    python tools/report_digests.py <new> > new.json
    diff old.json new.json

The checkout's `src` is imported ahead of any installed `hball`; the
printed "source" names the package that ran.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

SEEDS = range(4)


def _load_checks(checkout: Path):
    """The checkout's `hballbench/checks.py`, loaded as a module by path."""
    spec = importlib.util.spec_from_file_location("_checks", checkout / "hballbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def report_runs(checkout: Path) -> tuple:
    """(hball, runs): the package imported from the checkout's `src`, and
    per report its key and a function that runs it and returns the JSON the
    CLI writes, in the order `main` prints them."""
    sys.path.insert(0, str(checkout / "src"))
    import hball
    from hball.experiments import EXPERIMENTS, ExperimentConfig, report_to_json, run_experiment

    def run(name: str, cfg):
        return lambda: report_to_json(run_experiment(name, cfg))

    checks = _load_checks(checkout)
    runs = {}
    for workload in checks.WORKLOADS:
        for seed in SEEDS:
            cfg = ExperimentConfig.from_json_dict(checks.config(workload, seed))
            runs[f"{workload}/seed{seed}"] = run(cfg.name, cfg)
    for name in EXPERIMENTS:
        runs[f"default/{name}"] = run(name, None)
    return hball, runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    hball, runs = report_runs(Path(argv[0]).resolve())
    reports = {key: hashlib.sha256(run().encode()).hexdigest() for key, run in runs.items()}
    print(json.dumps({"source": str(Path(hball.__file__).parent), "reports": reports}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
