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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import hball
    from hball.experiments import EXPERIMENTS, ExperimentConfig, report_to_json, run_experiment

    def digest(name: str, cfg) -> str:
        return hashlib.sha256(report_to_json(run_experiment(name, cfg)).encode()).hexdigest()

    checks = _load_checks(checkout)
    reports = {}
    for workload in checks.WORKLOADS:
        for seed in SEEDS:
            cfg = ExperimentConfig.from_json_dict(checks.config(workload, seed))
            reports[f"{workload}/seed{seed}"] = digest(cfg.name, cfg)
    for name in EXPERIMENTS:
        reports[f"default/{name}"] = digest(name, None)
    print(json.dumps({"source": str(Path(hball.__file__).parent), "reports": reports}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
