"""One benchmark round: run an experiment through the `hball` command in a
fresh process, so the program's caches start empty as they do for a user.

    python3 hballbench/child.py --config CFG.json --out REPORT.json --timing T.json [--trace] [--setup-only]

Writes to --timing the CLOCK_MONOTONIC instants at which the experiment was
entered and at which the command returned after writing its report, the
command's exit code and, with --trace, the per-layer counters.  With
--setup-only the process stops at the call into the experiment, so it
measures the imports and the config load alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(Exception):
    """Raised at the call into the experiment of a --setup-only round."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--timing", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from hball import cli

    counters = None
    if args.trace:
        import tracing

        counters = tracing.install()

    marks: dict = {}
    run_experiment = cli.run_experiment

    def entered(name, cfg):
        marks["enter"] = time.monotonic()
        if args.setup_only:
            raise _SetupDone
        return run_experiment(name, cfg)

    cli.run_experiment = entered
    experiment = json.loads(Path(args.config).read_text())["name"]
    code = 0
    try:
        cli.main(args=[experiment, "--config", args.config, "--out", args.out],
                 standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except _SetupDone:
        pass
    marks["end"] = time.monotonic()
    marks["exit_code"] = code
    if counters is not None:
        marks["counters"] = counters.metrics()
    Path(args.timing).write_text(json.dumps(marks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
