"""The names the benchmark's tracer binds in `hball` still exist.

`hballbench/tracing.py` wraps `hball` functions from outside the package
and reads some of their arguments by keyword name, and the caller's frame
by function name.  A rename there does not fail a traced run: the counter
just reads 0.  So this test installs the tracer in a fresh process, as the
benchmark's child does, and checks every name it relies on.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per module, per function, the parameters the tracer or its workloads
# bind by name
BOUND = {
    "kernel": {
        "eval_coeff_series_grid": ["n", "coeff", "units", "pole", "radii_sets", "tol_rel"],
        "eval_coeff_series_points": ["points"],
    },
    "calculus": {
        "evaluate": ["f", "x", "tol"],
        "evaluate_grid": ["f", "radii", "units"],
    },
    "spaces": {"reproduce": ["f", "s", "t", "x", "q"]},
    "quadrature": {"integrate_shells": ["d"], "sup_norm_probe": ["grid"]},
}

# the functions of `hball.spaces` whose frames the traced `evaluate_grid` reads
CALLERS = ["eval_shell", "_bisect_boundaries"]

SCRIPT = textwrap.dedent(
    """
    import importlib, inspect, json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    from hball import cli  # noqa: F401  (imports every module, as the child does)
    import tracing

    tracing.install()
    missing = []
    for module, functions in json.loads(sys.argv[3]).items():
        mod = importlib.import_module("hball." + module)
        for name, params in functions.items():
            fn = getattr(mod, name, None)
            have = set(inspect.signature(fn).parameters) if callable(fn) else set()
            missing += [f"{module}.{name}({p})" for p in params if p not in have]

    def names(code):
        yield code.co_name
        for const in code.co_consts:
            if inspect.iscode(const):
                yield from names(const)

    spaces = importlib.import_module("hball.spaces")
    defined = {name for fn in vars(spaces).values() if inspect.isfunction(fn)
               for name in names(inspect.unwrap(fn).__code__)}
    missing += [f"spaces.{name}" for name in json.loads(sys.argv[4]) if name not in defined]
    print(json.dumps(missing))
    """
)


def test_the_tracer_installs_and_finds_every_name_it_binds():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "hballbench"),
         json.dumps(BOUND), json.dumps(CALLERS)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
