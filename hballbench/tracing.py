"""Per-layer counters for the traced benchmark run.

The wrappers are placed from outside the package: each traced function is
replaced, in every `hball` module that binds it, by a wrapper that counts
the call and adds its duration.  Durations are inclusive: a layer's seconds
contain the time of the layers it calls.  Nothing under `src/` changes, and
the wrappers return what the wrapped function returns, so a traced run
writes the same report bytes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Every per-layer metric the traced run reports, with zero where a layer is
# not reached.  BENCHMARK.json lists the same names.
METRICS = (
    "kernel.series_calls", "kernel.series_s", "kernel.grid_points",
    "kernel.grid_directions", "kernel.distinct_u", "kernel.paired_points",
    "kernel.points_per_s",
    "calculus.evaluate_grid_calls", "calculus.evaluate_grid_s",
    "calculus.evaluate_calls", "calculus.evaluate_s", "calculus.apply_D_calls",
    "special.zonal_calls", "special.zonal_s",
    "quadrature.grid_builds", "quadrature.grid_build_s",
    "quadrature.ball_rule_builds", "quadrature.ball_rule_build_s",
    "quadrature.shell_walks", "quadrature.shell_walk_s",
    "quadrature.shells_requested", "quadrature.shells_certified",
    "spaces.field_fills", "spaces.field_fill_s",
    "spaces.level_set_calls", "spaces.level_set_s", "spaces.distance_s",
    "spaces.bisect_evals", "spaces.bisect_points", "spaces.bisect_useful_share",
    "spaces.reproduce_calls", "spaces.reproduce_s",
    "experiments.run_s", "experiments.report_s", "experiments.verdicts",
)

UNITS = {
    "kernel.points_per_s": "points/s",
    "spaces.bisect_useful_share": "share",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Counters:
    """Sums of counts and seconds, keyed by raw counter name."""

    def __init__(self):
        self.raw: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float = 1.0) -> None:
        self.raw[name] += value

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, with the ratios formed from the raw sums."""
        raw = self.raw
        out = {name: float(raw.get(name, 0.0)) for name in METRICS}
        points = raw.get("kernel.grid_points", 0.0) + raw.get("kernel.paired_points", 0.0)
        series_s = raw.get("kernel.series_s", 0.0)
        out["kernel.points_per_s"] = points / series_s if series_s > 0.0 else 0.0
        computed = raw.get("spaces.bisect_points", 0.0)
        kept = raw.get("spaces.bisect_kept", 0.0)
        out["spaces.bisect_useful_share"] = kept / computed if computed > 0.0 else 0.0
        return out


def _rebind(modules, orig, wrapper) -> None:
    """Replace `orig` by `wrapper` wherever a module binds it."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _wrap(orig, counters: Counters, calls: str | None, seconds: str | None, observe=None):
    """Count and time every call into `orig`; `observe(bound_args, result)`
    sees the arguments of each call and its result, None when it raised."""
    signature = inspect.signature(orig) if observe is not None else None

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        result = None
        t0 = time.perf_counter()
        try:
            result = orig(*args, **kwargs)
            return result
        finally:
            if seconds is not None:
                counters.add(seconds, time.perf_counter() - t0)
            if calls is not None:
                counters.add(calls)
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)

    return wrapper


def _distinct_u(units: np.ndarray, pole) -> int:
    pole = np.asarray(pole, dtype=float)
    norm = float(np.linalg.norm(pole))
    if norm == 0.0 or units.shape[0] == 0:
        return min(1, units.shape[0])
    u = np.clip(units @ (pole / norm), -1.0, 1.0)
    return int(np.unique(np.round(u, 12)).shape[0])


def install() -> Counters:
    """Place the wrappers on the imported `hball` package; returns the
    counters they fill."""
    import hball.calculus as calculus
    import hball.cli as cli
    import hball.experiments as experiments
    import hball.kernel as kernel
    import hball.quadrature as quadrature
    import hball.spaces as spaces
    import hball.special as special

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hball" or name.startswith("hball."))]
    c = Counters()

    def on_grid(args, _result):
        units = np.asarray(args["units"], dtype=float)
        m = units.shape[0]
        c.add("kernel.grid_points", sum(np.asarray(r).shape[0] * m for r in args["radii_sets"]))
        c.add("kernel.grid_directions", m)
        c.add("kernel.distinct_u", _distinct_u(units, args["pole"]))

    def on_points(args, _result):
        c.add("kernel.paired_points", np.atleast_2d(np.asarray(args["points"])).shape[0])

    def on_walk(args, result):
        if result is None:
            return
        grid = args["d"] if "d" in args else args["grid"]
        c.add("quadrature.shells_requested", grid.depth)
        c.add("quadrature.shells_certified", result.shells_used)

    evaluate_grid = calculus.evaluate_grid
    grid_signature = inspect.signature(evaluate_grid)

    @functools.wraps(evaluate_grid)
    def evaluate_grid_traced(*args, **kwargs):
        # spaces fills shell fields in `eval_shell` and locates level-set
        # boundaries in `_bisect_boundaries`; the caller's frame says which
        caller = sys._getframe(1)
        role = caller.f_code.co_name if caller.f_globals.get("__name__") == "hball.spaces" else None
        t0 = time.perf_counter()
        try:
            return evaluate_grid(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            c.add("calculus.evaluate_grid_calls")
            c.add("calculus.evaluate_grid_s", dt)
            if role == "eval_shell":
                c.add("spaces.field_fills")
                c.add("spaces.field_fill_s", dt)
            elif role == "_bisect_boundaries":
                bound = grid_signature.bind(*args, **kwargs).arguments
                kept = np.asarray(bound["units"]).shape[0]
                c.add("spaces.bisect_evals")
                c.add("spaces.bisect_points", np.asarray(bound["radii"]).shape[0] * kept)
                c.add("spaces.bisect_kept", kept)

    targets = [
        (kernel.eval_coeff_series_grid, "kernel.series_calls", "kernel.series_s", on_grid),
        (kernel.eval_coeff_series_points, "kernel.series_calls", "kernel.series_s", on_points),
        (calculus.evaluate, "calculus.evaluate_calls", "calculus.evaluate_s", None),
        (calculus.apply_D, "calculus.apply_D_calls", None, None),
        (special.zonal, "special.zonal_calls", "special.zonal_s", None),
        (quadrature.shell_decomposition, "quadrature.grid_builds", "quadrature.grid_build_s", None),
        (quadrature.integrate_shells, "quadrature.shell_walks", "quadrature.shell_walk_s", on_walk),
        (quadrature.sup_norm_probe, "quadrature.shell_walks", "quadrature.shell_walk_s", on_walk),
        (spaces.level_set, "spaces.level_set_calls", "spaces.level_set_s", None),
        (spaces.distance_estimate, None, "spaces.distance_s", None),
        (spaces.reproduce, "spaces.reproduce_calls", "spaces.reproduce_s", None),
        (experiments.validate_report, None, "experiments.report_s", None),
        (cli._emit, None, "experiments.report_s", None),
    ]
    for orig, calls, seconds, observe in targets:
        _rebind(modules, orig, _wrap(orig, c, calls, seconds, observe))
    _rebind(modules, evaluate_grid, evaluate_grid_traced)

    build = quadrature.BallQuadrature.build
    quadrature.BallQuadrature.build = staticmethod(
        _wrap(build, c, "quadrature.ball_rule_builds", "quadrature.ball_rule_build_s"))

    def on_run(_args, report):
        if report is None:
            return
        summary = report["summary"]
        c.add("experiments.verdicts", summary["rows"] - summary["inconclusive"])

    _rebind(modules, experiments.run_experiment,
            _wrap(experiments.run_experiment, c, None, "experiments.run_s", on_run))
    return c
