"""Print, per report of `report_digests.py`, the count and sha256 of the
`_series_sums` calls and of the `_evaluate` calls, and the number of
`_N2Geometry` builds that a checkout makes while it writes that report, as
JSON.

    python tools/series_calls.py <checkout>

A `_series_sums` call's sha256 is taken over n, the reprs of its
coefficients, its tol_abs and tol_rel, and the sha256 of its cosines and of
its radius sets stacked.  An `_evaluate` call's is taken over n, the reprs
of its coefficients, its tol_abs and tol_rel, and per grid the sha256 of
its radii, of its cosines and of its rows, or "product" for a product
grid.  A report's sha256 is that of its calls' in order.  Two checkouts
make the same series calls, the same evaluation batches and the same
geometries when the printed outputs are equal:

    python tools/series_calls.py <old> > old.json
    python tools/series_calls.py <new> > new.json
    diff old.json new.json

The reports run in one process, in the order `report_digests.py` prints
them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from report_digests import report_runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    hball, runs = report_runs(Path(argv[0]).resolve())
    import numpy as np

    from hball import kernel

    calls, evaluations, geometries = [], [], [0]
    series_sums, evaluate, init = kernel._series_sums, kernel._evaluate, kernel._N2Geometry.__init__

    def recorded(n, coeffs, u, rho_sets, *, tol_abs=0.0, tol_rel=0.0):
        rho = np.concatenate([np.asarray(r, dtype=float) for r in rho_sets])
        key = [n, [repr(c) for c in coeffs], repr(tol_abs), repr(tol_rel),
               _sha(np.asarray(u, dtype=float).tobytes()), _sha(rho.tobytes())]
        calls.append(_sha(json.dumps(key).encode()))
        return series_sums(n, coeffs, u, rho_sets, tol_abs=tol_abs, tol_rel=tol_rel)

    def evaluated(n, coeffs, grids, *, tol_abs=0.0, tol_rel=0.0):
        key = [n, [repr(c) for c in coeffs], repr(tol_abs), repr(tol_rel)]
        for rho, u, rows in grids:
            key.append([_sha(np.asarray(rho, dtype=float).tobytes()), _sha(np.asarray(u, dtype=float).tobytes()),
                        "product" if rows is None else _sha(np.asarray(rows, dtype=np.intp).tobytes())])
        evaluations.append(_sha(json.dumps(key).encode()))
        return evaluate(n, coeffs, grids, tol_abs=tol_abs, tol_rel=tol_rel)

    def counted(self, *args, **kwargs):
        geometries[0] += 1
        init(self, *args, **kwargs)

    kernel._series_sums, kernel._evaluate, kernel._N2Geometry.__init__ = recorded, evaluated, counted
    reports = {}
    for key, run in runs.items():
        calls.clear()
        evaluations.clear()
        geometries[0] = 0
        run()
        reports[key] = {
            "series_calls": len(calls),
            "series_sha256": _sha("".join(calls).encode()),
            "evaluate_calls": len(evaluations),
            "evaluate_sha256": _sha("".join(evaluations).encode()),
            "n2_geometries": geometries[0],
        }
    total = {name: sum(r[name] for r in reports.values()) for name in ("series_calls", "evaluate_calls", "n2_geometries")}
    print(json.dumps({"source": str(Path(hball.__file__).parent), "total": total, "reports": reports}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
