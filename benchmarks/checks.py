"""Output checks.  A solve that raises or fails any check counts as failed.

Every check takes the row's result dict (as the harness records it) and
returns a list of failure reasons; an empty list means the solve passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

# Paper Table 2(d), kappa = 5e4: enriched-method errors in the e_l2 convention
TABLE_2D_OPGM = {16: 1.67e-3, 32: 4.55e-4, 64: 1.19e-4, 128: 3.04e-5, 256: 7.70e-6}
TABLE_2D_RTOL = 0.25
CGM_PLATEAU = (0.20, 0.30)      # saturated plain method, e_N convention
IN_SPACE_TOL = 1e-10            # exact solution in the trial space: e_l2 at roundoff
RESIDUAL_TOL = 1e-12            # ||(E - K) a - f|| / ||f|| of a backward-stable LU solve

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def errors_match(e: float, ref: float, cond: float) -> bool:
    """Whether two e_N values of one solve agree up to a roundoff-level reassembly.

    Relative slack 1e-8, plus 2e-14 * cond(E - K) for the ill-conditioned
    small-kappa enriched rows (cond up to 2.4e12 at kappa = 10): measured
    there, entrywise relative noise d in E, K and f moves e_N by about
    4e-4 * cond * d, so the slack admits noise of 1e-13 with a 480x margin.
    """
    return abs(e - ref) <= ref * (1e-8 + 2e-14 * cond)


def load_reference() -> list[dict]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["rows"]


def _reference_row(res: dict, reference: list[dict]) -> dict | None:
    for ref in reference:
        if (ref["method"], ref["N"], ref["m"]) == (res["method"], res["N"], res["m"]) \
                and math.isclose(ref["kappa"], res["kappa"], rel_tol=1e-12):
            return ref
    return None


def check_row(workload: str, res: dict, seed: int, reference: list[dict]) -> list[str]:
    if res.get("error"):
        return [res["error"]]
    e_N, cond = res["e_N"], res["cond"]
    if not (math.isfinite(e_N) and math.isfinite(cond)):
        return [f"non-finite output: e_N={e_N}, cond={cond}"]
    e_l2 = math.sqrt(2.0) * e_N
    fails = []
    if workload == "table2-k5e4":
        if res["method"] == "opgm":
            ref = TABLE_2D_OPGM[res["N"]]
            if abs(e_l2 / ref - 1.0) > TABLE_2D_RTOL:
                fails.append(f"e_l2={e_l2:.4e} outside 25% of Table 2(d) value {ref:.2e}")
        elif not CGM_PLATEAU[0] <= e_N <= CGM_PLATEAU[1]:
            fails.append(f"e_N={e_N:.4e} outside plateau {CGM_PLATEAU}")
    elif workload == "manufactured-m4":
        if not e_l2 <= IN_SPACE_TOL:
            fails.append(f"in-space solution not reproduced: e_l2={e_l2:.3e}")
    elif workload == "sweep-k10-1e4" and seed == DEFAULT_SEED:
        ref = _reference_row(res, reference)
        if ref is None:
            fails.append("no recorded reference value for this row")
        elif not errors_match(e_N, ref["e_N"], ref["cond"]):
            fails.append(f"e_N={e_N!r} differs from recorded {ref['e_N']!r}")
    if "residual" in res and not res["residual"] <= RESIDUAL_TOL:
        fails.append(f"relative residual {res['residual']:.3e} above {RESIDUAL_TOL:g}")
    if "untraced_e_N" in res and not errors_match(e_N, res["untraced_e_N"], cond):
        fails.append(f"traced e_N={e_N!r} differs from untraced {res['untraced_e_N']!r}")
    return fails
