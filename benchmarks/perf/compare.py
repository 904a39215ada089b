"""``run.py --compare A.json B.json``: is B no worse than A?

A and B are two suite outputs (``run.py --out``), A the parent.  For
every workload in both:

* digests, failure counts and every exact per-layer metric (counts,
  ratios of counts, simulated statistics) must be equal;
* every end-to-end cell is compared pair by pair - sample ``i`` of A
  and of B ran the same inputs - and the median of the pairwise
  "B worse than A by" shares may be at most the metric's ``bound`` in
  ``BENCHMARK.json``;
* a cell within its bound whose pairwise shares spread (first to third
  quartile) wider than the bound is *unresolved*, not unchanged -
  unless B beat A in every pair.

Exit code 1 on a mismatch or a regression; unresolved cells are
reported and do not fail.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List

#: Per-layer metrics that are host times (or ratios of them); all the
#: others repeat exactly for a fixed (workload, seed).
TIMED_SUFFIXES = (".self_s", ".share")
TIMED_NAMES = frozenset(
    ("obs.overhead_share", "trace.overhead_ratio", "run.wall_over_cpu"))


def is_timed(name: str) -> bool:
    return name.endswith(TIMED_SUFFIXES) or name in TIMED_NAMES


def judge_cell(a: Dict[str, Any], b: Dict[str, Any], better: str,
               bound: float) -> Dict[str, Any]:
    """Verdict on one timed cell: ``regression``, ``unresolved``,
    ``better`` or ``ok``, with the median share by which B is worse
    than A over the pairs (negative: better) and the distance between
    the first and third quartile of those shares."""
    sign = 1.0 if better == "lower" else -1.0
    worse = [sign * (y - x) / x for x, y in zip(a["samples"], b["samples"])]
    median = statistics.median(worse)
    q1, _, q3 = (statistics.quantiles(worse, n=4) if len(worse) > 1
                 else worse * 3)
    if median > bound:
        verdict = "regression"
    elif max(worse) < 0:
        verdict = "better"
    elif q3 - q1 > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"verdict": verdict, "worse_by": median, "spread": q3 - q1}


def compare(a: Dict[str, Any], b: Dict[str, Any],
            contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per checked cell; ``row["verdict"]`` is ``mismatch`` for
    an exact value that differs."""
    rows: List[Dict[str, Any]] = []
    if a["seed"] != b["seed"]:
        rows.append({"workload": "*", "metric": "seed", "verdict": "mismatch",
                     "a": a["seed"], "b": b["seed"]})
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for key in ("digests", "ops_failed"):
            if wa[key] != wb[key] or (key == "ops_failed" and wb[key]):
                rows.append({"workload": workload, "metric": key,
                             "verdict": "mismatch", "a": wa[key], "b": wb[key]})
        for name, value in wa["per_layer"].items():
            other = wb["per_layer"].get(name)
            if not is_timed(name) and other != value:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "mismatch", "a": value, "b": other})
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name in wa["end_to_end"] and name in wb["end_to_end"]:
                rows.append({
                    "workload": workload, "metric": name,
                    "bound": metric["bound"],
                    **judge_cell(wa["end_to_end"][name], wb["end_to_end"][name],
                                 metric["better"], metric["bound"])})
    return rows


def compare_files(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b, contract)
    for row in rows:
        if row["verdict"] == "mismatch":
            print(f"{row['workload']:15s} {row['metric']:36s} MISMATCH  "
                  f"A={row['a']} B={row['b']}")
        else:
            print(f"{row['workload']:15s} {row['metric']:36s} "
                  f"{row['verdict']:10s} worse by {row['worse_by']:+.2%} "
                  f"(bound {row['bound']:.0%}, spread {row['spread']:.2%})")
    bad = [r for r in rows if r["verdict"] in ("mismatch", "regression")]
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"{len(rows)} cells: {len(bad)} failed, {unresolved} unresolved")
    return 1 if bad else 0
