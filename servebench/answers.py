"""The answer check every served response goes through.

``reference.json`` (made by ``make_reference.py``) lists each bench
graph's most probable maximum weighted butterflies with P(B), weight
and standard error.  A response passes when

* its status is ``ok`` and its ranking is a well-formed top-k list;
* its top-1 butterfly is a reference butterfly;
* its top-1 estimate is not below the *target*'s reference P(B) by
  more than a band: a correct estimator ranks first the largest of its
  estimates, and that is at least the estimate of the target (or of a
  more probable butterfly), which is unbiased or, for OLS and OLS-KL,
  biased upwards only (Lemma VI.5);
* its top-1 estimate is within that band of the top-1 butterfly's own
  reference P(B).

A wrong top-1 reported with its own honest estimate fails the third
test; a wrong top-1 carrying the right butterfly's estimate fails the
fourth.  How far below the MPMB a top-1 must be to fail depends on the
request's budget: :meth:`AnswerCheck.lowest_estimate` gives it.

The band is ``Z`` standard errors.  A response's standard error comes
from its own trial count (a Bernoulli mean over ``n_trials`` worlds,
the spread of MC-VP, OS and, as an upper bound, OLS), except for
OLS-KL, whose budgets are sized by Lemma VI.4 for relative error
epsilon with probability 1 - delta: there it comes from that target,
or from the epsilon an adaptive run certified and reports in its
guarantee.  The reference's own standard error is added in quadrature.
``Z = 6`` makes a false failure of a correct estimator drawing any
random stream a one-in-10^8 event, so a failure means a wrong answer,
not an unlucky seed.

OLS and OLS-KL only rank the candidates their preparing phase found,
so their target is not always the MPMB.  A world's maximum weighted
butterflies share one weight, so the events "B is a maximum weighted
butterfly" of butterflies of different weights are disjoint: the
chance that a world lists one of the first r reference butterflies is
at least the sum, over the weights among them, of the largest P(B) of
that weight.  The target is the first reference butterfly r at which
``N`` preparing trials (Lemma VI.1) miss all of the first r with
probability below ``MISS_PROBABILITY``.  Each heavier butterfly the
preparing phase misses may inflate an estimate by up to its P(B)
(Lemma VI.5), so for these methods the estimate may exceed the top-1's
reference by that bound summed over the heavier reference butterflies.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Standard errors in the acceptance band.
Z = 6.0

#: The preparing phase may miss all of the target and the reference
#: butterflies above it with at most this probability.
MISS_PROBABILITY = 1e-7

#: Preparing-phase trials of a request that sets none (QueryRequest's
#: default).
DEFAULT_PREPARE = 100

#: Methods that rank only a sampled candidate set C_MB.
CANDIDATE_METHODS = ("ols", "ols-kl")

#: The Lemma VI.4 target OLS-KL is sized for when a request gives none
#: (``find_mpmb`` defaults: epsilon = delta = 0.1).
KL_DESIGN_EPSILON = 0.1
KL_DESIGN_DELTA = 0.1

#: Relative tolerance under which two weights tie (the kernels'
#: ``WEIGHT_RTOL``).
WEIGHT_RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def _z_two_sided(delta: float) -> float:
    """Normal quantile z with P(|N(0,1)| > z) = delta."""
    low, high = 0.0, 10.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if math.erfc(mid / math.sqrt(2.0)) > delta:
            low = mid
        else:
            high = mid
    return low


class AnswerCheck:
    """Checks responses against the reference table of one registry."""

    def __init__(self) -> None:
        document = json.loads(REFERENCE_PATH.read_text())
        self.rows: Dict[str, List[Dict]] = {}
        self.tables: Dict[str, Dict[Tuple[str, ...], Dict]] = {}
        for name, entry in document["graphs"].items():
            rows = entry["butterflies"]
            self.rows[name] = rows
            self.tables[name] = {tuple(row["labels"]): row for row in rows}

    def _stderr(self, document: Dict, p: float) -> float:
        """A response's standard error for an estimate near ``p``."""
        if document["method"] == "ols-kl":
            # Karp-Luby budgets target a relative error (Lemma VI.4); an
            # adaptive run reports the epsilon it certified instead.
            guarantee = document["guarantee"] or {}
            epsilon = guarantee.get("epsilon", KL_DESIGN_EPSILON)
            delta = guarantee.get("delta", KL_DESIGN_DELTA)
            return epsilon / _z_two_sided(delta) * p
        n = document["n_trials"]
        if n <= 0:
            return math.inf
        spread = 0.25 if p >= 0.5 else p * (1.0 - p)
        return math.sqrt(spread / n)

    def target(self, dataset: str, method: str, prepare: int) -> Dict:
        """The reference row a correct top-1 must come close to."""
        rows = self.rows[dataset]
        if method not in CANDIDATE_METHODS:
            return rows[0]
        best_by_weight: Dict[float, float] = {}
        for row in rows:
            weight = next(
                (w for w in best_by_weight
                 if math.isclose(w, row["weight"], rel_tol=WEIGHT_RTOL)),
                row["weight"],
            )
            listed = max(0.0, row["probability"] - Z * row["stderr"])
            best_by_weight[weight] = max(
                best_by_weight.get(weight, 0.0), listed
            )
            missed = max(0.0, 1.0 - sum(best_by_weight.values()))
            if missed ** prepare < MISS_PROBABILITY:
                return row
        return {"probability": 0.0, "stderr": 0.0}

    def _omission_bound(self, dataset: str, weight: float) -> float:
        """Lemma VI.5: P(B) of every heavier reference butterfly."""
        return sum(
            row["probability"] for row in self.rows[dataset]
            if row["weight"] > weight * (1.0 + WEIGHT_RTOL)
        )

    def lowest_estimate(self, document: Dict, prepare: int) -> float:
        """The smallest top-1 estimate a correct ranking reports.

        A wrong top-1 reported with its own P(B) as the estimate fails
        when that P(B) is below this.
        """
        rows = self.rows[document["dataset"]]
        target = self.target(document["dataset"], document["method"], prepare)
        # The estimator's best listed butterfly is the target or one
        # above it; ``_stderr`` at the top P(B) bounds its standard error.
        se = self._stderr(document, rows[0]["probability"])
        return target["probability"] - Z * math.hypot(se, target["stderr"])

    def check(self, document: Dict, payload: Dict) -> Optional[str]:
        """``None`` if the response passes, else why it fails."""
        if document["status"] != "ok":
            return f"status {document['status']} ({document['reason']})"
        ranking = document["ranking"]
        top_k = payload.get("top_k", 1)
        if not 1 <= len(ranking) <= top_k:
            return f"{len(ranking)} ranked rows for top_k={top_k}"
        probabilities = [row["probability"] for row in ranking]
        if any(a < b for a, b in zip(probabilities, probabilities[1:])):
            return "ranking is not sorted by probability"
        dataset = document["dataset"]
        labels = tuple(ranking[0]["labels"])
        estimate = probabilities[0]
        top = self.tables[dataset].get(labels)
        if top is None:
            return f"top-1 {labels} is not among the reference butterflies"
        lowest = self.lowest_estimate(
            document, payload.get("prepare", DEFAULT_PREPARE)
        )
        if estimate < lowest:
            return (
                f"top-1 {labels} estimated {estimate:.5f}, below the "
                f"lowest a correct ranking reports, {lowest:.5f}"
            )
        p_top = top["probability"]
        se = self._stderr(document, max(p_top, estimate))
        band = Z * math.hypot(se, top["stderr"])
        excess = 0.0
        if document["method"] in CANDIDATE_METHODS:
            excess = self._omission_bound(dataset, top["weight"])
        if not -band <= estimate - p_top <= band + excess:
            return (
                f"estimate {estimate:.5f} for {labels} vs reference "
                f"{p_top:.5f}, band {band:.5f} (+{excess:.5f})"
            )
        return None
