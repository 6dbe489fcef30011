"""Ranking construction and evaluation metrics: Hit@k, MRR, inclusion rate.

All metrics are reported in percent. Patients whose true gene is absent
from a ranking (or patient graph) count as misses rather than being
dropped, so a lossy upstream stage shows up in the numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Ranking", "MetricReport", "rank_genes", "hits_at_k", "mrr",
           "inclusion_rate", "evaluate_rankings"]


@dataclass
class Ranking:
    order: list                      # gene IDs, best first
    rank_of: dict                    # gene -> 1-based rank


def rank_genes(gene_scores: dict, worst_case_ties: bool = False,
               truth=None) -> Ranking:
    """Descending-score ranking; ties break by ascending gene ID.

    With `worst_case_ties`, the truth gene is instead placed last within
    its tie group (pessimistic sensitivity mode).
    """
    if not gene_scores:
        raise ValueError("empty gene score map")

    def key(g):
        s = -float(gene_scores[g])
        if worst_case_ties and truth is not None:
            return (s, g == truth, g)
        return (s, g)

    order = sorted(gene_scores, key=key)
    return Ranking(order=order, rank_of={g: i + 1 for i, g in enumerate(order)})


def hits_at_k(rankings, truths, k: int) -> float:
    """Percent of patients whose true gene ranks within the top k."""
    if len(rankings) != len(truths):
        raise ValueError("rankings and truths must align")
    if not rankings:
        return 0.0
    hits = sum(1 for r, t in zip(rankings, truths)
               if r.rank_of.get(t) is not None and r.rank_of[t] <= k)
    return 100.0 * hits / len(rankings)


def mrr(rankings, truths) -> float:
    """Mean reciprocal rank in percent; absent truths contribute 0."""
    if len(rankings) != len(truths):
        raise ValueError("rankings and truths must align")
    if not rankings:
        return 0.0
    total = sum(1.0 / r.rank_of[t] for r, t in zip(rankings, truths)
                if t in r.rank_of)
    return 100.0 * total / len(rankings)


def inclusion_rate(node_sets, truths) -> float:
    """Percent of patients whose true gene is inside the extracted node set."""
    if len(node_sets) != len(truths):
        raise ValueError("patient graphs and truths must align")
    if not node_sets:
        return 0.0
    included = sum(1 for ns, t in zip(node_sets, truths) if t in ns)
    return 100.0 * included / len(node_sets)


@dataclass
class MetricReport:
    """Ranking metrics, and inclusion when patient graphs were given.

    `mrr` is None when no ranking was given; the report then holds neither
    MRR nor Hit@k.
    """

    hits_at: dict                    # k -> percent
    mrr: float | None
    n_patients: int
    inclusion: float | None = None

    def __post_init__(self):
        vals = list(self.hits_at.values())
        vals += [v for v in (self.mrr, self.inclusion) if v is not None]
        if any(not 0.0 <= v <= 100.0 for v in vals):
            raise ValueError("metric percentages must lie in [0, 100]")

    def to_json(self) -> str:
        obj = {"n_patients": self.n_patients}
        if self.mrr is not None:
            obj["hits_at"] = {str(k): v for k, v in sorted(self.hits_at.items())}
            obj["mrr"] = self.mrr
        if self.inclusion is not None:
            obj["inclusion_rate"] = self.inclusion
        return json.dumps(obj, sort_keys=True, indent=2)

    def to_table(self) -> str:
        rows = [("patients", f"{self.n_patients}")]
        for k in sorted(self.hits_at):
            rows.append((f"Hit@{k}", f"{self.hits_at[k]:.1f}"))
        rows.append(("MRR", "n/a" if self.mrr is None else f"{self.mrr:.1f}"))
        if self.inclusion is not None:
            rows.append(("inclusion", f"{self.inclusion:.1f}"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def evaluate_rankings(rankings, truths, ks=(1, 5, 10)) -> MetricReport:
    return MetricReport(
        hits_at={k: hits_at_k(rankings, truths, k) for k in ks},
        mrr=mrr(rankings, truths),
        n_patients=len(truths),
    )
