"""Joint training objective: margin-ranking subgraph loss plus gene loss.

The subgraph loss contrasts every (positive, negative) labeled arc pair
under a margin, and regularizes the full edge-score vector with L1, L2,
and a sparsity penalty on scores whose sigmoid clears the extraction
threshold. The gene loss is a softplus push on the causal gene's score
above threshold t and a log-sum-exp penalty over hard negatives (genes
scored above t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_fields
from .sampling import SupervisionLabels

__all__ = ["LossConfig", "LossReport", "subgraph_loss", "gene_loss", "total_loss"]


@dataclass
class LossConfig:
    margin: float = 0.5
    l1_weight: float = 0.15
    l2_weight: float = 0.15
    sparsity_weight: float = 0.25
    sparsity_threshold: float = 0.5
    gene_alpha: float = 2.0
    gene_beta: float = 40.0
    gene_threshold: float = 0.5
    gene_weight: float = 1.0        # weight of the gene loss in the total
    negative_ratio: int = 5         # negatives per positive when labeling

    def __post_init__(self):
        check_fields(self, margin="> 0", l1_weight=">= 0", l2_weight=">= 0",
                     sparsity_weight=">= 0", sparsity_threshold="(0, 1)",
                     gene_alpha="> 0", gene_beta="> 0", gene_weight=">= 0",
                     negative_ratio=">= 1")


@dataclass
class LossReport:
    loss_sub: float
    loss_gene: float
    loss_total: float
    hard_negative_count: int
    margin_degenerate: bool = False  # no labeled pairs; regularizers only

    def __post_init__(self):
        for v in (self.loss_sub, self.loss_gene, self.loss_total):
            if not math.isfinite(v):
                raise FloatingPointError(f"non-finite loss value {v}")


def subgraph_loss(edge_scores: Tensor, labels: SupervisionLabels,
                  cfg: LossConfig) -> tuple[Tensor, bool]:
    """Margin term over all positive/negative pairs plus regularizers.

    Returns (loss tensor, degenerate flag); the flag is set when either
    labeled set is empty, in which case only the regularizers apply.
    """
    if not np.all(np.isfinite(edge_scores.data)):
        raise FloatingPointError("non-finite edge scores")
    if edge_scores.data.size == 0:
        return ad.tensor(0.0), True
    pos, neg = labels.positive_arcs, labels.negative_arcs
    degenerate = pos.size == 0 or neg.size == 0
    if degenerate:
        loss = ad.tensor(0.0)
    else:
        e_pos = ad.gather_rows(edge_scores, pos)
        e_neg = ad.gather_rows(edge_scores, neg)
        diff = ad.sub(ad.reshape(e_pos, (pos.size, 1)), ad.reshape(e_neg, (1, neg.size)))
        loss = ad.mean_(ad.relu(ad.shift(ad.scale(diff, -1.0), cfg.margin)))
    loss = ad.add(loss, ad.scale(ad.sum_(ad.abs_(edge_scores)), cfg.l1_weight))
    loss = ad.add(loss, ad.scale(ad.sum_(ad.mul(edge_scores, edge_scores)), cfg.l2_weight))
    sparsity = ad.mean_(ad.relu(ad.shift(ad.sigmoid(edge_scores),
                                         -cfg.sparsity_threshold)))
    loss = ad.add(loss, ad.scale(sparsity, cfg.sparsity_weight))
    return loss, degenerate


def gene_loss(gene_scores: Tensor, true_gene_local: int | None,
              cfg: LossConfig) -> tuple[Tensor, int]:
    """Ranking loss against hard negatives; returns (loss, |HN|).

    Hard negatives are genes other than the causal one scored above the
    threshold; when the causal gene is absent the push term is dropped and
    every gene above the threshold is penalized. The hard-negative set is
    selected from current values and treated as constant for gradients.
    """
    if gene_scores.data.size == 0:
        raise ValueError("empty gene score vector")
    values = gene_scores.data
    t = cfg.gene_threshold
    if true_gene_local is not None:
        hn = np.flatnonzero((values > t) & (np.arange(values.size) != true_gene_local))
        s_true = ad.gather_rows(gene_scores, np.asarray([true_gene_local]))
        push = ad.scale(ad.log1p_sum_exp(ad.scale(ad.shift(s_true, -t), -cfg.gene_alpha)),
                        1.0 / cfg.gene_alpha)
    else:
        hn = np.flatnonzero(values > t)
        push = ad.tensor(0.0)
    hn_scores = ad.gather_rows(gene_scores, hn) if hn.size else ad.tensor(np.zeros(0))
    penalty = ad.scale(ad.log1p_sum_exp(ad.scale(ad.shift(hn_scores, -t), cfg.gene_beta)),
                       1.0 / cfg.gene_beta)
    return ad.add(push, penalty), int(hn.size)


def total_loss(loss_sub: Tensor, loss_gene: Tensor, cfg: LossConfig,
               hard_negative_count: int = 0,
               margin_degenerate: bool = False) -> tuple[Tensor, LossReport]:
    """Combine the two objectives; the report carries scalar values."""
    total = ad.add(loss_sub, ad.scale(loss_gene, cfg.gene_weight))
    report = LossReport(
        loss_sub=loss_sub.item(),
        loss_gene=loss_gene.item(),
        loss_total=total.item(),
        hard_negative_count=hard_negative_count,
        margin_degenerate=margin_degenerate,
    )
    return total, report
