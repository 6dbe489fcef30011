import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank import autodiff as ad
from phenorank.losses import LossConfig, LossReport, gene_loss, subgraph_loss, total_loss
from phenorank.sampling import SupervisionLabels


def labels(pos, neg):
    return SupervisionLabels(np.array(pos, dtype=np.int64), np.array(neg, dtype=np.int64))


def sub_oracle(scores, pos, neg, cfg):
    """Double-loop reimplementation of the subgraph loss."""
    acc = 0.0
    if pos and neg:
        for i in pos:
            for j in neg:
                acc += max(0.0, cfg.margin - (scores[i] - scores[j]))
        acc /= len(pos) * len(neg)
    acc += cfg.l1_weight * np.sum(np.abs(scores))
    acc += cfg.l2_weight * np.sum(scores ** 2)
    sig = 1.0 / (1.0 + np.exp(-scores))
    acc += cfg.sparsity_weight * np.mean(np.maximum(sig - cfg.sparsity_threshold, 0.0))
    return acc


def gene_oracle(scores, true_local, cfg):
    """Direct reimplementation of the gene loss."""
    t, a, b = cfg.gene_threshold, cfg.gene_alpha, cfg.gene_beta
    if true_local is not None:
        push = math.log1p(math.exp(-a * (scores[true_local] - t))) / a
        hn = [s for i, s in enumerate(scores) if s > t and i != true_local]
    else:
        push = 0.0
        hn = [s for s in scores if s > t]
    penalty = math.log1p(sum(math.exp(b * (s - t)) for s in hn)) / b
    return push + penalty


def test_config_validation():
    for bad in (dict(margin=0.0), dict(gene_alpha=0.0), dict(gene_beta=-1.0),
                dict(sparsity_threshold=1.0), dict(sparsity_threshold=0.0)):
        with pytest.raises(ValueError):
            LossConfig(**bad)


def test_loss_report_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        LossReport(float("nan"), 0.0, 0.0, 0)


# ------------------------------------------------------------- subgraph loss

def test_subgraph_loss_matches_double_loop_oracle(rng):
    cfg = LossConfig()
    scores = rng.standard_normal(30)
    pos = [0, 3, 7]
    neg = [1, 2, 10, 11, 15]
    loss, degenerate = subgraph_loss(ad.tensor(scores),
                                     labels(pos, neg), cfg)
    assert not degenerate
    assert loss.item() == pytest.approx(sub_oracle(scores, pos, neg, cfg), abs=1e-12)


def test_subgraph_loss_empty_labels_regularizers_only(rng):
    cfg = LossConfig()
    scores = rng.standard_normal(10)
    loss, degenerate = subgraph_loss(ad.tensor(scores),
                                     labels([], []), cfg)
    assert degenerate
    assert loss.item() == pytest.approx(sub_oracle(scores, [], [], cfg), abs=1e-12)


def test_subgraph_loss_empty_scores():
    loss, degenerate = subgraph_loss(ad.tensor(np.zeros(0)),
                                     labels([], []), LossConfig())
    assert degenerate and loss.item() == 0.0


def test_subgraph_loss_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        subgraph_loss(ad.tensor(np.array([1.0, np.inf])),
                      labels([0], [1]), LossConfig())


def test_margin_term_zero_when_separated():
    # positives exceed negatives by more than the margin -> only regularizers
    cfg = LossConfig(margin=0.5, l1_weight=0.0, l2_weight=0.0, sparsity_weight=0.0)
    scores = np.array([2.0, -2.0])
    loss, _ = subgraph_loss(ad.tensor(scores), labels([0], [1]), cfg)
    assert loss.item() == 0.0


def test_margin_term_at_equality_equals_margin():
    cfg = LossConfig(margin=0.7, l1_weight=0.0, l2_weight=0.0, sparsity_weight=0.0)
    scores = np.array([0.3, 0.3])
    loss, _ = subgraph_loss(ad.tensor(scores), labels([0], [1]), cfg)
    assert loss.item() == pytest.approx(0.7)


def test_subgraph_loss_gradient(rng):
    cfg = LossConfig()
    sup = labels([0, 4], [1, 2, 6])
    base = rng.standard_normal(12)
    base[np.abs(base) < 0.05] = 0.1  # keep away from |e| and relu kinks
    params = {"e": ad.Tensor(base)}
    err = ad.grad_check(lambda p: subgraph_loss(p["e"], sup, cfg)[0], params)
    assert err <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=12),
       st.integers(0, 3), st.integers(0, 3))
def test_subgraph_loss_property_nonnegative_and_oracle(vals, i, j):
    scores = np.asarray(vals, dtype=float)
    pos, neg = [i], [min(j + len(vals) // 2, len(vals) - 1)]
    if pos == neg:
        return
    cfg = LossConfig()
    loss, _ = subgraph_loss(ad.tensor(scores), labels(pos, neg), cfg)
    ref = sub_oracle(scores, pos, neg, cfg)
    assert loss.item() >= 0.0
    assert loss.item() == pytest.approx(ref, abs=1e-10)


# ----------------------------------------------------------------- gene loss

def test_gene_loss_matches_direct_oracle(rng):
    cfg = LossConfig()
    scores = rng.uniform(-1, 1.2, size=15)
    loss, n_hn = gene_loss(ad.tensor(scores), 4, cfg)
    assert loss.item() == pytest.approx(gene_oracle(scores, 4, cfg), abs=1e-10)
    assert n_hn == int(np.sum((scores > cfg.gene_threshold) &
                              (np.arange(15) != 4)))


def test_gene_loss_boundary_value():
    # s_true == t and no hard negatives: push = log(2)/alpha exactly
    cfg = LossConfig(gene_alpha=2.0)
    scores = np.array([cfg.gene_threshold, -1.0])
    loss, n_hn = gene_loss(ad.tensor(scores), 0, cfg)
    assert n_hn == 0
    assert loss.item() == pytest.approx(math.log(2.0) / cfg.gene_alpha, abs=1e-12)


def test_gene_loss_vanishes_for_confident_correct():
    cfg = LossConfig()
    scores = np.array([cfg.gene_threshold + 20.0, -5.0, -4.0])
    loss, n_hn = gene_loss(ad.tensor(scores), 0, cfg)
    assert n_hn == 0
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_gene_loss_grows_linearly_for_bad_true_score():
    # for s_true far below t the softplus is ~ (t - s_true)
    cfg = LossConfig(gene_alpha=2.0)
    for gap in (5.0, 10.0):
        scores = np.array([cfg.gene_threshold - gap, -5.0])
        loss, _ = gene_loss(ad.tensor(scores), 0, cfg)
        assert loss.item() == pytest.approx(gap, abs=1e-4)


def test_gene_loss_missing_true_gene_penalizes_all_above_threshold(rng):
    cfg = LossConfig()
    scores = np.array([0.9, 0.8, -0.2])
    loss, n_hn = gene_loss(ad.tensor(scores), None, cfg)
    assert n_hn == 2
    assert loss.item() == pytest.approx(gene_oracle(scores, None, cfg), abs=1e-10)


def test_gene_loss_empty_scores_rejected():
    with pytest.raises(ValueError):
        gene_loss(ad.tensor(np.zeros(0)), None, LossConfig())


def test_gene_loss_monotone_in_hard_negative_score():
    cfg = LossConfig()
    lows = []
    for s_neg in (0.6, 0.8, 1.0):
        scores = np.array([0.9, s_neg])
        loss, _ = gene_loss(ad.tensor(scores), 0, cfg)
        lows.append(loss.item())
    assert lows[0] < lows[1] < lows[2]


def test_gene_loss_gradient(rng):
    cfg = LossConfig(gene_beta=4.0)
    scores = np.array([0.2, 0.9, 1.1, -0.5, 0.65])
    params = {"s": ad.Tensor(scores)}
    err = ad.grad_check(lambda p: gene_loss(p["s"], 0, cfg)[0], params)
    assert err <= 1e-6


# ----------------------------------------------------------------- combined

def test_total_loss_weighted_sum_and_report():
    cfg = LossConfig(gene_weight=0.25)
    total, report = total_loss(ad.tensor(2.0), ad.tensor(4.0), cfg,
                               hard_negative_count=3, margin_degenerate=True)
    assert total.item() == pytest.approx(3.0)
    assert report.loss_sub == 2.0 and report.loss_gene == 4.0
    assert report.loss_total == pytest.approx(3.0)
    assert report.hard_negative_count == 3 and report.margin_degenerate
