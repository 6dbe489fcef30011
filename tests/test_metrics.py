import numpy as np
import pytest

from phenorank.metrics import (MetricReport, Ranking, evaluate_rankings,
                               hits_at_k, inclusion_rate, mrr, rank_genes)


def random_cohort(rng, n_patients=8, n_genes=12):
    """Random score maps plus a truth per patient (sometimes absent)."""
    rankings, truths, score_maps = [], [], []
    for _ in range(n_patients):
        genes = sorted(rng.choice(200, size=n_genes, replace=False).tolist())
        scores = {g: float(rng.standard_normal()) for g in genes}
        truth = int(genes[0]) if rng.random() < 0.8 else 999
        rankings.append(rank_genes(scores))
        truths.append(truth)
        score_maps.append(scores)
    return rankings, truths, score_maps


def test_rank_genes_orders_by_score_then_id():
    r = rank_genes({5: 0.2, 3: 0.9, 8: 0.2, 1: -1.0})
    assert r.order == [3, 5, 8, 1]
    assert r.rank_of == {3: 1, 5: 2, 8: 3, 1: 4}


def test_rank_genes_empty_rejected():
    with pytest.raises(ValueError):
        rank_genes({})


def test_worst_case_ties_moves_truth_to_tail():
    scores = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.1}
    optimistic = rank_genes(scores)
    pessimistic = rank_genes(scores, worst_case_ties=True, truth=1)
    assert optimistic.rank_of[1] == 1
    assert pessimistic.rank_of[1] == 3
    assert pessimistic.rank_of[4] == 4


def test_hits_and_mrr_hand_example():
    rankings = [rank_genes({1: 0.9, 2: 0.5}), rank_genes({1: 0.1, 2: 0.5})]
    truths = [1, 1]
    assert hits_at_k(rankings, truths, 1) == 50.0
    assert hits_at_k(rankings, truths, 2) == 100.0
    assert mrr(rankings, truths) == pytest.approx(100.0 * (1.0 + 0.5) / 2)


def test_missing_truth_counts_as_miss():
    rankings = [rank_genes({1: 0.9})]
    assert hits_at_k(rankings, [42], 5) == 0.0
    assert mrr(rankings, [42]) == 0.0


def test_length_mismatch_rejected():
    r = [rank_genes({1: 1.0})]
    with pytest.raises(ValueError):
        hits_at_k(r, [1, 2], 1)
    with pytest.raises(ValueError):
        mrr(r, [1, 2])
    with pytest.raises(ValueError):
        inclusion_rate([{1}], [1, 2])


def test_empty_cohort_gives_zero():
    assert hits_at_k([], [], 3) == 0.0
    assert mrr([], []) == 0.0
    assert inclusion_rate([], []) == 0.0


def test_metrics_match_loop_oracles_on_100_cohorts(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        rankings, truths, score_maps = random_cohort(rng, n_patients=n)
        for k in (1, 3, 10):
            expect = 0
            for scores, t in zip(score_maps, truths):
                order = sorted(scores, key=lambda g: (-scores[g], g))
                if t in order[:k]:
                    expect += 1
            assert hits_at_k(rankings, truths, k) == pytest.approx(
                100.0 * expect / n, abs=1e-12)
        acc = 0.0
        for scores, t in zip(score_maps, truths):
            order = sorted(scores, key=lambda g: (-scores[g], g))
            if t in order:
                acc += 1.0 / (order.index(t) + 1)
        assert mrr(rankings, truths) == pytest.approx(100.0 * acc / n, abs=1e-12)


def test_hits_monotone_in_k(rng):
    rankings, truths, _ = random_cohort(rng, n_patients=30)
    values = [hits_at_k(rankings, truths, k) for k in (1, 2, 5, 10, 50)]
    assert values == sorted(values)
    assert all(0.0 <= v <= 100.0 for v in values)


def test_metrics_invariant_to_patient_order(rng):
    rankings, truths, _ = random_cohort(rng, n_patients=20)
    perm = rng.permutation(20)
    shuffled = [rankings[i] for i in perm]
    struths = [truths[i] for i in perm]
    assert hits_at_k(rankings, truths, 5) == hits_at_k(shuffled, struths, 5)
    assert mrr(rankings, truths) == pytest.approx(mrr(shuffled, struths))


def test_inclusion_rate_counts_membership():
    graphs = [{1, 2}, {3}, set()]
    assert inclusion_rate(graphs, [2, 4, 5]) == pytest.approx(100.0 / 3)


def test_metric_report_validation_and_serialization():
    rep = MetricReport(hits_at={1: 25.0, 10: 75.0}, mrr=40.0, n_patients=4,
                       inclusion=50.0)
    import json
    obj = json.loads(rep.to_json())
    assert obj["hits_at"] == {"1": 25.0, "10": 75.0}
    assert obj["mrr"] == 40.0 and obj["inclusion_rate"] == 50.0
    table = rep.to_table()
    assert "Hit@1" in table and "MRR" in table
    with pytest.raises(ValueError):
        MetricReport(hits_at={1: 120.0}, mrr=0.0, n_patients=1)


def test_evaluate_rankings_bundles_everything(rng):
    rankings, truths, _ = random_cohort(rng, n_patients=10)
    rep = evaluate_rankings(rankings, truths, ks=(1, 5))
    assert set(rep.hits_at) == {1, 5}
    assert rep.n_patients == 10
