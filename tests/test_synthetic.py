import json
import hashlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from phenorank.synthetic import (DRAW_BLOCK_ROWS, SynthConfig, generate_cohort,
                                 generate_dataset, generate_kg)


def disease_of(key):
    """Planted keys encode their disease: G0007_2 / P0007_3 -> 7."""
    return int(key[1:5])


def test_config_validation():
    for bad in (dict(n_diseases=0), dict(phenotype_noise_rate=1.5),
                dict(background_edge_prob=-0.1), dict(split_mode="random"),
                dict(n_patients=0)):
        with pytest.raises(ValueError):
            SynthConfig(**bad)


def test_config_round_trip():
    cfg = SynthConfig(n_diseases=3, seed=9, additive_noise=True)
    assert SynthConfig(**asdict(cfg)) == cfg


def test_planted_skeleton_exact():
    cfg = SynthConfig(n_diseases=1, genes_per_disease=2, phenos_per_disease=3,
                      n_background_nodes=0, background_edge_prob=0.0,
                      phenotypes_per_patient=3, n_patients=1)
    node_rows, edge_rows, planted = generate_kg(cfg)
    assert [r[0] for r in node_rows] == \
        ["D0000", "G0000_0", "G0000_1", "P0000_0", "P0000_1", "P0000_2"]
    assert edge_rows == [
        ("D0000", "disease_gene", "G0000_0"),
        ("D0000", "disease_gene", "G0000_1"),
        ("D0000", "disease_phenotype", "P0000_0"),
        ("D0000", "disease_phenotype", "P0000_1"),
        ("D0000", "disease_phenotype", "P0000_2"),
    ]
    assert planted == {"D0000": {"genes": ["G0000_0", "G0000_1"],
                                 "phenos": ["P0000_0", "P0000_1", "P0000_2"]}}


def test_no_direct_phenotype_gene_background_edges():
    cfg = SynthConfig(n_diseases=4, n_background_nodes=30,
                      background_edge_prob=0.05, n_patients=1)
    node_rows, edge_rows, _ = generate_kg(cfg)
    type_of = {r[0]: r[1] for r in node_rows}
    for a, rel, c in edge_rows:
        if rel == "background":
            assert {type_of[a], type_of[c]} != {"phenotype", "gene"}


def test_background_edges_match_one_dense_draw():
    """Row blocks draw the same pairs as one n x n matrix, in the same order."""
    cfg = SynthConfig(n_background_nodes=1000, background_edge_prob=0.01, seed=5)
    node_rows, edge_rows, _ = generate_kg(cfg)
    n = len(node_rows)
    assert n > 2 * DRAW_BLOCK_ROWS and n % DRAW_BLOCK_ROWS
    keys = [r[0] for r in node_rows]
    types = np.array([r[1] for r in node_rows])
    draws = np.random.default_rng([cfg.seed, 0x5717]).random((n, n))
    iu, ju = np.triu_indices(n, k=1)
    hit = draws[iu, ju] < cfg.background_edge_prob
    pg = ((types[iu] == "phenotype") & (types[ju] == "gene")) | \
         ((types[iu] == "gene") & (types[ju] == "phenotype"))
    assert np.any(hit & pg)
    planted = {(a, c) for a, rel, c in edge_rows if rel != "background"}
    expected = [(keys[i], "background", keys[j]) for i, j in zip(iu[hit & ~pg], ju[hit & ~pg])
                if (keys[i], keys[j]) not in planted and (keys[j], keys[i]) not in planted]
    assert [r for r in edge_rows if r[1] == "background"] == expected


def test_background_edge_count_within_3_sigma():
    cfg = SynthConfig(n_diseases=2, genes_per_disease=2, phenos_per_disease=2,
                      n_background_nodes=300, background_edge_prob=0.01,
                      n_patients=1, seed=11)
    node_rows, edge_rows, _ = generate_kg(cfg)
    types = [r[1] for r in node_rows]
    n = len(types)
    n_pairs = n * (n - 1) // 2
    pheno_gene = sum(1 for i in range(n) for j in range(i + 1, n)
                     if {types[i], types[j]} == {"phenotype", "gene"})
    planted = cfg.n_diseases * (cfg.genes_per_disease + cfg.phenos_per_disease)
    eligible = n_pairs - pheno_gene - planted
    got = sum(1 for _, rel, _ in edge_rows if rel == "background")
    mean = eligible * cfg.background_edge_prob
    sigma = math.sqrt(mean * (1 - cfg.background_edge_prob))
    assert abs(got - mean) <= 3 * sigma


def test_generation_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(n_diseases=4, n_background_nodes=60,
                      background_edge_prob=0.01, n_patients=30, seed=5)
    m1 = generate_dataset(cfg, tmp_path / "a")
    m2 = generate_dataset(cfg, tmp_path / "b")
    assert m1 == m2
    for name in ("nodes.tsv", "edges.tsv", "train.jsonl", "test.jsonl",
                 "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_different_seeds_change_edges(tmp_path):
    base = dict(n_diseases=4, n_background_nodes=60, background_edge_prob=0.01,
                n_patients=30)
    m1 = generate_dataset(SynthConfig(seed=1, **base), tmp_path / "a")
    m2 = generate_dataset(SynthConfig(seed=2, **base), tmp_path / "b")
    assert m1["files"]["edges.tsv"] != m2["files"]["edges.tsv"]


def test_manifest_hashes_match_files(tmp_path):
    cfg = SynthConfig(n_diseases=3, n_patients=10, seed=2)
    manifest = generate_dataset(cfg, tmp_path / "d")
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest()
        assert actual == digest
    on_disk = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert on_disk == manifest


def test_patient_counts_and_fields():
    cfg = SynthConfig(n_diseases=5, n_patients=80, test_fraction=0.25, seed=1)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    assert len(train) + len(test) == 80
    assert 0 < len(test) < 80
    for p in train + test:
        assert p["phenotypes"] and p["causal_gene"].startswith("G")
        assert len(p["phenotypes"]) <= cfg.phenotypes_per_patient


def test_noise_frequency_matches_rate():
    cfg = SynthConfig(n_diseases=50, genes_per_disease=2, phenos_per_disease=10,
                      phenotypes_per_patient=5, n_patients=2000,
                      phenotype_noise_rate=0.3, test_fraction=0.0, seed=4)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    slots = foreign = 0
    for p in train + test:
        d = disease_of(p["causal_gene"])
        for ph in p["phenotypes"]:
            slots += 1
            if disease_of(ph) != d:
                foreign += 1
    # a noisy slot lands outside the patient's disease w.p. 490/495
    expect = 0.3 * (490.0 / 495.0)
    assert abs(foreign / slots - expect) <= 0.03


def test_zero_noise_keeps_all_phenotypes_on_disease():
    cfg = SynthConfig(n_diseases=10, phenotype_noise_rate=0.0, n_patients=100)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    for p in train + test:
        d = disease_of(p["causal_gene"])
        assert all(disease_of(ph) == d for ph in p["phenotypes"])


def test_high_noise_still_keeps_one_genuine_phenotype():
    cfg = SynthConfig(n_diseases=10, phenotypes_per_patient=4,
                      phenotype_noise_rate=0.99, n_patients=300, seed=8)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    for p in train + test:
        d = disease_of(p["causal_gene"])
        assert any(disease_of(ph) == d for ph in p["phenotypes"]), p["id"]


def test_additive_noise_preserves_chosen_phenotypes():
    cfg = SynthConfig(n_diseases=10, phenotypes_per_patient=4,
                      phenotype_noise_rate=0.5, additive_noise=True,
                      n_patients=200, seed=3)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    saw_extra = False
    for p in train + test:
        d = disease_of(p["causal_gene"])
        own = [ph for ph in p["phenotypes"] if disease_of(ph) == d]
        assert len(own) >= cfg.phenotypes_per_patient \
            or len(p["phenotypes"]) >= cfg.phenotypes_per_patient
        if len(p["phenotypes"]) > cfg.phenotypes_per_patient:
            saw_extra = True
    assert saw_extra


def test_disjoint_genes_split_contract():
    cfg = SynthConfig(n_diseases=10, n_patients=300,
                      split_mode="disjoint_genes", test_fraction=0.2, seed=6)
    _, _, planted = generate_kg(cfg)
    train, test = generate_cohort(cfg, planted)
    train_genes = {p["causal_gene"] for p in train}
    test_genes = {p["causal_gene"] for p in test}
    assert test_genes
    assert not train_genes & test_genes


def test_undersized_disease_warns_once():
    cfg = SynthConfig(n_diseases=2, phenos_per_disease=3,
                      phenotypes_per_patient=5, n_patients=20)
    _, _, planted = generate_kg(cfg)
    with pytest.warns(UserWarning, match="only 3 phenotypes"):
        train, test = generate_cohort(cfg, planted)
    for p in train + test:
        assert len(p["phenotypes"]) <= 3
