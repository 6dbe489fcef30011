import json
import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import phenorank
from phenorank.synthetic import SynthConfig, generate_cohort, generate_dataset, generate_kg

DATA_FILES = ("nodes.tsv", "edges.tsv", "train.jsonl", "test.jsonl")

# The graph and cohort of acceptance criterion 4 and of the benchmark's
# train-c4 workload.
C4_SYNTH = {
    "n_diseases": 40, "genes_per_disease": 5, "phenos_per_disease": 10,
    "n_background_nodes": 1360, "background_edge_prob": 0.003,
    "phenotype_noise_rate": 0.2, "phenotypes_per_patient": 8,
    "split_mode": "mixed", "n_patients": 500, "test_fraction": 0.2, "seed": 7,
}


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
    assert m1["edges.tsv"] != m2["edges.tsv"]


def test_manifest_hashes_match_files(tmp_path):
    cfg = SynthConfig(n_diseases=3, n_patients=10, seed=2)
    hashes = generate_dataset(cfg, tmp_path / "d")
    assert sorted(hashes) == sorted([*DATA_FILES, "manifest.json"])
    for name, digest in hashes.items():
        actual = hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest()
        assert actual == digest
    on_disk = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert on_disk == {"config": asdict(cfg), "seed": cfg.seed,
                       "files": {name: hashes[name] for name in DATA_FILES}}


def test_c4_data_files_keep_their_bytes(tmp_path):
    # a change to the draws, their order or the file layout changes these
    hashes = generate_dataset(SynthConfig(**C4_SYNTH), tmp_path)
    assert {name: hashes[name] for name in DATA_FILES} == {
        "nodes.tsv": "c8678f8ad4d5b18e0efca0dc6beeeefd672762b71bd485b55176de59ee548fd7",
        "edges.tsv": "0df9eeffadf9238e41a82429c30320ea962957a08cd4d283327b21d1a867af7f",
        "train.jsonl": "27fc4622c1161cc63a987be08092272e815d8804d163a6b516faf6642b64084f",
        "test.jsonl": "6b693b6b9c9e8905988c4e37e3b295a17c0e8cdbb655c4de2e0d31dd010cb876",
    }


def test_synth_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashing is salted per process; no draw may depend on set order
    (tmp_path / "synth.json").write_text(json.dumps(C4_SYNTH), encoding="utf-8")
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(Path(phenorank.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "phenorank.cli", "synth",
                               "--config", str(tmp_path / "synth.json"), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in (*DATA_FILES, "manifest.json")])
    assert outputs[0] == outputs[1]


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


# ------------------------------------------------------ the old generator

def oracle_generate_kg(cfg: SynthConfig):
    """The graph generator with its background pairs read from 128-row
    blocks of the full n x n uniform matrix: the reference that
    `generate_kg` must match."""
    rng = np.random.default_rng([cfg.seed, 0x5717])
    node_rows, edge_rows = [], []
    planted = {}
    for d in range(cfg.n_diseases):
        dk = f"D{d:04d}"
        node_rows.append((dk, "disease", f"disease {d}"))
        genes, phenos = [], []
        for j in range(cfg.genes_per_disease):
            gk = f"G{d:04d}_{j}"
            node_rows.append((gk, "gene", f"gene {d}.{j}"))
            edge_rows.append((dk, "disease_gene", gk))
            genes.append(gk)
        for j in range(cfg.phenos_per_disease):
            pk = f"P{d:04d}_{j}"
            node_rows.append((pk, "phenotype", f"phenotype {d}.{j}"))
            edge_rows.append((dk, "disease_phenotype", pk))
            phenos.append(pk)
        planted[dk] = {"genes": genes, "phenos": phenos}
    for b in range(cfg.n_background_nodes):
        node_rows.append((f"B{b:05d}", "other", f"background {b}"))

    keys = [r[0] for r in node_rows]
    kind = np.array([{"phenotype": 1, "gene": 2}.get(r[1], 0) for r in node_rows])
    n = len(keys)
    planted_pairs = {(min(a, c), max(a, c)) for a, _, c in edge_rows}
    if cfg.background_edge_prob > 0:
        for r0 in range(0, n, 128):
            block = rng.random((min(128, n - r0), n))
            iu, ju = np.nonzero(block < cfg.background_edge_prob)
            iu += r0
            keep = (iu < ju) & (kind[iu] * kind[ju] != 2)
            for i, j in zip(iu[keep], ju[keep]):
                a, c = keys[i], keys[j]
                if (min(a, c), max(a, c)) not in planted_pairs:
                    edge_rows.append((a, "background", c))
    return node_rows, edge_rows, planted


def oracle_generate_cohort(cfg: SynthConfig, planted: dict):
    """The cohort generator with each noise phenotype picked from a list of
    every phenotype the patient does not hold yet: the reference that
    `generate_cohort` must match."""
    rng = np.random.default_rng([cfg.seed, 0xC0407])
    disease_keys = sorted(planted)
    all_phenos = sorted(p for d in disease_keys for p in planted[d]["phenos"])
    all_genes = sorted(g for d in disease_keys for g in planted[d]["genes"])

    patients = []
    warned = False
    for i in range(cfg.n_patients):
        dk = disease_keys[int(rng.integers(len(disease_keys)))]
        genes, phenos = planted[dk]["genes"], planted[dk]["phenos"]
        causal = genes[int(rng.integers(len(genes)))]
        n_ph = min(cfg.phenotypes_per_patient, len(phenos))
        if n_ph < cfg.phenotypes_per_patient and not warned:
            warnings.warn(
                f"disease {dk} has only {len(phenos)} phenotypes; "
                f"taking all instead of {cfg.phenotypes_per_patient}")
            warned = True
        chosen = list(rng.choice(phenos, size=n_ph, replace=False))
        final = []
        extra = []
        for p in chosen:
            if rng.random() < cfg.phenotype_noise_rate:
                candidates = [q for q in all_phenos
                              if q not in chosen and q not in final and q not in extra]
                if not candidates:
                    raise ValueError(
                        f"phenotype_noise_rate {cfg.phenotype_noise_rate}: patient "
                        f"pt{i:05d} holds every phenotype, none is left to draw as "
                        f"noise; n_diseases * phenos_per_disease must be at least "
                        f"2 * min(phenotypes_per_patient, phenos_per_disease)")
                noise = candidates[int(rng.integers(len(candidates)))]
                if cfg.additive_noise:
                    final.append(p)
                    extra.append(noise)
                else:
                    final.append(noise)
            else:
                final.append(p)
        if (not cfg.additive_noise and cfg.phenotype_noise_rate < 1.0
                and not set(final) & set(chosen)):
            final[0] = chosen[0]
        patients.append({
            "id": f"pt{i:05d}",
            "phenotypes": sorted(set(final + extra)),
            "causal_gene": causal,
        })

    if cfg.split_mode == "mixed":
        in_test = rng.random(cfg.n_patients) < cfg.test_fraction
    else:
        n_hold = max(1, int(round(cfg.test_fraction * len(all_genes))))
        holdout = set(rng.choice(all_genes, size=n_hold, replace=False))
        in_test = np.array([p["causal_gene"] in holdout for p in patients])
    train = [p for p, t in zip(patients, in_test) if not t]
    test = [p for p, t in zip(patients, in_test) if t]
    return train, test


def _cohort_outcome(fn, cfg, planted):
    """("ok", JSON of the split, warnings) or ("error", message, warnings)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result = ("ok", json.dumps(fn(cfg, planted), sort_keys=True))
        except ValueError as exc:
            result = ("error", str(exc))
    return (*result, [str(w.message) for w in seen])


SMALL = dict(n_diseases=12, n_background_nodes=80, background_edge_prob=0.02,
             n_patients=150, seed=3)
ORACLE_CONFIGS = {
    "replacement": (dict(SMALL, phenotype_noise_rate=0.3), "ok"),
    "additive": (dict(SMALL, phenotype_noise_rate=0.5, additive_noise=True), "ok"),
    "noise_0": (dict(SMALL, phenotype_noise_rate=0.0), "ok"),
    "noise_0.99": (dict(SMALL, phenotype_noise_rate=0.99, phenotypes_per_patient=4), "ok"),
    "noise_1.0": (dict(SMALL, phenotype_noise_rate=1.0), "ok"),
    "additive_noise_1.0": (dict(SMALL, phenotype_noise_rate=1.0, additive_noise=True), "ok"),
    "disjoint_genes": (dict(SMALL, split_mode="disjoint_genes", test_fraction=0.3), "ok"),
    "edge_prob_0": (dict(SMALL, background_edge_prob=0.0), "ok"),
    "edge_prob_1": (dict(SMALL, n_diseases=3, n_background_nodes=20,
                         background_edge_prob=1.0), "ok"),
    "no_background": (dict(SMALL, n_background_nodes=0), "ok"),
    # every phenotype of the graph is drawn by the last noise slot
    "one_disease": (dict(SMALL, n_diseases=1, phenos_per_disease=6,
                         phenotypes_per_patient=3, phenotype_noise_rate=1.0,
                         additive_noise=True), "ok"),
    "too_few_phenotypes": (dict(SMALL, phenos_per_disease=3,
                                phenotypes_per_patient=5), "warns"),
    "none_left": (dict(SMALL, n_diseases=1, phenos_per_disease=3,
                       phenotypes_per_patient=3, phenotype_noise_rate=1.0), "error"),
}


@pytest.mark.parametrize("overrides, expect", ORACLE_CONFIGS.values(), ids=list(ORACLE_CONFIGS))
def test_generator_matches_the_old_generator(overrides, expect):
    cfg = SynthConfig(**overrides)
    kg = generate_kg(cfg)
    assert kg == oracle_generate_kg(cfg)
    outcome = _cohort_outcome(generate_cohort, cfg, kg[2])
    assert outcome == _cohort_outcome(oracle_generate_cohort, cfg, kg[2])
    kind, _, seen = outcome
    assert (kind, bool(seen)) == {"ok": ("ok", False), "warns": ("ok", True),
                                  "error": ("error", False)}[expect]
