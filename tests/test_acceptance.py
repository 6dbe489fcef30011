"""End-to-end acceptance checks for the whole pipeline.

Each test covers one release criterion and records a PASS/FAIL summary
line (printed after the run). The learning-signal and split-direction
checks train real models on the synthetic generator and take a few
minutes; everything is seeded, so results are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from phenorank import autodiff as ad
from phenorank.extraction import (ExtractionConfig, PatientGraph,
                                  extract_patient_graph, fuse_scores,
                                  min_max_normalize)
from phenorank.kg import load_graph
from phenorank.losses import LossConfig, gene_loss, subgraph_loss, total_loss
from phenorank.metrics import (hits_at_k, inclusion_rate, mrr, rank_genes)
from phenorank.model import ModelConfig, ModelParams, forward, init_params
from phenorank.sampling import (label_supervision_edges, load_cohort,
                                sample_phenotype_subgraph, shortest_path_arcs)
from phenorank.synthetic import SynthConfig, generate_dataset
from phenorank.training import (CheckpointError, TrainConfig, load_checkpoint,
                                save_checkpoint, train)

from conftest import write_graph
from test_extraction import fake_bundle, oracle_extract, sampled


def record(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def train_and_eval(scfg, mcfg, tcfg, tmp_path, tag):
    """Generate, train, and score the held-out split; returns a stats dict."""
    out = tmp_path / tag
    generate_dataset(scfg, out)
    g = load_graph(out / "nodes.tsv", out / "edges.tsv")
    train_cohort = load_cohort(out / "train.jsonl", g.key_to_id)
    test_cohort = load_cohort(out / "test.jsonl", g.key_to_id)
    ckpt, reports = train(g, train_cohort, mcfg, LossConfig(), tcfg)
    params = ckpt.ranking_params()
    rankings, truths, baselines = [], [], []
    for rec in test_cohort:
        sg = sample_phenotype_subgraph(g, rec.phenotypes, tcfg.sample_hops)
        bundle = forward(params, ckpt.model_config, sg)
        scores = {int(sg.local_nodes[gl]): float(s)
                  for gl, s in zip(sg.gene_locals, bundle.gene_scores.data)}
        rankings.append(rank_genes(scores))
        truths.append(rec.causal_gene)
        baselines.append(100.0 * min(1.0, 10.0 / len(scores)))
    return {
        "n_train": len(train_cohort),
        "n_test": len(test_cohort),
        "loss_drop": 1.0 - reports[-1].loss_total / reports[0].loss_total,
        "hit1": hits_at_k(rankings, truths, 1),
        "hit10": hits_at_k(rankings, truths, 10),
        "baseline10": float(np.mean(baselines)),
    }


# ----------------------------------------------------- 1: gradient fidelity

def test_criterion_1_gradient_fidelity(tmp_path):
    # toy graph: 3 phenotypes -> 2 diseases -> 6 genes plus clutter, <= 30 nodes
    nodes, edges = [], []
    for i in range(3):
        nodes.append((f"p{i}", "phenotype", "ph"))
    for d in range(2):
        nodes.append((f"d{d}", "disease", "ds"))
        for i in range(3):
            edges.append((f"p{i}", "r", f"d{d}"))
        for j in range(3):
            nodes.append((f"g{d}_{j}", "gene", "gn"))
            edges.append((f"d{d}", "r", f"g{d}_{j}"))
    for b in range(4):
        nodes.append((f"o{b}", "other", "bg"))
        edges.append((f"o{b}", "r", "d0"))
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    sg = sample_phenotype_subgraph(g, {0, 1, 2}, 2)
    assert sg.n_nodes <= 30

    lcfg = LossConfig()
    causal = g.key_to_id["g0_1"]
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, causal),
                                     lcfg.negative_ratio,
                                     np.random.default_rng(3))
    true_local = int(np.flatnonzero(
        sg.local_nodes[sg.gene_locals] == causal)[0])
    mcfg = ModelConfig(embed_dim=6, hidden_dim=6, out_dim=4, heads=2, layers=2,
                       attn_proj_dim=4)
    params = init_params(mcfg, g.node_count, np.random.default_rng(0))

    def loss_fn(tensor_map):
        bundle = forward(ModelParams(tensor_map), mcfg, sg)
        l_sub, degenerate = subgraph_loss(bundle.edge_scores, labels, lcfg)
        l_gene, hn = gene_loss(bundle.gene_scores, true_local, lcfg)
        total, _ = total_loss(l_sub, l_gene, lcfg, hn, degenerate)
        return total

    t0 = time.monotonic()
    err = ad.grad_check(loss_fn, params.tensors, n_samples=20,
                        rng=np.random.default_rng(1))
    elapsed = time.monotonic() - t0
    record(1, "gradient fidelity", err <= 1e-4 and elapsed < 60.0,
           f"max rel err {err:.2e}, {elapsed:.1f}s")


# ------------------------------------------- 2: extraction oracle equivalence

def test_criterion_2_extraction_matches_reference(tmp_path):
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    all_equal = True
    for trial in range(200):
        n = int(rng.integers(15, 80))
        sg = sampled(tmp_path, rng, n=n, e=int(2.5 * n),
                     m=int(rng.integers(2, 4)), name=f"c2_{trial}")
        bundle = fake_bundle(sg, rng)
        cfg = ExtractionConfig(
            hops=int(rng.integers(1, 4)),
            top_k_edges=int(rng.integers(1, 7)),
            top_k_genes=int(rng.integers(1, 4)),
            edge_percentile=float(rng.uniform(10, 95)),
            gene_threshold=float(rng.uniform(-0.5, 0.8)),
        )
        pg = extract_patient_graph(sg, bundle, cfg)
        nodes, _, final = oracle_extract(sg, bundle, cfg)
        if pg.nodes != nodes or pg.selected_genes != final:
            all_equal = False
            break
    elapsed = time.monotonic() - t0
    record(2, "extraction oracle equivalence", all_equal and elapsed < 30.0,
           f"200 instances, {elapsed:.1f}s")


# ------------------------------------------------------- 3: metric oracles

def test_criterion_3_metric_loop_oracles():
    rng = np.random.default_rng(77)
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 15))
        rankings, truths, score_maps, graphs = [], [], [], []
        for _ in range(n):
            genes = sorted(rng.choice(300, size=10, replace=False).tolist())
            scores = {g: float(rng.standard_normal()) for g in genes}
            truth = int(genes[int(rng.integers(10))]) \
                if rng.random() < 0.8 else 9999
            rankings.append(rank_genes(scores))
            truths.append(truth)
            score_maps.append(scores)
            graphs.append(set(int(x) for x in rng.choice(300, size=5,
                                                         replace=False)))
        orders = [sorted(s, key=lambda g: (-s[g], g)) for s in score_maps]
        for k in (1, 5, 10):
            expect = 100.0 * sum(1 for o, t in zip(orders, truths)
                                 if t in o[:k]) / n
            exact &= hits_at_k(rankings, truths, k) == expect
        expect_mrr = 100.0 * sum(1.0 / (o.index(t) + 1)
                                 for o, t in zip(orders, truths) if t in o) / n
        exact &= abs(mrr(rankings, truths) - expect_mrr) < 1e-12
        expect_inc = 100.0 * sum(1 for gs, t in zip(graphs, truths)
                                 if t in gs) / n
        exact &= inclusion_rate(graphs, truths) == expect_inc
    record(3, "metric loop oracles", exact, "100 cohorts")


# ------------------------------------------------------- 4: learning signal

def test_criterion_4_learning_signal(tmp_path):
    scfg = SynthConfig(n_diseases=40, genes_per_disease=5,
                       phenos_per_disease=10, n_background_nodes=1360,
                       background_edge_prob=0.003, phenotype_noise_rate=0.2,
                       phenotypes_per_patient=8, n_patients=500,
                       split_mode="mixed", seed=7)
    mcfg = ModelConfig(embed_dim=64, hidden_dim=64, out_dim=32)
    tcfg = TrainConfig(epochs=30, seed=0, learning_rate=5e-4)
    t0 = time.monotonic()
    stats = train_and_eval(scfg, mcfg, tcfg, tmp_path, "c4")
    elapsed = time.monotonic() - t0
    ratio = stats["hit10"] / stats["baseline10"]
    ok = (ratio >= 3.0 and stats["loss_drop"] >= 0.30 and elapsed < 600.0)
    record(4, "learning signal", ok,
           f"Hit@10 {stats['hit10']:.1f} vs baseline {stats['baseline10']:.1f}"
           f" (x{ratio:.2f}), loss -{100 * stats['loss_drop']:.0f}%,"
           f" {elapsed:.0f}s")


# -------------------------------------------------- 5: split-gap direction

def test_criterion_5_mixed_beats_disjoint_split(tmp_path):
    base = dict(n_diseases=20, genes_per_disease=4, phenos_per_disease=8,
                n_background_nodes=500, background_edge_prob=0.004,
                phenotype_noise_rate=0.2, phenotypes_per_patient=6,
                n_patients=250, seed=11)
    mcfg = ModelConfig(embed_dim=32, hidden_dim=32, out_dim=16)
    tcfg = TrainConfig(epochs=15, seed=0, learning_rate=5e-4)
    mixed = train_and_eval(SynthConfig(split_mode="mixed", **base),
                           mcfg, tcfg, tmp_path, "c5m")
    disjoint = train_and_eval(SynthConfig(split_mode="disjoint_genes", **base),
                              mcfg, tcfg, tmp_path, "c5d")
    record(5, "mixed split beats disjoint split",
           mixed["hit1"] > disjoint["hit1"],
           f"Hit@1 mixed {mixed['hit1']:.1f} vs disjoint {disjoint['hit1']:.1f}")


# ------------------------------------------------------------ 6: fusion

def test_criterion_6_fusion_never_hurts_at_full_inclusion():
    rng = np.random.default_rng(123)
    patients = []
    for _ in range(40):
        genes = sorted(int(x) for x in rng.choice(100, size=20, replace=False))
        external = {g: float(rng.random()) for g in genes}
        truth = genes[int(rng.integers(20))]
        members = set(rng.choice(genes, size=6, replace=False).tolist())
        members.add(truth)  # 100% inclusion
        pg = PatientGraph(nodes=members, frontier_by_hop=[],
                          selected_genes=members)
        patients.append((external, pg, truth))

    def mrr_for(delta):
        rankings, truths = [], []
        for external, pg, truth in patients:
            fused = fuse_scores(min_max_normalize(external), pg, delta)
            order = [g for g, _ in fused]
            rankings.append(type("R", (), {
                "rank_of": {g: i + 1 for i, g in enumerate(order)}})())
            truths.append(truth)
        return mrr(rankings, truths)

    base_mrr = mrr_for(0.0)
    monotone = all(mrr_for(d) >= base_mrr for d in (0.1, 0.6))

    identity = True
    for external, pg, _ in patients:
        norm = min_max_normalize(external)
        fused = fuse_scores(norm, pg, 0.0)
        plain = sorted(norm.items(), key=lambda kv: (-kv[1], kv[0]))
        identity &= [g for g, _ in fused] == [g for g, _ in plain]
    record(6, "fusion monotone at full inclusion", monotone and identity,
           f"base MRR {base_mrr:.1f}, boosted MRR "
           f"{mrr_for(0.1):.1f}/{mrr_for(0.6):.1f}")


# -------------------------------------------- 7: threshold antitonicity

def test_criterion_7_gene_threshold_antitone(tmp_path):
    rng = np.random.default_rng(55)
    antitone = True
    for trial in range(50):
        sg = sampled(tmp_path, rng, n=50, e=130, m=2, name=f"c7_{trial}")
        bundle = fake_bundle(sg, rng)
        lo = extract_patient_graph(sg, bundle,
                                   ExtractionConfig(gene_threshold=0.5))
        hi = extract_patient_graph(sg, bundle,
                                   ExtractionConfig(gene_threshold=0.9))
        antitone &= len(hi.selected_genes) <= len(lo.selected_genes)
    record(7, "gene threshold antitone", antitone, "50 patients")


# ------------------------------------------------------ 8: determinism

def test_criterion_8_pipeline_byte_determinism(tmp_path):
    from phenorank.cli import main

    synth_cfg = {"n_diseases": 4, "genes_per_disease": 3,
                 "phenos_per_disease": 5, "n_background_nodes": 40,
                 "background_edge_prob": 0.01, "phenotypes_per_patient": 4,
                 "n_patients": 30, "seed": 21}
    train_cfg = {"embed_dim": 8, "hidden_dim": 8, "out_dim": 6, "heads": 2,
                 "layers": 2, "attn_proj_dim": 4, "epochs": 3,
                 "learning_rate": 1e-3, "seed": 21}

    def pipeline(root):
        root.mkdir()
        (root / "synth.json").write_text(json.dumps(synth_cfg))
        (root / "train.json").write_text(json.dumps(train_cfg))
        data, run = root / "data", root / "run"
        assert main(["synth", "--config", str(root / "synth.json"),
                     "--out", str(data)]) == 0
        assert main(["train", "--nodes", str(data / "nodes.tsv"),
                     "--edges", str(data / "edges.tsv"),
                     "--cohort", str(data / "train.jsonl"),
                     "--config", str(root / "train.json"),
                     "--out-dir", str(run)]) == 0
        assert main(["predict", "--nodes", str(data / "nodes.tsv"),
                     "--edges", str(data / "edges.tsv"),
                     "--checkpoint", str(run / "checkpoint.rnck"),
                     "--patients", str(data / "test.jsonl"),
                     "--out", str(run / "pred.jsonl")]) == 0
        assert main(["evaluate", "--predictions", str(run / "pred.jsonl"),
                     "--cohort", str(data / "test.jsonl"),
                     "--out", str(run / "report.json")]) == 0
        hashes = {}
        for manifest in sorted(root.rglob("*_manifest.json")):
            obj = json.loads(manifest.read_text())
            hashes[manifest.name] = obj["output_hashes"]
        return hashes

    h1 = pipeline(tmp_path / "run_a")
    h2 = pipeline(tmp_path / "run_b")
    record(8, "pipeline byte determinism", h1 == h2,
           f"{len(h1)} manifests compared")


# ----------------------------------------------- 9: checkpoint integrity

def test_criterion_9_checkpoint_integrity(tmp_path):
    nodes = [("p", "phenotype", "p"), ("d", "disease", "d"),
             ("g1", "gene", "g"), ("g2", "gene", "g")]
    edges = [("p", "r", "d"), ("d", "r", "g1"), ("d", "r", "g2")]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.sampling import PatientRecord
    cohort = [PatientRecord("x", {0}, 2)]
    mcfg = ModelConfig(embed_dim=8, hidden_dim=8, out_dim=6, heads=2,
                       layers=2, attn_proj_dim=4)
    ckpt, _ = train(g, cohort, mcfg, LossConfig(),
                    TrainConfig(epochs=1, seed=0, val_fraction=0.0))
    p1, p2 = tmp_path / "a.rnck", tmp_path / "b.rnck"
    save_checkpoint(ckpt, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    round_trip_exact = p1.read_bytes() == p2.read_bytes()

    corrupted_detected = True
    blob = bytearray(p1.read_bytes())
    for offset in (5, len(blob) // 3, len(blob) - 7):
        bad = bytearray(blob)
        bad[offset] ^= 0x40
        (tmp_path / "bad.rnck").write_bytes(bytes(bad))
        try:
            load_checkpoint(tmp_path / "bad.rnck")
            corrupted_detected = False
        except CheckpointError:
            pass
    record(9, "checkpoint integrity", round_trip_exact and corrupted_detected,
           "round trip exact, 3 corruption probes caught")
