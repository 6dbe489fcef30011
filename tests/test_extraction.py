import logging
import math

import numpy as np
import pytest

from phenorank.extraction import (ExtractionConfig, PatientGraph,
                                  compute_edge_threshold, extract_patient_graph,
                                  fuse_scores, load_external_scores,
                                  load_patient_graphs, min_max_normalize)
from phenorank.kg import NodeType, load_graph
from phenorank.sampling import sample_phenotype_subgraph

from conftest import random_graph, write_graph


def fake_scores(sg, rng, gene_low=-1.0, gene_high=1.0):
    """Random raw edge scores and gene scores shaped like a model pass."""
    return (rng.standard_normal(sg.n_arcs),
            rng.uniform(gene_low, gene_high, size=sg.gene_locals.size))


def percentile_oracle(xs, p):
    """Sorted linear interpolation at rank p/100 * (n-1)."""
    s = sorted(xs)
    r = p / 100.0 * (len(s) - 1)
    lo = math.floor(r)
    frac = r - lo
    if frac == 0.0:
        return s[lo]
    return s[lo] + (s[lo + 1] - s[lo]) * frac


def oracle_extract(sg, edge_scores, gene_scores, cfg):
    """Reference expansion written over plain dicts."""
    e = [float(x) for x in edge_scores]
    tau = percentile_oracle(e, cfg.edge_percentile) if e else float("inf")
    gscore = {int(g): float(s) for g, s in zip(sg.gene_locals, gene_scores)}
    adj = {}
    for a in range(sg.n_arcs):
        adj.setdefault(int(sg.local_src[a]), []).append((e[a], int(sg.local_dst[a])))

    def take(cands, k):
        return {d for _, d in sorted(cands, key=lambda c: (-c[0], c[1]))[:k]}

    frontier = {int(p) for p in sg.phenotype_locals}
    nodes = set(frontier)
    hops = [set(frontier)]
    for _ in range(cfg.hops - 1):
        nxt = set()
        for v in frontier:
            nxt |= take([(s, d) for s, d in adj.get(v, []) if s >= tau],
                        cfg.top_k_edges)
        hops.append(nxt)
        nodes |= nxt
        frontier = nxt
    final = set()
    for v in frontier:
        cands = [(s, d) for s, d in adj.get(v, [])
                 if d in gscore and s >= tau and gscore[d] >= cfg.gene_threshold]
        final |= take(cands, cfg.top_k_genes)
    hops.append(final)
    nodes |= final
    to_g = lambda s: {int(sg.local_nodes[v]) for v in s}
    return to_g(nodes), [to_g(h) for h in hops], to_g(final)


def sampled(tmp_path, rng, n=60, e=160, m=3, name="x"):
    while True:
        nodes, edges = random_graph(rng, n, e)
        g = load_graph(*write_graph(tmp_path, nodes, edges, name=name))
        phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
        if phenos:
            return sample_phenotype_subgraph(g, phenos, m)


# ----------------------------------------------------------------- threshold

def test_threshold_matches_interpolation_oracle(rng):
    for n in (1, 2, 5, 40):
        xs = rng.standard_normal(n)
        for p in (10.0, 50.0, 80.0, 99.0):
            assert compute_edge_threshold(xs, p) == pytest.approx(
                percentile_oracle(list(xs), p), abs=1e-12)


def test_threshold_empty_rejected():
    with pytest.raises(ValueError):
        compute_edge_threshold([], 80.0)


def test_config_validation():
    for bad in (dict(hops=0), dict(top_k_edges=0), dict(top_k_genes=0),
                dict(edge_percentile=0.0), dict(edge_percentile=100.0)):
        with pytest.raises(ValueError):
            ExtractionConfig(**bad)


# ---------------------------------------------------------------- extraction

def test_no_qualifying_arcs_keeps_only_phenotypes(tmp_path, rng):
    sg = sampled(tmp_path, rng, m=2)
    scores = fake_scores(sg, rng)
    # raise the gene threshold above every score; edge percentile at 99
    cfg = ExtractionConfig(hops=2, edge_percentile=99.0, gene_threshold=2.0)
    pg = extract_patient_graph(sg, *scores, cfg)
    assert pg.selected_genes == set()
    phen_global = {int(sg.local_nodes[p]) for p in sg.phenotype_locals}
    assert phen_global <= pg.nodes


def test_star_final_hop_caps_at_top_k2(tmp_path, rng):
    nodes = [("p", "phenotype", "p")] + \
            [(f"g{i}", "gene", "g") for i in range(6)]
    edges = [("p", "r", f"g{i}") for i in range(6)]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    sg = sample_phenotype_subgraph(g, {0}, 1)
    # arcs p->g in local order; give arc to gene i score 6-i, all genes pass
    e = np.zeros(sg.n_arcs)
    for a in range(sg.n_arcs):
        if int(sg.local_src[a]) == 0:
            e[a] = 6 - int(sg.local_dst[a])
    scores = (e, np.ones(6))
    cfg = ExtractionConfig(hops=1, top_k_genes=2, edge_percentile=1.0,
                           gene_threshold=0.5)
    pg = extract_patient_graph(sg, *scores, cfg)
    # highest-scoring arcs point at the smallest local gene IDs (globals 1, 2)
    assert pg.selected_genes == {1, 2}


def test_tie_break_prefers_smaller_destination(tmp_path):
    nodes = [("p", "phenotype", "p")] + \
            [(f"g{i}", "gene", "g") for i in range(4)]
    edges = [("p", "r", f"g{i}") for i in range(4)]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    sg = sample_phenotype_subgraph(g, {0}, 1)
    e = np.zeros(sg.n_arcs)  # all scores tie
    scores = (e, np.ones(4))
    cfg = ExtractionConfig(hops=1, top_k_genes=2, edge_percentile=50.0,
                           gene_threshold=0.5)
    pg = extract_patient_graph(sg, *scores, cfg)
    assert pg.selected_genes == {1, 2}


def test_matches_reference_on_200_random_instances(tmp_path, rng):
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(15, 70))
        sg = sampled(tmp_path, rng, n=n, e=int(2.5 * n),
                     m=int(rng.integers(2, 4)), name=f"t{trial}")
        scores = fake_scores(sg, rng)
        cfg = ExtractionConfig(
            hops=int(rng.integers(1, 4)),
            top_k_edges=int(rng.integers(1, 6)),
            top_k_genes=int(rng.integers(1, 4)),
            edge_percentile=float(rng.uniform(10, 95)),
            gene_threshold=float(rng.uniform(-0.5, 0.8)),
        )
        pg = extract_patient_graph(sg, *scores, cfg)
        nodes, hops, final = oracle_extract(sg, *scores, cfg)
        assert pg.nodes == nodes
        assert pg.selected_genes == final
        assert [set(h) for h in pg.frontier_by_hop] == hops
    assert mismatches == 0


def test_gene_threshold_antitone_without_cap(tmp_path, rng):
    # with the per-node cap slack, raising tau_gene can only shrink the set
    for trial in range(20):
        sg = sampled(tmp_path, rng, name=f"a{trial}")
        scores = fake_scores(sg, rng)
        cfg_lo = ExtractionConfig(hops=2, top_k_edges=5, top_k_genes=100,
                                  gene_threshold=0.1)
        cfg_hi = ExtractionConfig(hops=2, top_k_edges=5, top_k_genes=100,
                                  gene_threshold=0.6)
        lo = extract_patient_graph(sg, *scores, cfg_lo).selected_genes
        hi = extract_patient_graph(sg, *scores, cfg_hi).selected_genes
        assert hi <= lo


def test_extraction_is_deterministic(tmp_path, rng):
    sg = sampled(tmp_path, rng)
    scores = fake_scores(sg, rng)
    cfg = ExtractionConfig()
    a = extract_patient_graph(sg, *scores, cfg)
    b = extract_patient_graph(sg, *scores, cfg)
    assert a.nodes == b.nodes and a.selected_genes == b.selected_genes


# ------------------------------------------------------------- normalization

def test_min_max_matches_formula(rng):
    raw = {i: float(v) for i, v in enumerate(rng.standard_normal(10))}
    out = min_max_normalize(raw)
    lo, hi = min(raw.values()), max(raw.values())
    for k, v in raw.items():
        assert out[k] == pytest.approx((v - lo) / (hi - lo), abs=1e-12)
    assert min(out.values()) == 0.0 and max(out.values()) == 1.0


def test_min_max_constant_map_is_half():
    assert min_max_normalize({1: 3.3, 2: 3.3}) == {1: 0.5, 2: 0.5}


def test_min_max_empty_rejected():
    with pytest.raises(ValueError):
        min_max_normalize({})


# --------------------------------------------------------------------- fusion

def member_graph(genes):
    return PatientGraph(nodes=set(genes), frontier_by_hop=[],
                        selected_genes=set(genes))


def test_fusion_zero_delta_preserves_order(rng):
    ext = {i: float(v) for i, v in enumerate(rng.random(12))}
    fused = fuse_scores(ext, member_graph({3, 5}), 0.0)
    plain = sorted(ext.items(), key=lambda kv: (-kv[1], kv[0]))
    assert fused == plain


def test_fusion_adds_delta_to_members_only():
    ext = {1: 0.3, 2: 0.6, 3: 0.9}
    fused = dict(fuse_scores(ext, member_graph({1}), 0.6))
    assert fused[1] == pytest.approx(0.9)
    assert fused[2] == pytest.approx(0.6) and fused[3] == pytest.approx(0.9)


def test_fusion_resort_matches_oracle(rng):
    ext = {i: float(v) for i, v in enumerate(rng.random(30))}
    members = set(int(i) for i in rng.choice(30, size=10, replace=False))
    delta = 0.25
    fused = fuse_scores(ext, member_graph(members), delta)
    expect = {g: s + (delta if g in members else 0.0) for g, s in ext.items()}
    assert fused == sorted(expect.items(), key=lambda kv: (-kv[1], kv[0]))


def test_fusion_missing_member_enters_at_delta(caplog):
    with caplog.at_level(logging.WARNING):
        fused = dict(fuse_scores({1: 0.5}, member_graph({7}), 0.4))
    assert fused[7] == pytest.approx(0.4)
    assert any("missing from external scores" in r.message for r in caplog.records)


def test_fusion_negative_delta_rejected():
    with pytest.raises(ValueError):
        fuse_scores({1: 0.5}, member_graph(set()), -0.1)


# -------------------------------------------------------------- file helpers

def test_patient_graph_files_round_trip(tmp_path):
    pg = PatientGraph(nodes={4, 2, 9}, frontier_by_hop=[], selected_genes={9})
    path = tmp_path / "graphs.jsonl"
    import json
    keys = {v: f"N{v}" for v in (2, 4, 9)}
    path.write_text(json.dumps(pg.to_json_obj("pat1", keys)) + "\n", encoding="utf-8")
    back = load_patient_graphs(path)
    assert back["pat1"] == ({"N2", "N4", "N9"}, {"N9"})


def test_external_scores_loader(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id": "p", "scores": {"G1": 0.25, "G2": 1}}\n',
                    encoding="utf-8")
    assert load_external_scores(path) == {"p": {"G1": 0.25, "G2": 1.0}}
