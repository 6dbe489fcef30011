from collections import deque

import numpy as np
import pytest

from phenorank.kg import load_graph
from phenorank.sampling import (PatientRecord, SupervisionLabels,
                                label_supervision_edges, load_cohort,
                                shortest_path_arcs,
                                sample_phenotype_subgraph)

from conftest import random_graph, write_graph


def bfs_oracle(g, sources, m):
    """Brute-force multi-source BFS truncated at depth m."""
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        v = q.popleft()
        if dist[v] == m:
            continue
        for _, u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def test_star_graph_one_hop(star_graph):
    sg = sample_phenotype_subgraph(star_graph, {0}, 1)
    assert sg.n_nodes == 5
    assert sg.gene_locals.tolist() == [1, 2, 3, 4]
    assert list(sg.phenotype_locals) == [0]


def test_chain_gene_beyond_hop_limit(chain_graph):
    sg = sample_phenotype_subgraph(chain_graph, {0}, 1)
    assert set(sg.local_nodes.tolist()) == {0, 1}
    assert sg.gene_locals.tolist() == []


def test_chain_two_hops_reaches_gene(chain_graph):
    sg = sample_phenotype_subgraph(chain_graph, {0}, 2)
    assert set(sg.local_nodes.tolist()) == {0, 1, 2}
    assert sg.local_nodes[sg.gene_locals].tolist() == [2]


def test_invalid_hop_count(chain_graph):
    with pytest.raises(ValueError):
        sample_phenotype_subgraph(chain_graph, {0}, 0)


def test_unknown_phenotypes_skipped_fatal_when_none_left(chain_graph):
    sg = sample_phenotype_subgraph(chain_graph, {0, 99}, 1)
    assert list(sg.phenotype_locals) == [0]
    with pytest.raises(ValueError, match="no valid phenotype"):
        sample_phenotype_subgraph(chain_graph, {99}, 1)
    with pytest.raises(ValueError, match="no valid phenotype"):
        sample_phenotype_subgraph(chain_graph, {2}, 1)  # gene-typed node


def test_node_set_matches_bfs_oracle(tmp_path, rng):
    nodes, edges = random_graph(rng, 200, 500)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = [int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:4]]
    for m in (1, 2, 3):
        sg = sample_phenotype_subgraph(g, set(phenos), m)
        oracle = bfs_oracle(g, phenos, m)
        assert set(sg.local_nodes.tolist()) == set(oracle)


def test_arcs_are_induced_and_monotone(tmp_path, rng):
    nodes, edges = random_graph(rng, 150, 350)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
    prev = set()
    for m in (1, 2, 3, 4):
        sg = sample_phenotype_subgraph(g, phenos, m)
        present = set(sg.local_nodes.tolist())
        assert prev <= present  # monotone in m
        prev = present
        local = set(range(sg.n_nodes))
        assert set(sg.local_src.tolist()) <= local
        assert set(sg.local_dst.tolist()) <= local
        # induced: every graph arc between local nodes appears exactly once
        expected = {(a, u, v) for u in present for a, v in g.neighbors(u)
                    if v in present}
        got = {(int(a), int(sg.local_nodes[s]), int(sg.local_nodes[d]))
               for a, s, d in zip(sg.global_arc_id, sg.local_src, sg.local_dst)}
        assert got == expected


def test_candidate_genes_matches_type_scan(tmp_path, rng):
    nodes, edges = random_graph(rng, 120, 300)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
    sg = sample_phenotype_subgraph(g, phenos, 2)
    oracle = [i for i, v in enumerate(sg.local_nodes)
              if g.node_type(int(v)) is NodeType.GENE]
    assert sg.gene_locals.tolist() == oracle


# ------------------------------------------------------------- supervision

def triangle_subgraph(tmp_path):
    nodes = [("p", "phenotype", "p"), ("d", "disease", "d"), ("g", "gene", "g")]
    edges = [("p", "r", "d"), ("d", "r", "g"), ("p", "r", "g")]
    g = load_graph(*write_graph(tmp_path, nodes, edges, name="tri"))
    return g, sample_phenotype_subgraph(g, {0}, 1)


def test_triangle_positives_are_direct_arcs(tmp_path, rng):
    g, sg = triangle_subgraph(tmp_path)
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, 2), 5, rng)
    pos_pairs = {(int(sg.local_src[i]), int(sg.local_dst[i]))
                 for i in labels.positive_arcs}
    # shortest p->g path is the single direct arc; both orientations of
    # p-g qualify because each direction is its own shortest-path arc set
    assert (0, 2) in pos_pairs
    assert all(pair in {(0, 2), (2, 0)} for pair in pos_pairs)


def test_absent_causal_gene_flags_patient(tmp_path, rng):
    g, sg = triangle_subgraph(tmp_path)
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, 999), 5, rng)
    assert labels.positive_arcs.size == 0 and labels.negative_arcs.size == 0
    assert labels.degenerate


def test_no_causal_gene_gives_empty_labels_and_draws_nothing(tmp_path):
    g, sg = triangle_subgraph(tmp_path)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, None), 5, rng)
    assert labels.degenerate
    assert labels.positive_arcs.size == 0 and labels.negative_arcs.size == 0
    assert rng.bit_generator.state == state


def test_negative_cardinality_contract(tmp_path, rng):
    # star of 60 genes: the only positive is the path-direction arc of the
    # causal edge; negatives must be exactly k * |positives| and disjoint
    nodes = [("p", "phenotype", "p")] + \
            [(f"g{i}", "gene", "g") for i in range(60)]
    edges = [("p", "r", f"g{i}") for i in range(60)]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    sg = sample_phenotype_subgraph(g, {0}, 1)
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, 1), 5, rng)
    assert len(labels.positive_arcs) == 1
    assert len(labels.negative_arcs) == 5
    assert np.intersect1d(labels.positive_arcs, labels.negative_arcs).size == 0
    for arcs in (labels.positive_arcs, labels.negative_arcs):
        assert arcs.dtype == np.int64 and np.all(np.diff(arcs) > 0)


def test_negatives_capped_by_availability(tmp_path, rng):
    g, sg = triangle_subgraph(tmp_path)
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, 2), 50, rng)
    assert len(labels.negative_arcs) == sg.n_arcs - len(labels.positive_arcs)


def test_positive_arcs_respect_hop_bound(tmp_path, rng):
    nodes, edges = random_graph(rng, 100, 260)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
    sg = sample_phenotype_subgraph(g, phenos, 3)
    genes = sg.gene_locals.tolist()
    if not genes:
        pytest.skip("random graph produced no candidate genes")
    gene_global = int(sg.local_nodes[genes[0]])
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, gene_global), 5, rng)
    shortest = bfs_oracle(g, sorted(phenos), 10)[gene_global]
    depth = bfs_oracle(g, sorted(phenos), 3)
    for i in labels.positive_arcs:
        for end in (sg.local_src[i], sg.local_dst[i]):
            assert depth[int(sg.local_nodes[end])] <= shortest


def test_labeling_reproducible_with_fixed_seed(tmp_path):
    nodes, edges = random_graph(np.random.default_rng(7), 100, 260)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
    sg = sample_phenotype_subgraph(g, phenos, 3)
    genes = sg.gene_locals.tolist()
    if not genes:
        pytest.skip("random graph produced no candidate genes")
    gene_global = int(sg.local_nodes[genes[-1]])
    on_path = shortest_path_arcs(sg, gene_global)
    l1 = label_supervision_edges(sg, on_path, 5, np.random.default_rng(42))
    l2 = label_supervision_edges(sg, on_path, 5, np.random.default_rng(42))
    assert np.array_equal(l1.positive_arcs, l2.positive_arcs)
    assert np.array_equal(l1.negative_arcs, l2.negative_arcs)


def local_dist(sg, source):
    """Plain-dict BFS over the subgraph's arc list."""
    adj = {}
    for u, v in zip(sg.local_src.tolist(), sg.local_dst.tolist()):
        adj.setdefault(u, []).append(v)
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj.get(u, []):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


@pytest.mark.parametrize("m", [1, 2, 3])
def test_positive_arcs_match_shortest_path_oracle(tmp_path, m):
    from phenorank.kg import NodeType
    checked = 0
    for seed in range(5):
        nodes, edges = random_graph(np.random.default_rng(seed), 80, 160)
        g = load_graph(*write_graph(tmp_path, nodes, edges, name=f"r{seed}"))
        phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
        sg = sample_phenotype_subgraph(g, phenos, m)
        for gene in sg.gene_locals.tolist():
            from_gene = local_dist(sg, gene)
            want = set()
            for ph in sg.phenotype_locals.tolist():
                from_ph = local_dist(sg, ph)
                if gene not in from_ph:
                    continue
                want |= {i for i, (u, v) in enumerate(zip(sg.local_src.tolist(),
                                                          sg.local_dst.tolist()))
                         if u in from_ph and v in from_gene
                         and from_ph[u] + 1 + from_gene[v] == from_ph[gene]}
            on_path = shortest_path_arcs(sg, int(sg.local_nodes[gene]))
            labels = label_supervision_edges(sg, on_path, 5, np.random.default_rng(seed))
            assert labels.positive_arcs.tolist() == sorted(want)
            assert labels.degenerate == (not want)
            checked += 1
    assert checked > 0


def test_isolated_phenotype_has_no_arcs(tmp_path):
    nodes = [("p", "phenotype", "p"), ("g", "gene", "g"), ("d", "disease", "d")]
    g = load_graph(*write_graph(tmp_path, nodes, [("g", "r", "d")]))
    sg = sample_phenotype_subgraph(g, {0}, 2)
    assert sg.n_nodes == 1 and sg.n_arcs == 0
    assert sg.arc_offsets.tolist() == [0, 0]
    # the phenotype as its own target: no arcs, so no positives
    labels = label_supervision_edges(sg, shortest_path_arcs(sg, 0), 5,
                                     np.random.default_rng(0))
    assert labels.degenerate and labels.positive_arcs.size == 0


def test_arc_offsets_delimit_each_nodes_arcs(tmp_path, rng):
    nodes, edges = random_graph(rng, 150, 350)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    from phenorank.kg import NodeType
    phenos = set(int(v) for v in g.nodes_of_type(NodeType.PHENOTYPE)[:3])
    for m in (1, 2, 3):
        sg = sample_phenotype_subgraph(g, phenos, m)
        offsets = sg.arc_offsets
        assert len(offsets) == sg.n_nodes + 1
        for v in range(sg.n_nodes):
            assert list(range(offsets[v], offsets[v + 1])) == \
                np.flatnonzero(sg.local_src == v).tolist()


def test_supervision_labels_reject_overlap():
    with pytest.raises(ValueError):
        SupervisionLabels(np.array([1, 2]), np.array([2, 3]))


# ------------------------------------------------------------- cohort files

def test_cohort_round_trip(tmp_path):
    path = tmp_path / "cohort.jsonl"
    path.write_text('{"id": "a", "phenotypes": ["P1", "P2"], "causal_gene": "G1"}\n'
                    '{"id": "b", "phenotypes": ["P3"], "causal_gene": null}\n',
                    encoding="utf-8")
    back = load_cohort(path)
    assert back[0].patient_id == "a"
    assert back[0].phenotypes == {"P1", "P2"}
    assert back[0].causal_gene == "G1"
    assert back[1].causal_gene is None


def test_cohort_key_translation(tmp_path):
    path = tmp_path / "cohort.jsonl"
    path.write_text('{"id": "x", "phenotypes": ["P1"], "causal_gene": "G1"}\n',
                    encoding="utf-8")
    recs = load_cohort(path, {"P1": 0, "G1": 5})
    assert recs[0].phenotypes == {0}
    assert recs[0].causal_gene == 5
    with pytest.raises(ValueError, match="unknown node key"):
        load_cohort(path, {"P1": 0})


@pytest.mark.parametrize("bad_line", [
    '{"phenotypes": ["P1"]}',
    '{"id": "x"}',
    '{"id": "x", "phenotypes": 5}',
    '{"id": "x", "phenotypes": ["P1"]',
    '["x"]',
    '{"id": "x", "phenotypes": []}',
    '{"id": ["x"], "phenotypes": ["P1"]}',
    '{"id": "x", "phenotypes": [{"P1": 1}]}',
    '{"id": "x", "phenotypes": ["P1"], "causal_gene": ["G1"]}',
])
def test_malformed_cohort_line_names_path_and_line(tmp_path, bad_line):
    path = tmp_path / "cohort.jsonl"
    path.write_text('{"id": "a", "phenotypes": ["P1"]}\n' + bad_line + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:2: "):
        load_cohort(path)


def test_empty_phenotype_set_rejected():
    with pytest.raises(ValueError, match="empty phenotype"):
        PatientRecord("x", set())
