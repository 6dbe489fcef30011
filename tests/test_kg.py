import numpy as np
import pytest

from phenorank.kg import GraphFormatError, NodeType, export_dot, load_graph, text_lines
from phenorank.synthetic import SynthConfig, generate_dataset

from conftest import random_graph, write_graph


def test_symmetrization_doubles_edges(tmp_path):
    nodes = [("A", "phenotype", "a"), ("B", "disease", "b"), ("C", "gene", "c")]
    edges = [("A", "r", "B"), ("B", "r", "C")]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    assert g.node_count == 3
    assert g.arc_count == 4


def test_duplicate_edge_collapses(tmp_path):
    nodes = [("A", "phenotype", "a"), ("B", "disease", "b"), ("C", "gene", "c")]
    edges = [("A", "r", "B"), ("A", "r", "B"), ("B", "r", "C")]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    assert g.arc_count == 4


def test_reverse_listing_collapses(tmp_path):
    nodes = [("A", "phenotype", "a"), ("B", "gene", "b")]
    edges = [("A", "r", "B"), ("B", "r", "A")]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    assert g.arc_count == 2


def test_self_edge_rejected_with_line_number(tmp_path):
    nodes = [("A", "phenotype", "a"), ("B", "gene", "b")]
    edges = [("A", "r", "B"), ("B", "r", "B")]
    _, edge_file = write_graph(tmp_path, nodes, edges)
    node_file = tmp_path / "g_nodes.tsv"
    with pytest.raises(GraphFormatError, match=r":2:.*self-edge"):
        load_graph(node_file, edge_file)


def test_unknown_node_type_rejected(tmp_path):
    nodes = [("A", "protein", "a")]
    with pytest.raises(GraphFormatError, match="unknown node type"):
        load_graph(*write_graph(tmp_path, nodes, []))


def test_undeclared_endpoint_rejected(tmp_path):
    nodes = [("A", "phenotype", "a")]
    edges = [("A", "r", "Z")]
    with pytest.raises(GraphFormatError, match="undeclared node 'Z'"):
        load_graph(*write_graph(tmp_path, nodes, edges))


def test_malformed_row_reports_line(tmp_path):
    node_file = tmp_path / "n.tsv"
    node_file.write_text("A\tphenotype\ta\nB\tgene\n", encoding="utf-8")
    edge_file = tmp_path / "e.tsv"
    edge_file.write_text("", encoding="utf-8")
    with pytest.raises(GraphFormatError, match=":2:"):
        load_graph(node_file, edge_file)


def test_undecodable_byte_far_into_a_file_names_its_line(tmp_path):
    # the text stream decodes in blocks, well before the bad line is read
    node_file = tmp_path / "n.tsv"
    rows = [f"N{i}\tother\tnode {i}\n".encode() for i in range(5000)]
    rows[4320] = b"N4320\tother\tn\xc3\n"         # a truncated 2-byte sequence
    node_file.write_bytes(b"".join(rows))
    edge_file = tmp_path / "e.tsv"
    edge_file.write_text("", encoding="utf-8")
    with pytest.raises(GraphFormatError, match=f"{node_file}:4321: .*0xc3"):
        load_graph(node_file, edge_file)
    with pytest.raises(ValueError, match=f"{node_file}:4321: "):
        list(text_lines(node_file))


def test_comment_and_blank_lines_skipped(tmp_path):
    nodes = [("A", "phenotype", "a"), ("B", "gene", "b")]
    _, edge_file = write_graph(tmp_path, nodes, [])
    edge_file.write_text("# header\n\nA\tr\tB\n", encoding="utf-8")
    g = load_graph(tmp_path / "g_nodes.tsv", edge_file)
    assert g.arc_count == 2


def test_ids_assigned_in_row_order(tmp_path):
    nodes = [("zz", "gene", "z"), ("aa", "phenotype", "a")]
    g = load_graph(*write_graph(tmp_path, nodes, []))
    assert g.node_keys == ["zz", "aa"]
    assert g.node_type(0) is NodeType.GENE
    assert g.node_type(1) is NodeType.PHENOTYPE


def test_neighbors_sorted_and_complete(tmp_path):
    nodes = [("a", "other", "a"), ("b", "other", "b"), ("c", "other", "c")]
    edges = [("b", "r", "c"), ("b", "r", "a")]
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    nb = g.neighbors(1)
    assert [dst for _, dst in nb] == [0, 2]


def test_neighbors_isolated_node(tmp_path):
    nodes = [("a", "other", "a"), ("b", "other", "b")]
    g = load_graph(*write_graph(tmp_path, nodes, []))
    assert g.neighbors(0) == []


def test_neighbors_out_of_range(chain_graph):
    with pytest.raises(IndexError):
        chain_graph.neighbors(3)


def test_neighbors_matches_linear_scan_oracle(tmp_path, rng):
    nodes, edges = random_graph(rng, 50, 120)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    for v in range(g.node_count):
        expected = sorted((a, int(g.arc_dst[a])) for a in range(g.arc_count)
                          if int(g.arc_src[a]) == v)
        assert g.neighbors(v) == expected


def test_arc_pairing_and_relation_symmetry(tmp_path, rng):
    nodes, edges = random_graph(rng, 40, 80)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    rel = {(int(g.arc_src[a]), int(g.arc_dst[a])): g.arc_relation[a]
           for a in range(g.arc_count)}
    for (u, v), r in rel.items():
        assert rel[(v, u)] == r
    assert sum(len(g.neighbors(v)) for v in range(g.node_count)) == g.arc_count


def test_load_is_deterministic(tmp_path, rng):
    nodes, edges = random_graph(rng, 30, 60)
    paths = write_graph(tmp_path, nodes, edges)
    g1, g2 = load_graph(*paths), load_graph(*paths)
    assert g1.node_keys == g2.node_keys
    assert np.array_equal(g1.arc_src, g2.arc_src)
    assert np.array_equal(g1.arc_dst, g2.arc_dst)


def test_synthetic_round_trip(tmp_path):
    cfg = SynthConfig(n_diseases=20, genes_per_disease=8, phenos_per_disease=10,
                      n_background_nodes=1620, background_edge_prob=0.003,
                      n_patients=5, seed=3)
    generate_dataset(cfg, tmp_path / "synth")
    g = load_graph(tmp_path / "synth" / "nodes.tsv", tmp_path / "synth" / "edges.tsv")
    assert g.node_count == 2000
    rows = [ln.split("\t") for ln in
            (tmp_path / "synth" / "edges.tsv").read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")]
    expected = set()
    for u, _, v in rows:
        expected |= {(g.key_to_id[u], g.key_to_id[v]), (g.key_to_id[v], g.key_to_id[u])}
    arcs = list(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    assert arcs == sorted(expected)


# ------------------------------------------------------------------ DOT export

def _parse_dot(text):
    """Tiny structural check: returns (node statements, edge statements)."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = [ln for ln in lines[1:-1] if "--" not in ln]
    edges = [ln for ln in lines[1:-1] if "--" in ln]
    for ln in lines[1:-1]:
        assert ln.endswith(";")
    return nodes, edges


def test_dot_empty_subgraph(chain_graph, tmp_path):
    out = tmp_path / "empty.dot"
    export_dot(chain_graph, set(), set(), out)
    nodes, edges = _parse_dot(out.read_text(encoding="utf-8"))
    assert nodes == [] and edges == []


def test_dot_three_node_subgraph(chain_graph, tmp_path):
    out = tmp_path / "chain.dot"
    export_dot(chain_graph, {0, 1, 2}, set(range(4)), out)
    nodes, edges = _parse_dot(out.read_text(encoding="utf-8"))
    assert len(nodes) == 3
    assert len(edges) == 2


def test_dot_rejects_dangling_arc(chain_graph, tmp_path):
    with pytest.raises(ValueError, match="endpoint outside"):
        export_dot(chain_graph, {0}, {0}, tmp_path / "bad.dot")


def test_dot_parses_for_random_subgraph(tmp_path, rng):
    nodes, edges = random_graph(rng, 30, 60)
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    chosen = set(range(0, g.node_count, 2))
    arcs = {a for a in range(g.arc_count)
            if int(g.arc_src[a]) in chosen and int(g.arc_dst[a]) in chosen}
    out = tmp_path / "rand.dot"
    export_dot(g, chosen, arcs, out)
    node_stmts, edge_stmts = _parse_dot(out.read_text(encoding="utf-8"))
    assert len(node_stmts) == len(chosen)
    assert len(edge_stmts) == len(arcs) // 2
