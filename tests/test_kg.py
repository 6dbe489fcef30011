import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank.kg import (GraphFormatError, KnowledgeGraph, NodeType, export_dot,
                          load_graph, text_lines)
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


# ------------------------------------------------- the line-by-line oracle

def oracle_load_graph(node_file, edge_file) -> KnowledgeGraph:
    """The graph loader as one loop over the lines of each file, checking
    each line in turn: the reference that `load_graph` must match."""
    node_keys, node_names, types = [], [], []
    key_to_id: dict = {}
    for lineno, line in text_lines(node_file, GraphFormatError):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphFormatError(
                f"{node_file}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        key, type_tok, name = parts
        if key in key_to_id:
            raise GraphFormatError(f"{node_file}:{lineno}: duplicate node id {key!r}")
        if type_tok not in {t.value for t in NodeType}:
            raise GraphFormatError(f"{node_file}:{lineno}: unknown node type {type_tok!r}")
        key_to_id[key] = len(node_keys)
        node_keys.append(key)
        node_names.append(name)
        types.append(list(NodeType).index(NodeType(type_tok)))

    n = len(node_keys)
    edge_map: dict = {}  # {min, max} -> relation, first occurrence wins
    for lineno, line in text_lines(edge_file, GraphFormatError):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphFormatError(
                f"{edge_file}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        src_key, relation, dst_key = parts
        for k in (src_key, dst_key):
            if k not in key_to_id:
                raise GraphFormatError(
                    f"{edge_file}:{lineno}: edge references undeclared node {k!r}")
        u, v = key_to_id[src_key], key_to_id[dst_key]
        if u == v:
            raise GraphFormatError(f"{edge_file}:{lineno}: self-edge on node {src_key!r}")
        edge_map.setdefault((min(u, v), max(u, v)), relation)

    arcs = sorted((a, b, rel) for (u, v), rel in edge_map.items()
                  for a, b in ((u, v), (v, u)))
    src = np.array([a for a, _, _ in arcs], dtype=np.int64)
    return KnowledgeGraph(
        node_count=n, node_types=np.array(types, dtype=np.int8),
        node_names=node_names, node_keys=node_keys, arc_src=src,
        arc_dst=np.array([b for _, b, _ in arcs], dtype=np.int64),
        arc_relation=[rel for _, _, rel in arcs],
        adj_offsets=np.searchsorted(src, np.arange(n + 1)), key_to_id=key_to_id)


def _outcome(loader, node_file, edge_file):
    """The loaded graph's fields, or the error message."""
    try:
        g = loader(node_file, edge_file)
    except GraphFormatError as exc:
        return "error", str(exc)
    return ("graph", g.node_count, g.node_keys, g.node_names, g.key_to_id,
            g.node_types.dtype, g.node_types.tolist(), g.arc_src.dtype,
            g.arc_src.tolist(), g.arc_dst.tolist(), g.arc_relation,
            g.adj_offsets.tolist())


# Few keys, types and relations, so rows collide often; odd fields use
# characters that other line splitters (str.splitlines) treat as breaks.
_KEYS = ["A", "B", "C", "D", "E", "F"]
_FIELD = st.lists(st.sampled_from(["", "a", "#", " ", "\x0b", "\x0c", "\x1c", "\x85",
                                   "\u2028", "\u2029", "é"]), max_size=3).map("".join)
_KEY = st.one_of(st.sampled_from(_KEYS), _FIELD)
_TYPE = st.sampled_from(["phenotype", "gene", "disease", "other"] * 12
                        + ["protein", "Gene", ""])
_RELATION = st.sampled_from(["r", "s", ""])
_ODD_LINE = st.one_of(st.just(""), _FIELD.map(lambda t: "#" + t),
                      st.lists(_FIELD, min_size=1, max_size=5).map("\t".join))


@st.composite
def _file(draw, rows):
    """File bytes: the tab-joined `rows` with a few blank, comment or
    wrong-width lines spliced in, mixed line endings, and now and then a
    byte that is not UTF-8."""
    lines = ["\t".join(r) for r in draw(rows)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, ends))
    if data and draw(st.booleans()):
        data = data.rstrip("\r\n")
    data = data.encode("utf-8")
    bad = draw(st.sampled_from([b""] * 24 + [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
    if bad:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + bad + data[i:]
    return data


@st.composite
def _node_rows(draw):
    """Every key of _KEYS, now and then with an odd or repeated one instead."""
    keys = draw(st.permutations(_KEYS))
    return [(k if draw(st.sampled_from([True] * 11 + [False])) else draw(_KEY),
             draw(_TYPE), draw(_FIELD)) for k in keys]


_PAIR = st.permutations(_KEYS).map(lambda p: tuple(p[:2]))
_EDGE_ROWS = st.lists(st.tuples(st.one_of(_PAIR, _PAIR, _PAIR, st.tuples(_KEY, _KEY)),
                                _RELATION).map(lambda t: (t[0][0], t[1], t[0][1])),
                      min_size=1, max_size=10)


@settings(max_examples=400, deadline=None)
@given(_file(_node_rows()), _file(_EDGE_ROWS))
def test_load_graph_matches_the_line_by_line_oracle(tmp_path_factory, node_bytes, edge_bytes):
    d = tmp_path_factory.mktemp("oracle")
    node_file, edge_file = d / "nodes.tsv", d / "edges.tsv"
    node_file.write_bytes(node_bytes)
    edge_file.write_bytes(edge_bytes)
    assert _outcome(load_graph, node_file, edge_file) == \
        _outcome(oracle_load_graph, node_file, edge_file)


def test_load_graph_reports_the_first_bad_line_of_a_large_file(tmp_path):
    # the checks run over whole columns; the error is still the earliest line's
    nodes = [(f"n{i}", "other", f"node {i}") for i in range(3000)]
    edges = [(f"n{i}", "r", f"n{i + 1}") for i in range(2999)]
    node_file, edge_file = write_graph(tmp_path, nodes, edges)
    text = edge_file.read_text(encoding="utf-8").splitlines()
    text[2500] = "n5\tr\tn5"                    # a self-edge
    text[2700] = "n5\tr"                         # a short row, later
    text[1200] = "n5\tr\tzz"                    # an undeclared node, first
    edge_file.write_text("# header\n" + "\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match=f"^{edge_file}:1202: .*undeclared node 'zz'$"):
        load_graph(node_file, edge_file)
    for g in (load_graph, oracle_load_graph):
        assert _outcome(g, node_file, edge_file) == \
            _outcome(oracle_load_graph, node_file, edge_file)


@pytest.mark.parametrize("bad_row, line", [(300, 301), (4320, 3)])
def test_undecodable_byte_after_a_short_row_is_met_as_the_oracle_meets_it(
        tmp_path, bad_row, line):
    # the text stream decodes 8 KiB at a time: a short row in an earlier
    # block is reported, one in the block of the bad byte is not
    rows = [f"N{i}\tother\tnode {i}\n".encode() for i in range(5000)]
    rows[2] = b"N2\tother\n"
    rows[bad_row] = f"N{bad_row}\tother\tn".encode() + b"\xc3\n"
    node_file, edge_file = tmp_path / "n.tsv", tmp_path / "e.tsv"
    node_file.write_bytes(b"".join(rows))
    edge_file.write_text("", encoding="utf-8")
    outcome = _outcome(load_graph, node_file, edge_file)
    assert outcome == _outcome(oracle_load_graph, node_file, edge_file)
    assert outcome[1].startswith(f"{node_file}:{line}: ")


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
