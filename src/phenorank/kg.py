"""Typed knowledge-graph store: loading, validation, adjacency, DOT export.

The graph is undirected at the file level; internally every edge {u, v} is
stored as the two directed arcs (u, v) and (v, u) so that message passing
and per-arc scoring can treat directions independently. Arcs are kept in a
CSR layout sorted by (src, dst), which makes neighbor queries contiguous
and ascending by destination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["NodeType", "KnowledgeGraph", "GraphFormatError", "load_graph",
           "export_dot", "text_lines"]


class GraphFormatError(ValueError):
    """Malformed node/edge file; message carries the offending line number."""


class NodeType(enum.Enum):
    PHENOTYPE = "phenotype"
    GENE = "gene"
    DISEASE = "disease"
    OTHER = "other"


_TYPE_TOKENS = {t.value: t for t in NodeType}

# DOT styling per node type
_DOT_STYLE = {
    NodeType.PHENOTYPE: ("ellipse", "orange"),
    NodeType.GENE: ("box", "lightgreen"),
    NodeType.DISEASE: ("diamond", "lightcoral"),
    NodeType.OTHER: ("circle", "lightgray"),
}


@dataclass
class KnowledgeGraph:
    """Immutable typed graph with dense integer node IDs and CSR adjacency."""

    node_count: int
    node_types: np.ndarray          # int8 codes indexing NodeType order
    node_names: list
    node_keys: list                 # original string IDs, row order
    arc_src: np.ndarray             # per-arc source, sorted by (src, dst)
    arc_dst: np.ndarray
    arc_relation: list
    adj_offsets: np.ndarray         # node_count + 1 CSR offsets into arcs
    key_to_id: dict = field(repr=False, default_factory=dict)

    _TYPE_ORDER = tuple(NodeType)

    @property
    def arc_count(self) -> int:
        return len(self.arc_src)

    def node_type(self, v: int) -> NodeType:
        return self._TYPE_ORDER[self.node_types[v]]

    def nodes_of_type(self, t: NodeType) -> np.ndarray:
        return np.flatnonzero(self.node_types == self._TYPE_ORDER.index(t))

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """Arcs leaving `v` as (arc_id, dst), ascending by dst."""
        if not 0 <= v < self.node_count:
            raise IndexError(f"node id {v} out of range [0, {self.node_count})")
        lo, hi = self.adj_offsets[v], self.adj_offsets[v + 1]
        return [(int(a), int(self.arc_dst[a])) for a in range(lo, hi)]


def text_lines(path, error=ValueError):
    """Yield (line number, line) for each line of UTF-8 text file `path`.

    A byte sequence that is not UTF-8 raises `error` naming `path:line`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # the stream decodes in blocks; decode the whole file to find the line
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{line}: not UTF-8 text: {exc.reason} "
                        f"(byte 0x{data[exc.start]:02x})") from None
        raise


def _parse_type(token: str, lineno: int, path) -> NodeType:
    t = _TYPE_TOKENS.get(token)
    if t is None:
        raise GraphFormatError(f"{path}:{lineno}: unknown node type {token!r}")
    return t


def load_graph(node_file, edge_file) -> KnowledgeGraph:
    """Load and validate a graph from TSV node and edge files.

    Node rows: `node_id<TAB>type<TAB>name`; IDs are assigned densely in row
    order. Edge rows: `src_id<TAB>relation<TAB>dst_id` with undirected
    semantics; `#` lines are comments. Self-edges and rows referencing
    undeclared nodes are rejected with their line number; duplicate
    undirected edges collapse to one.
    """
    node_file, edge_file = Path(node_file), Path(edge_file)
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
        key_to_id[key] = len(node_keys)
        node_keys.append(key)
        node_names.append(name)
        types.append(KnowledgeGraph._TYPE_ORDER.index(_parse_type(type_tok, lineno, node_file)))

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

    src, dst, rel = [], [], []
    for (u, v), relation in edge_map.items():
        src += [u, v]
        dst += [v, u]
        rel += [relation, relation]
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    rel = [rel[i] for i in order]
    return KnowledgeGraph(
        node_count=n,
        node_types=np.asarray(types, dtype=np.int8),
        node_names=node_names,
        node_keys=node_keys,
        arc_src=src,
        arc_dst=dst,
        arc_relation=rel,
        adj_offsets=np.searchsorted(src, np.arange(n + 1)),
        key_to_id=key_to_id,
    )


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: KnowledgeGraph, nodes: set, arcs: set, out):
    """Write an undirected DOT document for a node/arc subset of `g`.

    Node shape/color encode the node type. Arc pairs collapse to a single
    undirected edge statement. An arc with an endpoint outside `nodes`
    raises ValueError.
    """
    for a in arcs:
        if int(g.arc_src[a]) not in nodes or int(g.arc_dst[a]) not in nodes:
            raise ValueError(f"arc {a} has an endpoint outside the node set")
    lines = ["graph patient_subgraph {"]
    for v in sorted(nodes):
        shape, color = _DOT_STYLE[g.node_type(v)]
        lines.append(
            f"  n{v} [label={_dot_quote(g.node_names[v])}, shape={shape}, "
            f"style=filled, fillcolor={color}];")
    seen = set()
    for a in sorted(arcs):
        u, v = int(g.arc_src[a]), int(g.arc_dst[a])
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"  n{key[0]} -- n{key[1]} [label={_dot_quote(g.arc_relation[a])}];")
    lines.append("}")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
