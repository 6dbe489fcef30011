"""Typed knowledge-graph store: loading, validation, adjacency, DOT export.

The graph is undirected at the file level; internally every edge {u, v} is
stored as the two directed arcs (u, v) and (v, u) so that message passing
and per-arc scoring can treat directions independently. Arcs are kept in a
CSR layout sorted by (src, dst), which makes neighbor queries contiguous
and ascending by destination.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
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


# file token -> int8 code, the index into NodeType order
_TYPE_CODES = {t.value: i for i, t in enumerate(NodeType)}

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


@contextmanager
def _utf8(path, error):
    """Open UTF-8 text file `path` with universal newlines; a byte sequence
    that is not UTF-8 raises `error` naming `path:line`."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
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


def text_lines(path, error=ValueError):
    """Yield (line number, line) for each line of UTF-8 text file `path`.

    A byte sequence that is not UTF-8 raises `error` naming `path:line`.
    """
    with _utf8(path, error) as fh:
        yield from enumerate(fh, start=1)


class _Rows:
    """The rows of a three-column TSV file, read in one pass: every line
    that is neither blank nor a `#` comment, split at its tabs.

    `columns` holds the three fields of each row before the first row
    without exactly three fields, or before the first byte that is not
    UTF-8; the rows the stream decoded before that byte are checked first,
    as a line-by-line reader would.
    """

    def __init__(self, path):
        self.path = path
        lines, self._undecodable = [], None
        try:
            with _utf8(path, GraphFormatError) as fh:
                lines.extend(fh)        # keeps the lines read before an error
        except GraphFormatError as exc:
            self._undecodable = exc
        self._text = "".join(lines)
        del lines               # each intermediate goes once used: the peak is small
        rows = [line for line in self._text.split("\n") if line and line[0] != "#"]
        tabs = np.fromiter(map(str.count, rows, repeat("\t")), np.int64, len(rows))
        self._short = _first(tabs != 2, lambda j: "expected 3 tab-separated "
                                                  f"fields, got {tabs[j] + 1}")
        end = self._short[0] if self._short else len(rows)
        text = "\t".join(rows[:end])
        del rows
        fields = text.split("\t") if end else []
        del text
        self.columns = fields[0::3], fields[1::3], fields[2::3]

    def raise_first(self, *errors):
        """Raise GraphFormatError naming `path:line` for the earliest of
        `errors` and the first short row, each a (row, message) pair or
        None (of two on one row, the first listed), else for a byte that
        is not UTF-8."""
        errors = [e for e in (*errors, self._short) if e is not None]
        if errors:
            row, message = min(errors, key=lambda e: e[0])
            lineno = [i for i, line in enumerate(self._text.split("\n"), start=1)
                      if line and line[0] != "#"][row]
            raise GraphFormatError(f"{self.path}:{lineno}: {message}")
        if self._undecodable is not None:
            raise self._undecodable


def _first(mask: np.ndarray, message):
    """(index of the first True in `mask`, message(index)), or None."""
    hits = np.flatnonzero(mask)
    return (int(hits[0]), message(int(hits[0]))) if hits.size else None


def load_graph(node_file, edge_file) -> KnowledgeGraph:
    """Load and validate a graph from TSV node and edge files.

    Node rows: `node_id<TAB>type<TAB>name`; IDs are assigned densely in row
    order. Edge rows: `src_id<TAB>relation<TAB>dst_id` with undirected
    semantics; `#` lines are comments. Self-edges and rows referencing
    undeclared nodes are rejected with their line number; duplicate
    undirected edges collapse to one, keeping the first one's relation.
    The first bad line of a file is reported: each file is checked whole
    with array operations, not line by line.
    """
    nodes = _Rows(Path(node_file))
    node_keys, type_tokens, node_names = nodes.columns
    n = len(node_keys)
    key_to_id = dict(zip(node_keys, range(n)))
    duplicate = None
    if len(key_to_id) < n:
        first_row = dict(zip(reversed(node_keys), range(n - 1, -1, -1)))
        row = next(j for j, k in enumerate(node_keys) if first_row[k] != j)
        duplicate = (row, f"duplicate node id {node_keys[row]!r}")
    types = np.fromiter(map(_TYPE_CODES.get, type_tokens, repeat(-1)), np.int8, n)
    nodes.raise_first(duplicate, _first(
        types < 0, lambda j: f"unknown node type {type_tokens[j]!r}"))

    edges = _Rows(Path(edge_file))
    src_keys, relations, dst_keys = edges.columns
    m = len(src_keys)
    u = np.fromiter(map(key_to_id.get, src_keys, repeat(-1)), np.int64, m)
    v = np.fromiter(map(key_to_id.get, dst_keys, repeat(-1)), np.int64, m)
    edges.raise_first(
        _first(u < 0, lambda j: f"edge references undeclared node {src_keys[j]!r}"),
        _first(v < 0, lambda j: f"edge references undeclared node {dst_keys[j]!r}"),
        _first(u == v, lambda j: f"self-edge on node {src_keys[j]!r}"))

    # one arc pair per undirected edge, with the first listing's relation
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * n + hi, return_index=True)
    lo, hi = lo[first], hi[first]
    rel = np.array(relations, dtype=object)[first]
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    return KnowledgeGraph(
        node_count=n,
        node_types=types,
        node_names=node_names,
        node_keys=node_keys,
        arc_src=src,
        arc_dst=dst,
        arc_relation=np.concatenate([rel, rel])[order].tolist(),
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
