"""Patient-centered m-hop subgraph sampling and weak edge supervision.

Sampling is a multi-source BFS from all of a patient's phenotype nodes at
distance 0, truncated at depth m, with the induced arc set. Supervision
labels mark arcs lying on shortest phenotype-to-causal-gene paths (within
the sampled subgraph) as positives and draw k times as many uniform
negatives from the remaining arcs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, NodeType, text_lines

__all__ = ["PatientRecord", "SampledSubgraph", "SupervisionLabels",
           "sample_phenotype_subgraph", "shortest_path_arcs",
           "label_supervision_edges",
           "read_jsonl", "load_cohort"]


@dataclass
class PatientRecord:
    patient_id: str
    phenotypes: set                      # global node IDs, Phenotype-typed
    causal_gene: int | None = None       # global node ID, Gene-typed

    def __post_init__(self):
        if not self.phenotypes:
            raise ValueError(f"patient {self.patient_id}: empty phenotype set")


@dataclass
class SampledSubgraph:
    """Induced m-hop neighborhood with local<->global maps.

    local_nodes is sorted ascending by global ID, so local index order is
    deterministic. local_src/local_dst/global_arc_id are parallel arrays
    ordered by (local_src, local_dst), so they form a CSR layout: the arcs
    leaving local node v are exactly arc_offsets[v]:arc_offsets[v + 1].
    """

    local_nodes: np.ndarray              # local -> global node ID
    local_src: np.ndarray
    local_dst: np.ndarray
    global_arc_id: np.ndarray
    phenotype_locals: np.ndarray
    gene_locals: np.ndarray              # Gene-typed locals, ascending

    @property
    def n_nodes(self) -> int:
        return len(self.local_nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.local_src)

    @property
    def arc_offsets(self) -> np.ndarray:
        """n_nodes + 1 CSR offsets into the arc arrays."""
        return np.searchsorted(self.local_src, np.arange(self.n_nodes + 1))


@dataclass
class SupervisionLabels:
    positive_arcs: np.ndarray            # local arc indices, ascending int64
    negative_arcs: np.ndarray

    def __post_init__(self):
        if np.intersect1d(self.positive_arcs, self.negative_arcs).size:
            raise ValueError("positive and negative arc sets overlap")

    @property
    def degenerate(self) -> bool:
        """No positives: no causal gene, or it is not in the subgraph."""
        return self.positive_arcs.size == 0


def _arcs_leaving(offsets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """CSR indices of all arcs leaving `nodes`, node by node."""
    lo = offsets[nodes]
    counts = offsets[nodes + 1] - lo
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _bfs(offsets: np.ndarray, dst: np.ndarray, sources, max_depth: int | None = None):
    """Hop distance from the source set along CSR arcs, -1 where unreached.

    Stops after `max_depth` hops when one is given.
    """
    dist = np.full(len(offsets) - 1, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    depth = 0
    while frontier.size:
        dist[frontier] = depth
        if depth == max_depth:
            break
        reached = dst[_arcs_leaving(offsets, frontier)]
        frontier = np.unique(reached[dist[reached] < 0])
        depth += 1
    return dist


def sample_phenotype_subgraph(g: KnowledgeGraph, phenotypes, m: int) -> SampledSubgraph:
    """Induced subgraph of all nodes within m hops of any phenotype.

    Phenotype IDs that are missing from the graph or not Phenotype-typed
    are skipped (fatal only if none remain).
    """
    if m < 1:
        raise ValueError(f"hop count must be >= 1, got {m}")
    valid, skipped = [], []
    for p in sorted(int(p) for p in phenotypes):
        if 0 <= p < g.node_count and g.node_type(p) is NodeType.PHENOTYPE:
            valid.append(p)
        else:
            skipped.append(p)
    if not valid:
        raise ValueError(f"no valid phenotype nodes among {sorted(skipped)}")

    local_nodes = np.flatnonzero(_bfs(g.adj_offsets, g.arc_dst, valid, m) >= 0)
    to_local = np.full(g.node_count, -1, dtype=np.int64)
    to_local[local_nodes] = np.arange(len(local_nodes))
    arc_ids = _arcs_leaving(g.adj_offsets, local_nodes)
    arc_ids = arc_ids[to_local[g.arc_dst[arc_ids]] >= 0]
    gene_code = KnowledgeGraph._TYPE_ORDER.index(NodeType.GENE)
    return SampledSubgraph(
        local_nodes=local_nodes,
        local_src=to_local[g.arc_src[arc_ids]],
        local_dst=to_local[g.arc_dst[arc_ids]],
        global_arc_id=arc_ids,
        phenotype_locals=to_local[valid],
        gene_locals=np.flatnonzero(g.node_types[local_nodes] == gene_code),
    )


def shortest_path_arcs(sg: SampledSubgraph, causal_gene: int | None) -> np.ndarray:
    """Per-arc mask of the arcs on a shortest phenotype-to-gene path.

    Paths run from any phenotype to the causal gene within the sampled
    subgraph; an arc (u, v) lies on a shortest path from p iff
    dist(p, u) + 1 + dist(v, gene) equals dist(p, gene). Without a causal
    gene in the subgraph no arc is marked.
    """
    on_path = np.zeros(sg.n_arcs, dtype=bool)
    gene_local = sg.n_nodes if causal_gene is None \
        else int(np.searchsorted(sg.local_nodes, causal_gene))
    if gene_local == sg.n_nodes or sg.local_nodes[gene_local] != causal_gene:
        return on_path
    offsets, src, dst = sg.arc_offsets, sg.local_src, sg.local_dst
    to_gene = _bfs(offsets, dst, [gene_local])[dst]        # per arc: dist(v, gene)
    for ph in sg.phenotype_locals:
        dist = _bfs(offsets, dst, [ph])
        d = dist[gene_local]
        if d >= 0:
            from_ph = dist[src]                                 # per arc: dist(p, u)
            on_path |= (from_ph >= 0) & (to_gene >= 0) & (from_ph + 1 + to_gene == d)
    return on_path


def label_supervision_edges(sg: SampledSubgraph, on_path: np.ndarray, k: int,
                            rng: np.random.Generator) -> SupervisionLabels:
    """Positives and uniform negatives for one patient.

    The positives are the arcs marked in `on_path`, the mask that
    `shortest_path_arcs` computes for `sg`. Negatives are drawn without
    replacement from the remaining arcs, min(k * |positives|, available);
    without positives `rng` draws nothing.
    """
    positives, remainder = np.flatnonzero(on_path), np.flatnonzero(~on_path)
    n_neg = min(k * positives.size, remainder.size)
    negatives = np.zeros(0, dtype=np.int64)
    if n_neg:
        negatives = np.sort(rng.choice(remainder, size=n_neg, replace=False))
    return SupervisionLabels(positives, negatives)


# ------------------------------------------------------------ JSON Lines files

def _is_id(x) -> bool:
    return isinstance(x, (str, int))     # a patient ID or a node key


_KINDS = {
    "id": ("an ID", _is_id),
    "ids": ("a list of IDs", lambda v: isinstance(v, list) and all(map(_is_id, v))),
    # finite: NaN, infinities and integers beyond float range all fail the bound
    "numbers": ("an object of finite numbers", lambda v: isinstance(v, dict) and all(
        isinstance(x, (int, float)) and abs(x) <= sys.float_info.max
        for x in v.values())),
}


def read_jsonl(path, fields: dict):
    """Yield (`path:line`, object) for every non-blank line of a JSON Lines file.

    `fields` maps each required key to its kind: "id" (a string or an
    integer), "ids" (a list of them) or "numbers" (an object of finite numbers).
    A line that is not UTF-8 or not JSON, or lacks a required key of its
    kind, raises ValueError naming `path:line`.
    """
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected a JSON object")
        for key, kind in fields.items():
            what, fits = _KINDS[kind]
            if not fits(obj.get(key)):
                raise ValueError(f"{where}: \"{key}\" must be {what}")
        yield where, obj


def load_cohort(path, key_to_id: dict | None = None) -> list[PatientRecord]:
    """Read a JSON Lines cohort file.

    When `key_to_id` is given, phenotype/gene entries are string node keys
    and get translated to dense IDs; otherwise they pass through unchanged.
    A malformed line raises ValueError naming `path:line`.
    """
    records = []
    for where, obj in read_jsonl(path, {"id": "id", "phenotypes": "ids"}):
        def to_id(x):
            if key_to_id is not None:
                if x not in key_to_id:
                    raise ValueError(f"{where}: unknown node key {x!r}")
                return key_to_id[x]
            return x

        gene = obj.get("causal_gene")
        if gene is not None and not _is_id(gene):
            raise ValueError(f"{where}: \"causal_gene\" must be an ID or null")
        if not obj["phenotypes"]:
            raise ValueError(f"{where}: empty phenotype set")
        records.append(PatientRecord(
            patient_id=obj["id"],
            phenotypes={to_id(p) for p in obj["phenotypes"]},
            causal_gene=None if gene is None else to_id(gene),
        ))
    return records
