"""Patient-centered m-hop subgraph sampling and weak edge supervision.

Sampling is a multi-source BFS from all of a patient's phenotype nodes at
distance 0, truncated at depth m, with the induced arc set. Supervision
labels mark arcs lying on shortest phenotype-to-causal-gene paths (within
the sampled subgraph) as positives and draw k times as many uniform
negatives from the remaining arcs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kg import KnowledgeGraph, NodeType

__all__ = ["PatientRecord", "SampledSubgraph", "SupervisionLabels",
           "sample_phenotype_subgraph", "label_supervision_edges",
           "load_cohort", "save_cohort"]


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
    ordered by (local_src, local_dst).
    """

    local_nodes: np.ndarray              # local -> global node ID
    local_src: np.ndarray
    local_dst: np.ndarray
    global_arc_id: np.ndarray
    phenotype_locals: np.ndarray
    gene_locals: np.ndarray              # Gene-typed locals, ascending
    global_to_local: dict = field(repr=False, default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.local_nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.local_src)


@dataclass
class SupervisionLabels:
    positive_arcs: set                   # local arc indices
    negative_arcs: set
    degenerate: bool = False             # no positives (or gene not sampled)

    def __post_init__(self):
        if self.positive_arcs & self.negative_arcs:
            raise ValueError("positive and negative arc sets overlap")


def _bfs_hops(g: KnowledgeGraph, sources, m: int) -> dict:
    """Hop distance from the source set, truncated at depth m."""
    hop = {int(s): 0 for s in sources}
    frontier = deque(hop)
    while frontier:
        v = frontier.popleft()
        d = hop[v]
        if d == m:
            continue
        lo, hi = g.neighbor_slice(v)
        for u in g.arc_dst[lo:hi]:
            u = int(u)
            if u not in hop:
                hop[u] = d + 1
                frontier.append(u)
    return hop


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

    hop = _bfs_hops(g, valid, m)
    local_nodes = np.asarray(sorted(hop), dtype=np.int64)
    g2l = {int(v): i for i, v in enumerate(local_nodes)}
    src, dst, arc_ids = [], [], []
    for v in local_nodes:
        lo, hi = g.neighbor_slice(int(v))
        for a in range(lo, hi):
            u = int(g.arc_dst[a])
            if u in g2l:
                src.append(g2l[int(v)])
                dst.append(g2l[u])
                arc_ids.append(a)
    types = g.node_types[local_nodes]
    gene_code = KnowledgeGraph._TYPE_ORDER.index(NodeType.GENE)
    return SampledSubgraph(
        local_nodes=local_nodes,
        local_src=np.asarray(src, dtype=np.int64),
        local_dst=np.asarray(dst, dtype=np.int64),
        global_arc_id=np.asarray(arc_ids, dtype=np.int64),
        phenotype_locals=np.asarray([g2l[p] for p in valid], dtype=np.int64),
        gene_locals=np.flatnonzero(types == gene_code).astype(np.int64),
        global_to_local=g2l,
    )


def _local_adjacency(sg: SampledSubgraph):
    adj: list[list[tuple[int, int]]] = [[] for _ in range(sg.n_nodes)]
    for i in range(sg.n_arcs):
        adj[sg.local_src[i]].append((i, int(sg.local_dst[i])))
    return adj


def _local_bfs(adj, sources, n: int) -> np.ndarray:
    dist = np.full(n, -1, dtype=np.int64)
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        v = q.popleft()
        for _, u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def label_supervision_edges(sg: SampledSubgraph, causal_gene: int, k: int,
                            rng: np.random.Generator) -> SupervisionLabels:
    """Shortest-path positives and uniform negatives for one patient.

    Positives are the arcs on any shortest path from any phenotype to the
    causal gene, computed in the sampled subgraph; an arc (u, v) lies on a
    shortest path from p iff dist(p, u) + 1 + dist(v, gene) equals
    dist(p, gene). Negatives are drawn without replacement from the
    remaining arcs, min(k * |positives|, available).
    """
    g2l = sg.global_to_local
    if int(causal_gene) not in g2l:
        return SupervisionLabels(set(), set(), degenerate=True)
    gene_local = g2l[int(causal_gene)]
    adj = _local_adjacency(sg)
    dist_from_gene = _local_bfs(adj, [gene_local], sg.n_nodes)

    positives: set[int] = set()
    for ph in sg.phenotype_locals:
        dist_from_ph = _local_bfs(adj, [int(ph)], sg.n_nodes)
        d = dist_from_ph[gene_local]
        if d < 0:
            continue
        for i in range(sg.n_arcs):
            u, v = int(sg.local_src[i]), int(sg.local_dst[i])
            if dist_from_ph[u] >= 0 and dist_from_gene[v] >= 0 and \
                    dist_from_ph[u] + 1 + dist_from_gene[v] == d:
                positives.add(i)
    if not positives:
        return SupervisionLabels(set(), set(), degenerate=True)
    remainder = np.asarray(sorted(set(range(sg.n_arcs)) - positives), dtype=np.int64)
    n_neg = min(k * len(positives), len(remainder))
    negatives = set(int(x) for x in rng.choice(remainder, size=n_neg, replace=False)) \
        if n_neg else set()
    return SupervisionLabels(positives, negatives)


# ------------------------------------------------------------- cohort files

def load_cohort(path, key_to_id: dict | None = None) -> list[PatientRecord]:
    """Read a JSON Lines cohort file.

    When `key_to_id` is given, phenotype/gene entries are string node keys
    and get translated to dense IDs; otherwise they pass through unchanged.
    A malformed line raises ValueError naming `path:line`.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or "id" not in obj \
                    or not isinstance(obj.get("phenotypes"), list):
                raise ValueError(f"{path}:{lineno}: a patient needs \"id\" and a "
                                 f"\"phenotypes\" list")

            def to_id(x):
                if key_to_id is not None:
                    if x not in key_to_id:
                        raise ValueError(f"{path}:{lineno}: unknown node key {x!r}")
                    return key_to_id[x]
                return x

            gene = obj.get("causal_gene")
            records.append(PatientRecord(
                patient_id=obj["id"],
                phenotypes={to_id(p) for p in obj["phenotypes"]},
                causal_gene=None if gene is None else to_id(gene),
            ))
    return records


def save_cohort(records, path, id_to_key=None):
    key = (lambda i: id_to_key[i]) if id_to_key is not None else (lambda i: i)
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {
                "id": r.patient_id,
                "phenotypes": [key(p) for p in sorted(r.phenotypes)],
                "causal_gene": None if r.causal_gene is None else key(r.causal_gene),
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return Path(path)
