"""Patient-graph extraction by thresholded frontier expansion, plus fusion.

Starting from the active phenotypes, the extractor expands for m-1 hops
along arcs whose raw edge score clears a per-patient percentile threshold
(top-k1 arcs per node), then admits only gene targets on the final hop,
requiring both the edge and gene thresholds (top-k2 per node). Fusion
re-ranks external per-gene scores by adding a fixed boost to genes inside
the extracted node set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .model import ScoreBundle
from .sampling import SampledSubgraph, read_jsonl

__all__ = ["ExtractionConfig", "PatientGraph", "compute_edge_threshold",
           "extract_patient_graph", "fuse_scores", "min_max_normalize"]

log = logging.getLogger(__name__)


@dataclass
class ExtractionConfig:
    hops: int = 2                    # m
    top_k_edges: int = 5             # k1, per-node expansion cap
    top_k_genes: int = 2             # k2, per-node gene cap on the final hop
    edge_percentile: float = 80.0    # tau_edge = this percentile of arc scores
    gene_threshold: float = 0.5      # tau_gene

    def __post_init__(self):
        if self.hops < 1 or self.top_k_edges < 1 or self.top_k_genes < 1:
            raise ValueError("hops and top-k limits must be >= 1")
        if not 0 < self.edge_percentile < 100:
            raise ValueError("edge_percentile must lie in (0, 100)")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass
class PatientGraph:
    nodes: set                       # global node IDs, phenotypes included
    frontier_by_hop: list            # [F0..Fm] as sets of global IDs
    selected_genes: set              # genes admitted on the final hop

    def to_json_obj(self, patient_id, id_to_key=None) -> dict:
        key = (lambda i: id_to_key[i]) if id_to_key is not None else (lambda i: i)
        return {
            "id": patient_id,
            "nodes": [key(v) for v in sorted(self.nodes)],
            "genes": [key(v) for v in sorted(self.selected_genes)],
        }


def compute_edge_threshold(edge_scores, percentile: float) -> float:
    """Linear-interpolated percentile of this patient's arc scores."""
    edge_scores = np.asarray(edge_scores, dtype=np.float64)
    if edge_scores.size == 0:
        raise ValueError("empty edge score vector")
    return float(np.percentile(edge_scores, percentile, method="linear"))


def _topk_arcs(candidates, k: int):
    """Top-k (score, dst) pairs by descending score, ties by ascending dst."""
    return sorted(candidates, key=lambda c: (-c[0], c[1]))[:k]


def extract_patient_graph(sg: SampledSubgraph, scores: ScoreBundle,
                          cfg: ExtractionConfig) -> PatientGraph:
    """Thresholded m-hop expansion over the sampled subgraph.

    Hops 1..m-1 expand every frontier node along qualifying arcs (raw edge
    score >= tau_edge, top-k1 per node); the final hop admits only genes
    satisfying both thresholds, top-k2 per node by edge score. Gene nodes
    reached at earlier hops stay in the node set but only final-hop genes
    count as selected.
    """
    e = np.asarray(scores.edge_scores.data, dtype=np.float64)
    tau_edge = compute_edge_threshold(e, cfg.edge_percentile) if e.size else np.inf
    gene_score_of = {int(gl): float(s)
                     for gl, s in zip(scores.gene_locals, scores.gene_scores.data)}
    gene_set = set(int(gl) for gl in scores.gene_locals)

    offsets = sg.arc_offsets
    phen = [int(p) for p in sg.phenotype_locals]
    collected = set(phen)
    frontiers = [set(phen)]
    frontier = list(sorted(phen))
    for _hop in range(1, cfg.hops):
        nxt: set[int] = set()
        for v in frontier:
            qualifying = [(e[a], int(sg.local_dst[a]))
                          for a in range(offsets[v], offsets[v + 1])
                          if e[a] >= tau_edge]
            for _, u in _topk_arcs(qualifying, cfg.top_k_edges):
                nxt.add(u)
        frontiers.append(nxt)
        collected |= nxt
        frontier = sorted(nxt)
    final: set[int] = set()
    for w in frontier:
        qualifying = [(e[a], int(sg.local_dst[a]))
                      for a in range(offsets[w], offsets[w + 1])
                      if int(sg.local_dst[a]) in gene_set
                      and e[a] >= tau_edge
                      and gene_score_of[int(sg.local_dst[a])] >= cfg.gene_threshold]
        for _, u in _topk_arcs(qualifying, cfg.top_k_genes):
            final.add(u)
    frontiers.append(final)
    collected |= final

    to_global = lambda s: {int(sg.local_nodes[v]) for v in s}
    return PatientGraph(
        nodes=to_global(collected),
        frontier_by_hop=[to_global(f) for f in frontiers],
        selected_genes=to_global(final),
    )


def min_max_normalize(raw: dict) -> dict:
    """Per-patient (x - min) / (max - min); constant maps become all 0.5."""
    if not raw:
        raise ValueError("empty score map")
    vals = np.asarray(list(raw.values()), dtype=np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        return {g: 0.5 for g in raw}
    return {g: (float(v) - lo) / (hi - lo) for g, v in raw.items()}


def fuse_scores(external: dict, patient_graph: PatientGraph, delta: float) -> list:
    """Boost external scores of genes inside the extracted node set.

    `external` maps gene ID -> min-max normalized score. Genes in the
    patient graph that are missing from the map enter at base score 0
    before boosting (logged). Returns (gene, fused score) pairs, score
    descending, ties ascending by gene ID.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    members = patient_graph.nodes
    fused = {}
    for gene, s in external.items():
        fused[gene] = float(s) + (delta if gene in members else 0.0)
    for gene in sorted(patient_graph.selected_genes):
        if gene not in fused:
            log.warning("gene %s in patient graph missing from external scores", gene)
            fused[gene] = 0.0 + delta
    return sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))


# ------------------------------------------------------------ file helpers

def load_patient_graphs(path) -> dict:
    """Read the per-patient JSON Lines export: id -> (nodes, genes)."""
    return {obj["id"]: (set(obj["nodes"]), set(obj["genes"]))
            for _, obj in read_jsonl(path, {"id": "id", "nodes": "ids", "genes": "ids"})}


def load_external_scores(path) -> dict:
    """Read external score JSONL: id -> {gene: score}."""
    return {obj["id"]: {g: float(s) for g, s in obj["scores"].items()}
            for _, obj in read_jsonl(path, {"id": "id", "scores": "numbers"})}
