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
from dataclasses import dataclass

import numpy as np

from .config import check_fields
from .model import ScoreBundle
from .sampling import SampledSubgraph, _arcs_leaving, read_jsonl

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
        check_fields(self, hops=">= 1", top_k_edges=">= 1", top_k_genes=">= 1",
                     edge_percentile="(0, 100)")


@dataclass
class PatientGraph:
    nodes: set                       # global node IDs, phenotypes included
    frontier_by_hop: list            # [F0..Fm] as sets of global IDs
    selected_genes: set              # genes admitted on the final hop

    def to_json_obj(self, patient_id, id_to_key) -> dict:
        return {
            "id": patient_id,
            "nodes": [id_to_key[v] for v in sorted(self.nodes)],
            "genes": [id_to_key[v] for v in sorted(self.selected_genes)],
        }


def compute_edge_threshold(edge_scores, percentile: float) -> float:
    """Linear-interpolated percentile of this patient's arc scores."""
    edge_scores = np.asarray(edge_scores, dtype=np.float64)
    if edge_scores.size == 0:
        raise ValueError("empty edge score vector")
    return float(np.percentile(edge_scores, percentile, method="linear"))


def extract_patient_graph(sg: SampledSubgraph, scores: ScoreBundle,
                          cfg: ExtractionConfig) -> PatientGraph:
    """Thresholded m-hop expansion over the sampled subgraph.

    Hops 1..m-1 expand every frontier node along qualifying arcs (raw edge
    score >= tau_edge, top-k1 per node); the final hop admits only genes
    satisfying both thresholds, top-k2 per node by edge score. Ties in
    score go to the smaller destination. Gene nodes reached at earlier
    hops stay in the node set but only final-hop genes count as selected.
    """
    e = np.asarray(scores.edge_scores.data, dtype=np.float64)
    tau_edge = compute_edge_threshold(e, cfg.edge_percentile) if e.size else np.inf
    gene_passes = np.zeros(sg.n_nodes, dtype=bool)
    gene_passes[scores.gene_locals] = scores.gene_scores.data >= cfg.gene_threshold

    offsets = sg.arc_offsets
    frontiers = [np.unique(sg.phenotype_locals)]
    for hop in range(1, cfg.hops + 1):
        final = hop == cfg.hops
        arcs = _arcs_leaving(offsets, frontiers[-1])
        arcs = arcs[e[arcs] >= tau_edge]
        if final:
            arcs = arcs[gene_passes[sg.local_dst[arcs]]]
        src, dst = sg.local_src[arcs], sg.local_dst[arcs]
        order = np.lexsort((dst, -e[arcs], src))
        src, dst = src[order], dst[order]
        rank = np.arange(len(src)) - np.searchsorted(src, src)   # within src's run
        k = cfg.top_k_genes if final else cfg.top_k_edges
        frontiers.append(np.unique(dst[rank < k]))

    to_global = lambda f: set(sg.local_nodes[f].tolist())
    return PatientGraph(
        nodes=to_global(np.concatenate(frontiers)),
        frontier_by_hop=[to_global(f) for f in frontiers],
        selected_genes=to_global(frontiers[-1]),
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
