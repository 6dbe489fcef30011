"""Attention-based subgraph encoder plus edge and gene scoring heads.

The encoder stacks L multi-head attention layers in the GATv2 style: per
head, attention logits are a learned vector applied after the leaky-ReLU
of the summed projected endpoint features, normalized by softmax over each
destination's incident arcs plus a virtual self-loop. Head outputs pass
through an ELU, are concatenated, and projected per layer. Each layer
holds three tensors: `W` (d_in, heads*head_dim) whose column block k is
head k's projection, `a` (heads, head_dim) whose row k is head k's
attention vector, and `Wproj`.

Downstream heads: scaled dot-product pooling of phenotype embeddings into
a patient vector, a per-arc MLP scorer over attention/patient/endpoint
features, and a gene scorer combining cosine similarity to the patient
vector with a clamped penalty from incoming edge scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_fields
from .sampling import SampledSubgraph

__all__ = ["ModelConfig", "init_params", "param_shapes", "gat_forward",
           "patient_representation", "score_edges", "score_genes", "forward"]

EDGE_MLP_HIDDEN = 64


@dataclass
class ModelConfig:
    embed_dim: int = 128
    hidden_dim: int = 128
    out_dim: int = 64
    heads: int = 4
    layers: int = 3
    attn_proj_dim: int = 16
    penalty_weight: float = 0.5     # lambda in the gene scorer
    leaky_slope: float = 0.2

    def __post_init__(self):
        check_fields(self, embed_dim=">= 1", hidden_dim=">= 1", out_dim=">= 1",
                     heads=">= 1", layers=">= 1", attn_proj_dim=">= 1",
                     penalty_weight=">= 0")
        if self.hidden_dim % self.heads:
            raise ValueError("hidden_dim must be divisible by heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads

    def layer_dims(self):
        """(input_dim, output_dim) per attention layer."""
        dims = []
        d_in = self.embed_dim
        for l in range(self.layers):
            d_out = self.out_dim if l == self.layers - 1 else self.hidden_dim
            dims.append((d_in, d_out))
            d_in = d_out
        return dims


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(cfg: ModelConfig, node_count: int, rng: np.random.Generator) -> dict:
    """Name -> array of every learnable parameter: Glorot-uniform weights,
    normal(0, 0.1) query vector, zero biases.

    The embedding table uses fan_in = fan_out = embed_dim so row magnitude
    does not shrink with graph size.
    """
    if node_count <= 0:
        raise ValueError("node_count must be positive")
    arrays = {"embed": _glorot(rng, cfg.embed_dim, cfg.embed_dim,
                               (node_count, cfg.embed_dim))}
    hd = cfg.head_dim
    for l, (d_in, d_out) in enumerate(cfg.layer_dims()):
        # W then a per head, as in format v1, so a seed keeps its weights
        draws = [(_glorot(rng, d_in, hd, (d_in, hd)), _glorot(rng, hd, 1, hd))
                 for _ in range(cfg.heads)]
        arrays[f"layer{l}/W"] = np.concatenate([w for w, _ in draws], axis=1)
        arrays[f"layer{l}/a"] = np.stack([a for _, a in draws])
        arrays[f"layer{l}/Wproj"] = _glorot(
            rng, cfg.hidden_dim, d_out, (cfg.hidden_dim, d_out))
    arrays["query"] = rng.normal(0.0, 0.1, size=cfg.out_dim)
    arrays["attn_proj"] = _glorot(rng, cfg.layers * cfg.heads, cfg.attn_proj_dim,
                                  (cfg.layers * cfg.heads, cfg.attn_proj_dim))
    feat_dim = cfg.attn_proj_dim + 3 * cfg.out_dim
    arrays["edge_mlp/W1"] = _glorot(rng, feat_dim, EDGE_MLP_HIDDEN,
                                    (feat_dim, EDGE_MLP_HIDDEN))
    arrays["edge_mlp/b1"] = np.zeros(EDGE_MLP_HIDDEN)
    arrays["edge_mlp/W2"] = _glorot(rng, EDGE_MLP_HIDDEN, 1, (EDGE_MLP_HIDDEN, 1))
    arrays["edge_mlp/b2"] = np.zeros(1)
    return arrays


def param_shapes(cfg: ModelConfig, node_count: int) -> dict:
    """Name -> shape of every tensor that init_params makes, drawing nothing."""
    shapes = {"embed": (node_count, cfg.embed_dim)}
    for l, (d_in, d_out) in enumerate(cfg.layer_dims()):
        shapes[f"layer{l}/W"] = (d_in, cfg.hidden_dim)
        shapes[f"layer{l}/a"] = (cfg.heads, cfg.head_dim)
        shapes[f"layer{l}/Wproj"] = (cfg.hidden_dim, d_out)
    shapes["query"] = (cfg.out_dim,)
    shapes["attn_proj"] = (cfg.layers * cfg.heads, cfg.attn_proj_dim)
    shapes["edge_mlp/W1"] = (cfg.attn_proj_dim + 3 * cfg.out_dim, EDGE_MLP_HIDDEN)
    shapes["edge_mlp/b1"] = (EDGE_MLP_HIDDEN,)
    shapes["edge_mlp/W2"] = (EDGE_MLP_HIDDEN, 1)
    shapes["edge_mlp/b2"] = (1,)
    return shapes


def gat_forward(params: dict, cfg: ModelConfig,
                sg: SampledSubgraph) -> tuple[Tensor, Tensor]:
    """Run the attention stack over a sampled subgraph.

    `params` maps the names of `init_params` to arrays, or to the Tensors
    a tape differentiates; every function below takes it the same way.

    Returns final node embeddings (n x out_dim) and per-arc attention
    records (n_arcs x layers*heads, layer-major then head). A self-loop is
    added virtually for every node during attention but contributes no
    record, since only real arcs get scored downstream.
    """
    n = sg.n_nodes
    if n == 0:
        raise ValueError("empty subgraph")
    self_idx = np.arange(n, dtype=np.int64)
    src_all = np.concatenate([sg.local_src, self_idx])
    dst_all = np.concatenate([sg.local_dst, self_idx])
    m = len(src_all)
    H, hd = cfg.heads, cfg.head_dim

    h = ad.gather_rows(params["embed"], sg.local_nodes)
    records = []
    for l in range(cfg.layers):
        # all heads in one batch, so scatter ops run once per layer
        z = ad.matmul(h, params[f"layer{l}/W"])        # (n, H*hd)
        z_src = ad.gather_rows(z, src_all)
        z_dst = ad.gather_rows(z, dst_all)
        e = ad.leaky_relu(ad.add(z_src, z_dst), cfg.leaky_slope)
        logits = ad.sum_(ad.mul(ad.reshape(e, (m, H, hd)), params[f"layer{l}/a"]),
                         axis=2)                       # (m, H)
        alpha = ad.segment_softmax(logits, dst_all, n)
        records.append(ad.gather_rows(alpha, np.arange(sg.n_arcs)))   # real arcs only
        messages = ad.mul(ad.reshape(alpha, (m, H, 1)),
                          ad.reshape(z_src, (m, H, hd)))
        agg = ad.segment_sum(ad.reshape(messages, (m, H * hd)), dst_all, n)
        h = ad.matmul(ad.elu(agg), params[f"layer{l}/Wproj"])
    return h, ad.concat(records, axis=1)


def patient_representation(node_embeddings_final: Tensor, phenotype_locals,
                           q) -> Tensor:
    """Scaled dot-product pooling over the phenotype rows only."""
    phenotype_locals = np.asarray(phenotype_locals, dtype=np.int64)
    if phenotype_locals.size == 0:
        raise ValueError("empty phenotype set")
    q = ad.tensor(q)
    d = q.data.shape[0]
    hp = ad.gather_rows(node_embeddings_final, phenotype_locals)
    logits = ad.scale(ad.reshape(ad.matmul(hp, ad.reshape(q, (d, 1))), (-1,)),
                      1.0 / math.sqrt(d))
    w = ad.segment_softmax(logits, np.zeros(phenotype_locals.size, dtype=np.int64), 1)
    return ad.reshape(ad.matmul(ad.reshape(w, (1, -1)), hp), (-1,))


def score_edges(node_embeddings_final: Tensor, attention_records: Tensor,
                p: Tensor, params: dict, sg: SampledSubgraph) -> Tensor:
    """Raw per-arc scores from [Proj(A); p; |h_s - h_t|; h_s * h_t] -> MLP."""
    if sg.n_arcs == 0:
        return ad.tensor(np.zeros(0))
    proj = ad.matmul(attention_records, params["attn_proj"])
    p_rows = ad.tile_rows(p, sg.n_arcs)
    h_s = ad.gather_rows(node_embeddings_final, sg.local_src)
    h_t = ad.gather_rows(node_embeddings_final, sg.local_dst)
    x = ad.concat([proj, p_rows, ad.abs_(ad.sub(h_s, h_t)), ad.mul(h_s, h_t)], axis=1)
    hidden = ad.relu(ad.add(ad.matmul(x, params["edge_mlp/W1"]), params["edge_mlp/b1"]))
    out = ad.add(ad.matmul(hidden, params["edge_mlp/W2"]), params["edge_mlp/b2"])
    return ad.reshape(out, (-1,))


def score_genes(p: Tensor, node_embeddings_final: Tensor, edge_scores_raw: Tensor,
                gene_locals, penalty_weight: float, sg: SampledSubgraph) -> Tensor:
    """Cosine similarity to p minus a clamped incoming-edge penalty.

    The penalty input is the mean sigmoid of raw scores over arcs entering
    each gene; an induced m-hop subgraph cannot contain an arc-free gene.
    """
    gene_locals = np.asarray(gene_locals, dtype=np.int64)
    if gene_locals.size == 0:
        raise ValueError("empty candidate gene set")
    in_degree = np.bincount(sg.local_dst, minlength=sg.n_nodes)
    no_arcs = gene_locals[in_degree[gene_locals] == 0]
    if no_arcs.size:
        raise ValueError(f"gene (local {int(no_arcs[0])}) has no incoming arcs")
    mean_in = ad.div(ad.segment_sum(ad.sigmoid(edge_scores_raw), sg.local_dst, sg.n_nodes),
                     np.maximum(in_degree, 1).astype(np.float64))
    gene_mean = ad.gather_rows(mean_in, gene_locals)
    penalty = ad.scale(ad.shift(ad.scale(ad.clamp(gene_mean, 0.0, 1.0), -1.0), 1.0),
                       penalty_weight)
    d = p.data.shape[0]
    h_g = ad.gather_rows(node_embeddings_final, gene_locals)
    dots = ad.reshape(ad.matmul(h_g, ad.reshape(p, (d, 1))), (-1,))
    p_norm = ad.row_l2_norm(ad.reshape(p, (1, d)))      # shape (1,), broadcasts
    cos = ad.div(dots, ad.mul(ad.row_l2_norm(h_g), p_norm))
    return ad.sub(cos, penalty)


def forward(params: dict, cfg: ModelConfig,
            sg: SampledSubgraph) -> tuple[Tensor, Tensor]:
    """Full model pass over one sampled subgraph: the raw score of every
    arc, and the score of every candidate gene in `sg.gene_locals` order."""
    h, records = gat_forward(params, cfg, sg)
    p = patient_representation(h, sg.phenotype_locals, params["query"])
    e = score_edges(h, records, p, params, sg)
    if sg.gene_locals.size:
        return e, score_genes(p, h, e, sg.gene_locals, cfg.penalty_weight, sg)
    return e, ad.tensor(np.zeros(0))
