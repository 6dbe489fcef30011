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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .sampling import SampledSubgraph

__all__ = ["ModelConfig", "ModelParams", "ScoreBundle", "init_params",
           "gat_forward", "patient_representation", "score_edges",
           "score_genes", "forward"]

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
        if self.hidden_dim % self.heads:
            raise ValueError("hidden_dim must be divisible by heads")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be >= 0")

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

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass
class ModelParams:
    """All learnable tensors, keyed by name."""

    tensors: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def arrays(self) -> dict:
        return {k: t.data for k, t in self.tensors.items()}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "ModelParams":
        return cls({k: Tensor(v, trainable=True, name=k) for k, v in arrays.items()})

    def copy(self) -> "ModelParams":
        return ModelParams.from_arrays({k: v.copy() for k, v in self.arrays().items()})


@dataclass
class ScoreBundle:
    node_embeddings_final: Tensor    # n_nodes x out_dim
    attention_records: Tensor        # n_arcs x (layers * heads), self-loops excluded
    patient_vec: Tensor              # out_dim
    edge_scores: Tensor              # n_arcs raw MLP outputs
    gene_scores: Tensor              # per candidate gene, aligned with gene_locals
    gene_locals: np.ndarray


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(cfg: ModelConfig, node_count: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, normal(0, 0.1) query vector, zero biases.

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
    return ModelParams.from_arrays(arrays)


def gat_forward(params: ModelParams, cfg: ModelConfig,
                sg: SampledSubgraph) -> tuple[Tensor, Tensor]:
    """Run the attention stack over a sampled subgraph.

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
        if sg.n_arcs:
            arc_alpha, _ = ad.split(alpha, [sg.n_arcs, n])
        else:
            arc_alpha = ad.tensor(np.zeros((0, H)))
        records.append(arc_alpha)
        messages = ad.mul(ad.reshape(alpha, (m, H, 1)),
                          ad.reshape(z_src, (m, H, hd)))
        agg = ad.segment_sum(ad.reshape(messages, (m, H * hd)), dst_all, n)
        h = ad.matmul(ad.elu(agg), params[f"layer{l}/Wproj"])
    return h, ad.concat(records, axis=1)


def patient_representation(node_embeddings_final: Tensor, phenotype_locals,
                           q: Tensor) -> Tensor:
    """Scaled dot-product pooling over the phenotype rows only."""
    phenotype_locals = np.asarray(phenotype_locals, dtype=np.int64)
    if phenotype_locals.size == 0:
        raise ValueError("empty phenotype set")
    d = q.data.shape[0]
    hp = ad.gather_rows(node_embeddings_final, phenotype_locals)
    logits = ad.scale(ad.reshape(ad.matmul(hp, ad.reshape(q, (d, 1))), (-1,)),
                      1.0 / math.sqrt(d))
    w = ad.softmax(logits)
    return ad.reshape(ad.matmul(ad.reshape(w, (1, -1)), hp), (-1,))


def score_edges(node_embeddings_final: Tensor, attention_records: Tensor,
                p: Tensor, params: ModelParams, sg: SampledSubgraph) -> Tensor:
    """Raw per-arc scores from [Proj(A); p; |h_s - h_t|; h_s * h_t] -> MLP."""
    if sg.n_arcs == 0:
        return ad.tensor(np.zeros(0))
    proj = ad.matmul(attention_records, params["attn_proj"])
    p_rows = ad.tile_rows(p, sg.n_arcs)
    h_s = ad.gather_rows(node_embeddings_final, sg.local_src)
    h_t = ad.gather_rows(node_embeddings_final, sg.local_dst)
    x = ad.concat([proj, p_rows, ad.abs_diff(h_s, h_t), ad.mul(h_s, h_t)], axis=1)
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
    mean_in = ad.segment_mean(ad.sigmoid(edge_scores_raw), sg.local_dst, sg.n_nodes)
    gene_mean = ad.gather_rows(mean_in, gene_locals)
    penalty = ad.scale(ad.shift(ad.neg(ad.clamp(gene_mean, 0.0, 1.0)), 1.0),
                       penalty_weight)
    d = p.data.shape[0]
    h_g = ad.gather_rows(node_embeddings_final, gene_locals)
    dots = ad.reshape(ad.matmul(h_g, ad.reshape(p, (d, 1))), (-1,))
    cos = ad.div(dots, ad.mul(ad.row_l2_norm(h_g), ad.l2_norm(p)))
    return ad.sub(cos, penalty)


def forward(params: ModelParams, cfg: ModelConfig, sg: SampledSubgraph) -> ScoreBundle:
    """Full model pass over one sampled subgraph."""
    h, records = gat_forward(params, cfg, sg)
    p = patient_representation(h, sg.phenotype_locals, params["query"])
    e = score_edges(h, records, p, params, sg)
    if sg.gene_locals.size:
        s_gene = score_genes(p, h, e, sg.gene_locals, cfg.penalty_weight, sg)
    else:
        s_gene = ad.tensor(np.zeros(0))
    return ScoreBundle(
        node_embeddings_final=h,
        attention_records=records,
        patient_vec=p,
        edge_scores=e,
        gene_scores=s_gene,
        gene_locals=sg.gene_locals,
    )
