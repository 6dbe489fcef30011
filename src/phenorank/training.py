"""End-to-end optimization loop: Adam, step LR schedule, checkpointing.

One optimizer step per patient (subgraphs vary in size, so no padding).
All randomness derives from (seed, epoch, patient index), which makes runs
bit-reproducible and lets a checkpoint resume to the exact state of an
uninterrupted run.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .kg import KnowledgeGraph
from .losses import LossConfig, LossReport, gene_loss, subgraph_loss, total_loss
from .model import ModelConfig, ModelParams, forward, init_params
from .sampling import (SupervisionLabels, label_supervision_edges,
                       sample_phenotype_subgraph)

__all__ = ["TrainConfig", "Checkpoint", "TrainingError", "CheckpointError",
           "train", "adam_step", "clip_gradients",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"RNCK"
CHECKPOINT_VERSION = 2   # v2: one W and one a per layer, sample_hops stored


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    lr_step: int = 10               # epochs between LR decays
    lr_factor: float = 0.5
    epochs: int = 30
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: float = 5.0
    sample_hops: int = 2
    val_fraction: float = 0.1       # held out for best-MRR checkpoint selection

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_factor ** (epoch // self.lr_step)


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: ModelParams
    adam_m: dict
    adam_v: dict
    adam_step_count: int
    epoch: int
    seed: int
    sample_hops: int                # hop count the model was trained with
    best_params: ModelParams | None = None
    best_val_mrr: float = -1.0
    version: int = CHECKPOINT_VERSION

    def ranking_params(self) -> ModelParams:
        """Best-validation parameters when tracked, else the final ones."""
        return self.best_params if self.best_params is not None else self.params


# ------------------------------------------------------------------- Adam

def clip_gradients(grads: dict, max_norm: float) -> dict:
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    if total > max_norm > 0:
        factor = max_norm / total
        return {k: g * factor for k, g in grads.items()}
    return grads


def adam_step(arrays: dict, grads: dict, m: dict, v: dict, step_index: int,
              lr: float, cfg: TrainConfig):
    """In-place Adam update with bias correction; grads are pre-clipped."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    t = step_index
    for name, p in arrays.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ------------------------------------------------------------ training loop

def _patient_loss(params, mcfg, lcfg, sg, labels, causal_gene):
    bundle = forward(params, mcfg, sg)
    loss_sub, degenerate = subgraph_loss(bundle.edge_scores, labels, lcfg)
    if sg.gene_locals.size:
        true_local = None
        if causal_gene is not None and causal_gene in sg.global_to_local:
            gl = sg.global_to_local[causal_gene]
            pos = np.flatnonzero(sg.gene_locals == gl)
            true_local = int(pos[0]) if pos.size else None
        loss_g, hn = gene_loss(bundle.gene_scores, true_local, lcfg)
    else:
        loss_g, hn = ad.tensor(0.0), 0
    return total_loss(loss_sub, loss_g, lcfg, hard_negative_count=hn,
                      margin_degenerate=degenerate)


def _validation_mrr(params, mcfg, cohort, subgraphs) -> float:
    """Mean reciprocal rank over held-out patients, ties by ascending ID."""
    from .metrics import rank_genes
    rrs = []
    for rec, sg in zip(cohort, subgraphs):
        if rec.causal_gene is None or sg.gene_locals.size == 0:
            rrs.append(0.0)
            continue
        bundle = forward(params, mcfg, sg)
        scores = {int(sg.local_nodes[gl]): float(s)
                  for gl, s in zip(sg.gene_locals, bundle.gene_scores.data)}
        ranking = rank_genes(scores)
        rank = ranking.rank_of.get(rec.causal_gene)
        rrs.append(0.0 if rank is None else 1.0 / rank)
    return float(np.mean(rrs)) if rrs else 0.0


def train(g: KnowledgeGraph, cohort, mcfg: ModelConfig, lcfg: LossConfig,
          tcfg: TrainConfig, resume: Checkpoint | None = None,
          progress=None) -> tuple[Checkpoint, list[LossReport]]:
    """Optimize the model on a patient cohort.

    Per epoch the patient order is reshuffled (seeded); each patient's
    cached subgraph runs forward -> joint loss -> backward -> clipped Adam
    step, and the learning rate halves every `lr_step` epochs. A held-out
    validation slice tracks the best-MRR parameter snapshot.
    """
    if not cohort:
        raise ValueError("empty cohort")
    rng = np.random.default_rng([tcfg.seed, 0x5EED])
    n_val = int(round(tcfg.val_fraction * len(cohort)))
    perm = rng.permutation(len(cohort))
    val_idx = set(int(i) for i in perm[:n_val]) if n_val else set()
    train_idx = [i for i in range(len(cohort)) if i not in val_idx]
    if not train_idx:
        raise ValueError("validation split leaves no training patients")

    subgraphs = {}
    for i, rec in enumerate(cohort):
        sg = sample_phenotype_subgraph(g, rec.phenotypes, tcfg.sample_hops)
        if sg.n_nodes == 0:
            raise ValueError(f"patient {rec.patient_id}: empty subgraph")
        subgraphs[i] = sg

    if resume is not None:
        params = resume.params
        adam_m = resume.adam_m
        adam_v = resume.adam_v
        step_count = resume.adam_step_count
        start_epoch = resume.epoch
        best_params = resume.best_params
        best_val_mrr = resume.best_val_mrr
    else:
        params = init_params(mcfg, g.node_count, np.random.default_rng([tcfg.seed, 0x1217]))
        arrays = params.arrays()
        adam_m = {k: np.zeros_like(a) for k, a in arrays.items()}
        adam_v = {k: np.zeros_like(a) for k, a in arrays.items()}
        step_count = 0
        start_epoch = 0
        best_params = None
        best_val_mrr = -1.0

    arrays = params.arrays()
    reports: list[LossReport] = []
    for epoch in range(start_epoch, tcfg.epochs):
        lr = tcfg.lr_at(epoch)
        order = np.random.default_rng([tcfg.seed, 1000 + epoch]).permutation(len(train_idx))
        sub_sum = gene_sum = tot_sum = 0.0
        hn_sum = 0
        for j in order:
            i = train_idx[int(j)]
            rec = cohort[i]
            sg = subgraphs[i]
            labels_rng = np.random.default_rng([tcfg.seed ^ i, epoch])
            if rec.causal_gene is not None:
                labels = label_supervision_edges(sg, rec.causal_gene,
                                                 lcfg.negative_ratio, labels_rng)
            else:
                labels = SupervisionLabels(set(), set(), degenerate=True)
            with ad.Tape() as tape:
                loss_t, report = _patient_loss(params, mcfg, lcfg, sg, labels,
                                               rec.causal_gene)
            if not np.isfinite(report.loss_total):
                raise TrainingError(
                    f"non-finite loss for patient {rec.patient_id} at epoch {epoch}")
            grads = clip_gradients(tape.backward(loss_t), tcfg.grad_clip_norm)
            step_count += 1
            adam_step(arrays, grads, adam_m, adam_v, step_count, lr, tcfg)
            sub_sum += report.loss_sub
            gene_sum += report.loss_gene
            tot_sum += report.loss_total
            hn_sum += report.hard_negative_count
        n = len(order)
        epoch_report = LossReport(sub_sum / n, gene_sum / n, tot_sum / n, hn_sum)
        reports.append(epoch_report)

        val_mrr = None
        if val_idx:
            val_mrr = _validation_mrr(params, mcfg,
                                      [cohort[i] for i in sorted(val_idx)],
                                      [subgraphs[i] for i in sorted(val_idx)])
            if val_mrr > best_val_mrr:
                best_val_mrr = val_mrr
                best_params = params.copy()
        if progress:
            msg = (f"epoch {epoch:3d}  lr {lr:.2e}  loss {epoch_report.loss_total:.4f}"
                   f"  (sub {epoch_report.loss_sub:.4f} gene {epoch_report.loss_gene:.4f})")
            if val_mrr is not None:
                msg += f"  val_mrr {100 * val_mrr:.1f}"
            progress(msg)

    ckpt = Checkpoint(
        model_config=mcfg,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_step_count=step_count,
        epoch=tcfg.epochs,
        seed=tcfg.seed,
        sample_hops=tcfg.sample_hops,
        best_params=best_params,
        best_val_mrr=best_val_mrr,
    )
    return ckpt, reports


# ---------------------------------------------------------- checkpoint file

def _pack_tensors(tensors: dict) -> bytes:
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<Q", len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += arr.tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def _unpack_tensors(blob: bytes) -> dict:
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError("checksum failure")
    off = 4
    (version,) = struct.unpack_from("<I", body, off); off += 4
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} "
                              f"(this build reads version {CHECKPOINT_VERSION})")
    (count,) = struct.unpack_from("<Q", body, off); off += 8
    tensors = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, off); off += 4
            name = body[off:off + name_len].decode("utf-8"); off += name_len
            (rank,) = struct.unpack_from("<I", body, off); off += 4
            dims = struct.unpack_from(f"<{rank}Q", body, off); off += 8 * rank
            n = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(body, dtype="<f8", count=n, offset=off).reshape(dims)
            off += 8 * n
            tensors[name] = arr.copy()
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from None
    if off != len(body):
        raise CheckpointError("trailing bytes after tensor table")
    return tensors


def save_checkpoint(ckpt: Checkpoint, path):
    tensors = {}
    for k, v in ckpt.model_config.to_dict().items():
        tensors[f"config/{k}"] = np.float64(v)
    for k, a in ckpt.params.arrays().items():
        tensors[f"param/{k}"] = a
    for k, a in ckpt.adam_m.items():
        tensors[f"adam/m/{k}"] = a
    for k, a in ckpt.adam_v.items():
        tensors[f"adam/v/{k}"] = a
    tensors["adam/step"] = np.float64(ckpt.adam_step_count)
    tensors["meta/epoch"] = np.float64(ckpt.epoch)
    tensors["meta/seed"] = np.float64(ckpt.seed)
    tensors["meta/sample_hops"] = np.float64(ckpt.sample_hops)
    tensors["meta/best_val_mrr"] = np.float64(ckpt.best_val_mrr)
    if ckpt.best_params is not None:
        for k, a in ckpt.best_params.arrays().items():
            tensors[f"best/{k}"] = a
    Path(path).write_bytes(_pack_tensors(tensors))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed file raises CheckpointError naming `path`."""
    try:
        return _checkpoint_from_tensors(_unpack_tensors(Path(path).read_bytes()))
    except (TypeError, ValueError, OverflowError) as exc:
        # CheckpointError, or a stored value that ModelConfig or int() rejects
        raise CheckpointError(f"{path}: {exc}") from None


_SCALARS = ("adam/step", "meta/epoch", "meta/seed", "meta/sample_hops",
            "meta/best_val_mrr")


def _checkpoint_from_tensors(tensors: dict) -> Checkpoint:
    cfg_kwargs, scalars = {}, {}
    groups = {"param/": {}, "adam/m/": {}, "adam/v/": {}, "best/": {}}
    for name, arr in tensors.items():
        prefix = next((p for p in groups if name.startswith(p)), None)
        if name.startswith("config/"):
            fld = ModelConfig.__dataclass_fields__.get(name[7:])
            if fld is None:
                raise CheckpointError(f"unknown config key {name[7:]!r}")
            val = arr.item()
            cfg_kwargs[fld.name] = val if fld.type == "float" else int(val)
        elif prefix is not None:
            groups[prefix][name[len(prefix):]] = arr
        elif name in _SCALARS:
            scalars[name] = arr.item()
        else:
            raise CheckpointError(f"unknown tensor {name!r}")
    if "meta/sample_hops" not in scalars:
        raise CheckpointError("missing meta/sample_hops")
    mcfg = ModelConfig(**cfg_kwargs)
    params, best = groups["param/"], groups["best/"]
    # the layout of init_params, with the stored node count
    expected = {k: a.shape for k, a in
                init_params(mcfg, 1, np.random.default_rng(0)).arrays().items()}
    expected["embed"] = (len(params.get("embed", ())), mcfg.embed_dim)
    for prefix, group in groups.items():
        if not group and prefix == "best/":
            continue
        for k in sorted(expected.keys() | group.keys()):
            if k not in group:
                raise CheckpointError(f"missing {prefix}{k}")
            if k not in expected:
                raise CheckpointError(f"unknown tensor {prefix + k!r}")
            if group[k].shape != expected[k]:
                raise CheckpointError(f"{prefix}{k} has shape {group[k].shape}, "
                                      f"the stored config needs {expected[k]}")
    return Checkpoint(
        model_config=mcfg,
        params=ModelParams.from_arrays(params),
        adam_m=groups["adam/m/"],
        adam_v=groups["adam/v/"],
        adam_step_count=int(scalars.get("adam/step", 0)),
        epoch=int(scalars.get("meta/epoch", 0)),
        seed=int(scalars.get("meta/seed", 0)),
        sample_hops=int(scalars["meta/sample_hops"]),
        best_params=ModelParams.from_arrays(best) if best else None,
        best_val_mrr=scalars.get("meta/best_val_mrr", -1.0),
    )
