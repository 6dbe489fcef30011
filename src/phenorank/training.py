"""End-to-end optimization loop: Adam, step LR schedule, checkpointing.

One optimizer step per patient (subgraphs vary in size, so no padding).
The `Checkpoint` is the whole training state: `train` advances one, fresh
or resumed, and `save_checkpoint` writes it as it stands. All randomness
derives from (seed, epoch, patient index), which makes runs
bit-reproducible and lets a checkpoint resume to the exact state of an
uninterrupted run.
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import check_fields, check_value
from .kg import KnowledgeGraph
from .losses import LossConfig, LossReport, gene_loss, subgraph_loss, total_loss
from .model import ModelConfig, forward, init_params, param_shapes
from .sampling import (label_supervision_edges, sample_phenotype_subgraph,
                       shortest_path_arcs)

__all__ = ["TrainConfig", "Checkpoint", "TrainingError", "CheckpointError",
           "train", "adam_step", "clip_gradients",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"RNCK"
CHECKPOINT_VERSION = 2   # v2: one W and one a per layer, sample_hops stored

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0     # global L2 norm the gradients are clipped to


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
    sample_hops: int = 2
    val_fraction: float = 0.1       # held out for best-MRR checkpoint selection

    def __post_init__(self):
        # a factor above 1 would grow the rate until it overflows
        check_fields(self, learning_rate="> 0", lr_step=">= 1", lr_factor="(0, 1]",
                     epochs=">= 1", seed=">= 0", sample_hops=">= 1",
                     val_fraction="[0, 1)")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_factor ** (epoch // self.lr_step)


@dataclass
class Checkpoint:
    """Training state. `params`, `adam_m`, `adam_v` and `best_params` each
    map the names of `init_params` to arrays, in its order."""

    model_config: ModelConfig
    params: dict
    adam_m: dict
    adam_v: dict
    adam_step_count: int
    epoch: int
    seed: int
    sample_hops: int                # hop count the model was trained with
    best_params: dict | None = None
    best_val_mrr: float = -1.0

    def ranking_params(self) -> dict:
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
              lr: float):
    """In-place Adam update of `arrays`, `m` and `v` with bias correction;
    grads are pre-clipped.

    Each array is updated in place with the operations, and so the
    rounding, of p -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = step_index
    for name, p in arrays.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m_, v_ = m[name], v[name]
        m_ *= b1
        m_ += (1 - b1) * g
        v_ *= b2
        v_ += (1 - b2) * g * g
        step = m_ / (1 - b1 ** t)       # m_hat
        step *= lr
        v_hat = v_ / (1 - b2 ** t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += eps
        step /= v_hat
        p -= step


# ------------------------------------------------------------ training loop

@contextmanager
def _finite(what: str):
    """An overflow or a non-finite value inside the block raises
    TrainingError naming `what`."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingError(f"{what}: {exc}") from None


def _patient_loss(params, mcfg, lcfg, sg, labels, causal_gene):
    edge_scores, gene_scores = forward(params, mcfg, sg)
    loss_sub, degenerate = subgraph_loss(edge_scores, labels, lcfg)
    if sg.gene_locals.size:
        pos = np.flatnonzero(sg.local_nodes[sg.gene_locals] == causal_gene)
        true_local = int(pos[0]) if pos.size else None
        loss_g, hn = gene_loss(gene_scores, true_local, lcfg)
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
        _, gene_scores = forward(params, mcfg, sg)
        scores = {int(sg.local_nodes[gl]): float(s)
                  for gl, s in zip(sg.gene_locals, gene_scores.data)}
        ranking = rank_genes(scores)
        rank = ranking.rank_of.get(rec.causal_gene)
        rrs.append(0.0 if rank is None else 1.0 / rank)
    return float(np.mean(rrs)) if rrs else 0.0


def train(g: KnowledgeGraph, cohort, mcfg: ModelConfig, lcfg: LossConfig,
          tcfg: TrainConfig, resume: Checkpoint | None = None,
          progress=None) -> tuple[Checkpoint, list[LossReport]]:
    """Optimize the model on a patient cohort, advancing `resume` in place
    (or a fresh checkpoint) up to epoch `tcfg.epochs`.

    Per epoch the patient order is reshuffled (seeded); each patient's
    cached subgraph runs forward -> joint loss -> backward -> clipped Adam
    step, and the learning rate halves every `lr_step` epochs. A held-out
    validation slice tracks the best-MRR parameter snapshot.
    """
    if not cohort:
        raise ValueError("empty cohort")
    if resume is not None and (resume.model_config, resume.seed, resume.sample_hops) \
            != (mcfg, tcfg.seed, tcfg.sample_hops):
        raise ValueError("the model config, seed or hop count differs from "
                         "the checkpoint's")
    rng = np.random.default_rng([tcfg.seed, 0x5EED])
    n_val = int(round(tcfg.val_fraction * len(cohort)))
    perm = rng.permutation(len(cohort))
    val_idx, train_idx = np.sort(perm[:n_val]), np.sort(perm[n_val:])
    if not train_idx.size:
        raise ValueError("validation split leaves no training patients")

    subgraphs = []
    for rec in cohort:
        sg = sample_phenotype_subgraph(g, rec.phenotypes, tcfg.sample_hops)
        if sg.n_nodes == 0:
            raise ValueError(f"patient {rec.patient_id}: empty subgraph")
        subgraphs.append(sg)
    val_cohort = [cohort[i] for i in val_idx]
    val_subgraphs = [subgraphs[i] for i in val_idx]
    # the positives do not change between epochs; the negatives are drawn
    # afresh each epoch
    on_path = {int(i): shortest_path_arcs(subgraphs[i], cohort[i].causal_gene)
               for i in train_idx}

    ck = resume
    if ck is None:
        params = init_params(mcfg, g.node_count, np.random.default_rng([tcfg.seed, 0x1217]))
        adam_m, adam_v = ({k: np.zeros_like(a) for k, a in params.items()}
                          for _ in range(2))
        ck = Checkpoint(mcfg, params, adam_m, adam_v, adam_step_count=0, epoch=0,
                        seed=tcfg.seed, sample_hops=tcfg.sample_hops)
    # the tape's leaves wrap the very arrays that adam_step updates in place
    leaves = {k: ad.Tensor(a) for k, a in ck.params.items()}
    reports: list[LossReport] = []
    for epoch in range(ck.epoch, tcfg.epochs):
        lr = tcfg.lr_at(epoch)
        order = np.random.default_rng([tcfg.seed, 1000 + epoch]).permutation(len(train_idx))
        sub_sum = gene_sum = tot_sum = 0.0
        hn_sum = 0
        for j in order:
            i = int(train_idx[j])
            rec, sg = cohort[i], subgraphs[i]
            labels = label_supervision_edges(sg, on_path[i], lcfg.negative_ratio,
                                             np.random.default_rng([tcfg.seed ^ i, epoch]))
            with _finite(f"patient {rec.patient_id} at epoch {epoch}"):
                with ad.Tape() as tape:
                    loss_t, report = _patient_loss(leaves, mcfg, lcfg, sg, labels,
                                                   rec.causal_gene)
                grads = clip_gradients(tape.backward(loss_t, leaves), GRAD_CLIP_NORM)
                ck.adam_step_count += 1
                adam_step(ck.params, grads, ck.adam_m, ck.adam_v, ck.adam_step_count, lr)
            sub_sum += report.loss_sub
            gene_sum += report.loss_gene
            tot_sum += report.loss_total
            hn_sum += report.hard_negative_count
        n = len(order)
        epoch_report = LossReport(sub_sum / n, gene_sum / n, tot_sum / n, hn_sum)
        reports.append(epoch_report)
        ck.epoch = epoch + 1

        val_mrr = None
        if val_cohort:
            with _finite(f"validation at epoch {epoch}"):
                val_mrr = _validation_mrr(ck.params, mcfg, val_cohort, val_subgraphs)
            if val_mrr > ck.best_val_mrr:
                ck.best_val_mrr = val_mrr
                ck.best_params = {k: a.copy() for k, a in ck.params.items()}
        if progress:
            msg = (f"epoch {epoch:3d}  lr {lr:.2e}  loss {epoch_report.loss_total:.4f}"
                   f"  (sub {epoch_report.loss_sub:.4f} gene {epoch_report.loss_gene:.4f})")
            if val_mrr is not None:
                msg += f"  val_mrr {100 * val_mrr:.1f}"
            progress(msg)
    return ck, reports


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
    tensors = {}
    try:
        (count,) = struct.unpack_from("<Q", body, off); off += 8
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, off); off += 4
            name = body[off:off + name_len].decode("utf-8"); off += name_len
            (rank,) = struct.unpack_from("<I", body, off); off += 4
            dims = struct.unpack_from(f"<{rank}Q", body, off); off += 8 * rank
            n = math.prod(dims)
            arr = np.frombuffer(body, dtype="<f8", count=n, offset=off).reshape(dims)
            off += 8 * n
            tensors[name] = arr.copy()
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from None
    if off != len(body):
        raise CheckpointError("trailing bytes after tensor table")
    return tensors


# Each stored scalar: the Checkpoint field it holds, that field's type and
# the rule (config.check_value's) its value must meet. Every one is required.
_SCALARS = {
    "adam/step": ("adam_step_count", "int", ">= 0"),
    "meta/epoch": ("epoch", "int", ">= 0"),
    "meta/seed": ("seed", "int", ">= 0"),
    "meta/sample_hops": ("sample_hops", "int", ">= 1"),
    "meta/best_val_mrr": ("best_val_mrr", "float", "[-1, 1]"),
}


def _stored(val: float, kind: str):
    """A stored float as a value of type `kind`; only an integral one
    becomes an int, so the type check rejects 3.5 rather than truncate it."""
    return int(val) if kind == "int" and val.is_integer() else val


# Each stored array group: its name prefix and the Checkpoint field that
# holds it. Only best/ may be absent.
_GROUPS = {"param/": "params", "adam/m/": "adam_m", "adam/v/": "adam_v",
           "best/": "best_params"}


def save_checkpoint(ckpt: Checkpoint, path):
    tensors = {}
    for k, v in asdict(ckpt.model_config).items():
        tensors[f"config/{k}"] = np.float64(v)
    for prefix, field in _GROUPS.items():
        for k, a in (getattr(ckpt, field) or {}).items():
            tensors[prefix + k] = a
    for name, (field, _, _) in _SCALARS.items():
        tensors[name] = np.float64(getattr(ckpt, field))
    Path(path).write_bytes(_pack_tensors(tensors))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed file raises CheckpointError naming `path`."""
    try:
        return _checkpoint_from_tensors(_unpack_tensors(Path(path).read_bytes()))
    except (TypeError, ValueError, OverflowError) as exc:
        # CheckpointError, or a stored value that ModelConfig or a rule rejects
        raise CheckpointError(f"{path}: {exc}") from None


def _checkpoint_from_tensors(tensors: dict) -> Checkpoint:
    cfg_kwargs = {}
    groups = {prefix: {} for prefix in _GROUPS}
    for name, arr in tensors.items():
        prefix = next((p for p in groups if name.startswith(p)), None)
        if name.startswith("config/"):
            fld = ModelConfig.__dataclass_fields__.get(name[7:])
            if fld is None:
                raise CheckpointError(f"unknown config key {name[7:]!r}")
            cfg_kwargs[fld.name] = _stored(arr.item(), fld.type)
        elif prefix is not None:
            groups[prefix][name[len(prefix):]] = arr
        elif name not in _SCALARS:
            raise CheckpointError(f"unknown tensor {name!r}")
    scalars = {}
    for name, (field, kind, rule) in _SCALARS.items():
        if name not in tensors:
            raise CheckpointError(f"missing {name}")
        scalars[field] = _stored(tensors[name].item(), kind)
        check_value(name, scalars[field], kind, rule)
    mcfg = ModelConfig(**cfg_kwargs)
    params = groups["param/"]
    if mcfg.layers > len(params):        # a corrupt count; keeps the layout small
        raise CheckpointError(f"config/layers {mcfg.layers} exceeds the "
                              f"{len(params)} stored param/ tensors")
    # the layout of init_params, with the stored node count
    expected = param_shapes(mcfg, len(params.get("embed", ())))
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
            if not np.isfinite(group[k]).all():
                raise CheckpointError(f"{prefix}{k} holds a non-finite value")
        # init_params order, not the file's name order: gradients follow it,
        # and clip_gradients sums their squared norms in that order
        groups[prefix] = {k: group[k] for k in expected}
    return Checkpoint(model_config=mcfg, **scalars,
                      **{field: groups[prefix] or None for prefix, field in _GROUPS.items()})
