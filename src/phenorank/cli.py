"""Command-line surface tying the pipeline together.

Subcommands: synth, ingest, train, predict, extract, evaluate, fuse.
Every command that writes files (all but ingest) writes a run manifest
next to its outputs recording the resolved config, input/output content
hashes, the seed, wall-clock time and the environment that byte-for-byte
determinism depends on. Exit codes: 0 success, 1 runtime failure, 2
usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .extraction import (ExtractionConfig, PatientGraph, extract_patient_graph,
                         fuse_scores, load_external_scores, load_patient_graphs,
                         min_max_normalize)
from .kg import GraphFormatError, export_dot, load_graph
from .losses import LossConfig
from .metrics import (MetricReport, Ranking, evaluate_rankings, inclusion_rate,
                      rank_genes)
from .model import ModelConfig, forward
from .sampling import load_cohort, read_jsonl, sample_phenotype_subgraph
from .synthetic import SynthConfig, generate_dataset
from .training import (TrainConfig, TrainingError, _finite, load_checkpoint,
                       save_checkpoint, train)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _environment() -> dict:
    """What the output bytes depend on besides the inputs and the config."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def write_manifest(out_dir, command: str, config: dict, inputs: dict,
                   outputs: dict, seed, elapsed: float, hashed=None) -> Path:
    """Write `{command}_manifest.json` into `out_dir`. `hashed` maps keys of
    `inputs` or `outputs` to the SHA-256 of a file the command has already
    hashed; that file is not read again."""
    hashed = hashed or {}

    def hashes(files):
        return {str(k): hashed.get(k) or _sha256(v) for k, v in sorted(files.items())}

    manifest = {
        "command": command,
        "config": config,
        "environment": _environment(),
        "input_hashes": hashes(inputs),
        "output_hashes": hashes(outputs),
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(elapsed, 3),
    }
    path = Path(out_dir) / f"{command}_manifest.json"
    with _replacing(path) as tmp:
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
    return path


@contextmanager
def _replacing(path):
    """Yield a temp path beside `path` for the block to write; it is moved
    onto `path` only when the block finishes, so a failed run leaves no
    truncated file (and no temp file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_graph(ckpt, g, path):
    """The checkpoint's embedding table must have one row per graph node."""
    rows = len(ckpt.params["embed"])
    if rows != g.node_count:
        raise ValueError(f"{path} was trained on a graph of {rows} nodes, "
                         f"this graph has {g.node_count}")


def _load_flat_config(path) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:           # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a flat JSON object")
    return obj


def _split_configs(flat: dict):
    """Distribute flat key-values over the model/loss/train configs."""
    groups = {
        "model": (ModelConfig, {}),
        "loss": (LossConfig, {}),
        "train": (TrainConfig, {}),
    }
    for key, val in flat.items():
        placed = False
        for cls, kwargs in groups.values():
            if key in cls.__dataclass_fields__:
                kwargs[key] = val
                placed = True
                break
        if not placed:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return (ModelConfig(**groups["model"][1]),
                LossConfig(**groups["loss"][1]),
                TrainConfig(**groups["train"][1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    t0 = time.monotonic()
    flat = _load_flat_config(args.config)
    if args.seed is not None:
        flat["seed"] = args.seed
    try:
        cfg = SynthConfig(**flat)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    out = Path(args.out)
    try:
        manifest = generate_dataset(cfg, out)
    except ValueError as exc:           # a config whose draws run dry
        raise ConfigError(str(exc))
    outputs = {name: out / name for name in manifest["files"]}
    outputs["manifest.json"] = out / "manifest.json"
    write_manifest(out, "synth", asdict(cfg), {}, outputs, cfg.seed,
                   time.monotonic() - t0)
    print(f"wrote dataset to {out}")
    return 0


def cmd_ingest(args) -> int:
    g = load_graph(args.nodes, args.edges)
    cohort = None
    if args.cohort:
        cohort = load_cohort(args.cohort, g.key_to_id)
    print(f"graph: {g.node_count} nodes, {g.arc_count} arcs "
          f"({g.arc_count // 2} undirected edges)")
    if cohort is not None:
        labeled = sum(1 for r in cohort if r.causal_gene is not None)
        print(f"cohort: {len(cohort)} patients, {labeled} with causal gene")
    if args.check:
        print("ok")
    return 0


def cmd_train(args) -> int:
    t0 = time.monotonic()
    overrides = {
        "epochs": args.epochs,
        "learning_rate": args.learning_rate,
        "seed": args.seed,
        "sample_hops": args.hops,
        "val_fraction": args.val_fraction,
    }
    flat = _load_flat_config(args.config)
    flat.update({k: v for k, v in overrides.items() if v is not None})
    resume = None
    if args.resume:
        resume = load_checkpoint(args.resume)
        flat = _resumed_config(flat, resume, args.resume)
    mcfg, lcfg, tcfg = _split_configs(flat)
    if resume is not None and tcfg.epochs < resume.epoch:
        raise ConfigError(f"epochs {tcfg.epochs} is below epoch {resume.epoch} "
                          f"that {args.resume} has reached")
    g = load_graph(args.nodes, args.edges)
    if resume is not None:
        _check_graph(resume, g, args.resume)
    cohort = load_cohort(args.cohort, g.key_to_id)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt, reports = train(g, cohort, mcfg, lcfg, tcfg, resume=resume,
                          progress=print)
    ckpt_path = out_dir / "checkpoint.rnck"
    with _replacing(ckpt_path) as tmp:
        ckpt_sha256 = save_checkpoint(ckpt, tmp)
    trace_path = out_dir / "loss_trace.csv"
    with _replacing(trace_path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss_sub", "loss_gene", "loss_total"])
        start = ckpt.epoch - len(reports)
        for i, r in enumerate(reports):
            writer.writerow([start + i, repr(r.loss_sub), repr(r.loss_gene),
                             repr(r.loss_total)])
    inputs = {"nodes": args.nodes, "edges": args.edges, "cohort": args.cohort}
    config = {"model": asdict(mcfg), "loss": asdict(lcfg), "train": asdict(tcfg)}
    write_manifest(out_dir, "train", config, inputs,
                   {"checkpoint.rnck": ckpt_path, "loss_trace.csv": trace_path},
                   tcfg.seed, time.monotonic() - t0,
                   hashed={"checkpoint.rnck": ckpt_sha256})
    print(f"checkpoint written to {ckpt_path}")
    return 0


def _serving_hops(ckpt, hops, path) -> int:
    """The checkpoint's training hop count; an explicit different one is an error."""
    if hops is not None and hops != ckpt.sample_hops:
        raise ConfigError(f"hops {hops} differs from sample_hops {ckpt.sample_hops} "
                          f"that {path} was trained with")
    return ckpt.sample_hops


def _resumed_config(flat: dict, ckpt, path) -> dict:
    """The checkpoint's model config, hop count and seed where `flat` sets
    none; a different value in `flat` is an error."""
    stored = {**asdict(ckpt.model_config), "sample_hops": ckpt.sample_hops,
              "seed": ckpt.seed}
    for key, val in stored.items():
        if flat.get(key, val) != val:
            raise ConfigError(f"{key} {flat[key]} differs from {key} {val} "
                              f"that {path} was trained with")
    return {**flat, **stored}


def _per_patient_scores(g, ckpt, cohort, hops: int):
    """Forward passes: (record, subgraph, edge scores, gene scores, error)
    in cohort order, the scores as arrays.

    A patient without a usable phenotype node, or whose forward pass meets
    an overflow or a non-finite value, yields no subgraph and no scores,
    and the reason as its error.
    """
    params = ckpt.ranking_params()
    for rec in cohort:
        try:
            sg = sample_phenotype_subgraph(g, rec.phenotypes, hops)
            with _finite("forward pass"):
                edge_scores, gene_scores = forward(params, ckpt.model_config, sg)
        except (ValueError, TrainingError) as exc:
            yield rec, None, None, None, f"patient {rec.patient_id}: {exc}"
            continue
        yield rec, sg, edge_scores.data, gene_scores.data, None


def _failure_exit(failed: list, total: int) -> int:
    """0 when every patient succeeded, else 1 after a one-line summary."""
    if not failed:
        return 0
    print(f"error: {len(failed)} of {total} patients failed (first: {failed[0]})",
          file=sys.stderr)
    return 1


def cmd_predict(args) -> int:
    t0 = time.monotonic()
    ckpt = load_checkpoint(args.checkpoint)
    hops = _serving_hops(ckpt, args.hops, args.checkpoint)
    g = load_graph(args.nodes, args.edges)
    _check_graph(ckpt, g, args.checkpoint)
    cohort = load_cohort(args.patients, g.key_to_id)
    out_path = Path(args.out)
    failed = []
    with _replacing(out_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for rec, sg, _, gene_scores, error in _per_patient_scores(g, ckpt, cohort, hops):
            obj = {"id": rec.patient_id, "ranking": [], "scores": {}}
            if error:
                obj["error"] = error
                failed.append(error)
            elif sg.gene_locals.size == 0:
                print(f"warning: patient {rec.patient_id} has no candidate genes",
                      file=sys.stderr)
            else:
                scores = {g.node_keys[int(sg.local_nodes[gl])]: float(s)
                          for gl, s in zip(sg.gene_locals, gene_scores)}
                obj["ranking"] = rank_genes(scores).order
                obj["scores"] = {k: scores[k] for k in sorted(scores)}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    inputs = {"nodes": args.nodes, "edges": args.edges,
              "patients": args.patients, "checkpoint": args.checkpoint}
    write_manifest(out_path.parent, "predict", {"hops": hops}, inputs,
                   {out_path.name: out_path}, ckpt.seed, time.monotonic() - t0,
                   hashed={"checkpoint": ckpt.file_sha256})
    return _failure_exit(failed, len(cohort))


def cmd_extract(args) -> int:
    t0 = time.monotonic()
    flat = _load_flat_config(args.config)
    for key, val in (("hops", args.hops), ("top_k_edges", args.top_k_edges),
                     ("top_k_genes", args.top_k_genes),
                     ("edge_percentile", args.edge_percentile),
                     ("gene_threshold", args.gene_threshold)):
        if val is not None:
            flat[key] = val
    ckpt = load_checkpoint(args.checkpoint)
    flat["hops"] = _serving_hops(ckpt, flat.get("hops"), args.checkpoint)
    try:
        ecfg = ExtractionConfig(**flat)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    g = load_graph(args.nodes, args.edges)
    _check_graph(ckpt, g, args.checkpoint)
    cohort = load_cohort(args.patients, g.key_to_id)
    out_dir = Path(args.out_dir)
    if args.dot:
        for rec in cohort:
            pid = str(rec.patient_id)
            if pid in ("", ".", "..") or any(c in pid for c in "/\\\0"):
                raise ValueError(f"{args.patients}: patient id {pid!r} cannot name "
                                 f"a DOT file inside {out_dir}")
    pg_path = out_dir / "patient_graphs.jsonl"
    failed = []
    with _replacing(pg_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for rec, sg, edge_scores, gene_scores, error in _per_patient_scores(
                g, ckpt, cohort, ecfg.hops):
            if error:
                obj = {"id": rec.patient_id, "nodes": [], "genes": [], "error": error}
                failed.append(error)
            else:
                pg = extract_patient_graph(sg, edge_scores, gene_scores, ecfg)
                obj = pg.to_json_obj(rec.patient_id, g.node_keys)
                if args.dot:
                    arc_ids = {int(a) for a in sg.global_arc_id
                               if int(g.arc_src[a]) in pg.nodes
                               and int(g.arc_dst[a]) in pg.nodes}
                    with _replacing(out_dir / f"{rec.patient_id}.dot") as tmp:
                        export_dot(g, pg.nodes, arc_ids, tmp)
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    inputs = {"nodes": args.nodes, "edges": args.edges,
              "patients": args.patients, "checkpoint": args.checkpoint}
    write_manifest(out_dir, "extract", asdict(ecfg), inputs,
                   {"patient_graphs.jsonl": pg_path}, ckpt.seed,
                   time.monotonic() - t0, hashed={"checkpoint": ckpt.file_sha256})
    return _failure_exit(failed, len(cohort))


def cmd_evaluate(args) -> int:
    t0 = time.monotonic()
    if not args.predictions and not args.patient_graphs:
        raise ConfigError("provide --predictions and/or --patient-graphs")
    cohort = load_cohort(args.cohort)
    truths = {r.patient_id: r.causal_gene for r in cohort}

    report = MetricReport(hits_at={}, mrr=None, n_patients=len(truths))
    if args.predictions:
        preds = {obj["id"]: obj for _, obj in read_jsonl(
            args.predictions, {"id": "id", "ranking": "ids", "scores": "numbers"})}
        rankings = []
        for pid, truth in truths.items():
            if pid not in preds:
                raise ConfigError(f"patient {pid} missing from predictions")
            order = preds[pid]["ranking"]
            scores = preds[pid]["scores"] or {g: -i for i, g in enumerate(order)}
            if order:
                rankings.append(rank_genes(scores, worst_case_ties=args.worst_case_ties,
                                           truth=truth))
            else:
                rankings.append(Ranking(order=[], rank_of={}))
        report = evaluate_rankings(rankings, list(truths.values()), ks=args.ks)
    if args.patient_graphs:
        pg_map = load_patient_graphs(args.patient_graphs)
        missing = [pid for pid in truths if pid not in pg_map]
        if missing:
            raise ConfigError(f"patient {missing[0]} missing from patient graphs")
        report = replace(report, inclusion=inclusion_rate(
            [pg_map[pid][0] for pid in truths], list(truths.values())))
    print(report.to_table())
    out_path = Path(args.out) if args.out else None
    outputs = {}
    if out_path:
        with _replacing(out_path) as tmp:
            tmp.write_text(report.to_json() + "\n", encoding="utf-8")
        outputs[out_path.name] = out_path
        inputs = {"cohort": args.cohort}
        if args.predictions:
            inputs["predictions"] = args.predictions
        if args.patient_graphs:
            inputs["patient_graphs"] = args.patient_graphs
        write_manifest(out_path.parent, "evaluate", {"ks": args.ks}, inputs, outputs,
                       None, time.monotonic() - t0)
    return 0


def cmd_fuse(args) -> int:
    t0 = time.monotonic()
    external = load_external_scores(args.external)
    pg_map = load_patient_graphs(args.patient_graphs)
    out_path = Path(args.out)
    # the cohort's patients are scored, as evaluate scores them
    truths = {r.patient_id: r.causal_gene for r in load_cohort(args.cohort)} \
        if args.cohort else {}
    missing = [pid for pid in truths if pid not in pg_map]
    if missing:
        raise ConfigError(f"patient {missing[0]} missing from patient graphs")
    fused_of = {}
    with _replacing(out_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for pid in sorted(pg_map):
            if pid not in external:
                raise RuntimeError(f"patient {pid} missing from external score file")
            nodes, genes = pg_map[pid]
            pg = PatientGraph(nodes=nodes, frontier_by_hop=[], selected_genes=genes)
            fused = fuse_scores(min_max_normalize(external[pid]), pg, args.delta)
            fh.write(json.dumps({"id": pid,
                                 "ranking": [g for g, _ in fused],
                                 "scores": {g: s for g, s in sorted(fused)}},
                                sort_keys=True) + "\n")
            if pid in truths:
                fused_of[pid] = dict(fused)
    if args.cohort:
        report = evaluate_rankings([rank_genes(fused_of[pid]) for pid in truths],
                                   list(truths.values()), ks=args.ks)
        print(report.to_table())
    inputs = {"external": args.external, "patient_graphs": args.patient_graphs}
    write_manifest(out_path.parent, "fuse", {"delta": args.delta}, inputs,
                   {out_path.name: out_path}, None, time.monotonic() - t0)
    return 0


# ------------------------------------------------------------------ parser

def _ks(text: str) -> list:
    """The `--ks` value: comma-separated cutoffs, each >= 1."""
    try:
        ks = [int(k) for k in text.split(",")]
        if min(ks) >= 1:
            return ks
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")


def _delta(text: str) -> float:
    """The `--delta` value: a finite boost >= 0."""
    try:
        delta = float(text)
        if 0 <= delta < np.inf:
            return delta
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phenorank",
        description="Phenotype-driven causal gene prioritization pipeline")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic graph and cohort")
    p.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate graph/cohort files")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--cohort")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero unless all inputs validate")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train the model on a cohort")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="flat JSON of model/loss/train settings")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hops", type=int, help="sampling hop count")
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="rank candidate genes per patient")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--patients", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hops", type=int,
                   help="sampling hop count (default: the checkpoint's)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("extract", help="extract compact patient graphs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--patients", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON extraction settings")
    p.add_argument("--hops", type=int,
                   help="sampling hop count (default: the checkpoint's)")
    p.add_argument("--top-k-edges", type=int)
    p.add_argument("--top-k-genes", type=int)
    p.add_argument("--edge-percentile", type=float)
    p.add_argument("--gene-threshold", type=float)
    p.add_argument("--dot", action="store_true", help="also write DOT files")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("evaluate", help="score rankings against the truth")
    p.add_argument("--predictions")
    p.add_argument("--patient-graphs")
    p.add_argument("--cohort", required=True)
    p.add_argument("--ks", type=_ks, default="1,5,10")
    p.add_argument("--out", help="write a JSON metric report here")
    p.add_argument("--worst-case-ties", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("fuse", help="re-rank external scores with a boost")
    p.add_argument("--external", required=True,
                   help="JSONL of per-patient external gene scores")
    p.add_argument("--patient-graphs", required=True)
    p.add_argument("--delta", type=_delta, required=True,
                   help="boost for genes in the patient graph (finite, >= 0)")
    p.add_argument("--out", required=True)
    p.add_argument("--cohort", help="truth cohort for metrics")
    p.add_argument("--ks", type=_ks, default="1,5,10")
    p.set_defaults(fn=cmd_fuse)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call of the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
