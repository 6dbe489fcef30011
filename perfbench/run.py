"""phenorank benchmark: one workload through synth, train, predict, extract
and evaluate, every command a `phenorank.cli.main` call.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-c4 --seed 1 --seconds 8 --trace 0

With `--trace 0` the run makes the data and trains once, then repeats
serving rounds (batch predict, batch extract, single-patient predicts) in
whole rounds for `--seconds` seconds, evaluates, checks every output and
prints the end-to-end metrics. With `--trace 1` it runs the pipeline with
one serving round twice, untraced and traced side by side, checks that
both wrote the same bytes, and prints the per-layer metrics of the traced
run. The last line of standard output is one JSON object: correct,
attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import sys
import time

T_START = time.monotonic()
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_run, random_mrr, read_jsonl, self_test  # noqa: E402
from reference import REFERENCE_S, scaled_seconds  # noqa: E402
from workloads import (C4_MODEL, HOPS, MRR_MARGIN, ONE_PATIENT_SET,  # noqa: E402
                       TRAIN_SEED, VAL_FRACTION, WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must exit within 180 s; 5 s are left for the checks that follow
# the last stage. See README, "Time limit", for the headroom this leaves.
DEADLINE_S = 175.0
# Outputs that tracing must leave byte for byte unchanged.
TRACE_INVARIANT = ("model/checkpoint.rnck", "model/pred.jsonl",
                   "model/graphs/patient_graphs.jsonl", "model/loss_trace.csv",
                   "model/report.json")


class StageError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # one BLAS thread: timings steady on a small box, and the model's
    # floating-point results (hence test MRR) fixed for a given seed
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def run_stages(jobs: list) -> list:
    """Run one stage process per job, all side by side, and return their
    results in job order. A job is (workdir, name, trace, round, extra spec
    keys): the round of (call name, argv) is repeated for `seconds` (once
    if absent), then `final` runs once. A failing batch command is fatal;
    failed single-patient predicts are counted by the caller. Every process
    started here has ended when this returns or raises."""
    running = []
    try:
        for workdir, name, trace, round_, extra in jobs:
            spec = {"root": str(ROOT), "stage": name, "trace": trace,
                    "round": round_, "seconds": None, "final": [], "watch": [],
                    "result": str(workdir / f"{name}.result.json"),
                    "spans_out": str(workdir / "spans.jsonl"), **extra}
            spec_path = workdir / f"{name}.spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            log = open(workdir / f"{name}.log", "w", encoding="utf-8")
            running.append((workdir, name, log, subprocess.Popen(
                [sys.executable, str(HERE / "stage.py"), str(spec_path)],
                cwd=workdir, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT)))
        for _, name, _, proc in running:
            try:
                proc.wait(timeout=max(0.0, DEADLINE_S - (time.monotonic() - T_START)))
            except subprocess.TimeoutExpired:
                raise StageError(f"{name}: still running at the deadline") from None
    finally:
        for _, _, log, proc in running:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            log.close()
    return [stage_result(workdir, name, proc.returncode)
            for workdir, name, _, proc in running]


def stage_result(workdir: Path, name: str, returncode: int) -> dict:
    tail = (workdir / f"{name}.log").read_text(encoding="utf-8")[-2000:]
    result_path = workdir / f"{name}.result.json"
    if returncode != 0 or not result_path.is_file():
        raise StageError(f"{workdir.name} {name}: exit code {returncode}\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for c in result["calls"]:
        if c["rc"] != 0 and c["name"] != "predict_one":
            raise StageError(f"{workdir.name} {c['name']}: phenorank exited "
                             f"{c['rc']}\n{tail}")
    return result


def run_pipelines(workdirs: dict, wl, seed: int, seconds: float | None,
                  reference: bool) -> dict:
    """One pipeline per workdir (mapped to its trace flag): synth and train
    once; then rounds of batch predict, batch extract and the
    single-patient predicts for `seconds` (one round if None); then
    evaluate. The synth stages run one after another, since synth has the
    largest peak memory; the train and serve stages of all pipelines run
    side by side. With `reference`, the serve stage runs the host-speed
    reference blocks. Returns {workdir: {stage: result}}."""
    graph = ["--nodes", "data/nodes.tsv", "--edges", "data/edges.tsv"]
    ckpt = ["--checkpoint", "model/checkpoint.rnck"]
    hops = ["--hops", str(HOPS)]
    stages = {d: {} for d in workdirs}
    for d, trace in workdirs.items():
        d.mkdir(parents=True)
        (d / "synth.json").write_text(json.dumps(wl.synth), encoding="utf-8")
        (d / "model.json").write_text(json.dumps(C4_MODEL), encoding="utf-8")
        stages[d]["synth"], = run_stages([(d, "synth", trace, [
            ("synth", ["synth", "--config", "synth.json", "--out", "data"])], {})])

    train = [("train", ["train", *graph, "--cohort", "data/train.jsonl",
                        "--out-dir", "model", "--config", "model.json",
                        "--epochs", str(wl.epochs), "--seed", str(TRAIN_SEED),
                        "--val-fraction", str(VAL_FRACTION), *hops])]
    for d, r in zip(workdirs, run_stages(
            [(d, "train", trace, train, {}) for d, trace in workdirs.items()])):
        stages[d]["train"] = r

    round_ = [
        ("predict", ["predict", *ckpt, *graph, "--patients", "data/test.jsonl",
                     "--out", "model/pred.jsonl", *hops]),
        ("extract", ["extract", *ckpt, *graph, "--patients", "data/test.jsonl",
                     "--out-dir", "model/graphs", *hops]),
    ]
    n_test = len((next(iter(workdirs)) / "data" / "test.jsonl")
                 .read_text(encoding="utf-8").splitlines())
    chosen = sorted(random.Random(seed).sample(range(n_test), ONE_PATIENT_SET))
    for i in chosen:
        round_.append(("predict_one", ["predict", *ckpt, *graph,
                                       "--patients", f"one/{i}.jsonl",
                                       "--out", f"one/pred-{i}.jsonl", *hops]))
    for d in workdirs:
        lines = (d / "data" / "test.jsonl").read_text(encoding="utf-8").splitlines()
        (d / "one").mkdir()
        for i in chosen:
            (d / "one" / f"{i}.jsonl").write_text(lines[i] + "\n", encoding="utf-8")
    serve = {"seconds": seconds, "reference": reference,
             "final": [("evaluate", ["evaluate", "--predictions", "model/pred.jsonl",
                                     "--patient-graphs",
                                     "model/graphs/patient_graphs.jsonl",
                                     "--cohort", "data/test.jsonl",
                                     "--out", "model/report.json"])],
             "watch": ["model/pred.jsonl", "model/graphs/patient_graphs.jsonl"]
                      + [f"one/pred-{i}.jsonl" for i in chosen]}
    for d, r in zip(workdirs, run_stages(
            [(d, "serve", trace, round_, serve) for d, trace in workdirs.items()])):
        stages[d]["serve"] = {**r, "chosen": chosen}
    return stages


def check_serving(workdir: Path, serve: dict) -> list:
    """Every round wrote the same bytes, and each single-patient
    prediction equals that patient's line of the batch prediction."""
    errors = []
    if any(h != serve["hashes"][0] for h in serve["hashes"]):
        errors.append("serving rounds wrote different outputs")
    batch = (workdir / "model" / "pred.jsonl").read_text(encoding="utf-8").splitlines()
    for i in serve["chosen"]:
        one = (workdir / "one" / f"pred-{i}.jsonl").read_text(encoding="utf-8")
        if one.splitlines() != [batch[i]]:
            errors.append(f"single-patient predict of test line {i} differs "
                          f"from the batch")
    return errors


def operation_counts(workdir: Path, wl, serve: dict) -> tuple:
    """(attempted, failed, training steps, test patients). Attempted counts
    training patient-steps, then per serving round the batch-predicted and
    batch-extracted patients and the single-patient predicts."""
    n_train = len(read_jsonl(workdir / "data" / "train.jsonl"))
    n_test = len(read_jsonl(workdir / "data" / "test.jsonl"))
    steps = wl.epochs * (n_train - int(round(VAL_FRACTION * n_train)))
    per_round = 2 * n_test + ONE_PATIENT_SET
    failed = sum(1 for c in serve["calls"] if c["rc"] != 0)
    return steps + len(serve["hashes"]) * per_round, failed, steps, n_test


def calls(stage: dict, name: str) -> list:
    return [c for c in stage["calls"] if c["name"] == name and c["rc"] == 0]


def scaled(stage: dict, name: str) -> list:
    return [scaled_seconds(c) for c in calls(stage, name)]


# ---------------------------------------------------------------- metrics

def end_to_end(stages: dict, steps: int, n_test: int, report: dict) -> dict:
    """The serving command times are scaled to the reference host speed
    (reference.py); set-up and training are timed as measured."""
    serve = stages["serve"]
    if not calls(serve, "predict_one"):
        raise StageError("every single-patient predict failed")
    return {
        "setup_s": stages["train"]["loaded_at"] - T_START,
        "train_patients_per_s": steps / calls(stages["train"], "train")[0]["seconds"],
        "predict_patients_per_s": n_test / statistics.median(scaled(serve, "predict")),
        "extract_patients_per_s": n_test / statistics.median(scaled(serve, "extract")),
        "predict_one_ms": 1000.0 * statistics.median(scaled(serve, "predict_one")),
        "peak_rss_mb": max(s["maxrss_mb"] for s in stages.values()),
        "test_mrr_pct": report["mrr"],
    }


def per_layer(stages: dict, overhead_s: float, checkpoint_bytes: int) -> dict:
    def total(name, only=None):
        return sum(s["spans"].get(name, {}).get("total_s", 0.0)
                   for k, s in stages.items() if only is None or k in only)

    def durations(name):
        return [d for s in stages.values()
                for d in s["spans"].get(name, {}).get("durations_s", [])]

    def samples(name):
        return [v for s in stages.values() for v in s["samples"].get(name, [])]

    def p50(values):
        return statistics.median(values) if values else 0.0

    labelled = samples("sampling.label_subgraph")
    m = {
        "synthetic.generate_dataset_s": total("synthetic.generate_dataset"),
        "synthetic.peak_alloc_mb": max(samples("synthetic.peak_alloc_mb")),
        "kg.load_graph_ms": 1000 * p50(durations("kg.load_graph")),
        "kg.arcs": max(samples("kg.arcs")),
        "sampling.sample_ms_p50": 1000 * p50(durations("sampling.sample_phenotype_subgraph")),
        "sampling.subgraph_nodes_p50": p50(samples("sampling.subgraph_nodes")),
        "sampling.subgraph_arcs_p50": p50(samples("sampling.subgraph_arcs")),
        "sampling.candidate_genes_p50": p50(samples("sampling.candidate_genes")),
        "sampling.label_s": total("sampling.label_supervision_edges"),
        "sampling.label_calls_per_patient": len(labelled) / max(1, len(set(labelled))),
        "sampling.degenerate_labels": sum(samples("sampling.degenerate")),
    }
    for fn in ("gat_forward", "patient_representation", "score_edges", "score_genes"):
        m[f"model.{fn}_train_s"] = total(f"model.{fn}", only=("train",))
        m[f"model.{fn}_infer_s"] = total(f"model.{fn}", only=("serve",))
    m.update({
        "autodiff.backward_s": total("autodiff.Tape.backward"),
        "autodiff.tape_records_p50": p50(samples("autodiff.tape_records")),
        "autodiff.grad_mb_per_step": p50(samples("autodiff.grad_mb")),
    })
    for op in ("segment_sum", "segment_softmax", "gather_rows", "matmul"):
        m[f"autodiff.{op}_s"] = total(f"autodiff.{op}")
        m[f"autodiff.{op}_vjp_s"] = total(f"autodiff.{op}.vjp")
    hard = samples("losses.hard_negatives")
    useful = samples("training.adam_useful_row_ratio")
    m.update({
        "losses.subgraph_loss_s": total("losses.subgraph_loss"),
        "losses.gene_loss_s": total("losses.gene_loss"),
        "losses.hard_negatives_per_step": sum(hard) / max(1, len(hard)),
        "training.adam_step_s": total("training.adam_step"),
        "training.clip_gradients_s": total("training.clip_gradients"),
        "training.adam_useful_row_ratio": sum(useful) / max(1, len(useful)),
        "training.save_checkpoint_ms": 1000 * p50(durations("training.save_checkpoint")),
        "training.load_checkpoint_ms": 1000 * p50(durations("training.load_checkpoint")),
        "training.checkpoint_mb": checkpoint_bytes / 2 ** 20,
        "extraction.extract_ms_p50": 1000 * p50(durations("extraction.extract_patient_graph")),
        "extraction.patient_graph_nodes_p50": p50(samples("extraction.patient_graph_nodes")),
        "extraction.selected_genes_p50": p50(samples("extraction.selected_genes")),
        "metrics.rank_genes_ms_p50": 1000 * p50(durations("metrics.rank_genes")),
        "cli.write_manifest_ms": 1000 * p50(durations("cli.write_manifest")),
        "trace.overhead_s": overhead_s,
    })
    for command in ("train", "predict", "extract", "evaluate"):
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    return m


def self_time_table(stages: dict) -> list:
    """Span names by self time, summed over stages: (name, calls, self, total)."""
    rows: dict = {}
    for s in stages.values():
        for name, agg in s["spans"].items():
            r = rows.setdefault(name, [0, 0.0, 0.0])
            r[0] += agg["count"]
            r[1] += agg["self_s"]
            r[2] += agg["total_s"]
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the serving phase (whole rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "phenorank" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: the benchmark needs src/phenorank and BENCHMARK.json in {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    runs = HERE / "runs"
    rundir = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    plain_dir = rundir / "plain"
    try:
        if args.trace:
            traced_dir = rundir / "traced"
            pipelines = run_pipelines({plain_dir: False, traced_dir: True},
                                      wl, args.seed, None, reference=False)
            stages, traced = pipelines[plain_dir], pipelines[traced_dir]
        else:
            stages = run_pipelines({plain_dir: False}, wl, args.seed,
                                   args.seconds, reference=True)[plain_dir]
        errors, outputs, expected = check_run(plain_dir / "data", plain_dir / "model",
                                              HOPS, MRR_MARGIN)
        errors += ["self-test: " + e for e in self_test(outputs, expected)]
        errors += check_serving(plain_dir, stages["serve"])
        attempted, failed, steps, n_test = operation_counts(plain_dir, wl, stages["serve"])
        if args.trace:
            errors += [f"tracing changed {f}" for f in TRACE_INVARIANT
                       if (plain_dir / f).read_bytes() != (traced_dir / f).read_bytes()]
            errors += ["traced run: " + e for e in check_serving(traced_dir, traced["serve"])]
            t_attempted, t_failed, _, _ = operation_counts(traced_dir, wl, traced["serve"])
            attempted, failed = attempted + t_attempted, failed + t_failed
            overhead = sum(c["seconds"] for s in traced.values() for c in s["calls"]) \
                - sum(c["seconds"] for s in stages.values() for c in s["calls"])
            metrics = per_layer(traced, overhead,
                                (traced_dir / "model" / "checkpoint.rnck").stat().st_size)
            runs.mkdir(exist_ok=True)
            shutil.copyfile(traced_dir / "spans.jsonl",
                            runs / f"trace-{args.workload}.jsonl")
            for name, calls, self_s, total_s in self_time_table(traced)[:12]:
                print(f"span {name:40s} calls {calls:7d}  self {self_s:8.3f} s"
                      f"  total {total_s:8.3f} s")
        else:
            metrics = end_to_end(stages, steps, n_test, outputs["report"])
            print(f"serving rounds {len(stages['serve']['hashes'])}; raw (scaled) "
                  "command times: "
                  + "  ".join(f"{c['name']} {c['seconds']:.2f}s"
                              + (f" ({scaled_seconds(c):.2f}s)" if "ref_s" in c else "")
                              for s in stages.values() for c in s["calls"]
                              if c["name"] != "predict_one"))
            blocks = [t for s in stages.values() for c in s["calls"]
                      for t in c.get("ref_s", [])]
            print(f"reference block median {1000 * statistics.median(blocks):.2f} ms "
                  f"(nominal {1000 * REFERENCE_S:.0f} ms)")
        print(f"test MRR {outputs['report']['mrr']:.2f} against "
              f"{random_mrr(expected):.2f} for a random ranking")
    except StageError as exc:
        print(f"error: {exc}; outputs kept in {rundir}", file=sys.stderr)
        return 1

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ "
              f"between this run and BENCHMARK.json", file=sys.stderr)
        return 2
    env = stages["train"]["env"]
    print("machine " + " ".join(f"{k}={v}" for k, v in env.items()))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if errors:
        print(f"outputs kept in {rundir}", file=sys.stderr)
    else:
        shutil.rmtree(rundir)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
