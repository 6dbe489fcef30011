import json
import csv
import struct
import zlib

import pytest

from phenorank.cli import build_parser, main
from phenorank.training import (CheckpointError, _pack_tensors, _unpack_tensors,
                                load_checkpoint)

SMALL_TRAIN_CONFIG = {
    "embed_dim": 8, "hidden_dim": 8, "out_dim": 6, "heads": 2, "layers": 2,
    "attn_proj_dim": 4, "epochs": 2, "learning_rate": 1e-3,
    "val_fraction": 0.0, "seed": 0,
}

SYNTH_CONFIG = {
    "n_diseases": 3, "genes_per_disease": 2, "phenos_per_disease": 4,
    "n_background_nodes": 20, "background_edge_prob": 0.02,
    "phenotypes_per_patient": 3, "n_patients": 20, "seed": 1,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; later stages reuse the artifacts."""
    ws = tmp_path_factory.mktemp("cli")
    (ws / "synth.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    assert main(["synth", "--config", str(ws / "synth.json"),
                 "--out", str(ws / "data")]) == 0
    (ws / "train.json").write_text(json.dumps(SMALL_TRAIN_CONFIG),
                                   encoding="utf-8")
    assert main(["train",
                 "--nodes", str(ws / "data" / "nodes.tsv"),
                 "--edges", str(ws / "data" / "edges.tsv"),
                 "--cohort", str(ws / "data" / "train.jsonl"),
                 "--config", str(ws / "train.json"),
                 "--out-dir", str(ws / "run")]) == 0
    return ws


def args_for(ws, *extra):
    return ["--nodes", str(ws / "data" / "nodes.tsv"),
            "--edges", str(ws / "data" / "edges.tsv"), *extra]


def test_synth_writes_expected_files(workspace):
    for name in ("nodes.tsv", "edges.tsv", "train.jsonl", "test.jsonl",
                 "manifest.json", "synth_manifest.json"):
        assert (workspace / "data" / name).exists(), name


def test_ingest_check(workspace, capsys):
    assert main(["ingest", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--check"]) == 0
    out = capsys.readouterr().out
    assert "graph:" in out and "cohort:" in out and "ok" in out


def test_ingest_rejects_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("A\tnot_a_type\ta\n", encoding="utf-8")
    edges = tmp_path / "e.tsv"
    edges.write_text("", encoding="utf-8")
    assert main(["ingest", "--nodes", str(bad), "--edges", str(edges),
                 "--check"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_outputs(workspace):
    run = workspace / "run"
    assert (run / "checkpoint.rnck").exists()
    with open(run / "loss_trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss_sub", "loss_gene", "loss_total"]
    assert len(rows) == 1 + SMALL_TRAIN_CONFIG["epochs"]
    assert all(float(r[3]) > 0 for r in rows[1:])
    manifest = json.loads((run / "train_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert set(manifest["output_hashes"]) == {"checkpoint.rnck", "loss_trace.csv"}


def test_train_rejects_unknown_config_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"not_a_setting": 1}', encoding="utf-8")
    assert main(["train", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_predict_is_deterministic_and_ranked(workspace, tmp_path):
    outs = []
    for name in ("p1.jsonl", "p2.jsonl"):
        out = tmp_path / name
        assert main(["predict", *args_for(workspace),
                     "--checkpoint", str(workspace / "run" / "checkpoint.rnck"),
                     "--patients", str(workspace / "data" / "test.jsonl"),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    for line in outs[0].decode().splitlines():
        obj = json.loads(line)
        scores = obj["scores"]
        ranked = sorted(scores, key=lambda g: (-scores[g], g))
        assert obj["ranking"] == ranked


def test_extract_emits_patient_graphs_and_dot(workspace, tmp_path):
    out_dir = tmp_path / "ex"
    assert main(["extract", *args_for(workspace),
                 "--checkpoint", str(workspace / "run" / "checkpoint.rnck"),
                 "--patients", str(workspace / "data" / "test.jsonl"),
                 "--out-dir", str(out_dir),
                 "--gene-threshold", "-2.0", "--dot"]) == 0
    lines = (out_dir / "patient_graphs.jsonl").read_text().splitlines()
    cohort = (workspace / "data" / "test.jsonl").read_text().splitlines()
    assert len(lines) == len(cohort)
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"id", "nodes", "genes"}
        assert set(obj["genes"]) <= set(obj["nodes"])
        assert (out_dir / f"{obj['id']}.dot").exists()


def test_ingest_rejects_cohort_line_without_id(workspace, tmp_path, capsys):
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text('{"phenotypes": []}\n', encoding="utf-8")
    assert main(["ingest", *args_for(workspace), "--cohort", str(cohort)]) == 1
    assert f"{cohort}:1:" in capsys.readouterr().err


def _with_version(blob: bytes, version: int) -> bytes:
    body = bytearray(blob[:-4])
    body[4:8] = struct.pack("<I", version)
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def _edited(blob: bytes, edit) -> bytes:
    tensors = _unpack_tensors(blob)
    edit(tensors)
    return _pack_tensors(tensors)


BAD_CHECKPOINTS = {
    "version_1": (lambda b: _with_version(b, 1), "version 1"),
    "unknown_config_key": (lambda b: _edited(b, lambda t: t.update(
        {"config/bogus": 1.0})), "unknown config key 'bogus'"),
    "no_sample_hops": (lambda b: _edited(b, lambda t: t.pop("meta/sample_hops")),
                       "missing meta/sample_hops"),
    "bad_config_value": (lambda b: _edited(b, lambda t: t.update(
        {"config/heads": 3.0})), "divisible"),
    "bad_magic": (lambda b: b"JUNK" + b[4:], "magic"),
    "flipped_byte": (lambda b: b[:40] + bytes([b[40] ^ 1]) + b[41:], "checksum"),
    "truncated": (lambda b: b[:len(b) // 2], "checksum"),
    # a best/ snapshot without its embedding table
    "no_best_embed": (lambda b: _edited(b, lambda t: t.update(
        {f"best/{k[6:]}": v for k, v in list(t.items())
         if k.startswith("param/") and k != "param/embed"})), "missing best/embed"),
    "no_adam_moment": (lambda b: _edited(b, lambda t: t.pop("adam/v/query")),
                       "missing adam/v/query"),
    "bad_param_shape": (lambda b: _edited(b, lambda t: t.update(
        {"param/query": t["param/query"][:-1]})), "param/query has shape"),
    "other_model_config": (lambda b: _edited(b, lambda t: t.update(
        {"config/out_dim": 12.0})), "the stored config needs"),
    "unknown_tensor": (lambda b: _edited(b, lambda t: t.update(
        {"extra/x": 1.0})), "unknown tensor 'extra/x'"),
    "unknown_param": (lambda b: _edited(b, lambda t: t.update(
        {"param/extra": 1.0})), "unknown tensor 'param/extra'"),
}


@pytest.mark.parametrize("kind", sorted(BAD_CHECKPOINTS))
def test_bad_checkpoint_names_file_and_exits_one(workspace, tmp_path, capsys, kind):
    make, reason = BAD_CHECKPOINTS[kind]
    bad = tmp_path / f"{kind}.rnck"
    bad.write_bytes(make((workspace / "run" / "checkpoint.rnck").read_bytes()))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(bad)
    assert str(info.value).startswith(f"{bad}: ") and reason in str(info.value)
    out = tmp_path / "pred.jsonl"
    assert main(["predict", *args_for(workspace), "--checkpoint", str(bad),
                 "--patients", str(workspace / "data" / "test.jsonl"),
                 "--out", str(out)]) == 1
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def test_serving_hops_default_to_the_trained_ones(workspace, tmp_path, capsys):
    run = tmp_path / "run1"
    assert main(["train", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--config", str(workspace / "train.json"), "--epochs", "1",
                 "--hops", "1", "--out-dir", str(run)]) == 0
    ckpt = run / "checkpoint.rnck"
    assert load_checkpoint(ckpt).sample_hops == 1
    serve = [*args_for(workspace), "--checkpoint", str(ckpt),
             "--patients", str(workspace / "data" / "test.jsonl")]
    assert main(["predict", *serve, "--out", str(run / "p" / "pred.jsonl")]) == 0
    manifest = json.loads((run / "p" / "predict_manifest.json").read_text())
    assert manifest["config"] == {"hops": 1}
    assert main(["predict", *serve, "--hops", "1",
                 "--out", str(run / "q" / "pred.jsonl")]) == 0
    assert (run / "p" / "pred.jsonl").read_bytes() == \
        (run / "q" / "pred.jsonl").read_bytes()
    assert main(["extract", *serve, "--out-dir", str(run / "x")]) == 0
    manifest = json.loads((run / "x" / "extract_manifest.json").read_text())
    assert manifest["config"]["hops"] == 1
    capsys.readouterr()
    assert main(["predict", *serve, "--hops", "2",
                 "--out", str(run / "r" / "pred.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "hops 2" in err and "sample_hops 1" in err
    assert main(["extract", *serve, "--hops", "2",
                 "--out-dir", str(run / "y")]) == 2


def test_resume_takes_the_checkpoint_settings(workspace, tmp_path, capsys):
    resume = [*args_for(workspace), "--cohort", str(workspace / "data" / "train.jsonl"),
              "--epochs", "3", "--resume", str(workspace / "run" / "checkpoint.rnck")]
    # no --config and no --hops: the model config and hops are the checkpoint's
    assert main(["train", *resume, "--out-dir", str(tmp_path / "a")]) == 0
    ck = load_checkpoint(tmp_path / "a" / "checkpoint.rnck")
    assert ck.sample_hops == 2 and ck.model_config.embed_dim == 8
    capsys.readouterr()
    assert main(["train", *resume, "--hops", "1", "--out-dir", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "hops 1" in err and "sample_hops 2" in err
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps({**SMALL_TRAIN_CONFIG, "embed_dim": 16}), encoding="utf-8")
    assert main(["train", *resume, "--config", str(wider),
                 "--out-dir", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "embed_dim 16" in err and "embed_dim 8" in err
    assert not (tmp_path / "b").exists() and not (tmp_path / "c").exists()


def _first_gene_key(workspace):
    for line in (workspace / "data" / "nodes.tsv").read_text().splitlines():
        key, kind, _ = line.split("\t")
        if kind == "gene":
            return key


def test_one_bad_patient_keeps_the_others(workspace, tmp_path, capsys):
    test_set = workspace / "data" / "test.jsonl"
    good = tmp_path / "good.jsonl"
    serve = [*args_for(workspace), "--checkpoint",
             str(workspace / "run" / "checkpoint.rnck")]
    assert main(["predict", *serve, "--patients", str(test_set), "--out", str(good)]) == 0
    assert main(["extract", *serve, "--patients", str(test_set),
                 "--out-dir", str(tmp_path / "good")]) == 0
    lines = test_set.read_text().splitlines()
    bad = json.dumps({"id": "bad", "phenotypes": [_first_gene_key(workspace)]})
    patients = tmp_path / "patients.jsonl"
    patients.write_text("\n".join(lines[:1] + [bad] + lines[1:]) + "\n", encoding="utf-8")
    capsys.readouterr()

    out = tmp_path / "p" / "pred.jsonl"
    assert main(["predict", *serve, "--patients", str(patients), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"1 of {len(lines) + 1} patients failed" in err and "patient bad" in err
    records = [json.loads(x) for x in out.read_text().splitlines()]
    failed = records.pop(1)
    assert failed["id"] == "bad" and failed["ranking"] == [] and failed["scores"] == {}
    assert "no valid phenotype" in failed["error"]
    assert records == [json.loads(x) for x in good.read_text().splitlines()]
    assert (tmp_path / "p" / "predict_manifest.json").exists()

    assert main(["extract", *serve, "--patients", str(patients),
                 "--out-dir", str(tmp_path / "x")]) == 1
    assert f"1 of {len(lines) + 1} patients failed" in capsys.readouterr().err
    graphs = [json.loads(x) for x in
              (tmp_path / "x" / "patient_graphs.jsonl").read_text().splitlines()]
    failed = graphs.pop(1)
    assert (failed["id"], failed["nodes"], failed["genes"]) == ("bad", [], [])
    assert "no valid phenotype" in failed["error"]
    assert graphs == [json.loads(x) for x in
                      (tmp_path / "good" / "patient_graphs.jsonl").read_text().splitlines()]
    assert (tmp_path / "x" / "extract_manifest.json").exists()
    assert sorted(f.name for f in (tmp_path / "p").iterdir()) == \
        ["pred.jsonl", "predict_manifest.json"]


def test_evaluate_predictions(workspace, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    assert main(["predict", *args_for(workspace),
                 "--checkpoint", str(workspace / "run" / "checkpoint.rnck"),
                 "--patients", str(workspace / "data" / "test.jsonl"),
                 "--out", str(pred)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--predictions", str(pred),
                 "--cohort", str(workspace / "data" / "test.jsonl"),
                 "--ks", "1,5", "--out", str(report_path)]) == 0
    table = capsys.readouterr().out
    assert "Hit@1" in table and "MRR" in table
    report = json.loads(report_path.read_text())
    assert set(report["hits_at"]) == {"1", "5"}
    assert report["n_patients"] == len(
        (workspace / "data" / "test.jsonl").read_text().splitlines())


def test_evaluate_requires_some_input(workspace, capsys):
    assert main(["evaluate",
                 "--cohort", str(workspace / "data" / "test.jsonl")]) == 2
    assert "config error" in capsys.readouterr().err


def test_evaluate_missing_patient_is_fatal(workspace, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "nobody", "ranking": [], "scores": {}}\n',
                    encoding="utf-8")
    assert main(["evaluate", "--predictions", str(pred),
                 "--cohort", str(workspace / "data" / "test.jsonl")]) == 2
    assert "missing from predictions" in capsys.readouterr().err


def fuse_inputs(tmp_path, pids):
    ext = tmp_path / "external.jsonl"
    pgs = tmp_path / "graphs.jsonl"
    with open(ext, "w", encoding="utf-8") as fe, \
            open(pgs, "w", encoding="utf-8") as fg:
        for i, pid in enumerate(pids):
            fe.write(json.dumps({"id": pid,
                                 "scores": {"GA": 0.9, "GB": 0.5 + i * 0.1,
                                            "GC": 0.1}}) + "\n")
            fg.write(json.dumps({"id": pid, "nodes": ["GB", "X"],
                                 "genes": ["GB"]}) + "\n")
    return ext, pgs


def test_fuse_zero_delta_keeps_external_order(tmp_path):
    ext, pgs = fuse_inputs(tmp_path, ["a", "b"])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", "--external", str(ext), "--patient-graphs", str(pgs),
                 "--delta", "0.0", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert json.loads(line)["ranking"] == ["GA", "GB", "GC"]


def test_fuse_boost_promotes_member_gene(tmp_path):
    ext, pgs = fuse_inputs(tmp_path, ["a"])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", "--external", str(ext), "--patient-graphs", str(pgs),
                 "--delta", "0.6", "--out", str(out)]) == 0
    obj = json.loads(out.read_text().splitlines()[0])
    # GB is min-max normalized to 0.5 and boosted past GA's 1.0
    assert obj["ranking"][0] == "GB"
    assert obj["scores"]["GB"] == pytest.approx(1.1)


GOOD_LINES = {
    "predictions": '{"id": "a", "ranking": ["G1"], "scores": {"G1": 0.5}}',
    "patient-graphs": '{"id": "a", "nodes": ["G1"], "genes": ["G1"]}',
    "external": '{"id": "a", "scores": {"G1": 0.5}}',
}


@pytest.mark.parametrize("kind, bad_line", [
    ("predictions", '{"id": "b", "scores": {}}'),
    ("predictions", '{"id": "b", "ranking": "G1", "scores": {}}'),
    ("predictions", '{"id": "b", "ranking": [], "scores": {"G1": "high"}}'),
    ("patient-graphs", '{"id": "b", "nodes": []}'),
    ("patient-graphs", '{"id": "b", "nodes": [["G1"]], "genes": []}'),
    ("patient-graphs", '{"id": "b", "nodes": [], "genes": []'),
    ("external", '{"id": "b", "scores": 5}'),
    ("external", '{"scores": {}}'),
    ("external", '[1, 2]'),
])
def test_malformed_jsonl_line_names_path_and_line(tmp_path, capsys, kind, bad_line):
    files = {}
    for name, good in GOOD_LINES.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(good + "\n" + (bad_line + "\n" if name == kind else ""),
                               encoding="utf-8")
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text('{"id": "a", "phenotypes": ["P1"], "causal_gene": "G1"}\n',
                      encoding="utf-8")
    if kind == "external":
        argv = ["fuse", "--external", str(files["external"]), "--patient-graphs",
                str(files["patient-graphs"]), "--delta", "0.1",
                "--out", str(tmp_path / "fused.jsonl")]
    else:
        argv = ["evaluate", f"--{kind}", str(files[kind]), "--cohort", str(cohort)]
    assert main(argv) == 1
    assert f"{files[kind]}:2: " in capsys.readouterr().err
    assert not (tmp_path / "fused.jsonl").exists()


def test_fuse_missing_patient_is_fatal(tmp_path, capsys):
    ext, pgs = fuse_inputs(tmp_path, ["a"])
    with open(pgs, "a", encoding="utf-8") as fg:
        fg.write(json.dumps({"id": "ghost", "nodes": [], "genes": []}) + "\n")
    assert main(["fuse", "--external", str(ext), "--patient-graphs", str(pgs),
                 "--delta", "0.1", "--out", str(tmp_path / "f.jsonl")]) == 1
    assert "missing from external score file" in capsys.readouterr().err


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("synth", "ingest", "train", "predict", "extract",
                "evaluate", "fuse"):
        assert cmd in text
