import builtins
import hashlib
import io
import json
import csv
import math
import os
import struct
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank import cli
from phenorank.cli import build_parser, main
from phenorank.kg import load_graph
from phenorank.training import (_SCALARS, DIGEST_SIZE, CheckpointError,
                                _unpack_tensors, _write_tensors, load_checkpoint)

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


@pytest.mark.parametrize("command", ["predict", "extract", "evaluate"])
def test_repeated_patient_id_names_path_and_line(workspace, tmp_path, capsys, command):
    lines = (workspace / "data" / "test.jsonl").read_text().splitlines()
    pid = json.loads(lines[0])["id"]
    cohort = tmp_path / "cohort.jsonl"
    # a patient may not come twice, even with other phenotypes or causal gene
    cohort.write_text("\n".join([lines[0], lines[1], lines[1].replace(
        json.loads(lines[1])["id"], pid)]) + "\n", encoding="utf-8")
    serve = [*args_for(workspace), "--checkpoint",
             str(workspace / "run" / "checkpoint.rnck"), "--patients", str(cohort)]
    argv = {"predict": ["predict", *serve, "--out", str(tmp_path / "out" / "pred.jsonl")],
            "extract": ["extract", *serve, "--dot", "--out-dir", str(tmp_path / "out")],
            # the cohort is read first, so the predictions are never read
            "evaluate": ["evaluate", "--cohort", str(cohort), "--predictions",
                         str(cohort), "--out", str(tmp_path / "out" / "report.json")],
            }[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{cohort}:3: repeated patient id {pid!r} (first at {cohort}:1)" in err
    assert not (tmp_path / "out").exists()


def _sealed(body: bytes) -> bytes:
    """`body`, a checkpoint file's bytes up to its trailer, followed by
    the SHA-256 trailer that makes it a valid file."""
    return body + hashlib.sha256(body).digest()


def _with_version(blob: bytes, version: int) -> bytes:
    body = bytearray(blob[:-DIGEST_SIZE])
    body[4:8] = struct.pack("<I", version)
    return _sealed(bytes(body))


def _as_v2(blob: bytes) -> bytes:
    """The file in the version 2 layout: a CRC-32 trailer."""
    body = bytearray(blob[:-DIGEST_SIZE])
    body[4:8] = struct.pack("<I", 2)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def _edited(blob: bytes, edit) -> bytes:
    # the loader's arrays are read-only views; the edits write to copies
    tensors = {k: a.copy() for k, a in _unpack_tensors(blob)[0].items()}
    edit(tensors)
    out = io.BytesIO()
    _write_tensors(tensors, out)
    return out.getvalue()


def _set(name, value):
    """A checkpoint edit that stores `value` as tensor `name`."""
    return lambda b: _edited(b, lambda t: t.update({name: value}))


BAD_CHECKPOINTS = {
    # every stored scalar is required: one row per scalar, e.g. no_sample_hops
    **{f"no_{name.split('/')[1]}": (
        lambda b, name=name: _edited(b, lambda t: t.pop(name)), f"missing {name}")
       for name in _SCALARS},
    "fractional_step": (_set("adam/step", 3.5), "adam/step must be an integer, got 3.5"),
    "negative_step": (_set("adam/step", -1.0), "adam/step must be >= 0, got -1"),
    "nan_best_val_mrr": (_set("meta/best_val_mrr", math.nan),
                         "meta/best_val_mrr must be a finite number, got nan"),
    "nan_embed": (lambda b: _edited(b, lambda t: t["param/embed"].__setitem__(
        (0, 0), math.nan)), "param/embed holds a non-finite value"),
    "fractional_config_value": (_set("config/heads", 2.5),
                                "heads must be an integer, got 2.5"),
    "version_1": (lambda b: _with_version(b, 1), "version 1"),
    "version_2": (_as_v2, "unsupported checkpoint version 2 (this build reads version 3)"),
    "unknown_config_key": (_set("config/bogus", 1.0), "unknown config key 'bogus'"),
    "bad_config_value": (_set("config/heads", 3.0), "divisible"),
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
    "other_model_config": (_set("config/out_dim", 12.0), "the stored config needs"),
    "unknown_tensor": (_set("extra/x", 1.0), "unknown tensor 'extra/x'"),
    "unknown_param": (_set("param/extra", 1.0), "unknown tensor 'param/extra'"),
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


def test_degenerate_forward_pass_is_a_patient_error(workspace, tmp_path, capsys):
    # a zero last projection gives every node a zero embedding, and so a
    # cosine score of 0 / 0: each patient fails, and the run exits 1
    def zero_last_projection(t):
        layers = int(t["config/layers"].item())
        for prefix in ("param/", "best/"):
            if f"{prefix}layer{layers - 1}/Wproj" in t:
                t[f"{prefix}layer{layers - 1}/Wproj"][:] = 0.0
    ckpt = tmp_path / "zero.rnck"
    ckpt.write_bytes(_edited((workspace / "run" / "checkpoint.rnck").read_bytes(),
                             zero_last_projection))
    serve = [*args_for(workspace), "--checkpoint", str(ckpt),
             "--patients", str(workspace / "data" / "test.jsonl")]
    n = len((workspace / "data" / "test.jsonl").read_text().splitlines())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", *serve, "--out", str(tmp_path / "pred.jsonl")]) == 1
        err = capsys.readouterr().err
        assert main(["extract", *serve, "--out-dir", str(tmp_path / "x")]) == 1
        err += capsys.readouterr().err
    assert err.count(f"error: {n} of {n} patients failed") == 2
    assert "Traceback" not in err and "invalid value" in err
    for path in (tmp_path / "pred.jsonl", tmp_path / "x" / "patient_graphs.jsonl"):
        records = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(records) == n
        assert all(r["error"].startswith(f"patient {r['id']}: forward pass: ")
                   for r in records)


def _fields(blob: bytes) -> tuple:
    """Offsets of a checkpoint's header fields, as (offset, size): count,
    name lengths, ranks and dims; and offsets of its config and meta values."""
    headers, scalars, off = [(8, 8)], [], 16
    (count,) = struct.unpack_from("<Q", blob, 8)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        headers.append((off, 4))
        name = blob[off + 4:off + 4 + name_len]
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        headers.append((off, 4))
        off += 4
        dims = struct.unpack_from(f"<{rank}Q", blob, off)
        headers += [(off + 8 * i, 8) for i in range(rank)]
        off += 8 * rank
        if name.startswith((b"config/", b"meta/")):
            scalars.append(off)
        off += 8 * math.prod(dims)
    return headers, scalars


_ANY = st.integers(0, 2 ** 20)   # taken modulo the number of choices
_MUTATIONS = st.one_of(
    st.tuples(st.just("byte"), _ANY, st.integers(0, 255)),
    st.tuples(st.just("header_byte"), _ANY, st.integers(0, 7), st.integers(0, 255)),
    st.tuples(st.just("header"), _ANY, st.one_of(
        st.integers(0, 2 ** 64 - 1), st.sampled_from([0, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 1]))),
    st.tuples(st.just("scalar"), _ANY, st.one_of(
        st.floats(), st.sampled_from([0.0, 0.5, -1.0, 3.0, 2.0 ** 40, 1e300]))),
    st.tuples(st.just("truncate"), st.one_of(st.integers(0, 64), _ANY)),
)


def _mutated(body: bytes, mutation) -> bytes:
    """`body` with one mutation applied; fields and sizes wrap around."""
    kind, *arg = mutation
    out = bytearray(body)
    headers, scalars = _fields(body)
    if kind == "byte":
        out[arg[0] % len(out)] = arg[1]
    elif kind == "header_byte":
        off, size = headers[arg[0] % len(headers)]
        out[off + arg[1] % size] = arg[2]
    elif kind == "header":
        off, size = headers[arg[0] % len(headers)]
        out[off:off + size] = (arg[1] % 2 ** (8 * size)).to_bytes(size, "little")
    elif kind == "scalar":
        off = scalars[arg[0] % len(scalars)]
        out[off:off + 8] = struct.pack("<d", arg[1])
    else:
        del out[arg[0] % len(out):]
    return bytes(out)


def test_resealed_checkpoint_reaches_the_parser(workspace, tmp_path):
    # the fuzz below re-seals every mutated body: an unmutated body
    # re-sealed is the file itself, so each mutation meets the parser's
    # checks, not the checksum
    blob = (workspace / "run" / "checkpoint.rnck").read_bytes()
    body = blob[:-DIGEST_SIZE]
    assert _sealed(body) == blob
    path = tmp_path / "resealed.rnck"
    path.write_bytes(_sealed(body))
    assert load_checkpoint(path).epoch == 2
    path.write_bytes(_sealed(_mutated(body, ("scalar", 0, 2.5))))
    with pytest.raises(CheckpointError, match="must be an integer, got 2.5"):
        load_checkpoint(path)


@settings(max_examples=1000, deadline=None)
@given(_MUTATIONS)
def test_digest_valid_mutations_raise_only_checkpoint_error(workspace, mutation):
    body = (workspace / "run" / "checkpoint.rnck").read_bytes()[:-DIGEST_SIZE]
    path = workspace / "mutated.rnck"
    path.write_bytes(_sealed(_mutated(body, mutation)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: ")


def _count_opens(monkeypatch, name: str) -> list:
    """Every file opened from here on whose name contains `name`."""
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and name in Path(file).name:
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return opened


@pytest.mark.parametrize("command", ["train", "predict", "extract"])
def test_checkpoint_is_opened_once_and_its_hash_is_the_manifests(
        workspace, tmp_path, monkeypatch, command):
    # the loader's pass that checks the trailer, or the pass that writes
    # the file, is the one that hashes it for the manifest
    ckpt = workspace / "run" / "checkpoint.rnck"
    serve = [*args_for(workspace), "--checkpoint", str(ckpt),
             "--patients", str(workspace / "data" / "test.jsonl")]
    argv, manifest, key = {
        "train": (["train", *args_for(workspace),
                   "--cohort", str(workspace / "data" / "train.jsonl"),
                   "--config", str(workspace / "train.json"), "--epochs", "1",
                   "--out-dir", str(tmp_path)], "train_manifest.json", "output_hashes"),
        "predict": (["predict", *serve, "--out", str(tmp_path / "pred.jsonl")],
                    "predict_manifest.json", "input_hashes"),
        "extract": (["extract", *serve, "--out-dir", str(tmp_path)],
                    "extract_manifest.json", "input_hashes"),
    }[command]
    if command == "train":
        ckpt = tmp_path / "checkpoint.rnck"
    opened = _count_opens(monkeypatch, "checkpoint.rnck")
    assert main(argv) == 0
    assert len(opened) == 1, opened
    hashes = json.loads((tmp_path / manifest).read_text())[key]
    stored = hashes["checkpoint.rnck" if command == "train" else "checkpoint"]
    assert stored == hashlib.sha256(ckpt.read_bytes()).hexdigest()


def test_resumed_run_records_the_checkpoint_it_resumed_from(workspace, tmp_path, monkeypatch):
    # the hash comes from the loader's pass, not from a second read
    resumed = workspace / "run" / "checkpoint.rnck"
    opened = _count_opens(monkeypatch, "checkpoint.rnck")
    assert main(["train", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--epochs", "3", "--resume", str(resumed),
                 "--out-dir", str(tmp_path)]) == 0
    assert len(opened) == 2, opened             # the resumed file read, the new one written
    hashes = json.loads((tmp_path / "train_manifest.json").read_text())["input_hashes"]
    assert sorted(hashes) == ["cohort", "edges", "nodes", "resume"]
    assert hashes["resume"] == hashlib.sha256(resumed.read_bytes()).hexdigest()


def test_synth_hashes_its_outputs_without_reading_them_back(tmp_path, monkeypatch):
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    out = tmp_path / "data"
    reads, real_open = [], io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == out and "r" in mode:
            reads.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(out)]) == 0
    monkeypatch.undo()
    assert reads == []
    hashes = json.loads((out / "synth_manifest.json").read_text())["output_hashes"]
    assert sorted(hashes) == ["edges.tsv", "manifest.json", "nodes.tsv",
                              "test.jsonl", "train.jsonl"]
    for name, digest in hashes.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_checkpoint_on_another_graph_exits_one(workspace, tmp_path, capsys):
    (tmp_path / "synth.json").write_text(
        json.dumps({**SYNTH_CONFIG, "n_background_nodes": 30}), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"),
                 "--out", str(tmp_path / "data")]) == 0
    trained = load_graph(workspace / "data" / "nodes.tsv", workspace / "data" / "edges.tsv")
    other = load_graph(tmp_path / "data" / "nodes.tsv", tmp_path / "data" / "edges.tsv")
    assert other.node_count != trained.node_count
    ckpt = workspace / "run" / "checkpoint.rnck"
    graph = ["--nodes", str(tmp_path / "data" / "nodes.tsv"),
             "--edges", str(tmp_path / "data" / "edges.tsv")]
    patients = ["--patients", str(tmp_path / "data" / "test.jsonl")]
    capsys.readouterr()
    for argv in (["predict", *graph, "--checkpoint", str(ckpt), *patients,
                  "--out", str(tmp_path / "p" / "pred.jsonl")],
                 ["extract", *graph, "--checkpoint", str(ckpt), *patients,
                  "--out-dir", str(tmp_path / "x")],
                 ["train", *graph, "--resume", str(ckpt), "--epochs", "3",
                  "--cohort", str(tmp_path / "data" / "train.jsonl"),
                  "--out-dir", str(tmp_path / "t")]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert str(ckpt) in err, argv[0]
        assert f"{trained.node_count} nodes" in err and f"has {other.node_count}" in err
    assert not any((tmp_path / d).exists() for d in ("p", "x", "t"))


@pytest.mark.parametrize("learning_rate", ["1e12", "1e30"])
def test_diverging_training_exits_one(workspace, tmp_path, capsys, learning_rate):
    out = tmp_path / "run"
    assert main(["train", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--config", str(workspace / "train.json"),
                 "--learning-rate", learning_rate, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: patient ") and " at epoch " in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_failed_write_leaves_no_file(workspace, tmp_path, capsys, monkeypatch):
    def broken_save(ckpt, path):
        Path(path).write_bytes(b"RNCK")
        raise OSError("disk full")
    monkeypatch.setattr(cli, "save_checkpoint", broken_save)
    out = tmp_path / "run"
    assert main(["train", *args_for(workspace),
                 "--cohort", str(workspace / "data" / "train.jsonl"),
                 "--config", str(workspace / "train.json"), "--epochs", "1",
                 "--out-dir", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    cohort = [*args_for(workspace), "--cohort", str(workspace / "data" / "train.jsonl")]
    resume = [*cohort, "--epochs", "3", "--resume", str(workspace / "run" / "checkpoint.rnck")]
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
    # the workspace checkpoint has run 2 epochs; the later --epochs wins
    assert main(["train", *resume, "--epochs", "1", "--out-dir", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "epochs 1" in err and "epoch 2" in err

    # the seed too: a seed-7 run resumed without --seed (from a config
    # without one) gives the bytes of the uninterrupted seed-7 run
    no_seed = tmp_path / "no_seed.json"
    no_seed.write_text(json.dumps({k: v for k, v in SMALL_TRAIN_CONFIG.items()
                                   if k != "seed"}), encoding="utf-8")
    run = [*cohort, "--config", str(no_seed)]
    assert main(["train", *run, "--seed", "7", "--out-dir", str(tmp_path / "whole")]) == 0
    assert main(["train", *run, "--seed", "7", "--epochs", "1",
                 "--out-dir", str(tmp_path / "half")]) == 0
    half = ["--resume", str(tmp_path / "half" / "checkpoint.rnck")]
    assert main(["train", *run, *half, "--out-dir", str(tmp_path / "rest")]) == 0
    assert (tmp_path / "rest" / "checkpoint.rnck").read_bytes() == \
        (tmp_path / "whole" / "checkpoint.rnck").read_bytes()
    capsys.readouterr()
    assert main(["train", *run, *half, "--seed", "3", "--out-dir", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "seed 3" in err and "seed 7" in err
    assert not any((tmp_path / d).exists() for d in "bcde")


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
    # a score must be finite, and a patient needs at least one
    ("predictions", '{"id": "b", "ranking": ["G1"], "scores": {"G1": NaN}}'),
    ("external", '{"id": "b", "scores": {"G1": NaN, "G2": 0.5}}'),
    ("external", '{"id": "b", "scores": {"G1": -Infinity}}'),
    ("external", '{"id": "b", "scores": {"G1": 1e400}}'),
    ("external", '{"id": "b", "scores": {"G1": 1%s}}' % ("0" * 400)),
    ("external", '{"id": "b", "scores": {}}'),
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


def test_fuse_scores_the_cohort_as_evaluate_does(tmp_path, capsys):
    # four patient graphs, a cohort of two: fuse's table is evaluate's on
    # the fused file, and every patient's line is still written
    ext, pgs = fuse_inputs(tmp_path, ["a", "b", "c", "d"])
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text("".join(json.dumps({"id": pid, "phenotypes": ["P1"],
                                          "causal_gene": gene}) + "\n"
                              for pid, gene in (("b", "GB"), ("a", "GC"))),
                      encoding="utf-8")
    out = tmp_path / "fused.jsonl"
    capsys.readouterr()
    assert main(["fuse", "--external", str(ext), "--patient-graphs", str(pgs),
                 "--delta", "0.1", "--out", str(out), "--cohort", str(cohort)]) == 0
    fused_table = capsys.readouterr().out
    assert [json.loads(x)["id"] for x in out.read_text().splitlines()] == \
        ["a", "b", "c", "d"]
    assert main(["evaluate", "--predictions", str(out), "--cohort", str(cohort)]) == 0
    assert fused_table == capsys.readouterr().out
    assert fused_table.splitlines()[0].split() == ["patients", "2"]


def test_fuse_cohort_patient_without_a_graph_is_a_usage_error(tmp_path, capsys):
    ext, pgs = fuse_inputs(tmp_path, ["a"])
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text('{"id": "a", "phenotypes": ["P1"], "causal_gene": "GB"}\n'
                      '{"id": "zed", "phenotypes": ["P1"], "causal_gene": "GB"}\n',
                      encoding="utf-8")
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", "--external", str(ext), "--patient-graphs", str(pgs),
                 "--delta", "0.1", "--out", str(out), "--cohort", str(cohort)]) == 2
    assert "patient zed missing from patient graphs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pid", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\x00b"])
def test_extract_dot_keeps_files_inside_out_dir(workspace, tmp_path, capsys, pid):
    # a patient id that would name a file outside --out-dir stops the run
    # before any file is written
    lines = (workspace / "data" / "test.jsonl").read_text().splitlines()
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text("\n".join([lines[0], json.dumps({**json.loads(lines[1]), "id": pid})])
                      + "\n", encoding="utf-8")
    out_dir = tmp_path / "run" / "ex"
    assert main(["extract", *args_for(workspace),
                 "--checkpoint", str(workspace / "run" / "checkpoint.rnck"),
                 "--patients", str(cohort), "--out-dir", str(out_dir), "--dot"]) == 1
    assert repr(pid) in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "escaped.dot").exists()


def test_extract_dot_files_are_written_whole(workspace, tmp_path, monkeypatch, capsys):
    # a DOT export that fails part-way leaves neither the file nor a temp file
    def failing_export(g, nodes, arcs, out):
        Path(out).write_text("graph patient_subgraph {\n", encoding="utf-8")
        raise OSError("disk full")
    monkeypatch.setattr(cli, "export_dot", failing_export)
    out_dir = tmp_path / "ex"
    assert main(["extract", *args_for(workspace),
                 "--checkpoint", str(workspace / "run" / "checkpoint.rnck"),
                 "--patients", str(workspace / "data" / "test.jsonl"),
                 "--out-dir", str(out_dir), "--dot"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["--version"]) == 0
        assert main(["frobnicate"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("synth", "ingest", "train", "predict", "extract",
                "evaluate", "fuse"):
        assert cmd in text


@pytest.mark.parametrize("command, config_text, extra, key", [
    ("train", '{"lr_step": 0}', [], "lr_step"),
    ("train", '{"negative_ratio": -1}', [], "negative_ratio"),
    ("train", '{"penalty_weight": 1e400}', [], "penalty_weight"),
    ("train", '{"lr_factor": -1, "lr_step": 1}', [], "lr_factor"),
    ("train", '{}', ["--val-fraction", "-1"], "val_fraction"),
    ("synth", '{"n_background_nodes": -1}', [], "n_background_nodes"),
    ("synth", '{"test_fraction": 2.0}', [], "test_fraction"),
    # every value in range, but the noise draw finds no phenotype left
    ("synth", '{"n_diseases": 1, "phenos_per_disease": 3, "phenotypes_per_patient": 3, '
              '"phenotype_noise_rate": 1.0}', [], "phenotype_noise_rate"),
])
def test_out_of_range_config_exits_two_naming_the_key(workspace, tmp_path, capsys,
                                                       command, config_text, extra, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", *args_for(workspace), "--cohort",
                str(workspace / "data" / "train.jsonl"), "--out-dir", str(out)]
    else:
        argv = ["synth", "--out", str(out)]
    assert main([*argv, "--config", str(cfg), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("name, line", [("nodes.tsv", 3), ("edges.tsv", 2),
                                        ("train.jsonl", 2)])
def test_undecodable_byte_names_path_and_line(workspace, tmp_path, capsys, name, line):
    data = tmp_path / "data"
    data.mkdir()
    for f in ("nodes.tsv", "edges.tsv", "train.jsonl"):
        lines = (workspace / "data" / f).read_bytes().splitlines(keepends=True)
        if f == name:
            lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
        (data / f).write_bytes(b"".join(lines))
    assert main(["ingest", "--nodes", str(data / "nodes.tsv"),
                 "--edges", str(data / "edges.tsv"),
                 "--cohort", str(data / "train.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / name}:{line}: ") and "0xff" in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--ks", "a"],
    ["evaluate", "--ks", "1,0"],
    ["fuse", "--ks", "1,x", "--delta", "0.1"],
])
def test_bad_ks_is_a_usage_error_before_any_work(tmp_path, capsys, argv):
    ext, pgs = fuse_inputs(tmp_path, ["a"])
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text('{"id": "a", "phenotypes": ["P1"], "causal_gene": "GB"}\n',
                      encoding="utf-8")
    out = tmp_path / "out.jsonl"
    inputs = ["--cohort", str(cohort), "--out", str(out)]
    if argv[0] == "fuse":
        inputs += ["--external", str(ext), "--patient-graphs", str(pgs)]
    else:
        inputs += ["--patient-graphs", str(pgs)]
    assert main(argv + inputs) == 2
    assert "--ks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "-1", "-0.5", "x"])
def test_bad_delta_is_a_usage_error_before_any_work(tmp_path, capsys, delta):
    missing = str(tmp_path / "missing.jsonl")          # never opened
    out = tmp_path / "out.jsonl"
    assert main(["fuse", f"--delta={delta}", "--external", missing,
                 "--patient-graphs", missing, "--out", str(out)]) == 2
    assert "--delta" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_predictions_on_an_empty_cohort(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(GOOD_LINES["predictions"] + "\n", encoding="utf-8")
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text("", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--predictions", str(pred), "--cohort", str(cohort),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_patients"] == 0 and report["mrr"] == 0.0
    capsys.readouterr()


def test_evaluate_graphs_alone_reports_no_ranking_metric(tmp_path, capsys):
    _, pgs = fuse_inputs(tmp_path, ["a"])
    cohort = tmp_path / "cohort.jsonl"
    cohort.write_text('{"id": "a", "phenotypes": ["P1"], "causal_gene": "GB"}\n',
                      encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--patient-graphs", str(pgs), "--cohort", str(cohort),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"n_patients": 1, "inclusion_rate": 100.0}
    table = capsys.readouterr().out.splitlines()
    assert "Hit@" not in "\n".join(table)
    assert table[1].split() == ["MRR", "n/a"]


def test_manifest_records_the_environment(workspace):
    import os
    import platform

    import numpy as np
    env = json.loads((workspace / "run" / "train_manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
