"""Property tests of the exit-code contract through `cli.main`.

Every run must return 0, 1 or 2 with no exception escaping (warnings count
as errors), and a failed run must explain itself in one line of stderr.
"""

import contextlib
import io
import json
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank.cli import main
from phenorank.extraction import ExtractionConfig
from phenorank.losses import LossConfig
from phenorank.model import ModelConfig
from phenorank.synthetic import SynthConfig
from phenorank.training import TrainConfig

TINY_SYNTH = {
    "n_diseases": 2, "genes_per_disease": 2, "phenos_per_disease": 3,
    "n_background_nodes": 4, "background_edge_prob": 0.1,
    "phenotypes_per_patient": 2, "n_patients": 8, "seed": 3,
}
TINY_TRAIN = {
    "embed_dim": 4, "hidden_dim": 4, "out_dim": 4, "heads": 1, "layers": 1,
    "attn_proj_dim": 2, "epochs": 1, "val_fraction": 0.0,
}
CONFIG_FIELDS = {
    "synth": [f.name for f in fields(SynthConfig)],
    "train": [f.name for cls in (ModelConfig, LossConfig, TrainConfig)
              for f in fields(cls)],
    "extract": [f.name for f in fields(ExtractionConfig)],
}
ODD_VALUES = [0, -1, float("nan"), float("inf"), float("-inf"), 1e308, "x", [1]]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny synth dataset and a 1-layer, 4-dim model trained for 1 epoch."""
    ws = tmp_path_factory.mktemp("fuzz")
    (ws / "synth.json").write_text(json.dumps(TINY_SYNTH), encoding="utf-8")
    (ws / "train.json").write_text(json.dumps(TINY_TRAIN), encoding="utf-8")
    assert run(["synth", "--config", str(ws / "synth.json"), "--out", str(ws / "data")])[0] == 0
    assert run(train_argv(ws, ws / "data", ws / "train.json", ws / "model"))[0] == 0
    return ws


def train_argv(ws, data, config, out_dir):
    return ["train", "--nodes", str(data / "nodes.tsv"), "--edges", str(data / "edges.tsv"),
            "--cohort", str(data / "train.jsonl"), "--config", str(config),
            "--out-dir", str(out_dir)]


def run(argv) -> tuple:
    """(return code, stderr) of `main(argv)`, with warnings raised as errors."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue()


def assert_contract(rc: int, err: str):
    assert rc in (0, 1, 2)
    if rc:
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err


@st.composite
def config_edits(draw):
    command = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    names = draw(st.lists(st.sampled_from(CONFIG_FIELDS[command]), min_size=1,
                          max_size=2, unique=True))
    return command, {n: draw(st.sampled_from(ODD_VALUES)) for n in names}


@settings(max_examples=150, deadline=None)
@given(config_edits())
def test_odd_config_values_keep_the_exit_code_contract(tiny, edit):
    command, values = edit
    config = tiny / "edited.json"
    base = {"synth": TINY_SYNTH, "train": TINY_TRAIN, "extract": {}}[command]
    config.write_text(json.dumps({**base, **values}), encoding="utf-8")
    data = tiny / "data"
    if command == "synth":
        argv = ["synth", "--config", str(config), "--out", str(tiny / "synth_out")]
    elif command == "train":
        argv = train_argv(tiny, data, config, tiny / "train_out")
    else:
        argv = ["extract", "--nodes", str(data / "nodes.tsv"),
                "--edges", str(data / "edges.tsv"),
                "--checkpoint", str(tiny / "model" / "checkpoint.rnck"),
                "--patients", str(data / "test.jsonl"), "--config", str(config),
                "--out-dir", str(tiny / "extract_out")]
    assert_contract(*run(argv))


_BYTES = st.integers(0, 255)
_MUTATIONS = st.tuples(
    st.sampled_from(["nodes.tsv", "edges.tsv", "train.jsonl"]),
    st.integers(0, 2 ** 20),                     # position, modulo the file size
    st.one_of(st.tuples(st.just("replace"), _BYTES),
              st.tuples(st.just("insert"), _BYTES),
              st.tuples(st.just("delete")),
              st.tuples(st.just("truncate"))))


@settings(max_examples=150, deadline=None)
@given(_MUTATIONS)
def test_mutated_input_bytes_keep_the_exit_code_contract(tiny, mutation):
    name, pos, (kind, *byte) = mutation
    data = tiny / "mutated"
    data.mkdir(exist_ok=True)
    for f in ("nodes.tsv", "edges.tsv", "train.jsonl"):
        blob = bytearray((tiny / "data" / f).read_bytes())
        if f == name:
            i = pos % (len(blob) + 1)
            if kind == "replace" and i < len(blob):
                blob[i] = byte[0]
            elif kind == "insert":
                blob[i:i] = bytes(byte)
            elif kind == "delete":
                del blob[i:i + 1]
            elif kind == "truncate":
                del blob[i:]
        (data / f).write_bytes(bytes(blob))
    assert_contract(*run(train_argv(tiny, data, tiny / "train.json", tiny / "mutated_out")))
    assert_contract(*run(["predict", "--nodes", str(data / "nodes.tsv"),
                          "--edges", str(data / "edges.tsv"),
                          "--checkpoint", str(tiny / "model" / "checkpoint.rnck"),
                          "--patients", str(data / "train.jsonl"),
                          "--out", str(tiny / "mutated_pred" / "pred.jsonl")]))
