import hashlib
import tracemalloc

import numpy as np
import pytest

from phenorank import training
from phenorank.kg import load_graph
from phenorank.losses import LossConfig
from phenorank.model import ModelConfig, init_params, param_shapes
from phenorank.sampling import (PatientRecord, label_supervision_edges,
                                shortest_path_arcs)
from phenorank.training import (Checkpoint, CheckpointError, TrainConfig,
                                adam_step, clip_gradients, load_checkpoint,
                                save_checkpoint, train)

from conftest import write_graph


@pytest.fixture
def tiny_setup(tmp_path):
    """Two disease modules sharing a backbone, six labeled patients."""
    nodes, edges = [], []
    for d in range(2):
        nodes.append((f"d{d}", "disease", f"disease {d}"))
        for i in range(3):
            nodes.append((f"p{d}_{i}", "phenotype", "ph"))
            edges.append((f"p{d}_{i}", "presents", f"d{d}"))
        for i in range(2):
            nodes.append((f"g{d}_{i}", "gene", "gene"))
            edges.append((f"d{d}", "harbors", f"g{d}_{i}"))
    edges.append(("d0", "related", "d1"))
    g = load_graph(*write_graph(tmp_path, nodes, edges))
    cohort = []
    for k in range(6):
        d = k % 2
        phenos = {g.key_to_id[f"p{d}_{i}"] for i in range(3)}
        cohort.append(PatientRecord(f"pat{k}", phenos,
                                    g.key_to_id[f"g{d}_{k % 2}"]))
    return g, cohort


SMALL = ModelConfig(embed_dim=8, hidden_dim=8, out_dim=6, heads=2, layers=2,
                    attn_proj_dim=4)


def quick_tcfg(**kw):
    base = dict(epochs=2, seed=0, learning_rate=1e-3, val_fraction=0.0)
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------------ optimizer

def test_adam_zero_gradient_is_noop():
    arrays = {"w": np.array([1.0, -2.0])}
    m = {"w": np.zeros(2)}
    v = {"w": np.zeros(2)}
    adam_step(arrays, {"w": np.zeros(2)}, m, v, 1, 0.1)
    assert np.array_equal(arrays["w"], [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    # bias-corrected first step moves by ~lr*sign(g) regardless of |g|
    for g0 in (0.01, 3.0):
        arrays = {"w": np.array([0.0])}
        m = {"w": np.zeros(1)}
        v = {"w": np.zeros(1)}
        adam_step(arrays, {"w": np.array([g0])}, m, v, 1, 0.1)
        assert arrays["w"][0] == pytest.approx(-0.1, rel=1e-5)


def test_adam_missing_grad_treated_as_zero():
    arrays = {"w": np.array([1.0]), "u": np.array([2.0])}
    m = {"w": np.zeros(1), "u": np.zeros(1)}
    v = {"w": np.zeros(1), "u": np.zeros(1)}
    adam_step(arrays, {"w": np.array([1.0])}, m, v, 1, 0.1)
    assert arrays["u"][0] == 2.0
    assert arrays["w"][0] != 1.0


def test_adam_converges_on_quadratic_bowl():
    arrays = {"x": np.array([5.0, -3.0])}
    m = {"x": np.zeros(2)}
    v = {"x": np.zeros(2)}
    for t in range(1, 2001):
        adam_step(arrays, {"x": 2.0 * arrays["x"]}, m, v, t, 0.05)
    assert np.max(np.abs(arrays["x"])) < 1e-3


def test_clip_gradients_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    out = clip_gradients(grads, 1.0)
    norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in out.values()))
    assert norm == pytest.approx(1.0)
    assert out["a"][0] / out["b"][0] == pytest.approx(3.0 / 4.0)


def test_clip_gradients_below_threshold_untouched():
    grads = {"a": np.array([0.3])}
    assert clip_gradients(grads, 1.0) is grads


def test_clip_disabled_when_max_norm_zero():
    grads = {"a": np.array([100.0])}
    assert clip_gradients(grads, 0.0) is grads


def test_lr_schedule_halves_every_step():
    cfg = TrainConfig(learning_rate=0.4, lr_step=10, lr_factor=0.5)
    assert cfg.lr_at(0) == 0.4
    assert cfg.lr_at(9) == 0.4
    assert cfg.lr_at(10) == 0.2
    assert cfg.lr_at(25) == 0.1


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# ------------------------------------------------------------- training loop

def test_training_reduces_loss(tiny_setup):
    g, cohort = tiny_setup
    ck, reports = train(g, cohort, SMALL, LossConfig(),
                        quick_tcfg(epochs=15, learning_rate=5e-3))
    assert len(reports) == 15
    assert reports[-1].loss_total < reports[0].loss_total


def test_training_is_bit_reproducible(tiny_setup, tmp_path):
    g, cohort = tiny_setup
    tcfg = quick_tcfg(epochs=3)
    ck1, r1 = train(g, cohort, SMALL, LossConfig(), tcfg)
    ck2, r2 = train(g, cohort, SMALL, LossConfig(), tcfg)
    for k, a in ck1.params.items():
        assert np.array_equal(a, ck2.params[k]), k
    assert [r.loss_total for r in r1] == [r.loss_total for r in r2]
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck1, p1)
    save_checkpoint(ck2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_diverge(tiny_setup):
    g, cohort = tiny_setup
    ck1, _ = train(g, cohort, SMALL, LossConfig(), quick_tcfg(seed=0))
    ck2, _ = train(g, cohort, SMALL, LossConfig(), quick_tcfg(seed=1))
    assert not np.array_equal(ck1.params["embed"],
                              ck2.params["embed"])


@pytest.mark.parametrize("val_fraction", [0.0, 0.34])
def test_resume_matches_uninterrupted_run(tiny_setup, tmp_path, val_fraction):
    g, cohort = tiny_setup
    tcfg = quick_tcfg(epochs=4, val_fraction=val_fraction)
    full_ck, full_r = train(g, cohort, SMALL, LossConfig(), tcfg)
    half_ck, half_r = train(g, cohort, SMALL, LossConfig(),
                            quick_tcfg(epochs=2, val_fraction=val_fraction))
    path = tmp_path / "half.ckpt"
    save_checkpoint(half_ck, path)
    resumed = load_checkpoint(path)
    assert resumed.epoch == 2
    ck, r = train(g, cohort, SMALL, LossConfig(), tcfg, resume=resumed)
    assert ck is resumed and ck.epoch == 4
    for k, a in ck.params.items():
        assert np.array_equal(a, full_ck.params[k]), k
    if val_fraction:
        for k, a in ck.best_params.items():
            assert np.array_equal(a, full_ck.best_params[k]), k
    else:
        assert ck.best_params is full_ck.best_params is None
    assert ck.best_val_mrr == full_ck.best_val_mrr
    assert ck.adam_step_count == full_ck.adam_step_count
    assert [x.loss_total for x in half_r + r] == [x.loss_total for x in full_r]
    save_checkpoint(ck, tmp_path / "resumed.ckpt")
    save_checkpoint(full_ck, tmp_path / "full.ckpt")
    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()


@pytest.mark.parametrize("change", [{"seed": 1}, {"sample_hops": 1}])
def test_resume_rejects_other_training_settings(tiny_setup, change):
    g, cohort = tiny_setup
    ck, _ = train(g, cohort, SMALL, LossConfig(), quick_tcfg(epochs=1))
    with pytest.raises(ValueError, match="differs from the checkpoint's"):
        train(g, cohort, SMALL, LossConfig(), quick_tcfg(**change), resume=ck)
    assert ck.epoch == 1


def spy(monkeypatch, name, calls):
    """Record the arguments and result of every call `train` makes to `name`."""
    real = getattr(training, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((args, result))
        return result
    monkeypatch.setattr(training, name, wrapper)


def test_train_computes_each_shortest_path_mask_once(tiny_setup, monkeypatch):
    g, cohort = tiny_setup
    masks, labels = [], []
    spy(monkeypatch, "shortest_path_arcs", masks)
    spy(monkeypatch, "label_supervision_edges", labels)
    train(g, cohort, SMALL, LossConfig(), quick_tcfg(epochs=3))
    masked = [id(args[0]) for args, _ in masks]
    assert len(masked) == len(set(masked)) == len(cohort)
    assert len(labels) == 3 * len(cohort)
    assert {id(args[0]) for args, _ in labels} == set(masked)


def test_cached_positives_give_the_labels_of_a_fresh_labelling(tiny_setup,
                                                               monkeypatch):
    # with one negative per positive the draw leaves arcs over, so each
    # (patient, epoch) rng picks its own negatives
    g, cohort = tiny_setup
    lcfg = LossConfig(negative_ratio=1)
    tcfg = quick_tcfg(epochs=3)
    subgraphs, labels = [], []
    spy(monkeypatch, "sample_phenotype_subgraph", subgraphs)
    spy(monkeypatch, "label_supervision_edges", labels)
    train(g, cohort, SMALL, lcfg, tcfg)
    patient_of = {id(sg): i for i, (_, sg) in enumerate(subgraphs)}
    drawn = set()
    for step, (args, got) in enumerate(labels):
        sg, epoch = args[0], step // len(cohort)
        i = patient_of[id(sg)]
        fresh = label_supervision_edges(
            sg, shortest_path_arcs(sg, cohort[i].causal_gene), lcfg.negative_ratio,
            np.random.default_rng([tcfg.seed ^ i, epoch]))
        assert np.array_equal(got.positive_arcs, fresh.positive_arcs)
        assert np.array_equal(got.negative_arcs, fresh.negative_arcs)
        assert got.positive_arcs.size and got.negative_arcs.size
        drawn.add((i, epoch, tuple(got.negative_arcs)))
    assert len({(i, e) for i, e, _ in drawn}) == 3 * len(cohort)
    assert len({(i, negs) for i, _, negs in drawn}) > len(cohort)


def test_one_epoch_one_patient_is_one_step(tiny_setup):
    g, cohort = tiny_setup
    ck, reports = train(g, cohort[:1], SMALL, LossConfig(),
                        quick_tcfg(epochs=1))
    assert ck.adam_step_count == 1
    assert len(reports) == 1


def test_validation_tracks_best_params(tiny_setup):
    g, cohort = tiny_setup
    ck, _ = train(g, cohort, SMALL, LossConfig(),
                  quick_tcfg(epochs=3, val_fraction=0.34))
    assert ck.best_params is not None
    assert 0.0 <= ck.best_val_mrr <= 1.0
    assert ck.ranking_params() is ck.best_params


def test_empty_cohort_rejected(tiny_setup):
    g, _ = tiny_setup
    with pytest.raises(ValueError):
        train(g, [], SMALL, LossConfig(), quick_tcfg())


# ---------------------------------------------------------------- checkpoints

def trained_checkpoint(tiny_setup):
    g, cohort = tiny_setup
    ck, _ = train(g, cohort, SMALL, LossConfig(),
                  quick_tcfg(epochs=1, val_fraction=0.34))
    return ck


def test_checkpoint_round_trip(tiny_setup, tmp_path):
    ck = trained_checkpoint(tiny_setup)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.model_config == ck.model_config
    assert back.adam_step_count == ck.adam_step_count
    assert back.epoch == ck.epoch and back.seed == ck.seed
    assert back.best_val_mrr == ck.best_val_mrr
    for k, a in ck.params.items():
        assert np.array_equal(a, back.params[k])
    for k, a in ck.adam_m.items():
        assert np.array_equal(a, back.adam_m[k])
    for k, a in ck.adam_v.items():
        assert np.array_equal(a, back.adam_v[k])
    if ck.best_params is not None:
        for k, a in ck.best_params.items():
            assert np.array_equal(a, back.best_params[k])


def test_checkpoint_loads_every_group_in_param_shapes_order(tiny_setup, tmp_path):
    # the file stores its tensors sorted by name; gradients follow the
    # loaded order, and clip_gradients sums their norms in that order
    ck = trained_checkpoint(tiny_setup)
    save_checkpoint(ck, tmp_path / "m.ckpt")
    back = load_checkpoint(tmp_path / "m.ckpt")
    order = list(param_shapes(SMALL, tiny_setup[0].node_count))
    assert order != sorted(order) and back.best_params is not None
    for group in (back.params, back.adam_m, back.adam_v, back.best_params):
        assert list(group) == order


def wide_checkpoint() -> Checkpoint:
    """A state with every group stored, on a 2000-node table."""
    mcfg = ModelConfig(embed_dim=32, hidden_dim=8, out_dim=6, heads=2, layers=2,
                       attn_proj_dim=4)
    params = init_params(mcfg, 2000, np.random.default_rng(0))
    return Checkpoint(mcfg, params, *({k: a + 1.0 for k, a in params.items()}
                                      for _ in range(2)),
                      adam_step_count=3, epoch=1, seed=0, sample_hops=2,
                      best_params={k: a.copy() for k, a in params.items()})


def test_checkpoint_loads_read_only_views_of_one_read(tmp_path):
    # every group, Adam moments included, is checked, but nothing is copied:
    # the loader allocates the file's bytes once and views into them
    ck = wide_checkpoint()
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size, (peak, size)
    for group in (back.params, back.adam_m, back.adam_v, back.best_params):
        assert not any(a.flags.writeable for a in group.values())
    assert all(np.array_equal(a, back.params[k]) for k, a in ck.params.items())


def test_checkpoint_save_copies_no_tensor(tmp_path):
    # the arrays' own buffers are hashed and written; no packed copy is made
    ck = wide_checkpoint()
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        digest = save_checkpoint(ck, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 0.05 * size, (peak, size)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_checkpoint(path).file_sha256 == digest


def test_checkpoint_format_is_pinned(tmp_path):
    # a change to the file format, or to what is stored, changes this hash
    mcfg = ModelConfig(embed_dim=2, hidden_dim=2, out_dim=2, heads=1, layers=1,
                       attn_proj_dim=1)
    params = {k: np.arange(np.prod(shape)).reshape(shape) / 8
              for k, shape in param_shapes(mcfg, 3).items()}
    ck = Checkpoint(mcfg, params, {k: a + 1 for k, a in params.items()},
                    {k: a + 2 for k, a in params.items()}, adam_step_count=5,
                    epoch=2, seed=7, sample_hops=3,
                    best_params={k: a - 1 for k, a in params.items()},
                    best_val_mrr=0.25)
    path = tmp_path / "golden.rnck"
    digest = save_checkpoint(ck, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == \
        "989fc3df7a20ffe3a9ae0c4c181295aaaca37a27b28c93db930f6c365deabe17"


def test_checkpoint_single_byte_corruption_detected(tiny_setup, tmp_path):
    ck = trained_checkpoint(tiny_setup)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    blob = bytearray(path.read_bytes())
    for offset in (7, len(blob) // 2, len(blob) - 10):
        flipped = bytearray(blob)
        flipped[offset] ^= 0x01
        (tmp_path / "bad.ckpt").write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    (tmp_path / "x.ckpt").write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_truncation_detected(tiny_setup, tmp_path):
    ck = trained_checkpoint(tiny_setup)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    (tmp_path / "t.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "t.ckpt")


def test_checkpoint_save_is_deterministic(tiny_setup, tmp_path):
    ck = trained_checkpoint(tiny_setup)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck, p1)
    save_checkpoint(ck, p2)
    assert p1.read_bytes() == p2.read_bytes()
