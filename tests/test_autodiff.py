import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank import autodiff as ad
from phenorank.autodiff import ShapeError, Tape, Tensor, grad_check


def leaf(arr, name="x"):
    return Tensor(arr, trainable=True, name=name)


def test_matmul_matches_naive_loop(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = ad.matmul(Tensor(a), Tensor(b)).data
    naive = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                naive[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(out - naive)) <= 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


def test_add_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_segment_softmax_symmetry():
    out = ad.segment_softmax(Tensor([1.7, 1.7]), [0, 0], 1)
    assert np.allclose(out.data, [0.5, 0.5])


def test_segment_softmax_sums_to_one(rng):
    vals = rng.standard_normal(40)
    seg = rng.integers(0, 5, size=40)
    seg[0:5] = np.arange(5)  # every segment populated
    out = ad.segment_softmax(Tensor(vals), seg, 5)
    assert np.all(out.data >= 0)
    sums = np.zeros(5)
    np.add.at(sums, seg, out.data)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_segment_softmax_empty_segment_errors():
    with pytest.raises(ValueError, match="empty segment 1"):
        ad.segment_softmax(Tensor([1.0, 2.0]), [0, 0], 2)


def test_abs_diff_of_identical_is_zero(rng):
    x = Tensor(rng.standard_normal(7))
    assert np.array_equal(ad.abs_(ad.sub(x, x)).data, np.zeros(7))


def test_product_gradient():
    x, y = leaf(np.array(2.0), "x"), leaf(np.array(3.0), "y")
    with Tape() as tape:
        z = ad.mul(x, y)
    grads = tape.backward(z)
    assert grads["x"] == pytest.approx(3.0)
    assert grads["y"] == pytest.approx(2.0)


def test_l2_norm_gradient_is_unit_direction(rng):
    v = rng.standard_normal(5)
    x = leaf(v)
    with Tape() as tape:
        n = ad.sum_(ad.row_l2_norm(ad.reshape(x, (1, 5))))
    grads = tape.backward(n)
    assert np.allclose(grads["x"], v / np.linalg.norm(v), atol=1e-12)


def test_backward_rejects_nonscalar_root():
    x = leaf(np.ones(3))
    with Tape() as tape:
        y = ad.relu(x)
    with pytest.raises(ShapeError, match="scalar"):
        tape.backward(y)


def test_quadratic_grad_check_is_exact(rng):
    params = {"x": leaf(rng.standard_normal(6))}
    err = grad_check(lambda p: ad.sum_(ad.mul(p["x"], p["x"])), params)
    assert err <= 1e-8


def test_grad_check_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        grad_check(lambda p: ad.sum_(p["x"]), {"x": leaf(np.ones(2))}, h=0.0)


PRIMITIVES = [
    ("add", lambda p: ad.sum_(ad.add(p["a"], p["b"]))),
    ("sub", lambda p: ad.sum_(ad.sub(p["a"], p["b"]))),
    ("mul", lambda p: ad.sum_(ad.mul(p["a"], p["b"]))),
    ("div", lambda p: ad.sum_(ad.div(p["a"], ad.shift(ad.sigmoid(p["b"]), 1.0)))),
    ("matmul", lambda p: ad.sum_(ad.matmul(ad.reshape(p["a"], (4, 5)),
                                           ad.reshape(p["b"], (5, 4))))),
    ("concat", lambda p: ad.sum_(ad.concat([p["a"], p["b"]]))),
    ("gather", lambda p: ad.sum_(ad.gather_rows(p["a"], [3, 3, 0, 7]))),
    ("tile", lambda p: ad.sum_(ad.mul(ad.tile_rows(p["a"], 3),
                                      ad.tile_rows(p["b"], 3)))),
    ("abs", lambda p: ad.sum_(ad.abs_(p["a"]))),
    ("relu", lambda p: ad.sum_(ad.relu(p["a"]))),
    ("leaky_relu", lambda p: ad.sum_(ad.leaky_relu(p["a"], 0.2))),
    ("elu", lambda p: ad.sum_(ad.elu(p["a"]))),
    ("sigmoid", lambda p: ad.sum_(ad.sigmoid(p["a"]))),
    ("clamp", lambda p: ad.sum_(ad.clamp(p["a"], -0.4, 0.4))),
    ("segment_softmax", lambda p: ad.sum_(ad.mul(
        ad.segment_softmax(p["a"], [0, 0, 1, 1, 1, 2, 2, 0, 1, 2] * 2, 3), p["b"]))),
    ("segment_sum", lambda p: ad.sum_(ad.mul(
        ad.segment_sum(p["a"], [0, 1, 2, 0] * 5, 3), ad.tensor([1.0, -2.0, 0.5])))),
    ("row_l2_norm", lambda p: ad.sum_(ad.row_l2_norm(ad.reshape(p["a"], (4, 5))))),
    ("sum_axis", lambda p: ad.sum_(ad.mul(
        ad.sum_(ad.reshape(ad.mul(p["a"], p["b"]), (2, 5, 2)), axis=1),
        ad.tensor([[1.0, -2.0], [0.5, 3.0]])))),
    ("mean", lambda p: ad.mean_(p["a"])),
    ("log1p_sum_exp", lambda p: ad.log1p_sum_exp(p["a"])),
]


@pytest.mark.parametrize("name,f", PRIMITIVES, ids=[n for n, _ in PRIMITIVES])
def test_primitive_gradients(name, f, rng):
    # keep values away from the kinks of abs/relu/clamp so central
    # differences see a smooth function
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    a[np.abs(a) < 0.05] = 0.1
    a[np.abs(np.abs(a) - 0.4) < 0.05] = 0.2
    params = {"a": leaf(a, "a"), "b": leaf(b, "b")}
    assert grad_check(f, params, rng=rng) <= 1e-6


def test_forward_is_deterministic(rng):
    a = rng.standard_normal(50)
    seg = rng.integers(0, 4, size=50)
    seg[:4] = np.arange(4)
    r1 = ad.segment_softmax(Tensor(a), seg, 4).data
    r2 = ad.segment_softmax(Tensor(a), seg, 4).data
    assert np.array_equal(r1, r2)


def test_sum_axis_drops_the_axis(rng):
    a = rng.standard_normal((3, 4, 5))
    for axis in range(3):
        out = ad.sum_(Tensor(a), axis=axis).data
        assert np.array_equal(out, a.sum(axis=axis))


def test_gradients_are_not_left_on_tensors():
    x = leaf(np.array([1.0, 2.0]))
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, x))
    first = tape.backward(y)["x"]
    second = tape.backward(y)["x"]
    assert np.array_equal(first, [2.0, 4.0])
    assert np.array_equal(second, first)
    assert not hasattr(x, "grad")


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            Tape().__enter__()
    # the failed enter must not leave a stale active tape
    with Tape():
        pass


# ------------------------------------------- kernels equal their old formulas
#
# The scatter, the segment max and the activation factors replace numpy
# formulas that the model was first written with; each must give the same
# bits, so the checkpoint of a training run does not change.

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
           np.inf, -np.inf, 1.0, -1.5, 1e308, -1e308]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def float_array(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), trailing=st.sampled_from([(), (1,), (3,), (2, 2)]))
def test_scatter_add_equals_sequential_add_at(data, trailing):
    m = data.draw(st.integers(0, 12), label="rows")
    n = data.draw(st.integers(0 if m == 0 else 1, 6), label="out rows")
    index = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                        min_size=m, max_size=m)), dtype=np.int64)
    values = float_array(data, (m,) + trailing)
    with np.errstate(all="ignore"):          # inf - inf and overflow are data here
        want = np.zeros((n,) + trailing)
        np.add.at(want, index, values)
        got = ad._scatter_add(values, index, n)
    assert same_bits(got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), trailing=st.sampled_from([(), (1,), (3,)]))
def test_segment_max_equals_maximum_at(data, trailing):
    n = data.draw(st.integers(1, 5), label="segments")
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    seg = np.array(data.draw(st.permutations(list(range(n)) + extra)), dtype=np.int64)
    values = float_array(data, (len(seg),) + trailing)
    want = np.full((n,) + trailing, -np.inf)
    np.maximum.at(want, seg, values)
    got = ad._segment_max(values, seg, np.bincount(seg, minlength=n))
    assert same_bits(got, want)


def forward_and_vjp(op, a, g):
    with Tape() as tape:
        out = op(leaf(a))
    (grad,) = tape.records[-1][2](g)
    return out.data, grad


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, -0.5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_leaky_relu_equals_where_form(slope, data):
    a = float_array(data, (data.draw(st.integers(0, 10)), 3))
    g = float_array(data, a.shape)
    with np.errstate(all="ignore"):          # 0 * inf is data here
        out, grad = forward_and_vjp(lambda x: ad.leaky_relu(x, slope), a, g)
        want_out = np.where(a > 0, a, slope * a)
        want_grad = g * np.where(a > 0, 1.0, slope)
    assert same_bits(out, want_out)
    assert same_bits(grad, want_grad)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_elu_equals_where_form(data):
    a = float_array(data, (data.draw(st.integers(0, 10)), 3))
    g = float_array(data, a.shape)
    with np.errstate(all="ignore"):
        out, grad = forward_and_vjp(ad.elu, a, g)
        ex = np.exp(np.minimum(a, 0.0))
        want_out = np.where(a > 0, a, 1.0 * (ex - 1.0))
        want_grad = g * np.where(a > 0, 1.0, 1.0 * ex)
    assert same_bits(out, want_out)
    assert same_bits(grad, want_grad)
