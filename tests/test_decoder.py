import numpy as np
import pytest
from scipy.special import expit

from one_blas_thread import run_at_one_thread
from tsdfmap.decoder import BLOCK_ROWS, PARAM_NAMES, SdfDecoder, _expit, row_blocks, softplus


def manual_forward(dec, x):
    z1 = x @ dec.params["w1"] + dec.params["b1"]
    a1 = np.logaddexp(0.0, z1)
    z2 = a1 @ dec.params["w2"] + dec.params["b2"]
    a2 = np.logaddexp(0.0, z2)
    return (a2 @ dec.params["w3"] + dec.params["b3"]).ravel()


def test_softplus_extremes():
    assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    # saturates linearly / to zero without overflow or an underflow error
    with np.errstate(all="raise"):
        got = softplus(np.array([800.0, -800.0, np.inf, -np.inf]))
        assert np.isnan(softplus(np.array([np.nan]))[0])
    np.testing.assert_array_equal(got, [800.0, 0.0, np.inf, 0.0])


def test_softplus_matches_logaddexp_within_2_ulp():
    x = np.linspace(-40.0, 40.0, 100001)
    ref = np.logaddexp(0.0, x)
    assert (np.abs(softplus(x) - ref) <= 2 * np.spacing(ref)).all()


def test_expit_is_within_3_ulp_of_scipys():
    x = np.linspace(-40.0, 40.0, 60001)
    got, ref = _expit(x.copy()), expit(x)
    assert (np.abs(got.view(np.int64) - ref.view(np.int64)) <= 3).all()
    assert np.abs(got - ref).max() <= 2.3e-16


def test_expit_equals_scipys_at_the_extremes_and_raises_nothing():
    x = np.array([708.5, -708.5, 745.0, -745.0, 800.0, -800.0, 0.0, -0.0,
                  np.inf, -np.inf, np.nan])
    with np.errstate(all="raise"):
        got, ref = _expit(x.copy()), expit(x)
    assert np.isnan(got[-1])
    assert np.array_equal(got[:-1].view(np.uint64), ref[:-1].view(np.uint64))


def test_expit_writes_over_its_argument(rng):
    x = rng.standard_normal((50, 32))
    want = expit(x)
    got = _expit(x)
    assert got is x
    np.testing.assert_allclose(x, want, rtol=0, atol=2.3e-16)


def five_temporary_softplus(x):
    """Reference: the same expression with a new array per operation."""
    with np.errstate(under="ignore"):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def test_one_buffer_softplus_equals_the_five_temporary_form_bitwise():
    x = np.concatenate([np.linspace(-40.0, 40.0, 100001), [800.0, -800.0, np.inf, -np.inf]])
    x2d = x[:100000].reshape(-1, 32)
    for arr in (x, x2d, np.array([np.nan])):
        before = arr.copy()
        with np.errstate(all="raise"):
            got = softplus(arr)
            want = five_temporary_softplus(arr)
        assert got.shape == want.shape
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.isnan(got[~finite]).all()
        assert np.array_equal(arr, before, equal_nan=True)  # the input is not mutated


@pytest.mark.parametrize("shape", [(3 * BLOCK_ROWS + 5,), (BLOCK_ROWS - 1, 7),
                                   (BLOCK_ROWS, 32), (2 * BLOCK_ROWS + 1, 32), (1, 32)])
def test_in_place_softplus_equals_the_new_buffer_form_bitwise(rng, shape):
    x = 30.0 * rng.standard_normal(shape)
    x.flat[:5] = [800.0, -800.0, np.inf, -np.inf, np.nan]
    before = x.copy()
    with np.errstate(all="raise"):
        want = softplus(x)
        assert x.tobytes() == before.tobytes()  # the default leaves the input as it is
        assert softplus(x, out=x) is x
    assert x.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 5])
def test_values_are_the_forward_values_bitwise(rng, n):
    dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
    dec.params["b1"][:] = rng.standard_normal(32)
    dec.params["b2"][:] = rng.standard_normal(32)
    dec.params["b3"][:] = 0.3
    x = 3.0 * rng.standard_normal((n, 8))
    for row, v in enumerate([800.0, -800.0, np.inf, -np.inf, np.nan][:n]):
        x[row * (n // 5)] = v
    with np.errstate(invalid="ignore"):  # inf and NaN features make NaN products
        got = dec.values(x)
        want = dec.forward(x)[0]
    assert got.shape == (n,)
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1,
                               2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
def test_row_blocks_cover_the_rows_in_order(n):
    blocks = row_blocks(n)
    assert [i for s, e in blocks for i in range(s, e)] == list(range(n))
    assert all(e - s >= min(n, BLOCK_ROWS) for s, e in blocks)
    assert all(e - s == BLOCK_ROWS for s, e in blocks[:-1])  # the last takes the remainder
    assert (len(blocks) == 1) == (0 < n < 2 * BLOCK_ROWS)


# splits that leave a short last block moved rows of the backward at 40,967
# and 43,009 rows; the rest are seeded sizes above one block
BLOCKED_SIZES = [40_967, 43_009,
                 *np.random.default_rng(24).integers(BLOCK_ROWS + 1, 70_000, 20).tolist()]


def decode_in_row_blocks_bitwise():
    """`values` and `input_gradient` give one call's bits when run over
    `row_blocks`."""
    for n in BLOCKED_SIZES:
        rng = np.random.default_rng(n)
        dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
        dec.params["b1"][:] = rng.standard_normal(32)
        dec.params["b2"][:] = rng.standard_normal(32)
        x = 3.0 * rng.standard_normal((n, 8))
        blocks = row_blocks(n)
        values = np.concatenate([dec.values(x[s:e]) for s, e in blocks])
        dx = np.concatenate([dec.input_gradient(x[s:e]) for s, e in blocks])
        assert np.array_equal(values.view(np.uint64), dec.values(x).view(np.uint64)), n
        assert np.array_equal(dx.view(np.uint64), dec.input_gradient(x).view(np.uint64)), n


def test_decoding_in_row_blocks_is_one_call_bitwise():
    run_at_one_thread("test_decoder", "decode_in_row_blocks_bitwise")


def test_forward_matches_manual(rng):
    dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
    x = rng.standard_normal((17, 8))
    out, cache = dec.forward(x)
    np.testing.assert_allclose(out, manual_forward(dec, x), atol=1e-12)
    assert out.shape == (17,)


def test_zero_features_give_bias_only_output(rng):
    dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
    out, _ = dec.forward(np.zeros((3, 8)))
    # biases start at zero: softplus(0)=log 2 propagates through
    a1 = np.full(32, np.log(2.0))
    a2 = np.logaddexp(0.0, a1 @ dec.params["w2"])
    expect = float(a2 @ dec.params["w3"].ravel())
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_init_shapes_and_ranges(rng):
    dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
    assert dec.params["w1"].shape == (8, 32)
    assert dec.params["w2"].shape == (32, 32)
    assert dec.params["w3"].shape == (32, 1)
    for n in ("b1", "b2", "b3"):
        assert not dec.params[n].any()
    lim = np.sqrt(6.0 / (8 + 32))
    assert np.abs(dec.params["w1"]).max() <= lim


def test_init_is_seed_deterministic():
    a = SdfDecoder(feature_dim=8, hidden_units=32, rng=np.random.default_rng(5))
    b = SdfDecoder(feature_dim=8, hidden_units=32, rng=np.random.default_rng(5))
    for n in PARAM_NAMES:
        assert np.array_equal(a.params[n], b.params[n])


def test_param_gradients_match_finite_differences(rng):
    dec = SdfDecoder(feature_dim=4, hidden_units=6, rng=rng)
    x = rng.standard_normal((9, 4))
    dout = rng.standard_normal(9)
    _, cache = dec.forward(x)
    grads, _ = dec.backward(cache, dout)
    h = 1e-6
    for name in PARAM_NAMES:
        p = dec.params[name]
        for idx in np.ndindex(*p.shape):
            keep = p[idx]
            p[idx] = keep + h
            fp = float(dec.forward(x)[0] @ dout)
            p[idx] = keep - h
            fm = float(dec.forward(x)[0] @ dout)
            p[idx] = keep
            fd = (fp - fm) / (2 * h)
            err = abs(grads[name][idx] - fd) / max(1.0, abs(fd))
            assert err < 1e-7, (name, idx, err)


def test_input_gradients_match_finite_differences(rng):
    dec = SdfDecoder(feature_dim=4, hidden_units=6, rng=rng)
    x = rng.standard_normal((5, 4))
    dout = rng.standard_normal(5)
    _, cache = dec.forward(x)
    _, dx = dec.backward(cache, dout)
    h = 1e-6
    fd = np.empty_like(x)
    for n in range(x.shape[0]):
        for d in range(x.shape[1]):
            keep = x[n, d]
            x[n, d] = keep + h
            fp = float(dec.forward(x)[0] @ dout)
            x[n, d] = keep - h
            fm = float(dec.forward(x)[0] @ dout)
            x[n, d] = keep
            fd[n, d] = (fp - fm) / (2 * h)
    np.testing.assert_allclose(dx, fd, rtol=0, atol=1e-7)


def test_input_gradient_is_backward_at_unit_dout_bitwise(rng):
    dec = SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)
    dec.params["b1"][:] = rng.standard_normal(32)
    dec.params["b2"][:] = rng.standard_normal(32)
    x = 3.0 * rng.standard_normal((1000, 8))
    dx = dec.input_gradient(x)
    want = dec.backward(dec.forward(x)[1], np.ones(len(x)))[1]
    assert dx.shape == x.shape
    assert np.array_equal(dx.view(np.uint64), want.view(np.uint64))


def test_softplus_derivative_is_sigmoid(rng):
    z = rng.standard_normal(100) * 3
    h = 1e-6
    fd = (softplus(z + h) - softplus(z - h)) / (2 * h)
    np.testing.assert_allclose(fd, expit(z), atol=1e-9)
