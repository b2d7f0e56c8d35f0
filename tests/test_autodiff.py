import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoprod import autodiff as ad
from ecoprod.errors import EcoprodError

from oracles import central_difference

REL_TOL = 1e-4
FD_STEP = 1e-4


def check_gradient(build, *inputs, h=FD_STEP):
    """Compare tape gradients of a scalar-valued builder to central differences."""
    tensors = [ad.Tensor(np.array(v, dtype=float)) for v in inputs]
    with ad.Tape() as tape:
        loss = build(*tensors)
        tape.backward(loss)
    for index, tensor in enumerate(tensors):
        def rebuild(data, index=index):
            probes = [ad.Tensor(t.data) for t in tensors]
            probes[index] = ad.Tensor(data)
            return float(build(*probes).data)

        numeric = central_difference(rebuild, tensor.data.copy(), h=h)
        scale = max(1e-8, float(np.abs(numeric).max()))
        assert np.abs(tensor.grad - numeric).max() / scale < REL_TOL, (
            f"gradient mismatch on input {index}"
        )


RNG = np.random.default_rng(1234)


def test_square_gradient_is_2x():
    x = ad.Tensor(np.array([[3.0]]))
    with ad.Tape() as tape:
        tape.backward(ad.total(ad.mul(x, x)))
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_relu_gate():
    x = ad.Tensor(np.array([[-1.0, 2.0]]))
    with ad.Tape() as tape:
        tape.backward(ad.total(ad.relu(x)))
    assert x.grad.tolist() == [[0.0, 1.0]]


def test_matmul_gradients():
    check_gradient(
        lambda a, b: ad.total(ad.matmul(a, b)),
        RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2)),
    )


def test_add_bias_gradients():
    check_gradient(
        lambda x, b: ad.total(ad.mul(ad.add_bias(x, b), ad.add_bias(x, b))),
        RNG.standard_normal((5, 3)), RNG.standard_normal(3),
    )


@pytest.mark.parametrize("op", [ad.relu, ad.tanh, ad.sigmoid])
def test_activation_gradients(op):
    x = RNG.standard_normal((4, 3)) + 0.05  # keep relu away from its kink
    check_gradient(lambda t: ad.total(ad.mul(op(t), op(t))), x)


def test_slice_gradients():
    def build(a):
        piece = ad.slice_cols(a, 1, 4)
        return ad.total(ad.mul(piece, piece))

    check_gradient(build, RNG.standard_normal((3, 5)))


def test_sum_elementwise_gradients():
    def build(a, b):
        return ad.total(ad.add(ad.mul(a, b), ad.sub(a, ad.scale(b, 0.5))))

    check_gradient(build, RNG.standard_normal((4, 4)), RNG.standard_normal((4, 4)))


def test_reparameterize_noise_zero_returns_mu():
    mu = ad.Tensor(np.array([[1.5, -2.0]]))
    logvar = ad.Tensor(np.array([[0.3, 0.7]]))
    out = ad.gaussian_reparameterize(mu, logvar, np.zeros((1, 2)))
    assert out.data.tolist() == mu.data.tolist()


def test_reparameterize_unit_noise_zero_logvar():
    mu = ad.Tensor(np.array([[1.5, -2.0]]))
    logvar = ad.Tensor(np.zeros((1, 2)))
    out = ad.gaussian_reparameterize(mu, logvar, np.ones((1, 2)))
    assert out.data == pytest.approx(mu.data + 1.0)


def test_reparameterize_moments_match():
    rng = np.random.default_rng(7)
    mu = ad.Tensor(np.full((100_000, 1), 0.8))
    logvar = ad.Tensor(np.full((100_000, 1), 0.4))
    sample = ad.gaussian_reparameterize(mu, logvar, rng.standard_normal((100_000, 1)))
    n = sample.data.shape[0]
    variance = np.exp(0.4)
    assert sample.data.mean() == pytest.approx(0.8, abs=3 * np.sqrt(variance / n))
    assert sample.data.var() == pytest.approx(variance, rel=0.05)


def test_reparameterize_gradients():
    noise = RNG.standard_normal((3, 2))
    check_gradient(
        lambda m, lv: ad.total(ad.mul(ad.gaussian_reparameterize(m, lv, noise),
                                      ad.gaussian_reparameterize(m, lv, noise))),
        RNG.standard_normal((3, 2)), RNG.standard_normal((3, 2)) * 0.5,
    )


def test_kl_closed_forms():
    zero = ad.Tensor(np.zeros((1, 1)))
    assert ad.kl_diag_gaussian(zero, zero).data == pytest.approx(0.0)
    one = ad.Tensor(np.ones((1, 1)))
    assert ad.kl_diag_gaussian(one, ad.Tensor(np.zeros((1, 1)))).data == pytest.approx(0.5)


@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_kl_non_negative(mu_values, logvar_values):
    size = min(len(mu_values), len(logvar_values))
    mu = ad.Tensor(np.array(mu_values[:size]).reshape(1, size))
    logvar = ad.Tensor(np.array(logvar_values[:size]).reshape(1, size))
    assert float(ad.kl_diag_gaussian(mu, logvar).data) >= -1e-12


def test_kl_gradients():
    check_gradient(
        lambda m, lv: ad.kl_diag_gaussian(m, lv),
        RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3)) * 0.5,
    )


def test_bernoulli_logpmf_value():
    prob = ad.Tensor(np.array([[0.5]]))
    value = ad.bernoulli_logpmf(prob, np.array([[1.0]]))
    assert float(value.data) == pytest.approx(np.log(0.5), abs=1e-12)


def test_bernoulli_gradients():
    y = (RNG.random((3, 1)) < 0.5).astype(float)
    probs = RNG.uniform(0.2, 0.8, (3, 1))
    check_gradient(lambda p: ad.bernoulli_logpmf(p, y), probs)


def test_gaussian_logpdf_standard_normal_at_zero():
    mu = ad.Tensor(np.zeros((1, 1)))
    logvar = ad.Tensor(np.zeros((1, 1)))
    value = ad.gaussian_logpdf(np.zeros((1, 1)), mu, logvar)
    assert float(value.data) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_gaussian_logpdf_gradients():
    x = RNG.standard_normal((3, 2))
    check_gradient(
        lambda m, lv: ad.gaussian_logpdf(x, m, lv),
        RNG.standard_normal((3, 2)), RNG.standard_normal((3, 2)) * 0.5,
    )


def test_three_layer_mlp_finite_difference():
    rng = np.random.default_rng(11)
    mlp = ad.Mlp([4, 8, 8, 8, 2], "relu", rng)
    x = rng.standard_normal((6, 4))
    targets = rng.standard_normal((6, 2))

    def loss_fn():
        out = mlp(ad.Tensor(x))
        residual = ad.sub(out, ad.Tensor(targets))
        return ad.total(ad.mul(residual, residual))

    with ad.Tape() as tape:
        tape.backward(loss_fn())
    for param in mlp.parameters():
        def rebuild(data, param=param):
            saved = param.data
            param.data = data
            value = float(loss_fn().data)
            param.data = saved
            return value

        numeric = central_difference(rebuild, param.data.copy())
        scale = max(1e-8, float(np.abs(numeric).max()))
        assert np.abs(param.grad - numeric).max() / scale < REL_TOL


def test_backward_does_not_mutate_forward_values():
    x = ad.Tensor(RNG.standard_normal((3, 3)))
    with ad.Tape() as tape:
        mid = ad.tanh(x)
        out = ad.total(ad.mul(mid, mid))
        before = mid.data.copy()
        tape.backward(out)
    assert np.array_equal(mid.data, before)


def test_shape_mismatch_raises():
    with pytest.raises(EcoprodError):
        ad.add(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3))))
    with pytest.raises(EcoprodError):
        ad.matmul(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((3, 2))))
    with pytest.raises(EcoprodError):
        ad.gaussian_reparameterize(
            ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 2))), np.zeros((2, 3))
        )


def test_second_backward_on_one_tape_matches_a_fresh_tape():
    x = ad.Tensor(np.array([[1.0, 2.0]]))
    with ad.Tape() as tape:
        tape.backward(ad.total(ad.mul(x, x)))
        assert x.grad.tolist() == [[2.0, 4.0]]
        tape.backward(ad.total(ad.scale(x, 3.0)))
    fresh = ad.Tensor(x.data)
    with ad.Tape() as fresh_tape:
        fresh_tape.backward(ad.total(ad.scale(fresh, 3.0)))
    assert x.grad.tolist() == fresh.grad.tolist() == [[3.0, 3.0]]


def test_leaf_outside_the_loss_keeps_no_gradient():
    used = ad.Tensor(np.array([[1.0, 2.0]]))
    unused = ad.Tensor(np.array([[3.0, 4.0]]))
    with ad.Tape() as tape:
        ad.total(ad.mul(unused, unused))
        tape.backward(ad.total(used))
    assert used.grad.tolist() == [[1.0, 1.0]]
    assert unused.grad is None


def test_adam_without_gradient_raises_and_changes_nothing():
    used = ad.Tensor(np.array([1.0, -2.0]))
    unused = ad.Tensor(np.array([0.5]))
    used.grad = np.array([0.3, 0.4])
    fresh = ad.AdamState(learning_rate=0.1)
    with pytest.raises(EcoprodError, match="parameter 1 has no gradient"):
        ad.adam_step([used, unused], fresh)
    assert fresh == ad.AdamState(learning_rate=0.1)

    state = ad.AdamState(learning_rate=0.1)
    unused.grad = np.array([0.2])
    ad.adam_step([used, unused], state)
    before = [a.copy() for a in (used.data, unused.data, *state.first_moments, *state.second_moments)]
    with ad.Tape() as tape:
        ad.total(unused)
        tape.backward(ad.total(ad.mul(used, used)))
    assert unused.grad is None
    with pytest.raises(EcoprodError, match="parameter 1 has no gradient"):
        ad.adam_step([used, unused], state)
    after = [used.data, unused.data, *state.first_moments, *state.second_moments]
    assert state.step_count == 1
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_adam_never_reapplies_a_gradient():
    used = ad.Tensor(np.array([1.0, -2.0]))
    unrecorded = ad.Tensor(np.array([0.5]))
    state = ad.AdamState(learning_rate=0.1)
    with ad.Tape() as tape:
        tape.backward(ad.add(ad.total(ad.mul(used, used)), ad.total(unrecorded)))
    ad.adam_step([used, unrecorded], state)
    assert used.grad is None and unrecorded.grad is None
    with pytest.raises(EcoprodError, match="parameter 0 has no gradient"):
        ad.adam_step([used, unrecorded], state)

    # a later tape that never records `unrecorded` leaves it without a gradient
    before = [a.copy() for a in (used.data, unrecorded.data, *state.first_moments, *state.second_moments)]
    with ad.Tape() as tape:
        tape.backward(ad.total(ad.mul(used, used)))
    with pytest.raises(EcoprodError, match="parameter 1 has no gradient"):
        ad.adam_step([used, unrecorded], state)
    after = [used.data, unrecorded.data, *state.first_moments, *state.second_moments]
    assert state.step_count == 1
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_adam_zero_gradient_keeps_parameters():
    param = ad.Tensor(np.array([1.0, -2.0]))
    param.grad = np.zeros(2)
    state = ad.AdamState(learning_rate=0.1)
    ad.adam_step([param], state)
    assert param.data.tolist() == [1.0, -2.0]


def test_adam_first_step_magnitude_is_learning_rate():
    param = ad.Tensor(np.array([0.0]))
    param.grad = np.array([4.2])
    state = ad.AdamState(learning_rate=0.05)
    ad.adam_step([param], state)
    assert abs(param.data[0]) == pytest.approx(0.05, rel=1e-6)


def test_adam_minimizes_quadratic():
    param = ad.Tensor(np.array(5.0))
    state = ad.AdamState(learning_rate=0.1)
    for _ in range(500):
        with ad.Tape() as tape:
            tape.backward(ad.mul(param, param))
        ad.adam_step([param], state)
    assert abs(float(param.data)) < 0.01
