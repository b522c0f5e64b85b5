import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc.los import LosEstimate, update_f


def test_full_replacement():
    prev = LosEstimate(value=0.2, smoothing=1.0, window_slots=10)
    assert update_f(prev, 10, 1).value == pytest.approx(1.0)


def test_zero_smoothing_keeps_value():
    prev = LosEstimate(value=0.37, smoothing=0.0, window_slots=10)
    assert update_f(prev, 10, 1).value == 0.37
    assert update_f(prev, 0, 0).value == 0.37


def test_update_arithmetic():
    prev = LosEstimate(value=0.4, smoothing=0.5, window_slots=10)
    assert update_f(prev, 8, 1).value == pytest.approx(0.6)  # 0.5*0.8 + 0.5*0.4


def test_count_out_of_range_rejected():
    prev = LosEstimate(value=0.5, smoothing=0.5, window_slots=10)
    with pytest.raises(ValueError):
        update_f(prev, 11, 1)
    with pytest.raises(ValueError):
        update_f(prev, -1, 1)


def test_indicator_must_be_binary():
    prev = LosEstimate()
    with pytest.raises(ValueError):
        update_f(prev, 5, 2)


@pytest.mark.parametrize(
    "k_t, x, name",
    [(2.5, 1, "k_t"), (True, 1, "k_t"), (np.float64(3), 1, "k_t"), (3, True, "x"),
     (3, np.True_, "x"), (3, 1.0, "x")],
)
def test_non_integer_count_or_indicator_rejected(k_t, x, name):
    # A fractional count or a bool once passed the range checks: 2.5 LoS slots
    # of 10 moved the estimate to 0.475.
    prev = LosEstimate(window_slots=10)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        update_f(prev, k_t, x)
    assert update_f(prev, np.int64(3), np.int8(1)) == update_f(prev, 3, 1)


def test_unassociated_decay():
    prev = LosEstimate(value=0.8, smoothing=0.25, window_slots=10)
    decayed = update_f(prev, 7, 0)
    assert decayed.value == pytest.approx(0.75 * 0.8)  # the update pulls toward 0


def test_estimate_constructor_validation():
    with pytest.raises(ValueError):
        LosEstimate(value=1.5)
    with pytest.raises(ValueError):
        LosEstimate(smoothing=-0.1)
    with pytest.raises(ValueError):
        LosEstimate(window_slots=0)


@given(
    start=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    seq=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 1)), max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_estimate_stays_in_unit_interval(start, lam, seq):
    est = LosEstimate(value=start, smoothing=lam, window_slots=20)
    for k_t, x in seq:
        est = update_f(est, k_t, x)
        assert 0.0 <= est.value <= 1.0


def test_expected_convergence_to_true_probability():
    # With x=1 and k_t ~ Binomial(k, rho), the bias shrinks as (1-lam)^T.
    rho, lam, k, frames, trials = 0.35, 0.1, 100, 40, 10_000
    rng = np.random.default_rng(99)
    finals = np.empty(trials)
    for t in range(trials):
        est = LosEstimate(value=0.5, smoothing=lam, window_slots=k)
        for _ in range(frames):
            est = update_f(est, int(rng.binomial(k, rho)), 1)
        finals[t] = est.value
    expected = rho + (1 - lam) ** frames * (0.5 - rho)
    se = finals.std(ddof=1) / np.sqrt(trials)
    assert abs(finals.mean() - expected) < 3 * se
