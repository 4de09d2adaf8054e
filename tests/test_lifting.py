import numpy as np
import pytest

from bifidelity.errors import DimensionMismatch
from bifidelity.interp import build_id
from bifidelity.lifting import evaluate_all, lift, required_samples
from bifidelity.linalg import spectral_norm

from oracles import mgs_pivot_order


def make_pair(seed=0, m=8, n=14, m_high=11, noise=0.05):
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((m, n))
    high = rng.standard_normal((m_high, m)) @ low + noise * rng.standard_normal((m_high, n))
    return high, low


def test_required_samples_rank_one():
    xi = np.linspace(0.0, 1.0, 32)
    shape = xi**2
    low = np.outer(shape, np.arange(1.0, 9.0))
    dec = build_id(low, rank=1)
    ids = [f"s{j}" for j in range(8)]
    assert len(required_samples(dec, ids)) == 1


def test_required_samples_full_rank_returns_all():
    rng = np.random.default_rng(4)
    low = rng.standard_normal((9, 5))
    dec = build_id(low, rank=5)
    ids = [f"s{j}" for j in range(5)]
    got = required_samples(dec, ids)
    assert sorted(got) == sorted(ids)


def test_required_samples_matches_independent_pivot_order():
    _, low = make_pair(seed=31)
    dec = build_id(low, rank=4)
    ids = [f"s{j}" for j in range(low.shape[1])]
    expected = [ids[j] for j in mgs_pivot_order(low, 4)]
    assert list(required_samples(dec, ids)) == expected


def test_lift_with_low_skeleton_reproduces_reconstruction():
    _, low = make_pair(seed=7)
    dec = build_id(low, rank=3)
    model = lift(dec, dec.skeleton)
    assert np.array_equal(evaluate_all(model), dec.skeleton @ dec.coeffs)


def test_full_rank_lift_reproduces_high_exactly():
    high, low = make_pair(seed=11, m=6, n=6, m_high=9)
    dec = build_id(low, rank=6)
    model = lift(dec, high[:, list(dec.selected)])
    assert np.array_equal(evaluate_all(model), high)


def test_lift_rejects_wrong_column_count():
    _, low = make_pair(seed=13)
    dec = build_id(low, rank=3)
    with pytest.raises(DimensionMismatch):
        lift(dec, dec.skeleton[:, :2])


def test_exactness_at_skeleton_samples():
    high, low = make_pair(seed=17)
    dec = build_id(low, rank=4)
    model = lift(dec, high[:, list(dec.selected)])
    estimate = evaluate_all(model)
    for col, j in enumerate(dec.selected):
        assert np.max(np.abs(estimate[:, j] - high[:, j])) <= 1e-12


def test_corresponding_estimates_identity():
    _, low = make_pair(seed=19)
    dec = build_id(low, rank=3)
    model = lift(dec, low[:, list(dec.selected)])
    err_high = spectral_norm(low - evaluate_all(model))
    err_low = spectral_norm(low - dec.skeleton @ dec.coeffs)
    assert err_high == err_low


def test_evaluate_all_reports_a_failed_allocation_as_a_data_error(monkeypatch):
    high, low = make_pair(seed=9)
    dec = build_id(low, rank=3)
    model = lift(dec, high[:, list(dec.selected)])

    def no_memory(shape, *args, **kwargs):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")

    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(DimensionMismatch,
                       match=r"^cannot allocate an estimate of 11 x 14$"):
        evaluate_all(model)
