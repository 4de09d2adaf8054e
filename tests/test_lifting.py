import numpy as np
import pytest

from bifidelity.errors import DimensionMismatch
from bifidelity.interp import build_id, reconstruct
from bifidelity.lifting import (
    evaluate_all,
    evaluate_one,
    fit_coefficients,
    lift,
    required_samples,
)
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
    assert np.array_equal(evaluate_all(model), reconstruct(dec))


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
    err_low = spectral_norm(low - reconstruct(dec))
    assert err_high == err_low


def test_evaluate_one_unit_vector_picks_column():
    high, low = make_pair(seed=23)
    dec = build_id(low, rank=4)
    model = lift(dec, high[:, list(dec.selected)])
    e2 = np.zeros(4)
    e2[2] = 1.0
    assert np.array_equal(evaluate_one(model, e2), model.high_skeleton[:, 2])


def test_evaluate_one_matches_evaluate_all_columns():
    high, low = make_pair(seed=29)
    dec = build_id(low, rank=4)
    model = lift(dec, high[:, list(dec.selected)])
    full = evaluate_all(model)
    for k in (0, 5, 11):
        single = evaluate_one(model, dec.coeffs[:, k])
        assert np.max(np.abs(single - full[:, k])) <= 1e-12 * max(
            1.0, np.max(np.abs(full))
        )


def test_evaluate_one_rejects_wrong_length():
    high, low = make_pair(seed=37)
    dec = build_id(low, rank=3)
    model = lift(dec, high[:, list(dec.selected)])
    with pytest.raises(DimensionMismatch):
        evaluate_one(model, np.ones(5))


def test_evaluate_one_linearity():
    high, low = make_pair(seed=41)
    dec = build_id(low, rank=5)
    model = lift(dec, high[:, list(dec.selected)])
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(2)
    c1, c2 = rng.standard_normal((2, 5))
    lhs = evaluate_one(model, a * c1 + b * c2)
    rhs = a * evaluate_one(model, c1) + b * evaluate_one(model, c2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_fit_coefficients_consistent_with_in_sample_columns():
    _, low = make_pair(seed=43)
    dec = build_id(low, rank=5)
    for k in (1, 7, 12):
        c = fit_coefficients(dec, low[:, k])
        assert np.max(np.abs(c - dec.coeffs[:, k])) <= 1e-8


def test_model_sample_ids_follow_selection():
    high, low = make_pair(seed=47)
    dec = build_id(low, rank=3)
    ids = [f"s{j}" for j in range(low.shape[1])]
    need = required_samples(dec, ids)
    model = lift(dec, high[:, list(dec.selected)], sample_ids=need)
    assert model.sample_ids == need


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
