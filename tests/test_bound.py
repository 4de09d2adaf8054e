import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifidelity import bound
from bifidelity.bound import (
    DEGENERATE_ERROR_RTOL,
    EPS_CHUNK_BYTES,
    PRUNE_STRIDE,
    GramianPair,
    _best_rho,
    _lifting_error,
    _numerical_rank,
    default_tau_grid,
    efficacy_study,
    epsilon_estimated,
    minimize_bound,
    tau_grid,
    write_bound_report,
)
from bifidelity.cli import _tau_grid_from_args, build_parser
from bifidelity.errors import (
    AllCombinationsInvalid,
    DegenerateError,
    DimensionMismatch,
    EmptyGrid,
    KOutOfRange,
    NegativeTau,
    NoConvergence,
    NonFiniteInput,
    SampleMismatch,
)
from bifidelity.interp import build_id
from bifidelity.linalg import singular_values, spectral_norm
from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples
from bifidelity.snapshots import SnapshotMatrix

from oracles import (
    eps_full_eigvalsh,
    eps_lambda_max_symmetric,
    epsilon_exact,
    from_array,
    lifting_oracle_T,
    max_quadratic_form,
    random_matrix_with_spectrum,
    rho,
    sigma_k,
)


def snap(data, prefix="s"):
    return from_array(np.asarray(data, dtype=np.float64))


def wide_pair(seed, m_max=10, noise=0.05):
    """Aligned (high, low) with rank(L) < n_samples, the snapshot regime."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, m_max + 1))
    n = int(rng.integers(m + 2, m + 12))
    m_high = int(rng.integers(3, m_max + 1))
    low = rng.standard_normal((m, n))
    high = rng.standard_normal((m_high, m)) @ low + noise * rng.standard_normal((m_high, n))
    return snap(high), snap(low)


def lifted_error(high, low, rank):
    dec = build_id(low, rank=rank)
    h_hat = high.data[:, list(dec.selected)] @ dec.coeffs
    return dec, spectral_norm(high.data - h_hat)


# --------------------------------------------------------------------------
# tau grids
# --------------------------------------------------------------------------

def test_default_grid_shape():
    g = default_tau_grid()
    assert g[0] == 0.0
    assert g.size == 202
    assert g[101] == 1.0
    assert np.all(np.diff(g) > 0)
    assert g.tobytes() == np.concatenate(([0.0], tau_grid())).tobytes()
    # the CLI's flags: each given alone is that one keyword of tau_grid
    parser = build_parser()
    base = ["bound", "--low", "l", "--high-sub", "h", "--rank", "1"]
    for flags, keyword in [(["--tau-min", "1e-3"], {"tau_min": 1e-3}),
                           (["--tau-max", "50"], {"tau_max": 50.0}),
                           (["--tau-count", "7"], {"count": 7}),
                           (["--tau-scale", "linear"], {"scale": "linear"})]:
        got = _tau_grid_from_args(parser.parse_args(base + flags))
        assert got.tobytes() == tau_grid(**keyword).tobytes(), flags
    assert _tau_grid_from_args(parser.parse_args(base)).tobytes() == g.tobytes()


def test_tau_grid_builders():
    g = tau_grid(1e-3, 1e3, 7, "log")
    assert g.size == 7 and g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e3)
    lin = tau_grid(0.0, 1.0, 5, "linear")
    assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(EmptyGrid):
        tau_grid(1.0, 2.0, 0, "log")


@settings(max_examples=300, deadline=None)
@given(bounds=st.lists(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                       min_size=2, max_size=2).map(sorted),
       count=st.integers(2, 300))
@example(bounds=[1.0, 1.7e308], count=3)
@example(bounds=[1.0, 1.7976931348623157e308], count=3)
@example(bounds=[5e-324, 1.7976931348623157e308], count=300)
def test_log_tau_grid_runs_from_its_bounds_to_its_bounds(bounds, count):
    """The ends are the bounds themselves, every point lies within them, the
    grid never decreases, and no overflow warning is raised."""
    lo, hi = bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = tau_grid(lo, hi, count)
    assert g.size == count and g[0] == lo and g[-1] == hi
    assert np.all((lo <= g) & (g <= hi))
    assert np.all(np.diff(g) >= 0.0)


def test_decade_log_grids_keep_their_points():
    """Where numpy's 10 ** log10 gives both bounds back, as at 1e-300,
    1e-6, 1e-3 and their reciprocals, the grid is the plain 10 ** linspace:
    only the ends can move."""
    for lo, hi in ((1e-300, 1e300), (1e-6, 1e6), (1e-3, 1e3)):
        assert np.array_equal(tau_grid(lo, hi, 201),
                              10.0 ** np.linspace(np.log10(lo), np.log10(hi), 201))


# --------------------------------------------------------------------------
# eps
# --------------------------------------------------------------------------

def test_epsilon_exact_cancels_when_equal():
    _, low = wide_pair(1)
    e = epsilon_exact(low, low, 1.0)
    assert abs(e) <= 1e-10 * spectral_norm(low.data) ** 2


def test_epsilon_exact_at_tau_zero_is_squared_norm():
    high, low = wide_pair(2)
    assert epsilon_exact(high, low, 0.0) == pytest.approx(
        spectral_norm(high.data) ** 2, rel=1e-12
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_epsilon_exact_vs_monte_carlo_oracle(seed):
    rng = np.random.default_rng(seed)
    high = snap(rng.standard_normal((4, 6)))
    low = snap(rng.standard_normal((4, 6)))
    tau = 0.7
    eps = epsilon_exact(high, low, tau)
    mc = max_quadratic_form(high.data, low.data, tau, draws=100_000, seed=100 + seed)
    # the sampled maximum can never exceed the eigenvalue ...
    assert mc <= eps + 1e-12 * max(1.0, abs(eps))
    # ... and with 1e5 draws in R^6 it lands within a few percent of it
    assert eps - mc <= 2.5e-2 * abs(eps)


def test_epsilon_exact_rejects_misaligned_and_negative_tau():
    high, low = wide_pair(3)
    shuffled = SnapshotMatrix(low.data, tuple(reversed(low.sample_ids)))
    with pytest.raises(SampleMismatch):
        epsilon_exact(high, shuffled, 1.0)
    with pytest.raises(NegativeTau):
        epsilon_exact(high, low, -0.5)


def test_epsilon_estimated_full_sampling_matches_exact():
    high, low = wide_pair(4)
    pair = GramianPair.full(high, low)
    assert pair.c == 1.0
    for tau in (0.0, 0.3, 1.0, 42.0):
        assert epsilon_estimated(pair, tau) == epsilon_exact(high, low, tau)


def test_epsilon_estimated_zero_for_equal_gramians():
    _, low = wide_pair(5)
    pair = GramianPair.full(low, low)
    assert epsilon_estimated(pair, 1.0) == 0.0


def test_estimate_stabilizes_with_subsample_growth():
    """Mean bound estimate flattens as the sub-sample grows (beam pair).

    The per-step threshold (15% beyond n = 7, trial-averaged) was measured
    at build time for the substitute high-fidelity model.
    """
    from bifidelity.models import BeamConfig, beam_pair, draw_beam_samples

    cfg = BeamConfig()
    samples = draw_beam_samples(100, seed=7)
    high, low = beam_pair(samples, cfg)
    dec = build_id(low, rank=1)
    sigma = singular_values(low.data)
    rng = np.random.default_rng(11)
    means = []
    for n_sub in range(2, 13):
        values = []
        for _ in range(30):
            idx = np.sort(rng.choice(low.n_samples, n_sub, replace=False))
            pair = GramianPair.from_snapshots(high, low, idx)
            rep = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
            values.append(rep.best_rho)
        means.append(float(np.mean(values)))
    changes = np.abs(np.diff(means)) / np.array(means[:-1])
    assert np.all(changes[5:] < 0.15)  # steps beyond n = 7


def test_epsilon_exact_monotone_and_bounded():
    high, low = wide_pair(6)
    grid = default_tau_grid()
    pair = GramianPair.full(high, low)
    eps = np.array([epsilon_estimated(pair, t) for t in grid])
    h2 = spectral_norm(high.data) ** 2
    assert abs(eps[0] - h2) <= 1e-10 * h2
    assert np.all(np.diff(eps) <= 1e-10 * h2)
    assert np.all(eps <= h2 * (1 + 1e-12))


# --------------------------------------------------------------------------
# the eps kernel: tau arrays, chunks and the reduced pencil
# --------------------------------------------------------------------------

def kernel_pair(regime, seed=0):
    """(pair, pencil size): n x n Gramians when dim_h + dim_l >= n, the
    reduced p x p pencil when p = dim_h + dim_l < n."""
    rng = np.random.default_rng(seed)
    dims, n = {"full": ((14, 12), 24), "reduced": ((4, 3), 30)}[regime]
    low = rng.standard_normal((dims[1], n))
    high = rng.standard_normal((dims[0], dims[1])) @ low \
        + 0.05 * rng.standard_normal((dims[0], n))
    size = n if regime == "full" else sum(dims)
    return GramianPair.from_columns(high, low, n_total=3 * n), size


@pytest.mark.parametrize("regime", ["full", "reduced"])
def test_epsilon_estimated_array_equals_scalar_calls(regime):
    pair, size = kernel_pair(regime)
    chunk = max(1, EPS_CHUNK_BYTES // (8 * size * size))
    for count in sorted({1, max(chunk - 1, 1), chunk, chunk + 1, 202}):
        grid = np.concatenate(([0.0], 10.0 ** np.linspace(-4.0, 4.0, count - 1)))
        eps = epsilon_estimated(pair, grid)
        assert eps.shape == (count,)
        assert np.array_equal(eps, [epsilon_estimated(pair, t) for t in grid]), count
    assert isinstance(epsilon_estimated(pair, 0.5), float)
    assert epsilon_estimated(pair, np.array([])).shape == (0,)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim_h=st.integers(1, 12),
       dim_l=st.integers(1, 12), extra=st.integers(1, 30),
       spread=st.integers(1, 4), c_mult=st.integers(1, 5))
def test_reduced_pencil_matches_full_eigensolve(seed, dim_h, dim_l, extra, spread,
                                               c_mult):
    rng = np.random.default_rng(seed)
    n = dim_h + dim_l + extra
    low = rng.standard_normal((dim_l, n))
    high = rng.standard_normal((dim_h, n)) * 10.0 ** rng.uniform(-spread, spread)
    pair = GramianPair.from_columns(high, low, n_total=c_mult * n)
    assert pair.gh.shape == pair.gl.shape == (dim_h + dim_l,) * 2
    taus = np.concatenate(([0.0], 10.0 ** rng.uniform(-6.0, 6.0, 12), [1.0]))
    eps = epsilon_estimated(pair, taus)
    # the n x n Gramians come from the columns: the pair holds only the cores
    gh, gl = high.T @ high, low.T @ low
    oracle = eps_full_eigvalsh(gh, gl, pair.c, taus)
    scale = pair.c * (np.linalg.norm(gh, 2) + taus * np.linalg.norm(gl, 2))
    assert np.all(np.abs(eps - oracle) <= 1e-13 * scale)
    assert np.all(eps >= 0.0)  # the n - p zero eigenvalues floor it


def test_equal_gramians_cancel_exactly_in_the_reduced_pencil():
    low = from_array(np.random.default_rng(7).standard_normal((6, 20)))
    pair = GramianPair.full(low, low)  # 2 * 6 < 20: the reduced pencil
    assert epsilon_estimated(pair, 1.0) == 0.0
    assert epsilon_estimated(pair, np.array([1.0]))[0] == 0.0


def test_reduced_pencil_is_floored_at_zero():
    """With H = 0 the pencil is -tau Gl, whose top eigenvalue is exactly 0
    (rank Gl <= dim_l < n); the p x p solve alone returns it as +-1e-16."""
    taus = np.array([0.3, 2.0, 10.0, 1e3])
    for seed in range(10):
        low = np.random.default_rng(seed).standard_normal((5, 20))
        pair = GramianPair.from_columns(np.zeros((3, 20)), low, n_total=20)
        eps = epsilon_estimated(pair, taus)
        assert np.all(eps >= 0.0), seed
        assert np.all(eps <= 1e-13 * taus * np.linalg.norm(pair.gl, 2)), seed


@pytest.mark.parametrize("regime", ["full", "reduced"])
def test_overflowing_tau_raises_nonfinite(regime):
    pair, _ = kernel_pair(regime)
    message = r"^Gh - tau Gl overflows at tau = 1e\+308$"
    with pytest.raises(NonFiniteInput, match=message):
        epsilon_estimated(pair, 1e308)
    with pytest.raises(NonFiniteInput, match=message):
        epsilon_estimated(pair, np.array([0.0, 1e308, 1.0]))
    with pytest.raises(NegativeTau):
        epsilon_estimated(pair, np.array([0.0, -1.0]))
    with pytest.raises(NegativeTau):
        epsilon_estimated(pair, np.array([0.0, np.nan]))


def test_sweep_peak_memory_is_a_few_chunks():
    """One 202-point sweep at n = 300: each 720 KB pencil exceeds a chunk,
    so the sweep holds one at a time; stacking the grid would take 145 MB."""
    n = 300
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((n + 5, n)), rng.standard_normal((n + 5, n))
    pair = GramianPair.from_columns(a, b, n_total=n)
    grid = default_tau_grid()
    tracemalloc.start()
    try:
        epsilon_estimated(pair, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * max(EPS_CHUNK_BYTES, 8 * n * n)


# --------------------------------------------------------------------------
# rho
# --------------------------------------------------------------------------

def test_rho_vanishes_in_degenerate_corner():
    rng = np.random.default_rng(8)
    low = random_matrix_with_spectrum(rng, 8, 12, [2.0, 0.5])
    dec = build_id(low, rank=2)
    sigma = singular_values(low)
    value = rho(2, 1.0, 0.0, sigma, dec.coeff_norm(), dec.residual_norm)
    assert value is not None
    assert value <= 1e-10 * sigma[0]


def test_rho_zero_at_origin():
    sigma = np.array([3.0, 1.0])
    assert rho(1, 0.0, 0.0, sigma, 5.0, 7.0) == 0.0
    assert rho(2, 0.0, 0.0, sigma, 5.0, 7.0) == 0.0


def test_rho_invalid_on_negative_radicand():
    sigma = np.array([3.0, 1.0])
    assert rho(2, 0.0, -1.0, sigma, 1.0, 1.0) is None


def test_rho_k_out_of_range():
    sigma = np.array([3.0, 1.0])
    with pytest.raises(KOutOfRange):
        rho(0, 1.0, 0.0, sigma, 1.0, 1.0)
    with pytest.raises(KOutOfRange):
        rho(3, 1.0, 0.0, sigma, 1.0, 1.0)


def test_rho_dominates_true_error_with_exact_eps():
    for seed in range(12):
        high, low = wide_pair(100 + seed)
        r = int(np.random.default_rng(seed).integers(1, min(low.data.shape)))
        dec, true_err = lifted_error(high, low, r)
        sigma = singular_values(low.data)
        pair = GramianPair.full(high, low)
        rep = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
        assert rep.best_rho >= true_err - 1e-8 * spectral_norm(high.data)


# --------------------------------------------------------------------------
# minimize_bound
# --------------------------------------------------------------------------

def test_minimize_bound_collapses_when_high_equals_low():
    _, low = wide_pair(9)
    dec = build_id(low, rank=min(low.data.shape))
    pair = GramianPair.full(low, low)
    rep = minimize_bound(pair, singular_values(low.data), dec.coeff_norm(),
                         dec.residual_norm)
    assert rep.best_rho <= 1e-8 * spectral_norm(low.data)
    assert rep.b1 + rep.b2 == rep.best_rho


def test_minimize_bound_monotone_under_grid_refinement():
    high, low = wide_pair(10)
    dec = build_id(low, rank=2)
    sigma = singular_values(low.data)
    pair = GramianPair.full(high, low)
    coarse = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
    g = coarse.tau_grid
    # a midpoint in every gap: geometric, arithmetic next to tau = 0
    mids = np.where(g[:-1] > 0.0, np.sqrt(g[:-1] * g[1:]), 0.5 * (g[:-1] + g[1:]))
    fine = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm,
                          np.sort(np.concatenate((g, mids))))
    assert fine.best_rho <= coarse.best_rho


def scalar_reference(pair, report, sigma, cl_norm, id_residual):
    """eps and rho recomputed one grid point at a time with the scalar
    routines; None from ``rho`` becomes NaN."""
    eps = np.array([epsilon_estimated(pair, t) for t in report.tau_grid])
    rho_grid = np.array([
        [np.nan if v is None else v
         for v in (rho(k, t, e, sigma, cl_norm, id_residual)
                   for k in range(1, report.rank + 1))]
        for t, e in zip(report.tau_grid, eps)
    ])
    return eps, rho_grid


def test_minimize_bound_matches_per_tau_reference():
    high, low = wide_pair(11)
    dec = build_id(low, rank=3)
    sigma = singular_values(low.data)
    pair = GramianPair.full(high, low)
    single = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
    two = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm,
                         two_tau=True)
    for rep in (single, two):
        eps, rho_grid = scalar_reference(pair, rep, sigma, dec.coeff_norm(),
                                         dec.residual_norm)
        assert np.array_equal(rep.eps_values, eps)
        assert np.array_equal(rep.rho_values, rho_grid, equal_nan=True)
    # first minimum in (tau, k) scanning order
    ti, ki = np.unravel_index(np.nanargmin(rho_grid), rho_grid.shape)
    assert (single.best_rho, single.best_tau, single.best_k) == \
        (rho_grid[ti, ki], single.tau_grid[ti], ki + 1)


def test_scalar_rho_matches_report_cell_by_cell():
    cfg = DiffusionConfig()
    high, low = diffusion_pair(draw_diffusion_samples(120, seed=5, cfg=cfg), cfg)
    dec = build_id(low, rank=10)
    sigma = singular_values(low.data)
    rng = np.random.default_rng(6)
    for _ in range(3):
        idx = np.sort(rng.choice(low.n_samples, size=20, replace=False))
        pair = GramianPair.from_snapshots(high, low, idx)
        rep = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
        for i, (t, e) in enumerate(zip(rep.tau_grid, rep.eps_values)):
            for k in range(1, rep.rank + 1):
                value = rho(k, t, e, sigma, dec.coeff_norm(), dec.residual_norm)
                expected = rep.rho_values[i, k - 1]
                if value is None:
                    assert np.isnan(expected), (k, i)
                else:
                    assert value == expected, (k, i)


def test_minimize_bound_all_invalid():
    low = snap(np.eye(2))
    sigma = singular_values(low.data)
    pair = GramianPair.from_columns(np.zeros((2, 1)), np.ones((2, 1)), n_total=2)
    with pytest.raises(AllCombinationsInvalid):
        minimize_bound(pair, sigma, 1.0, 0.0, np.array([10.0]))


def test_minimize_bound_efficacy_regime_on_diffusion_pair():
    cfg = DiffusionConfig()
    samples = draw_diffusion_samples(200, seed=3, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)
    result = efficacy_study(high, low, rank=10, n_sub=20, trials=30, seed=42)
    in_range = np.mean((result.ratios >= 1.0) & (result.ratios <= 10.0))
    assert in_range >= 0.9


def test_simplified_bound_dominates_minimum_for_small_k():
    # the coarser cap sqrt(r(N-r)+1) (1 + s_{k+1}/s_k) sqrt(tau s_k^2 + eps)
    # dominates the sharp minimum wherever its derivation applies (k <= r)
    for seed in range(8):
        high, low = wide_pair(200 + seed)
        n = low.n_samples
        r = int(np.random.default_rng(seed).integers(1, min(low.data.shape)))
        dec = build_id(low, rank=r)
        sigma = singular_values(low.data)
        pair = GramianPair.full(high, low)
        rep = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
        cap = np.sqrt(r * (n - r) + 1)
        for k in range(1, r + 1):
            sk = sigma_k(sigma, k)
            skp1 = sigma_k(sigma, k + 1) if k < _numerical_rank(sigma) else 0.0
            rad = rep.tau_grid * sk**2 + rep.eps_values
            ok = rad >= 0.0
            simplified = cap * (1.0 + skp1 / sk) * np.sqrt(np.maximum(rad, 0.0))
            assert np.all(
                rep.best_rho <= simplified[ok] + 1e-9 * max(1.0, rep.best_rho)
            )


# --------------------------------------------------------------------------
# two-tau variant
# --------------------------------------------------------------------------

def test_two_tau_never_worse_than_single():
    for seed in range(8):
        high, low = wide_pair(300 + seed)
        dec = build_id(low, rank=2)
        sigma = singular_values(low.data)
        pair = GramianPair.full(high, low)
        one = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
        two = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm,
                             two_tau=True)
        assert two.best_rho <= one.best_rho + 1e-12 * max(1.0, one.best_rho)
        assert two.best_tau2 is not None
        assert two.b1 + two.b2 == two.best_rho


def test_two_tau_collapses_when_high_equals_low():
    _, low = wide_pair(12)
    dec = build_id(low, rank=min(low.data.shape))
    pair = GramianPair.full(low, low)
    rep = minimize_bound(pair, singular_values(low.data), dec.coeff_norm(),
                         dec.residual_norm, two_tau=True)
    assert rep.best_rho <= 1e-8 * spectral_norm(low.data)


def test_two_tau_still_dominates_true_error_with_exact_eps():
    for seed in range(8):
        high, low = wide_pair(400 + seed)
        r = int(np.random.default_rng(seed).integers(1, min(low.data.shape)))
        dec, true_err = lifted_error(high, low, r)
        pair = GramianPair.full(high, low)
        rep = minimize_bound(pair, singular_values(low.data), dec.coeff_norm(),
                             dec.residual_norm, two_tau=True)
        assert rep.best_rho >= true_err - 1e-8 * spectral_norm(high.data)


# --------------------------------------------------------------------------
# efficacy study
# --------------------------------------------------------------------------

def test_efficacy_full_sampling_is_conservative():
    high, low = wide_pair(13)
    result = efficacy_study(high, low, rank=2, n_sub=low.n_samples, trials=1,
                            seed=0)
    assert result.ratios[0] >= 1.0 - 1e-9


def test_efficacy_warns_when_rank_exceeds_subsample():
    high, low = wide_pair(14)
    with pytest.warns(RuntimeWarning):
        efficacy_study(high, low, rank=3, n_sub=2, trials=2, seed=1)


def test_efficacy_degenerate_error():
    rng = np.random.default_rng(15)
    low = random_matrix_with_spectrum(rng, 8, 12, [3.0, 1.0])
    low_snap = snap(low)
    with pytest.raises(DegenerateError):
        efficacy_study(low_snap, low_snap, rank=2, n_sub=12, trials=1, seed=0)


def test_efficacy_deterministic_given_seed():
    high, low = wide_pair(16)
    a = efficacy_study(high, low, rank=2, n_sub=4, trials=5, seed=77)
    b = efficacy_study(high, low, rank=2, n_sub=4, trials=5, seed=77)
    assert np.array_equal(a.ratios, b.ratios)


def test_efficacy_skips_the_svd_of_h_away_from_the_noise_floor(monkeypatch):
    calls = []
    real = bound.spectral_norm
    monkeypatch.setattr(bound, "spectral_norm",
                        lambda a: calls.append(np.shape(a)) or real(a))
    high, low = wide_pair(16)
    efficacy_study(high, low, rank=2, n_sub=4, trials=2, seed=3)
    # ||H - H_hat|| comes from the Gram side, and ||H||_F decides the floor
    assert len(calls) == 0


def test_efficacy_compares_the_sample_ids_once(monkeypatch):
    calls = []
    real = bound.aligned_sample_ids
    monkeypatch.setattr(bound, "aligned_sample_ids",
                        lambda high, low: calls.append(1) or real(high, low))
    high, low = wide_pair(16)
    efficacy_study(high, low, rank=2, n_sub=4, trials=5, seed=3)
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factor=st.floats(0.25, 4.0),
       spread=st.sampled_from([1.0, 0.3, 1e-3]))
def test_degenerate_decision_matches_the_spectral_norm_rule(seed, factor, spread):
    """H = A L, lifted exactly but for rounding, plus a perturbation sized so
    that the lifting error lands near DEGENERATE_ERROR_RTOL ||H||_2. With
    ``spread`` near 1 ||H||_F is about twice ||H||_2, near 0 the two agree."""
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((4, 12))
    mix = random_matrix_with_spectrum(rng, 6, 4, [1.0, spread, spread, spread])
    pert = rng.standard_normal((6, 12))
    dec = build_id(low, rank=4)
    cols = list(dec.selected)
    unit = spectral_norm(pert - pert[:, cols] @ dec.coeffs)
    h = mix @ low
    h = h + factor * DEGENERATE_ERROR_RTOL * spectral_norm(h) / unit * pert
    true_error = _lifting_error(h, h[:, cols], dec.coeffs)
    h_norm = spectral_norm(h)
    if true_error <= DEGENERATE_ERROR_RTOL * h_norm:
        with pytest.raises(DegenerateError) as info:
            efficacy_study(snap(h), snap(low), rank=4, n_sub=6, trials=1, seed=0)
        assert str(info.value) == (
            f"true error {true_error:.3e} is at the noise floor of "
            f"||H|| = {h_norm:.3e}; efficacy ratios are meaningless")
    else:
        result = efficacy_study(snap(h), snap(low), rank=4, n_sub=6, trials=1,
                                seed=0)
        assert result.true_error == true_error


# --------------------------------------------------------------------------
# the true lifting error from the Gram side
# --------------------------------------------------------------------------

U = 2.0**-53


def assert_within_the_stated_error(got, r):
    """The kernel's accuracy: sigma_1(R) to a relative error of a few
    (m + sqrt(N)) u, with m <= N the sides of R."""
    ref = float(np.linalg.svd(r, compute_uv=False)[0])
    m, n = sorted(r.shape)
    assert abs(got - ref) <= 4.0 * (m + np.sqrt(n)) * U * ref, (got, ref)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 50), n=st.integers(1, 50),
       kind=st.sampled_from(["dense", "rank-one", "graded"]),
       scale=st.sampled_from([1.0, 1e-200, 1e200]))
@example(seed=0, m=3, n=10, kind="dense", scale=1.0)  # blocks of 3, 3, 3 and 1
@example(seed=1, m=40, n=101, kind="dense", scale=1e200)  # 40, 40 and 21
@example(seed=2, m=101, n=7, kind="graded", scale=1e-200)  # row blocks, m > N
def test_lifting_error_matches_the_svd(seed, m, n, kind, scale):
    rng = np.random.default_rng(seed)
    if kind == "rank-one":
        r = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    elif kind == "graded":
        r = rng.standard_normal((m, n)) * 10.0 ** -rng.uniform(0, 8, n)
    else:
        r = rng.standard_normal((m, n))
    r *= scale  # squares of either scale leave the double range
    got = _lifting_error(r, np.zeros((m, 1)), np.zeros((1, n)))
    assert_within_the_stated_error(got, r)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(2, 40))
def test_lifting_error_of_a_lift_matches_the_svd_of_its_residual(seed, m, n):
    rng = np.random.default_rng(seed)
    high = rng.standard_normal((m, n))
    cols = list(np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False)))
    coeffs = rng.standard_normal((len(cols), n))
    got = _lifting_error(high, high[:, cols], coeffs)
    assert_within_the_stated_error(got, high - high[:, cols] @ coeffs)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 40),
       below=st.floats(100.0, 300.0), big=st.sampled_from([1.0, 1e200]))
@example(seed=0, m=8, n=20, below=170.0, big=1.0)  # every square underflows
def test_lifting_error_far_below_max_h_has_the_stated_absolute_error(
        seed, m, n, below, big):
    """The scale is taken from max|H|: squares of a residual far below it
    are lost, within an absolute sqrt(m N) 2^-536 max|H|."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((m, n)) * (big * 10.0**-below)
    # a selected column of H at the scale of max|H|, reproduced exactly
    high = np.column_stack([np.full(m, big), r])
    coeffs = np.zeros((1, n + 1))
    coeffs[0, 0] = 1.0
    got = _lifting_error(high, high[:, :1], coeffs)
    ref = float(np.linalg.svd(r, compute_uv=False)[0])
    lo, hi = sorted((m, n + 1))
    assert abs(got - ref) <= (4.0 * (lo + np.sqrt(hi)) * U * ref
                              + np.sqrt(m * (n + 1)) * 2.0**-536 * big), (got, ref)
    if np.max(np.abs(r)) < 1e-162 * big:
        assert got == 0.0
    # either way the degenerate rule decides as the SVD would
    h_norm = float(np.linalg.svd(high, compute_uv=False)[0])
    assert (got <= DEGENERATE_ERROR_RTOL * h_norm) == (ref <= DEGENERATE_ERROR_RTOL * h_norm)


@pytest.mark.parametrize("m,n", [(1, 1), (3, 10), (10, 3), (40, 101)])
def test_lifting_error_of_an_exactly_zero_residual_is_zero(m, n):
    high = np.random.default_rng(m).standard_normal((m, n))
    for args in ((np.zeros((m, n)), np.zeros((m, 1)), np.zeros((1, n))),
                 (high, high, np.eye(n))):  # every column selected
        got = _lifting_error(*args)
        assert got == 0.0 and np.copysign(1.0, got) == 1.0


def test_lifting_error_that_overflows_is_a_nonfinite_input():
    high = np.full((3, 4), 1e308)
    with pytest.raises(NonFiniteInput, match="overflows"):
        _lifting_error(high, high[:, :1], np.full((1, 4), -1.0))  # H + H = inf


def test_lifting_error_never_forms_the_residual():
    rng = np.random.default_rng(3)
    high = rng.standard_normal((200, 2000))
    cols = list(range(0, 2000, 200))
    coeffs = rng.standard_normal((len(cols), 2000))
    tracemalloc.start()
    try:
        _lifting_error(high, high[:, cols], coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 200 x 200 blocks and the Gram; the residual alone is 3.2 MB
    assert peak <= 0.5 * high.nbytes, peak


# --------------------------------------------------------------------------
# pruned best-rho search
# --------------------------------------------------------------------------

GRID_KINDS = ("default", "log", "linear0", "linear", "single", "repeated", "late")


def grid_of(kind, rng):
    count = int(rng.integers(2, 300))
    if kind == "default":
        return default_tau_grid()
    if kind == "log":
        return tau_grid(10 ** rng.uniform(-6, 0), 10 ** rng.uniform(0, 6), count)
    if kind == "linear0":
        return tau_grid(0.0, 10 ** rng.uniform(-2, 6), count, "linear")
    if kind == "linear":
        return tau_grid(10 ** rng.uniform(-4, 0), 10 ** rng.uniform(0, 6), count,
                        "linear")
    if kind == "single":
        return np.array([0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-6, 6)])
    if kind == "repeated":
        base = np.concatenate(([0.0], tau_grid(1e-4, 1e4, count // 4 + 1)))
        return np.repeat(base, rng.integers(1, 6, base.size))
    # grids starting far out, where many or all cells are invalid
    return tau_grid(10 ** rng.uniform(-1, 5), 1e6, count)


def sweep_problem(seed, regime, dim_h, dim_l):
    """(pair, sigma, cl_norm, id_residual) of one efficacy-style trial."""
    rng = np.random.default_rng(seed)
    if regime == "reduced":
        n_sub = dim_h + dim_l + int(rng.integers(1, 20))
    else:
        n_sub = int(rng.integers(1, dim_h + dim_l + 1))
    n_total = n_sub + int(rng.integers(0, 20))
    low = rng.standard_normal((dim_l, n_total)) \
        * 10.0 ** -rng.uniform(0, 3, dim_l)[:, None]
    high = rng.standard_normal((dim_h, dim_l)) @ low \
        + 10.0 ** rng.uniform(-4, 0) * rng.standard_normal((dim_h, n_total))
    # ranks above n_sub are drawn too: the regime where the estimate under-shoots
    dec = build_id(low, rank=int(rng.integers(1, min(dim_l, n_total) + 1)))
    idx = np.sort(rng.choice(n_total, size=n_sub, replace=False))
    pair = GramianPair.from_snapshots(snap(high), snap(low), idx)
    return pair, singular_values(low), dec.coeff_norm(), dec.residual_norm


def assert_best_rho_is_the_sweep_minimum(pair, sigma, cl_norm, id_residual, grid):
    try:
        report = minimize_bound(pair, sigma, cl_norm, id_residual, grid)
    except AllCombinationsInvalid as exc:
        with pytest.raises(AllCombinationsInvalid) as info:
            _best_rho(pair, sigma, cl_norm, id_residual, grid)
        assert str(info.value) == str(exc)
        return
    best, ti, k = _best_rho(pair, sigma, cl_norm, id_residual, grid)
    assert np.float64(best).tobytes() == np.float64(report.best_rho).tobytes()
    # the full sweep takes the first of equal cells, and equal tau give equal cells
    assert ti == int(np.flatnonzero(grid == report.best_tau)[0])
    assert k == report.best_k


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(["full", "reduced"]),
       dim_h=st.integers(1, 24), dim_l=st.integers(1, 12),
       kind=st.sampled_from(GRID_KINDS))
def test_best_rho_equals_the_full_sweep(seed, regime, dim_h, dim_l, kind):
    pair, sigma, cl_norm, id_residual = sweep_problem(seed, regime, dim_h, dim_l)
    grid = grid_of(kind, np.random.default_rng(seed + 1))
    assert_best_rho_is_the_sweep_minimum(pair, sigma, cl_norm, id_residual, grid)


def test_best_rho_on_an_all_invalid_trial_raises_as_the_sweep():
    low = snap(np.eye(2))
    pair = GramianPair.from_columns(np.zeros((2, 1)), np.ones((2, 1)), n_total=2)
    grid = tau_grid(10.0, 1e3, 40)
    assert_best_rho_is_the_sweep_minimum(pair, singular_values(low.data), 1.0, 0.0,
                                         grid)
    with pytest.raises(AllCombinationsInvalid):
        _best_rho(pair, singular_values(low.data), 1.0, 0.0, grid)


@pytest.mark.parametrize("regime", ["full", "reduced"])
def test_best_rho_raises_nonfinite_as_the_sweep(regime):
    pair, _ = kernel_pair(regime)
    sigma = np.array([2.0, 1.0])
    grid = np.append(default_tau_grid(), 1e308)
    with pytest.raises(NonFiniteInput):
        minimize_bound(pair, sigma, 1.0, 0.1, grid)
    with pytest.raises(NonFiniteInput):
        _best_rho(pair, sigma, 1.0, 0.1, grid)


def test_best_rho_evaluates_a_fraction_of_the_default_grid(monkeypatch):
    """The efficacy regime: rank 10 of a diffusion ensemble, n = 40."""
    cfg = DiffusionConfig()
    high, low = diffusion_pair(draw_diffusion_samples(200, seed=5, cfg=cfg), cfg)
    dec = build_id(low, rank=10)
    sigma = singular_values(low.data)
    evaluated = []
    real = bound.epsilon_estimated
    monkeypatch.setattr(bound, "epsilon_estimated",
                        lambda pair, tau: evaluated.append(np.size(tau)) or real(pair, tau))
    rng = np.random.default_rng(0)
    counts = []
    for _ in range(10):
        idx = np.sort(rng.choice(200, size=40, replace=False))
        pair = GramianPair.from_snapshots(high, low, idx)
        evaluated.clear()
        _best_rho(pair, sigma, dec.coeff_norm(), dec.residual_norm, default_tau_grid())
        counts.append(sum(evaluated))
    assert np.median(counts) <= 50, counts


def eps_table(monkeypatch, grid, values):
    """Route eps through a table of the grid's values, as chunked calls do."""
    table = dict(zip(grid.tolist(), values))

    def fake(pair, tau):
        return np.array([table[t] for t in np.asarray(tau).tolist()])

    monkeypatch.setattr(bound, "epsilon_estimated", fake)


def test_best_rho_leaves_a_tie_with_the_bound_open(monkeypatch):
    """rho = sqrt(eps) falls to exactly 0 inside a first-pass gap: the gap's
    bound equals the best value, and only a strict comparison keeps the gap
    open to reach the first zero, where the full sweep's minimum is."""
    grid = np.linspace(0.0, 1.0, 3 * PRUNE_STRIDE)
    first_zero = PRUNE_STRIDE + 3
    eps_table(monkeypatch, grid, [1.0] * first_zero + [0.0] * (grid.size - first_zero))
    pair = GramianPair.from_columns(np.eye(2), np.eye(2), n_total=2)
    sigma = np.array([1.0])
    assert minimize_bound(pair, sigma, 0.0, 0.0, grid).best_tau == grid[first_zero]
    assert _best_rho(pair, sigma, 0.0, 0.0, grid) == (0.0, first_zero, 1)


def test_best_rho_slack_covers_a_rounding_dip(monkeypatch):
    """eps two ulps above 1 at the end of a first-pass gap and two ulps below
    inside it, as a rounded eigensolve can give: without the slack the gap's
    bound would exceed the best value 1 and the dip would be missed."""
    grid = np.linspace(0.0, 1.0, 3 * PRUNE_STRIDE)
    values = [1.0 + 2.0**-51] * grid.size
    values[PRUNE_STRIDE] = 1.0
    values[PRUNE_STRIDE + 5] = 1.0 - 2.0**-52
    eps_table(monkeypatch, grid, values)
    pair = GramianPair.from_columns(np.eye(2), np.eye(2), n_total=2)
    sigma = np.array([1.0])
    assert minimize_bound(pair, sigma, 0.0, 0.0, grid).best_tau == grid[PRUNE_STRIDE + 5]
    assert _best_rho(pair, sigma, 0.0, 0.0, grid) == (
        float(np.sqrt(1.0 - 2.0**-52)), PRUNE_STRIDE + 5, 1)


# --------------------------------------------------------------------------
# Gramian pair checks
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim_h,dim_l", [(5, 3), (3, 2)])  # n x n, reduced p x p
def test_from_columns_runs_no_eigensolve(monkeypatch, dim_h, dim_l):
    rng = np.random.default_rng(dim_h)
    hc, lc = rng.standard_normal((dim_h, 8)), rng.standard_normal((dim_l, 8))
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw: shapes.append(a.shape) or real(a, *args, **kw))
    pair = GramianPair.from_columns(hc, lc, n_total=16)
    assert shapes == []
    # n_sub is the column count, whatever the size of the pencil
    assert type(pair.n_sub) is int and pair.n_sub == 8
    assert np.float64(pair.c).tobytes() == np.float64(2.0).tobytes()


@pytest.mark.parametrize("n_total", [7, 16.9, np.nan, np.inf])
def test_n_total_must_be_a_whole_number_of_at_least_n_sub(n_total):
    cols = np.random.default_rng(2).standard_normal((3, 8))
    with pytest.raises(DimensionMismatch, match="^need 1 <= n_sub <= n_total"):
        GramianPair.from_columns(cols, cols, n_total=n_total)


# --------------------------------------------------------------------------
# the eps kernel against the former checked, symmetrising kernel
# --------------------------------------------------------------------------

BIG = np.finfo(np.float64).max


def laid_out(a, layout):
    """``a`` C-ordered, F-ordered, or strided: every other row and every third
    column of a larger buffer."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    buffer = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    buffer[::2, ::3] = a
    return buffer[::2, ::3]


def columns_problem(seed, regime, dim_h, dim_l, layout, cancelling):
    """(pair, grid, sigma) from sub-sampled columns in the given layout.

    A ``cancelling`` problem has max|Gh| + tau_max max|Gl| above half the
    largest double on its pencil while Gh - tau Gl stays below half of it at
    every tau of the grid: Hs stacks a multiple of Ls on rows of small noise,
    so the two Gramians cancel instead of adding, and eps and rho stay finite.
    """
    rng = np.random.default_rng(seed)
    rows_h = dim_h + (dim_l if cancelling else 0)
    p = rows_h + dim_l
    if regime == "reduced":
        n = p + int(rng.integers(1, 20))
    else:
        n = int(rng.integers(1, p + 1))
    # c multiplies eps, which reaches -max|Gh - tau Gl| on a cancelling pencil
    c_mult = 1 if cancelling else int(rng.integers(1, 4))
    low = rng.standard_normal((dim_l, n))
    if not cancelling:
        high = rng.standard_normal((dim_h, dim_l)) @ low \
            + 0.05 * rng.standard_normal((dim_h, n))
        pair = GramianPair.from_columns(laid_out(high, layout), laid_out(low, layout),
                                        n_total=c_mult * n)
        grid = np.concatenate(([0.0], np.sort(10.0 ** rng.uniform(-6, 6, 60))))
        return pair, grid, singular_values(low)
    high = np.vstack((low, 1e-3 * rng.standard_normal((dim_h, n))))
    # lambda_max of each pencil is that of its n x n Gramian, whatever the basis
    low *= np.sqrt(2.0 * p / np.linalg.eigvalsh(low.T @ low)[-1])
    high *= np.sqrt(0.1 * BIG) / np.sqrt(np.linalg.eigvalsh(high.T @ high)[-1])
    pair = GramianPair.from_columns(laid_out(high, layout), laid_out(low, layout),
                                    n_total=c_mult * n)
    ph, pl = pair.gh, pair.gl
    m_h, m_l = np.max(np.abs(ph)), np.max(np.abs(pl))
    tau_max = (0.5 * BIG - 0.5 * m_h) / m_l
    grid = np.concatenate(([0.0], tau_max * np.sort(10.0 ** -rng.uniform(0, 12, 60)),
                           [tau_max]))
    # sigma^2 balances tau sigma^2 against eps in the radicands
    lam = pair.c * np.linalg.eigvalsh(ph)[-1]
    sigma = np.full(dim_l, (lam / tau_max) ** 0.25)
    assert m_h + tau_max * m_l > 0.5 * BIG
    # entries are linear in tau: at both ends below half, below half between
    assert m_h < 0.5 * BIG and np.max(np.abs(ph - tau_max * pl)) < 0.5 * BIG
    return pair, grid, sigma


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(["full", "reduced"]),
       dim_h=st.integers(1, 10), dim_l=st.integers(1, 10),
       layout=st.sampled_from(["C", "F", "strided"]), cancelling=st.booleans())
def test_eps_kernel_is_bitwise_the_checked_symmetrising_kernel(
        seed, regime, dim_h, dim_l, layout, cancelling):
    pair, grid, sigma = columns_problem(seed, regime, dim_h, dim_l, layout, cancelling)
    for g in (pair.gh, pair.gl):
        assert np.array_equal(g, g.T)
        assert not g.flags.writeable
    eps = epsilon_estimated(pair, grid)
    oracle = eps_lambda_max_symmetric(pair.gh, pair.gl, pair.c, pair.n_sub, grid)
    assert eps.tobytes() == oracle.tobytes()
    assert np.all(np.isfinite(eps))
    assert_best_rho_is_the_sweep_minimum(pair, sigma, 1.0, 0.1, grid)


def test_gramian_above_half_the_largest_double_does_not_overflow():
    """The pencil goes to the eigensolver as it is: nothing forms an entry
    plus its mirror, which would overflow here."""
    pair = GramianPair.from_columns(np.diag([1e154, 1.0]), np.eye(2), n_total=2)
    big = pair.gh[0, 0]
    assert big > 0.5 * BIG
    assert epsilon_estimated(pair, np.array([0.0, 1.0, 1e6])).tolist() == [big] * 3


def test_eigensolver_failure_is_no_convergence(monkeypatch):
    pair, _ = kernel_pair("reduced")
    sigma = np.array([2.0, 1.0])

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match="^symmetric eigensolve failed: "):
        epsilon_estimated(pair, default_tau_grid())
    with pytest.raises(NoConvergence, match="^symmetric eigensolve failed: "):
        _best_rho(pair, sigma, 1.0, 0.1, default_tau_grid())


# --------------------------------------------------------------------------
# explicit lifting operator
# --------------------------------------------------------------------------

def test_lifting_oracle_identity_at_full_rank():
    high, low = wide_pair(17)
    u, s, vt = np.linalg.svd(low.data, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0]))
    t, e = lifting_oracle_T(high, low, rank)
    v_perp = vt.T[:, rank:]
    expected = high.data @ (v_perp @ v_perp.T)
    assert np.max(np.abs(e - expected)) <= 1e-9 * spectral_norm(high.data)


def test_lifting_oracle_inequalities():
    taus = np.concatenate(([0.0], 10.0 ** np.linspace(-4.0, 4.0, 19)))
    for seed in range(10):
        high, low = wide_pair(500 + seed)
        sigma = singular_values(low.data)
        rank = _numerical_rank(sigma)
        eps = [epsilon_exact(high, low, t) for t in taus]
        for k in range(1, rank + 1):
            t_mat, e_mat = lifting_oracle_T(high, low, k)
            e2 = spectral_norm(e_mat) ** 2
            t2 = spectral_norm(t_mat) ** 2
            skp1 = sigma_k(sigma, k + 1) if k < rank else 0.0
            for tau, e in zip(taus, eps):
                slack = 1e-9 * max(1.0, e2, t2)
                assert e2 <= tau * skp1**2 + e + slack
                assert t2 <= tau + e / sigma_k(sigma, k) ** 2 + slack


def test_lifting_oracle_k_out_of_range():
    high, low = wide_pair(18)
    with pytest.raises(KOutOfRange):
        lifting_oracle_T(high, low, 0)
    with pytest.raises(KOutOfRange):
        lifting_oracle_T(high, low, min(low.data.shape) + 1)


# --------------------------------------------------------------------------
# report CSV
# --------------------------------------------------------------------------

def test_write_bound_report_layout(tmp_path):
    high, low = wide_pair(19)
    dec = build_id(low, rank=2)
    pair = GramianPair.full(high, low)
    rep = minimize_bound(pair, singular_values(low.data), dec.coeff_norm(),
                         dec.residual_norm, np.array([0.0, 1.0, 10.0]))
    path = tmp_path / "report.csv"
    write_bound_report(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,tau,eps_hat,rho,valid"
    body = lines[1:-1]
    assert len(body) == rep.rank * 3
    ks = [int(row.split(",")[0]) for row in body]
    assert ks == sorted(ks)
    summary = lines[-1].split(",")
    assert summary[4] == "summary"
    assert int(summary[0]) == rep.best_k
    assert float(summary[1]) == rep.best_tau
    assert float(summary[3]) == rep.best_rho
    # every non-summary row round-trips
    for row in body:
        k, tau, eps_hat, rho_val, valid = row.split(",")
        assert valid in ("true", "false")
        i = int(np.flatnonzero(rep.tau_grid == float(tau))[0])
        assert float(eps_hat) == rep.eps_values[i]


@pytest.mark.parametrize("tau,shown", [(-1.0, "-1.0"), (float("nan"), "nan"),
                                       (float("inf"), "inf")])
def test_rho_and_eps_reject_a_bad_tau_with_one_message(tau, shown):
    sigma = np.array([2.0, 1.0])
    pair = GramianPair.full(from_array(np.eye(2)),
                            from_array(np.eye(2)))
    message = f"tau must be finite and >= 0, got {shown}"
    with pytest.raises(NegativeTau) as info:
        rho(1, tau, 0.0, sigma, 1.0, 0.0)
    assert str(info.value) == message
    with pytest.raises(NegativeTau) as info:
        epsilon_estimated(pair, np.array([0.0, tau]))
    assert str(info.value) == message
    with pytest.raises(NegativeTau) as info:
        minimize_bound(pair, sigma, 1.0, 0.0, np.array([0.0, tau]))
    assert str(info.value) == message
