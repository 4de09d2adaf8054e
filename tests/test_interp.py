import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bifidelity.interp as interp
from bifidelity.errors import DimensionMismatch, ToleranceUnreachable
from bifidelity.interp import (
    ILL_CONDITION_LIMIT,
    InterpDecomposition,
    build_id,
)
from bifidelity.linalg import pivoted_qr, spectral_norm
from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples
from bifidelity.snapshots import SnapshotMatrix

from oracles import (from_array, id_by_rank_scan, qr_rank_by_norm,
                     random_matrix_with_spectrum, solve_coefficient_block)


def rank_one_beam_like(n_grid=64, n_samples=25, seed=0):
    """Every column is the same quartic shape times a sample coefficient."""
    xi = np.linspace(0.0, 1.0, n_grid)
    shape = xi**4 - 4.0 * xi**3 + 6.0 * xi**2
    coefs = np.random.default_rng(seed).uniform(0.5, 2.0, size=n_samples)
    return np.outer(shape, coefs)


def test_rank_one_matrix_fixed_rank_one():
    low = rank_one_beam_like()
    dec = build_id(low, rank=1)
    assert dec.rank == 1
    assert dec.residual_norm <= 1e-10 * spectral_norm(low)


def test_full_rank_is_exact():
    rng = np.random.default_rng(5)
    low = rng.standard_normal((9, 6))
    dec = build_id(low, rank=6)
    assert dec.residual_norm <= 1e-12 * spectral_norm(low)
    assert np.array_equal(dec.skeleton @ dec.coeffs, low)  # permuted identity is exact


def test_controlled_spectrum_rank_five():
    rng = np.random.default_rng(99)
    sigmas = 2.0 ** -np.arange(1, 21)
    low = random_matrix_with_spectrum(rng, 20, 50, sigmas)
    dec = build_id(low, rank=5)
    cap = np.sqrt(5 * (50 - 5) + 1) * sigmas[5]
    assert dec.residual_norm <= cap
    recomputed = spectral_norm(low - dec.skeleton @ dec.coeffs)
    assert abs(recomputed - dec.residual_norm) <= 1e-12 * max(1.0, recomputed)


def test_reconstruct_interpolates_selected_columns():
    rng = np.random.default_rng(2)
    low = rng.standard_normal((12, 18))
    dec = build_id(low, rank=4)
    rec = dec.skeleton @ dec.coeffs
    for j in dec.selected:
        assert np.max(np.abs(rec[:, j] - low[:, j])) <= 1e-12


def test_identity_block_exact():
    rng = np.random.default_rng(21)
    low = rng.standard_normal((10, 15))
    dec = build_id(low, rank=3)
    block = dec.coeffs[:, list(dec.selected)]
    assert np.array_equal(block, np.eye(3))


def test_lemma_bounds_hold_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(50):
        m = int(rng.integers(3, 14))
        n = int(rng.integers(3, 20))
        low = rng.standard_normal((m, n))
        r = int(rng.integers(1, min(m, n) + 1))
        dec = build_id(low, rank=r)
        cap = np.sqrt(r * (n - r) + 1)
        assert dec.coeff_norm() <= cap + 1e-9
        if r < min(m, n):
            s = np.linalg.svd(low, compute_uv=False)
            assert dec.residual_norm <= cap * s[r] + 1e-9 * s[0]


def test_residual_monotone_in_rank():
    rng = np.random.default_rng(8)
    low = rng.standard_normal((10, 16))
    residuals = [build_id(low, rank=r).residual_norm for r in range(1, 11)]
    for a, b in zip(residuals[:-1], residuals[1:]):
        assert b <= a + 1e-12 * max(1.0, a)


def test_tolerance_mode_picks_smallest_rank():
    rng = np.random.default_rng(13)
    sigmas = 4.0 ** -np.arange(8)
    low = random_matrix_with_spectrum(rng, 10, 14, sigmas)
    tol = 0.9 * np.sqrt(3 * (14 - 3) + 1) * sigmas[3]
    dec = build_id(low, tol=tol)
    assert dec.residual_norm <= tol
    smaller = build_id(low, rank=dec.rank - 1)
    assert smaller.residual_norm > tol


def test_tolerance_unreachable():
    rng = np.random.default_rng(29)
    low = rng.standard_normal((4, 9))  # rank 4 < n: fp residual floor > 0
    with pytest.raises(ToleranceUnreachable):
        build_id(low, tol=0.0)


def test_tolerance_zero_reachable_when_all_columns_selectable():
    rng = np.random.default_rng(31)
    low = rng.standard_normal((9, 4))
    dec = build_id(low, tol=0.0)
    assert dec.rank == 4
    assert dec.residual_norm == 0.0


def test_ill_conditioned_leading_block_uses_min_norm_solution():
    rng = np.random.default_rng(37)
    base = rng.standard_normal((8, 1))
    # two nearly parallel strong columns force a tiny second pivot
    tiny = 1e-12
    low = np.hstack([
        base,
        base * (1.0 + tiny) + tiny * rng.standard_normal((8, 1)),
        0.5 * base + 1e-13 * rng.standard_normal((8, 1)),
    ])
    dec = build_id(low, rank=2)
    r11 = np.linalg.svd(dec.skeleton, compute_uv=False)
    assert r11[0] / r11[-1] > ILL_CONDITION_LIMIT  # regime actually triggered
    assert np.all(np.isfinite(dec.coeffs))
    assert dec.residual_norm <= 1e-9 * spectral_norm(low)


def test_build_id_accepts_snapshot_matrix():
    rng = np.random.default_rng(41)
    snap = from_array(rng.standard_normal((6, 10)))
    dec = build_id(snap, rank=2)
    assert dec.n_samples == 10


def test_mode_arguments_are_exclusive():
    with pytest.raises(DimensionMismatch):
        build_id(np.eye(3), rank=1, tol=1e-3)
    with pytest.raises(DimensionMismatch):
        build_id(np.eye(3))


@pytest.mark.parametrize("kwargs,message", [
    ({"rank": 1, "tol": 1e-3}, "exactly one of rank= or tol= must be given"),
    ({}, "exactly one of rank= or tol= must be given"),
    ({"tol": -1.0}, "tolerance must be finite and >= 0, got -1.0"),
    ({"tol": float("nan")}, "tolerance must be finite and >= 0, got nan"),
])
def test_mode_arguments_are_checked_once_with_their_message(kwargs, message):
    with pytest.raises(DimensionMismatch) as info:
        build_id(np.eye(3), **kwargs)
    assert str(info.value) == message


def test_decomposition_validates_identity_block():
    with pytest.raises(DimensionMismatch):
        InterpDecomposition(
            selected=(0,),
            skeleton=np.ones((3, 1)),
            coeffs=np.array([[0.5, 1.0]]),
            residual_norm=0.0,
        )


def test_tolerance_zero_matrix_keeps_rank_zero():
    dec = build_id(np.zeros((4, 6)), tol=0.0)
    assert dec.rank == 0 and dec.residual_norm == 0.0
    assert dec.coeff_norm() == 0.0


def test_tolerance_at_norm_gives_rank_one():
    rng = np.random.default_rng(43)
    low = rng.standard_normal((5, 8))
    dec = build_id(low, tol=2.0 * spectral_norm(low))
    assert dec.rank == 1  # never the empty decomposition of a nonzero matrix
    fixed = build_id(low, rank=1)
    assert dec.selected == fixed.selected
    assert np.array_equal(dec.coeffs, fixed.coeffs)


def test_tolerance_mode_steps_on_when_the_qr_stops_early(monkeypatch):
    """A QR that stops below the admissible rank (its trailing norm and the
    recomputed residual on two sides of tol) is stepped on rank by rank."""
    rng = np.random.default_rng(13)
    low = random_matrix_with_spectrum(rng, 10, 14, 4.0 ** -np.arange(8))
    tol = 0.9 * np.sqrt(3 * (14 - 3) + 1) * 4.0**-3
    expected = build_id(low, tol=tol)
    assert expected.rank > 1
    qr = interp.pivoted_qr
    monkeypatch.setattr(interp, "pivoted_qr", lambda a, rank=None, tol=None:
                        qr(a, rank=1 if rank is None else rank))
    dec = build_id(low, tol=tol)
    assert dec.rank == expected.rank and dec.selected == expected.selected
    assert np.array_equal(dec.coeffs, expected.coeffs)


def test_tolerance_unreachable_names_last_residual():
    rng = np.random.default_rng(29)
    low = rng.standard_normal((4, 9))
    with pytest.raises(ToleranceUnreachable, match=r"at rank 4$"):
        build_id(low, tol=0.0)


# --------------------------------------------------------------------------
# tolerance mode against the rank-by-rank references (property tests)
# --------------------------------------------------------------------------

TOL_KINDS = ("zero", "roundoff", "mid", "norm", "above")


@st.composite
def tolerance_problems(draw):
    """(kind, L, tol name, tol): tall or wide L of one of three kinds.

    ``full`` has min(m, n) distinct singular values from {1, 10^-0.25, ...,
    10^-6}; ``deficient`` the same with fewer values than min(m, n);
    ``duplicate`` repeats columns of a smaller Gaussian base. The spacing
    keeps tol = sqrt(s_i s_(i+1)) and tol = ||L|| clear of every residual
    by more than rounding error.
    """
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("full", "deficient", "duplicate")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "duplicate":
        base = rng.standard_normal((m, draw(st.integers(1, n))))
        cols = draw(st.lists(st.integers(0, base.shape[1] - 1), min_size=n, max_size=n))
        low = base[:, cols]
    else:
        count = min(m, n)
        if kind == "deficient":
            count = draw(st.integers(1, max(1, count - 1)))
        steps = draw(st.lists(st.integers(0, 24), min_size=count, max_size=count,
                              unique=True))
        sigmas = 10.0 ** (-0.25 * np.sort(steps))
        low = random_matrix_with_spectrum(rng, m, n, sigmas)
    s = np.linalg.svd(low, compute_uv=False)
    nonzero = s[s > 1e-10 * s[0]]
    i = (nonzero.size - 1) // 2
    mid = np.sqrt(nonzero[i] * nonzero[i + 1]) if nonzero.size > 1 else 0.5 * s[0]
    norm = spectral_norm(low)
    name = draw(st.sampled_from(TOL_KINDS))
    tol = {"zero": 0.0, "roundoff": 1e-16 * norm, "mid": mid, "norm": norm,
           "above": 1.5 * norm}[name]
    return kind, low, name, tol


def _outcome(low, tol, build):
    try:
        return build(low, tol)
    except ToleranceUnreachable:
        return None


@settings(max_examples=300, deadline=None)
@given(tolerance_problems())
def test_tolerance_mode_matches_rank_scan(problem):
    """Same rank and selection as the full-rank scan, or both unreachable.

    Below eps * ||L|| on a rank-deficient matrix the residuals past its rank
    are rounding error; which of them first meets tol depends on the
    rounding of R12, which later reorthogonalisation passes of a full-rank
    factorisation change. There only the contract itself is checked: the
    residual meets tol, and the rank is at least the numerical rank.
    """
    kind, low, name, tol = problem
    got = _outcome(low, tol, lambda a, t: build_id(a, tol=t))
    if kind != "full" and name in ("zero", "roundoff"):
        if got is not None:
            assert 1 <= got.rank and got.residual_norm <= tol
            s = np.linalg.svd(low, compute_uv=False)
            assert got.rank >= np.count_nonzero(s > 1e-10 * s[0])
        return
    ref = _outcome(low, tol, id_by_rank_scan)
    assert (got is None) == (ref is None)
    if got is not None:
        assert (got.rank, got.selected) == (ref.rank, ref.selected)


@settings(max_examples=300, deadline=None)
@given(tolerance_problems())
def test_tolerance_mode_equals_fixed_rank_bitwise(problem):
    _, low, _, tol = problem
    got = _outcome(low, tol, lambda a, t: build_id(a, tol=t))
    if got is None:
        return
    assert got.residual_norm <= tol
    fixed = build_id(low, rank=got.rank)
    assert got.selected == fixed.selected
    assert np.array_equal(got.coeffs, fixed.coeffs)
    assert np.array_equal(got.skeleton, fixed.skeleton)
    assert got.residual_norm == fixed.residual_norm


@settings(max_examples=300, deadline=None)
@given(tolerance_problems())
def test_pivoted_qr_tolerance_rank_matches_norm_per_step(problem):
    _, low, _, tol = problem
    assert pivoted_qr(low, tol=tol)[3] == qr_rank_by_norm(low, tol)


# --------------------------------------------------------------------------
# the coefficient solve against scipy's triangular solve (the test oracle)
# --------------------------------------------------------------------------

def _leading_factors(low, rank):
    _, r, _, rank = pivoted_qr(low, rank=rank)
    return r[:rank, :rank], r[:rank, rank:]


def _condition(r11):
    s = np.linalg.svd(r11, compute_uv=False)
    return np.inf if s[-1] == 0.0 else s[0] / s[-1]


@st.composite
def well_conditioned_factors(draw):
    """(R11, R12) of a tall or wide matrix with a geometric spectrum, cut at
    a rank whose R11 stays well conditioned and whose R12 has >= 2 columns."""
    m = draw(st.integers(2, 60))
    n = draw(st.integers(3, 120))
    ratio = draw(st.floats(0.2, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = random_matrix_with_spectrum(rng, m, n, ratio ** np.arange(min(m, n)))
    # s_1 / s_rank = ratio^(1 - rank) stays below 1e6
    top = 1 + int(np.log(1e-6) / np.log(ratio))
    return _leading_factors(low, draw(st.integers(1, min(m, n - 2, top))))


@settings(max_examples=300, deadline=None)
@given(well_conditioned_factors())
def test_coefficient_block_equals_triangular_solve_bitwise(factors):
    r11, r12 = factors
    assume(_condition(r11) <= ILL_CONDITION_LIMIT)
    z = interp._solve_coefficient_block(r11, r12)
    assert z.tobytes() == scipy.linalg.solve_triangular(r11, r12).tobytes()


@st.composite
def triangular_factors(draw):
    """An upper-triangular R11 of size 1 to 29 whose condition number is
    10^0 to 10^14, or which is exactly singular with trailing zero rows, and
    an R12 of 1 to 40 columns."""
    r = draw(st.integers(1, 29))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = 10.0 ** draw(st.floats(0.0, 14.0))
    r11 = np.linalg.qr(random_matrix_with_spectrum(
        rng, r, r, cond ** -np.linspace(0.0, 1.0, r)))[1]
    if r > 1 and draw(st.booleans()):
        r11[draw(st.integers(1, r - 1)):] = 0.0
    return r11, rng.standard_normal((r, draw(st.integers(1, 40))))


@settings(max_examples=300, deadline=None)
@given(triangular_factors())
def test_coefficient_block_equals_the_two_svd_reference_bytewise(factors):
    """One SVD of R11 decides the path and gives the minimum-norm solve, as
    the former condition SVD and pseudo-inverse SVD did."""
    r11, r12 = factors
    z = interp._solve_coefficient_block(r11, r12)
    assert z.tobytes() == solve_coefficient_block(r11, r12).tobytes()


@pytest.mark.parametrize("mesh,rank", [(16, 10), (256, 22), (256, 23)])
def test_coefficient_solve_bitwise_on_benchmark_shapes(mesh, rank):
    """16 x 2000 and 256 x 2000 diffusion ensembles; at ranks 22 and 23 R11
    is ill conditioned, so build_id takes the pseudo-inverse there."""
    cfg = DiffusionConfig(mesh_low=mesh, mesh_high=mesh)
    _, low = diffusion_pair(draw_diffusion_samples(2000, seed=1, cfg=cfg), cfg)
    r11, r12 = _leading_factors(low.data, rank)
    expected = scipy.linalg.solve_triangular(r11, r12)
    assert np.linalg.solve(r11, r12).tobytes() == expected.tobytes()
    z = interp._solve_coefficient_block(r11, r12)
    assert z.tobytes() == solve_coefficient_block(r11, r12).tobytes()
    if _condition(r11) <= ILL_CONDITION_LIMIT:
        assert z.tobytes() == expected.tobytes()


def test_one_column_coefficient_block_agrees_to_rounding():
    """At rank n - 1 R12 is one column: numpy's solve and scipy's transposed
    triangular solve use different single-vector kernels and may differ in
    the last bits, by far less than cond(R11) * eps."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = int(rng.integers(3, 40)), int(rng.integers(3, 40))
        if n - 1 > m:
            continue
        low = random_matrix_with_spectrum(rng, m, n, 0.6 ** np.arange(min(m, n)))
        r11, r12 = _leading_factors(low, n - 1)
        cond = _condition(r11)
        if cond > ILL_CONDITION_LIMIT:
            continue
        z = interp._solve_coefficient_block(r11, r12)
        expected = scipy.linalg.solve_triangular(r11, r12)
        assert np.max(np.abs(z - expected)) <= 1e-15 * cond * np.max(np.abs(expected))
