import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifidelity.linalg as linalg
from bifidelity.errors import (
    NoConvergence,
    NonFiniteInput,
    NotSquare,
    RankExceedsDims,
)
from bifidelity.linalg import (
    SingularSpectrum,
    _within_tol,
    _symmetric_part,
    lambda_max_symmetric,
    pivoted_qr,
    pseudo_inverse,
    singular_values,
    spectral_norm,
    svd,
)

from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples

from oracles import (
    jacobi_eigvalsh,
    jacobi_svd_values,
    qr_rank_by_norm,
    random_matrix_with_spectrum,
    rank_by_svd,
)


# --------------------------------------------------------------------------
# pivoted QR
# --------------------------------------------------------------------------

def test_pivoted_qr_identity():
    q, r, perm, rank = pivoted_qr(np.eye(3), rank=3)
    assert rank == 3
    assert np.allclose(q, np.eye(3))
    assert np.allclose(r, np.eye(3))
    assert list(perm) == [0, 1, 2]


def test_pivoted_qr_duplicated_column():
    a = np.array([[1.0], [2.0], [-0.5]])
    dup = np.hstack([a, a])
    _, _, _, rank = pivoted_qr(dup, tol=1e-12)
    assert rank == 1


def test_pivoted_qr_exact_rank_three():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 12))
    norm = spectral_norm(a)
    q, r, perm, rank = pivoted_qr(a, tol=1e-10 * norm)
    assert rank == rank_by_svd(a) == 3
    p = np.eye(12)[:, perm]
    assert np.linalg.norm(a @ p - q @ r, 2) <= 1e-10 * norm


def test_pivoted_qr_orthonormality_and_residual():
    rng = np.random.default_rng(7)
    for trial in range(20):
        m, n = rng.integers(2, 30, size=2)
        a = rng.standard_normal((m, n))
        k = int(rng.integers(1, min(m, n) + 1))
        q, r, perm, rank = pivoted_qr(a, rank=k)
        assert rank == k
        assert np.max(np.abs(q.T @ q - np.eye(rank))) <= 1e-12 * n
        # triangularity of the leading block
        assert np.allclose(np.tril(r[:, :rank], -1), 0.0)


def test_pivoted_qr_tolerance_minimality():
    rng = np.random.default_rng(3)
    for trial in range(10):
        a = rng.standard_normal((6, 9))
        tol = 0.3 * spectral_norm(a)
        q, r, perm, rank = pivoted_qr(a, tol=tol)
        p = np.eye(9)[:, perm]
        assert np.linalg.norm(a @ p - q @ r, 2) <= tol
        if rank > 1:
            q1, r1, perm1, _ = pivoted_qr(a, rank=rank - 1)
            p1 = np.eye(9)[:, perm1]
            assert np.linalg.norm(a @ p1 - q1 @ r1, 2) > tol


def test_pivoted_qr_rejects_bad_rank():
    with pytest.raises(RankExceedsDims):
        pivoted_qr(np.eye(3), rank=4)


def test_pivoted_qr_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteInput):
        pivoted_qr(bad, rank=1)


def test_pivoted_qr_deterministic():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10, 14))
    first = pivoted_qr(a, rank=6)
    second = pivoted_qr(a, rank=6)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(first[2], second[2])


# --------------------------------------------------------------------------
# the tolerance decision: column norms, then the Gram side, then the SVD
# --------------------------------------------------------------------------

U = 2.0**-53


def in_band(g, tol, m, n):
    """Whether the Gram-side norm g of an m x n block (m <= n) is within the
    band 16 (m + sqrt(n)) u tol around tol, where only the SVD decides."""
    return abs(g - tol) <= 16.0 * (m + np.sqrt(n)) * U * tol


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 60), cols=st.integers(1, 60),
       d=st.sampled_from([sign * d for sign in (1.0, -1.0)
                          for d in (1e-15, 1e-13, 1e-11, 1e-9)]),
       exponent=st.floats(-150.0, 150.0), top=st.integers(1, 3))
def test_within_tol_decides_as_the_svd(seed, rows, cols, d, exponent, top):
    """Tall and wide blocks with sigma_1 = tol (1 + d), at magnitudes from
    1e-150 to 1e150: the decision is that of the SVD of the block. The
    leading `top` singular values are equal and the rest spread below, so
    the column norms leave most of these blocks open."""
    rng = np.random.default_rng(seed)
    tol = 10.0**exponent
    sigmas = np.sort(rng.uniform(0.0, 1.0, min(rows, cols)))[::-1]
    sigmas[:top] = 1.0
    block = random_matrix_with_spectrum(rng, rows, cols, tol * (1.0 + d) * sigmas)
    norms = np.linalg.norm(block, axis=0)
    svd_norm = np.linalg.norm(block, 2)
    assert _within_tol(block, norms, tol) == (svd_norm <= tol)
    # a tol at the SVD's own sigma_1, or one ulp below it, is decided as the SVD
    assert _within_tol(block, norms, svd_norm)
    assert not _within_tol(block, norms, np.nextafter(svd_norm, 0.0))


def test_within_tol_decides_as_the_svd_where_the_frobenius_norm_overflows():
    """Column norms near 1e153 over 2000 columns: the Frobenius bound is
    infinite and decides nothing, and the scaled Gram does not overflow
    (each unscaled row square sum is about 5e308)."""
    rng = np.random.default_rng(0)
    block = rng.choice([-1.0, 1.0], (4, 2000)) * rng.uniform(0.9, 1.0, (4, 2000))
    block *= 1e153 / np.linalg.norm(block, axis=0).max()
    norms = np.linalg.norm(block, axis=0)
    svd_norm = np.linalg.norm(block, 2)
    for tol in (svd_norm * (1.0 - 1e-9), np.nextafter(svd_norm, 0.0), svd_norm,
                svd_norm * (1.0 + 1e-9)):
        assert _within_tol(block, norms, tol) == (svd_norm <= tol)
    assert pivoted_qr(block, tol=svd_norm)[3] == 0


def test_within_tol_runs_the_svd_only_inside_the_band(monkeypatch):
    """pivoted_qr on a 64 x 600 diffusion ensemble at tol = 1e-11 sigma_1:
    the Gram side settles the steps the column norms leave open, and the SVD
    of the trailing block runs only where the Gram-side norm is in the band."""
    cfg = DiffusionConfig(mesh_low=64, mesh_high=64)
    _, low = diffusion_pair(draw_diffusion_samples(600, seed=1, cfg=cfg), cfg)
    tol = 1e-11 * spectral_norm(low.data)
    gram_in_band, svd_shapes = [], []
    gram_norm, norm = linalg._gram_norm, np.linalg.norm

    def recording_gram_norm(block, m, n, e, name):
        g = gram_norm(block, m, n, e, name)
        gram_in_band.append(in_band(g, tol, m, n))
        return g

    def recording_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svd_shapes.append(x.shape)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(linalg, "_gram_norm", recording_gram_norm)
    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    rank = pivoted_qr(low.data, tol=tol)[3]
    monkeypatch.undo()
    assert rank == qr_rank_by_norm(low.data, tol)
    assert gram_in_band  # the column norms left steps open
    assert len(svd_shapes) == sum(gram_in_band)


def test_within_tol_accumulates_the_gram_in_blocks():
    """A 256 x 2000 block that its column norms leave open is settled
    holding a few 256 x 256 arrays, never a copy of the block."""
    block = np.random.default_rng(5).standard_normal((256, 2000))
    norms = np.linalg.norm(block, axis=0)
    tol = np.linalg.norm(block, 2) / 1.01
    assert norms.max() < tol < np.linalg.norm(norms)
    tracemalloc.start()
    try:
        assert not _within_tol(block, norms, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * block.nbytes, peak


# --------------------------------------------------------------------------
# SVD
# --------------------------------------------------------------------------

def test_svd_diagonal():
    _, s, _ = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s.values, [3.0, 2.0, 1.0])


def test_svd_rank_one_outer_product():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0])
    _, s, _ = svd(np.outer(u, v))
    assert abs(s.values[0] - 6.0) <= 1e-12
    assert np.all(s.values[1:] <= 1e-12)


def test_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 6))
    _, s, _ = svd(a)
    oracle = jacobi_svd_values(a)
    assert np.max(np.abs(s.values - oracle)) <= 1e-10 * oracle[0]


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((9, 5))
    u, s, v = svd(a)
    sigma1 = s.values[0]
    assert np.linalg.norm(a - (u * s.values) @ v.T, 2) <= 1e-12 * 9 * sigma1
    assert np.max(np.abs(u.T @ u - np.eye(5))) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(5))) <= 1e-12


# --------------------------------------------------------------------------
# lambda_max / spectral norm
# --------------------------------------------------------------------------

def test_lambda_max_negative_diagonal():
    assert lambda_max_symmetric(np.diag([-1.0, -5.0])) == pytest.approx(-1.0)


def test_lambda_max_known_eigenpair():
    assert lambda_max_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)


def test_lambda_max_matches_jacobi_oracle():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((10, 10))
    sym = 0.5 * (a + a.T)
    lam = lambda_max_symmetric(sym)
    oracle = jacobi_eigvalsh(sym)[-1]
    assert abs(lam - oracle) <= 1e-10 * max(abs(oracle), 1.0)


def test_lambda_max_above_half_the_largest_double():
    assert lambda_max_symmetric(np.array([[1e308, 0.0], [0.0, 1.0]])) == 1e308


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_symmetric_part_is_the_plain_formula_in_the_normal_range(seed, n):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((3, n, n)) * 10.0 ** rng.integers(-300, 300, (3, n, n))
    s[0] = s[0] + s[0].T  # exactly symmetric, entry by entry
    expected = 0.5 * (s + np.swapaxes(s, -1, -2))
    assert _symmetric_part(s).tobytes() == expected.tobytes()


def test_lambda_max_rejects_rectangular():
    with pytest.raises(NotSquare):
        lambda_max_symmetric(np.ones((2, 3)))


def test_lambda_max_on_stacks():
    rng = np.random.default_rng(41)
    stack = rng.standard_normal((3, 4, 6, 6))
    lam = lambda_max_symmetric(stack)
    assert lam.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert lam[i, j] == lambda_max_symmetric(stack[i, j])
    assert isinstance(lambda_max_symmetric(stack[0, 0]), float)
    assert lambda_max_symmetric(np.zeros((0, 5, 5))).shape == (0,)
    with pytest.raises(NotSquare):
        lambda_max_symmetric(np.ones((2, 3, 4)))
    with pytest.raises(NotSquare):
        lambda_max_symmetric(np.ones(3))
    bad = stack.copy()
    bad[2, 1, 0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        lambda_max_symmetric(bad)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 2))) == 0.0


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([1.0, -4.0])) == pytest.approx(4.0)


def test_spectral_norm_equals_top_singular_value():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((5, 7))
    _, s, _ = svd(a)
    assert spectral_norm(a) == pytest.approx(s.values[0], rel=1e-10)


def test_lambda_max_of_gramian_is_squared_norm():
    rng = np.random.default_rng(41)
    for trial in range(10):
        a = rng.standard_normal((6, 8))
        assert lambda_max_symmetric(a.T @ a) == pytest.approx(
            spectral_norm(a) ** 2, rel=1e-9
        )


# --------------------------------------------------------------------------
# pseudo-inverse
# --------------------------------------------------------------------------

def test_pseudo_inverse_diagonal_with_zero():
    p = pseudo_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(p, np.diag([0.5, 0.0]))


def test_pseudo_inverse_orthogonal():
    rng = np.random.default_rng(43)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert np.max(np.abs(pseudo_inverse(q) - q.T)) <= 1e-12


def test_pseudo_inverse_penrose_residuals():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    p = pseudo_inverse(a)
    scale = np.linalg.norm(p, 2)
    assert np.linalg.norm(a @ p @ a - a, 2) <= 1e-9 * scale
    assert np.linalg.norm(p @ a @ p - p, 2) <= 1e-9 * scale
    assert np.max(np.abs((a @ p) - (a @ p).T)) <= 1e-9 * scale
    assert np.max(np.abs((p @ a) - (p @ a).T)) <= 1e-9 * scale


# --------------------------------------------------------------------------
# SingularSpectrum type
# --------------------------------------------------------------------------

def test_spectrum_validation():
    with pytest.raises(Exception):
        SingularSpectrum(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(Exception):
        SingularSpectrum(np.array([1.0, -0.5]))  # negative


def test_spectrum_accessors():
    s = SingularSpectrum(np.array([4.0, 2.0, 1e-20]))
    assert s.sigma(1) == 4.0
    assert s.sigma(4) == 0.0
    assert s.numerical_rank() == 2
    assert len(s) == 3


def test_singular_values_helper_matches_svd():
    rng = np.random.default_rng(53)
    a = rng.standard_normal((7, 4))
    full = svd(a)[1].values
    quick = singular_values(a).values
    assert np.max(np.abs(full - quick)) <= 1e-13 * full[0]


def test_kernels_deterministic():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((12, 9))
    assert np.array_equal(svd(a)[1].values, svd(a)[1].values)
    assert spectral_norm(a) == spectral_norm(a)
    sym = a[:9] + a[:9].T
    assert lambda_max_symmetric(sym) == lambda_max_symmetric(sym)
    assert np.array_equal(pseudo_inverse(a), pseudo_inverse(a))
