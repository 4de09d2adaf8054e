import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifidelity.linalg as linalg
from bifidelity.errors import DimensionMismatch, NoConvergence, NonFiniteInput
from bifidelity.bound import GramianPair, _numerical_rank, minimize_bound
from bifidelity.interp import _solve_coefficient_block
from bifidelity.linalg import (
    _within_tol,
    pivoted_qr,
    singular_values,
    spectral_norm,
)

from bifidelity.interp import build_id
from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples

from oracles import (
    _symmetric_part,
    jacobi_eigvalsh,
    jacobi_svd_values,
    lambda_max_symmetric,
    qr_rank_by_norm,
    random_matrix_with_spectrum,
    rank_by_svd,
    sigma_k,
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
    with pytest.raises(DimensionMismatch, match=r"^rank 4 outside \[1, 3\]$"):
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), cols=st.integers(1, 30),
       power=st.integers(-900, 900))
def test_pivoted_qr_is_exact_under_power_of_two_scaling(seed, rows, cols, power):
    """A 2^power: the same pivots, Q and rank, and R scaled by 2^power bit
    for bit, in both modes; the entries stay normal at every such scale."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.0, (rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
    scaled = np.ldexp(a, power)
    rank = int(rng.integers(1, min(rows, cols) + 1))
    tol = float(np.linalg.norm(a, 2)) * 10.0 ** -rng.uniform(0.0, 3.0)
    for kwargs, scaled_kwargs in (({"rank": rank}, {"rank": rank}),
                                  ({"tol": tol}, {"tol": np.ldexp(tol, power)})):
        q, r, perm, k = pivoted_qr(a, **kwargs)
        q2, r2, perm2, k2 = pivoted_qr(scaled, **scaled_kwargs)
        assert (k2, perm2.tolist()) == (k, perm.tolist())
        assert q2.tobytes() == q.tobytes()
        assert r2.tobytes() == np.ldexp(r, power).tobytes()


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_build_id_far_from_unit_scale_selects_the_unit_scale_columns(scale):
    """Entries all below 1e-162 square to zero and entries above 1e154
    overflow, but the QR works at a power-of-two scale of the matrix."""
    g = np.random.default_rng(0).standard_normal((20, 30))
    sigma = np.linalg.svd(g, compute_uv=False)
    for kwargs, scaled_kwargs in (({"rank": 10}, {"rank": 10}),
                                  ({"tol": 1.01 * sigma[4]},
                                   {"tol": 1.01 * sigma[4] * scale})):
        unit = build_id(g, **kwargs)
        far = build_id(g * scale, **scaled_kwargs)
        assert far.selected == unit.selected
        assert far.residual_norm / scale == pytest.approx(unit.residual_norm, rel=1e-12)


def test_pivoted_qr_refuses_a_residual_whose_column_norms_underflow():
    """After pivoting on 1e300, the O(1) entries left are 1e300 below
    max|A|: every column norm is 0 though the block is not, so a further
    step would stop early on a residual that is not zero."""
    a = np.random.default_rng(0).standard_normal((3, 4))
    a[1, 2] = 1e300
    assert pivoted_qr(a, rank=1)[2][0] == 2
    with pytest.raises(NonFiniteInput, match="underflow after 1 steps"):
        pivoted_qr(a, rank=2)
    with pytest.raises(NonFiniteInput, match="underflow after 1 steps"):
        pivoted_qr(a, tol=1.0)


def test_tolerance_mode_stops_on_an_underflowing_residual_that_tol_covers():
    """The same matrix: max|A| < 2^997, so every entry of the 3 x 3 block
    left after one step is below 2^-537 2^997 and its 2-norm below
    sqrt(3 * 3) 2^460. A tol at that bound stops at rank 1, whose recomputed
    residual (about 1.9) meets it; a tol one ulp below, or 0, still raises."""
    a = np.random.default_rng(0).standard_normal((3, 4))
    a[1, 2] = 1e300
    bound = 3.0 * 2.0**460
    for tol in (bound, 1e299):
        _, r, perm, rank = pivoted_qr(a, tol=tol)
        assert rank == 1 and perm[0] == 2 and r.shape == (1, 4)
    dec = build_id(a, tol=1e299)
    assert dec.rank == 1 and dec.selected == (2,)
    assert 1.0 < dec.residual_norm < 3.0
    for tol in (np.nextafter(bound, 0.0), 0.0):
        with pytest.raises(NonFiniteInput, match="underflow after 1 steps"):
            pivoted_qr(a, tol=tol)


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
    s = singular_values(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_svd_rank_one_outer_product():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0])
    s = singular_values(np.outer(u, v))
    assert abs(s[0] - 6.0) <= 1e-12
    assert np.all(s[1:] <= 1e-12)


def test_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 6))
    s = singular_values(a)
    oracle = jacobi_svd_values(a)
    assert np.max(np.abs(s - oracle)) <= 1e-10 * oracle[0]


# --------------------------------------------------------------------------
# lambda_max / spectral norm
# --------------------------------------------------------------------------

# lambda_max_symmetric and _symmetric_part are the reference of the eps
# kernel's bitwise test (tests/oracles.py); these tests keep that reference
# honest.

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
    with pytest.raises(DimensionMismatch):
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
    with pytest.raises(DimensionMismatch):
        lambda_max_symmetric(np.ones((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
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
    assert spectral_norm(a) == pytest.approx(singular_values(a)[0], rel=1e-10)


def test_lambda_max_of_gramian_is_squared_norm():
    rng = np.random.default_rng(41)
    for trial in range(10):
        a = rng.standard_normal((6, 8))
        assert lambda_max_symmetric(a.T @ a) == pytest.approx(
            spectral_norm(a) ** 2, rel=1e-9
        )


# --------------------------------------------------------------------------
# singular values as minimize_bound takes them
# --------------------------------------------------------------------------

def test_spectrum_validation():
    """``minimize_bound`` checks a given spectrum once, at entry."""
    pair = GramianPair.from_columns(np.eye(2), np.eye(2), n_total=2)
    for sigma, error, message in [
        ([[2.0, 1.0]], DimensionMismatch, "spectrum must be a non-empty 1-D array"),
        ([], DimensionMismatch, "spectrum must be a non-empty 1-D array"),
        ([2.0, np.nan], NonFiniteInput, "spectrum contains NaN or Inf"),
        ([np.inf, 1.0], NonFiniteInput, "spectrum contains NaN or Inf"),
        ([1.0, -0.5], NonFiniteInput, "singular values must be non-negative"),
        ([1.0, 2.0], DimensionMismatch, "singular values must be non-increasing"),
    ]:
        with pytest.raises(error) as caught:
            minimize_bound(pair, np.array(sigma), 1.0, 0.0)
        assert str(caught.value) == message
    # a list is a spectrum as well
    assert minimize_bound(pair, [2.0, 1.0], 1.0, 0.0).rank == 2


def test_spectrum_accessors():
    s = np.array([4.0, 2.0, 1e-20])
    assert sigma_k(s, 1) == 4.0
    assert sigma_k(s, 4) == 0.0
    assert _numerical_rank(s) == 2
    assert _numerical_rank(np.zeros(3)) == 0


def test_singular_values_helper_matches_svd():
    """LAPACK's own array, read-only and not copied."""
    rng = np.random.default_rng(53)
    a = rng.standard_normal((7, 4))
    full = np.linalg.svd(a, full_matrices=False)[1]
    quick = singular_values(a)
    assert np.max(np.abs(full - quick)) <= 1e-13 * full[0]
    assert np.array_equal(quick, np.linalg.svd(a, compute_uv=False))
    assert quick.dtype == np.float64 and quick.shape == (4,)
    assert not quick.flags.writeable and quick.flags.owndata
    with pytest.raises(ValueError):
        quick[0] = 1.0


def test_kernels_deterministic():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((12, 9))
    assert np.array_equal(singular_values(a), singular_values(a))
    assert spectral_norm(a) == spectral_norm(a)
    sym = a[:9] + a[:9].T
    assert lambda_max_symmetric(sym) == lambda_max_symmetric(sym)
    r11 = np.triu(a[:9])
    assert np.array_equal(_solve_coefficient_block(r11, a[:9]),
                          _solve_coefficient_block(r11, a[:9]))


# --------------------------------------------------------------------------
# every LAPACK failure is NoConvergence
# --------------------------------------------------------------------------

def _is_lapack_call(node) -> bool:
    """An ``np.linalg.svd`` or ``np.linalg.eigvalsh`` call, or an
    ``np.linalg.norm(x, 2)``, which takes an SVD."""
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func)
    if name in ("np.linalg.svd", "np.linalg.eigvalsh"):
        return True
    ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
    return name == "np.linalg.norm" and any(ast.unparse(o) == "2" for o in ords)


def _maps_to_no_convergence(handler) -> bool:
    return (handler.type is not None
            and ast.unparse(handler.type) == "np.linalg.LinAlgError"
            and any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                    and ast.unparse(n.exc.func) == "NoConvergence"
                    for n in ast.walk(handler)))


def test_every_lapack_call_maps_its_failure_to_no_convergence():
    """Each SVD or eigensolve in the package sits in the body of a ``try``
    whose ``LinAlgError`` handler raises :class:`NoConvergence`, so a failed
    one is exit 3 on the CLI, not a traceback. The count pins the kernels:
    the SVD in ``linalg``, ``_gram_norm``'s eigensolve and
    ``epsilon_estimated``'s."""
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for call in filter(_is_lapack_call, ast.walk(tree)):
            found.append(f"{path.name}:{call.lineno}")
            node, guarded = call, False
            while node in parent and not guarded:
                node, child = parent[node], node
                guarded = (isinstance(node, ast.Try) and child in node.body
                           and any(map(_maps_to_no_convergence, node.handlers)))
            assert guarded, found[-1]
    assert len(found) == 3, found
