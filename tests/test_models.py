import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifidelity.errors import DimensionMismatch, NumericalError, OutOfBounds
from bifidelity.interp import build_id
from bifidelity.models import (
    SOLVE_BLOCK,
    BeamConfig,
    DiffusionConfig,
    beam_pair,
    diffusion_pair,
    draw_beam_samples,
    draw_diffusion_samples,
    _solve_flux,
)

from oracles import beam_pair_per_sample, diffusion_flux_banded, section_inertia_quadrature

NOMINAL = np.array([[10.0, 1.0e6, 1.0e6, 1.0e4]])


# --------------------------------------------------------------------------
# beam low-fidelity
# --------------------------------------------------------------------------

def test_beam_lofi_cantilever_root():
    u = beam_pair(NOMINAL, BeamConfig())[1].data[:, 0]
    assert u[0] == 0.0
    # zero slope at the root: the quartic starts quadratically
    assert abs(u[1]) <= 2e-4 * abs(u[-1])


def test_beam_lofi_tip_value_against_quadrature_inertia():
    cfg = BeamConfig()
    u = beam_pair(NOMINAL, cfg)[1].data[:, 0]
    q, e1, e2, e3 = NOMINAL[0]
    inertia = section_inertia_quadrature(e1, e2, e3, cfg)
    expected_tip = -q * cfg.length**4 / (8.0 * e3 * inertia)
    assert u[-1] == pytest.approx(expected_tip, rel=1e-12)


def test_beam_lofi_out_of_bounds():
    bad = np.array([NOMINAL[0], [20.0, 1.0e6, 1.0e6, 1.0e4]])
    with pytest.raises(OutOfBounds,
                       match=r"^sample beam-0001: q=20.0 outside \[9.0, 11.0\]$"):
        beam_pair(bad, BeamConfig())
    bad[1] = [10.0, np.nan, 1.0e6, 1.0e4]
    with pytest.raises(OutOfBounds, match=r"^sample beam-0001: E1=nan outside"):
        beam_pair(bad, BeamConfig())


def test_beam_snapshots_are_rank_one():
    cfg = BeamConfig()
    samples = draw_beam_samples(100, seed=7)
    _, low = beam_pair(samples, cfg)
    s = np.linalg.svd(low.data, compute_uv=False)
    assert s[1] / s[0] <= 1e-12


# --------------------------------------------------------------------------
# beam high-fidelity substitute
# --------------------------------------------------------------------------

def test_hifi_tip_magnitude_exceeds_lofi():
    high, low = beam_pair(draw_beam_samples(100, seed=3), BeamConfig())
    assert np.all(np.abs(high.data[-1]) > np.abs(low.data[-1]))


def test_rank_one_lift_beats_lofi_on_ensemble():
    cfg = BeamConfig()
    samples = draw_beam_samples(100, seed=7)
    high, low = beam_pair(samples, cfg)
    dec = build_id(low, rank=1)
    estimate = high.data[:, list(dec.selected)] @ dec.coeffs
    h_norms = np.linalg.norm(high.data, axis=0)
    lofi_err = np.linalg.norm(high.data - low.data, axis=0) / h_norms
    bifi_err = np.linalg.norm(high.data - estimate, axis=0) / h_norms
    assert np.mean(bifi_err < lofi_err) >= 0.95


def test_beam_pair_deterministic():
    cfg = BeamConfig()
    samples = draw_beam_samples(20, seed=5)
    h1, l1 = beam_pair(samples, cfg)
    h2, l2 = beam_pair(draw_beam_samples(20, seed=5), cfg)
    assert np.array_equal(h1.data, h2.data)
    assert np.array_equal(l1.data, l2.data)
    assert h1.sample_ids == h2.sample_ids


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), n_grid=st.integers(2, 200))
@example(n=3000, seed=1, n_grid=128)
def test_beam_pair_equals_per_sample_code_bitwise(n, seed, n_grid):
    """The array code gives the former scalar code's bits; at 3000 samples
    of seed 1 two columns tell libm pow from numpy's square."""
    cfg = BeamConfig(n_grid=n_grid)
    samples = draw_beam_samples(n, seed=seed)
    high, low = beam_pair(samples, cfg)
    ref_high, ref_low = beam_pair_per_sample(samples, cfg)
    assert high.data.tobytes() == ref_high.tobytes()
    assert low.data.tobytes() == ref_low.tobytes()
    assert high.sample_ids == low.sample_ids == tuple(f"beam-{i:04d}" for i in range(n))


MODELS = {"beam": (beam_pair, BeamConfig()), "diffusion": (diffusion_pair, DiffusionConfig())}


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("shape", [(4,), (0, 4), (0, 5), (2, 3), (2, 6), (1, 2, 4)])
def test_inputs_of_the_wrong_shape_are_a_dimension_mismatch(model, shape):
    pair, cfg = MODELS[model]
    with pytest.raises(DimensionMismatch, match="input array with n >= 1"):
        pair(np.zeros(shape), cfg)


# --------------------------------------------------------------------------
# diffusion pair
# --------------------------------------------------------------------------

def test_diffusion_constant_coefficient_matches_analytic_flux():
    cfg = DiffusionConfig(mesh_low=16, mesh_high=64)
    flat = np.zeros((1, cfg.d_params))
    high, low = diffusion_pair(flat, cfg)
    for snapshot, n in ((low, 16), (high, 64)):
        x = np.linspace(0.0, 1.0, n)
        exact = 0.5 * (1.0 - 2.0 * x)
        assert np.max(np.abs(snapshot.data[:, 0] - exact)) <= 1e-12


def test_diffusion_equal_meshes_coincide():
    cfg = DiffusionConfig(mesh_low=32, mesh_high=32)
    samples = draw_diffusion_samples(5, seed=1, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)
    assert np.array_equal(high.data, low.data)


def test_diffusion_low_rank_spectra():
    cfg = DiffusionConfig()
    samples = draw_diffusion_samples(200, seed=3, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)
    sl = np.linalg.svd(low.data, compute_uv=False)
    sh = np.linalg.svd(high.data, compute_uv=False)
    # decay thresholds measured at build time for the default field
    assert np.all(sl[15:] / sl[0] < 1e-5)
    assert np.all(sh[15:] / sh[0] < 1e-6)


def test_diffusion_mesh_convergence():
    fine = 256
    samples = draw_diffusion_samples(4, seed=9, cfg=DiffusionConfig())
    x_fine = np.linspace(0.0, 1.0, fine)
    errors = []
    for coarse in (16, 32, 64, 128):
        cfg = DiffusionConfig(mesh_low=coarse, mesh_high=fine)
        high, low = diffusion_pair(samples, cfg)
        x_coarse = np.linspace(0.0, 1.0, coarse)
        err = 0.0
        for j in range(low.n_samples):
            lifted = np.interp(x_fine, x_coarse, low.data[:, j])
            err = max(err, np.linalg.norm(lifted - high.data[:, j]))
        errors.append(err)
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_diffusion_out_of_bounds():
    cfg = DiffusionConfig()
    bad = np.full((1, cfg.d_params), 1.5)
    with pytest.raises(OutOfBounds,
                       match=r"^sample diff-0000: mu1=1.5 outside \[-1.0, 1.0\]$"):
        diffusion_pair(bad, cfg)


def test_diffusion_deterministic():
    cfg = DiffusionConfig(mesh_low=16, mesh_high=32)
    a = diffusion_pair(draw_diffusion_samples(10, seed=4, cfg=cfg), cfg)
    b = diffusion_pair(draw_diffusion_samples(10, seed=4, cfg=cfg), cfg)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].data, b[1].data)


def test_diffusion_config_validation():
    with pytest.raises(DimensionMismatch):
        DiffusionConfig(mesh_low=64, mesh_high=16)
    with pytest.raises(DimensionMismatch):
        DiffusionConfig(d_params=0)


def test_sample_ids_are_aligned_and_distinct():
    cfg = DiffusionConfig(mesh_low=16, mesh_high=32)
    samples = draw_diffusion_samples(8, seed=2, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)
    assert high.sample_ids == low.sample_ids
    assert len(set(high.sample_ids)) == 8


# --------------------------------------------------------------------------
# diffusion solve: bits of the banded solve, error classes, memory
# --------------------------------------------------------------------------

# the default field: amplitude 1, decay 0.5, over the first modes
AMPS = DiffusionConfig.field_amplitude * DiffusionConfig.field_decay ** np.arange(8)


def _mesh_flux(weights, n_nodes):
    """diffusion_pair's solve on one mesh for rows of mode weights c_i mu_i."""
    modes = np.arange(1, weights.shape[1] + 1)
    x = np.linspace(0.0, 1.0, n_nodes)
    return _solve_flux(weights, x, np.sin(np.pi * np.outer(0.5 * (x[:-1] + x[1:]), modes)),
                       np.sin(np.pi * np.outer(x, modes)))


def _banded_fluxes(weights, n_nodes):
    return np.column_stack([diffusion_flux_banded(w, n_nodes) for w in weights])


@settings(max_examples=40, deadline=None)
@given(meshes=st.lists(st.integers(3, 1024), min_size=2, max_size=2).map(sorted),
       d_params=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([1, SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1]),
       amplitude=st.sampled_from([1.0, 0.0, 0.3, 4.0, 10.0]))
@example(meshes=[3, 3], d_params=1, seed=0, count=1, amplitude=1.0)
@example(meshes=[16, 1024], d_params=8, seed=1, count=SOLVE_BLOCK + 1, amplitude=1.0)
def test_diffusion_pair_equals_banded_solve_bitwise(meshes, d_params, seed, count,
                                                    amplitude):
    """The pair at the config's field, and the solve at that field scaled by
    ``amplitude``, each bit for bit the banded solve of the same weights."""
    cfg = DiffusionConfig(mesh_low=meshes[0], mesh_high=meshes[1], d_params=d_params)
    samples = draw_diffusion_samples(count, seed=seed, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)
    weights = AMPS[:d_params] * samples
    for snapshot, n_nodes in ((high, cfg.mesh_high), (low, cfg.mesh_low)):
        assert snapshot.data.tobytes() == _banded_fluxes(weights, n_nodes).tobytes()
        scaled = amplitude * weights
        assert _mesh_flux(scaled, n_nodes).tobytes() == \
            _banded_fluxes(scaled, n_nodes).tobytes()


def test_diffusion_nan_input_is_a_solver_failure():
    """A NaN input is refused before the solve; NaN weights reaching the
    solve are its failure."""
    cfg = DiffusionConfig()
    nan = np.full((1, cfg.d_params), np.nan)
    with pytest.raises(OutOfBounds, match="mu1=nan outside"):
        diffusion_pair(nan, cfg)
    with pytest.raises(NumericalError, match="matrix holds infs or NaNs"):
        _mesh_flux(AMPS[:cfg.d_params] * nan, cfg.mesh_high)


# The three fields below span far more than 1e16; the solve's own guards
# are reached through the solve itself, at the first five modes' weights.
AMPS5 = AMPS[:5]


def test_diffusion_overflowing_coefficient_is_a_solver_failure():
    with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                   match="matrix holds infs or NaNs"):
        _mesh_flux(800.0 * AMPS5[None, :], 256)


def test_diffusion_underflowing_coefficient_is_a_solver_failure():
    with pytest.raises(NumericalError, match="diffusion coefficient must be positive"):
        _mesh_flux(-800.0 * AMPS5[None, :], 256)


def test_diffusion_pivot_lost_to_rounding_is_a_solver_failure():
    """A coefficient spanning far more than 1e16 leaves the pivot of a
    coarse-mesh row at zero; that is a failure, not a NaN flux."""
    samples = draw_diffusion_samples(40, seed=2, cfg=DiffusionConfig())
    weights = 80.0 * AMPS5 * samples
    with pytest.raises(NumericalError, match="pivot is not positive"):
        for n_nodes in (8, 4):
            _mesh_flux(weights, n_nodes)


def test_diffusion_solve_at_amplitude_10_7_equals_banded_solve_bitwise():
    """exp(2 sum_i c_i) = exp(2 a 1.9375) reaches 1e18 at a = 10.696; there
    the elimination sweep still gives the banded solve's bits."""
    amplitude = np.log(1e18) / (2.0 * AMPS5.sum()) * (1 - 1e-9)
    samples = draw_diffusion_samples(SOLVE_BLOCK + 1, seed=3, cfg=DiffusionConfig())
    weights = amplitude * AMPS5 * samples
    for n_nodes in (64, 8):
        assert _mesh_flux(weights, n_nodes).tobytes() == \
            _banded_fluxes(weights, n_nodes).tobytes()


def test_diffusion_pair_memory_on_the_bench_study():
    """2000 samples on the 16/1024 meshes: the outputs are 16.6 MB, which the
    snapshot matrices keep without a copy, and a block's temporaries add
    about 7 MB; one sweep over every sample at once peaked at 156."""
    cfg = DiffusionConfig(mesh_low=16, mesh_high=1024)
    samples = draw_diffusion_samples(2000, seed=1, cfg=cfg)
    tracemalloc.start()
    try:
        diffusion_pair(samples, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6, peak
