"""Acceptance suite.

One test per criterion; each prints a single PASS line with the measured
quantities (visible with ``pytest -rA`` or ``-s``) and asserts both the
stated tolerance and the stated runtime budget.
"""

import time

import numpy as np
import pytest

from bifidelity.bound import (
    GramianPair,
    default_tau_grid,
    efficacy_study,
    epsilon_estimated,
    epsilon_exact,
    minimize_bound,
    rho,
)
from bifidelity.cli import cli_main
from bifidelity.interp import build_id
from bifidelity.lifting import required_samples
from bifidelity.linalg import singular_values, spectral_norm
from bifidelity.models import (
    BeamConfig,
    DiffusionConfig,
    beam_pair,
    diffusion_pair,
    draw_beam_samples,
    draw_diffusion_samples,
)
from bifidelity.snapio import read_id, read_snapshots, write_id, write_snapshots
from bifidelity.snapshots import SnapshotMatrix

from oracles import lifting_oracle_T


def _ids(n):
    return tuple(f"s{j:04d}" for j in range(n))


def controlled_pair(rng):
    """L with a controlled geometric spectrum; H = T0 L + E0, sizes <= 40x80.

    n > m keeps rank(L) < n_samples (the snapshot regime, where the exact
    eps is non-negative).
    """
    m = int(rng.integers(3, 41))
    n = int(rng.integers(m + 1, 81)) if m < 80 else 80
    m_high = int(rng.integers(3, 41))
    decay = rng.uniform(0.3, 0.9)
    sig = decay ** np.arange(m)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, m)))
    low = (u * sig) @ v.T
    t0 = rng.standard_normal((m_high, m)) / np.sqrt(m)
    e0 = 1e-3 * rng.standard_normal((m_high, n)) / np.sqrt(n)
    high = t0 @ low + e0
    return high, low


def lifted_error(high, low, rank):
    dec = build_id(low, rank=rank)
    h_hat = high[:, list(dec.selected)] @ dec.coeffs
    return dec, spectral_norm(high - h_hat)


def test_criterion_1_theorem_validity():
    start = time.time()
    master = np.random.default_rng(2024)
    worst_margin = np.inf
    for trial in range(500):
        rng = np.random.default_rng(master.integers(2**63))
        high, low = controlled_pair(rng)
        ids = _ids(low.shape[1])
        high_s = SnapshotMatrix(high, ids)
        low_s = SnapshotMatrix(low, ids)
        r = int(rng.integers(1, min(low.shape)))
        dec, true_err = lifted_error(high, low, r)
        pair = GramianPair.full(high_s, low_s)
        report = minimize_bound(
            pair, singular_values(low), dec.coeff_norm(), dec.residual_norm
        )
        margin = report.best_rho - true_err + 1e-8 * spectral_norm(high)
        worst_margin = min(worst_margin, margin / spectral_norm(high))
        assert margin >= 0.0, f"trial {trial}: bound {report.best_rho} < error {true_err}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS - Theorem validity: 500/500 bounded, "
          f"worst margin {worst_margin:.2e}*||H||, {elapsed:.1f} s")


def test_criterion_2_coefficient_and_residual_caps():
    start = time.time()
    master = np.random.default_rng(7)
    for trial in range(1000):
        rng = np.random.default_rng(master.integers(2**63))
        m = int(rng.integers(3, 13))
        n = int(rng.integers(3, 17))
        low = rng.standard_normal((m, n))
        p = min(m, n)
        r = int(rng.integers(1, p + 1))
        dec = build_id(low, rank=r)
        cap = np.sqrt(r * (n - r) + 1)
        s = np.linalg.svd(low, compute_uv=False)
        assert dec.coeff_norm() <= cap + 1e-9 * max(1.0, cap)
        if r < p:
            assert dec.residual_norm <= cap * s[r] + 1e-9 * s[0]
        full = build_id(low, rank=p)
        assert full.residual_norm <= 1e-10 * s[0]
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS - coefficient/residual caps: 1000/1000, {elapsed:.1f} s")


def test_criterion_3_eps_definitions_agree():
    start = time.time()
    master = np.random.default_rng(13)
    taus = (0.0, 0.1, 1.0, 10.0, 250.0)
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(master.integers(2**63))
        m = int(rng.integers(3, 11))
        n = int(rng.integers(m + 1, m + 12))
        m_high = int(rng.integers(3, 11))
        low = rng.standard_normal((m, n))
        high = rng.standard_normal((m_high, m)) @ low \
            + 0.05 * rng.standard_normal((m_high, n))
        ids = _ids(n)
        high_s, low_s = SnapshotMatrix(high, ids), SnapshotMatrix(low, ids)
        scale = spectral_norm(high) ** 2
        for tau in taus:
            eps = epsilon_exact(high_s, low_s, tau)
            shifted = tau * low.T @ low + eps * np.eye(n) - high.T @ high
            lam_min = float(np.linalg.eigvalsh(0.5 * (shifted + shifted.T))[0])
            worst = max(worst, abs(lam_min) / scale)
            assert abs(lam_min) <= 1e-9 * scale
            below = shifted - 0.01 * scale * np.eye(n)
            assert float(np.linalg.eigvalsh(0.5 * (below + below.T))[0]) < 0.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS - eps definitions agree: worst |lam_min| "
          f"{worst:.2e}*||H||^2, {elapsed:.1f} s")


def test_criterion_4_lifting_operator_caps():
    start = time.time()
    master = np.random.default_rng(29)
    taus = np.concatenate(([0.0], 10.0 ** np.linspace(-4.0, 4.0, 19)))
    for trial in range(100):
        rng = np.random.default_rng(master.integers(2**63))
        m = int(rng.integers(3, 11))
        n = int(rng.integers(m + 1, m + 10))
        m_high = int(rng.integers(3, 11))
        low = rng.standard_normal((m, n))
        high = rng.standard_normal((m_high, m)) @ low \
            + 0.05 * rng.standard_normal((m_high, n))
        ids = _ids(n)
        high_s, low_s = SnapshotMatrix(high, ids), SnapshotMatrix(low, ids)
        sigma = singular_values(low)
        rank = sigma.numerical_rank()
        eps_values = [epsilon_exact(high_s, low_s, t) for t in taus]
        for k in range(1, rank + 1):
            t_mat, e_mat = lifting_oracle_T(high_s, low_s, k)
            e2 = spectral_norm(e_mat) ** 2
            t2 = spectral_norm(t_mat) ** 2
            skp1 = sigma.sigma(k + 1) if k < rank else 0.0
            sk2 = sigma.sigma(k) ** 2
            for tau, eps in zip(taus, eps_values):
                slack = 1e-9 * max(1.0, e2, t2)
                assert e2 <= tau * skp1**2 + eps + slack
                assert t2 <= tau + eps / sk2 + slack
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS - lifting operator caps: 100 instances x "
          f"{taus.size} taus x all k, {elapsed:.1f} s")


def test_criterion_5_efficacy_regime():
    start = time.time()
    cfg = DiffusionConfig(mesh_low=16, mesh_high=256)
    samples = draw_diffusion_samples(200, seed=3, cfg=cfg)
    high, low = diffusion_pair(samples, cfg)

    result = efficacy_study(high, low, rank=10, n_sub=20, trials=30, seed=42)
    assert 0.95 <= result.mean <= 12.0
    below = int(np.sum(result.ratios < 1.0))

    with pytest.warns(RuntimeWarning):
        starved = efficacy_study(high, low, rank=10, n_sub=8, trials=30, seed=42)
    starved_below = int(np.sum(starved.ratios < 1.0))
    assert np.all(np.isfinite(starved.ratios))

    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 PASS - efficacy regime: mean {result.mean:.2f} "
          f"(n=20>r=10, {below} of 30 below 1); n=8<r gives "
          f"{starved_below} of 30 below 1, {elapsed:.1f} s")


def test_criterion_6_beam_study():
    start = time.time()
    cfg = BeamConfig()
    samples = draw_beam_samples(100, seed=7, cfg=cfg)
    high, low = beam_pair(samples, cfg)

    # (a) numerically rank-1 low-fidelity ensemble
    s = np.linalg.svd(low.data, compute_uv=False)
    ratio = s[1] / s[0]
    assert ratio <= 1e-12

    # (b) rank-1 lift beats the low-fidelity model per sample
    dec = build_id(low, rank=1)
    estimate = high.data[:, list(dec.selected)] @ dec.coeffs
    h_norms = np.linalg.norm(high.data, axis=0)
    lofi = np.linalg.norm(high.data - low.data, axis=0) / h_norms
    bifi = np.linalg.norm(high.data - estimate, axis=0) / h_norms
    improved = float(np.mean(bifi < lofi))
    assert improved >= 0.95

    # (c) estimate-stabilization sweep n = 2..12 (curve emitted, not asserted)
    sigma = singular_values(low.data)
    rng = np.random.default_rng(11)
    curve = []
    for n_sub in range(2, 13):
        values = []
        for _ in range(30):
            idx = np.sort(rng.choice(low.n_samples, n_sub, replace=False))
            pair = GramianPair.from_snapshots(high, low, idx)
            rep = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
            values.append(rep.best_rho)
        curve.append(float(np.mean(values)))
    true_err = spectral_norm(high.data - estimate)
    normalized = [v / true_err for v in curve]
    assert all(np.isfinite(normalized))

    elapsed = time.time() - start
    assert elapsed < 60.0
    curve_txt = ", ".join(f"{n}:{v:.2f}" for n, v in zip(range(2, 13), normalized))
    print(f"ACCEPTANCE 6 PASS - beam study: sigma2/sigma1 {ratio:.1e}, "
          f"improved {improved:.0%}, estimate/true curve [{curve_txt}], "
          f"{elapsed:.1f} s")


def test_criterion_7_eps_shape():
    start = time.time()
    master = np.random.default_rng(41)
    grid = default_tau_grid()
    for trial in range(200):
        rng = np.random.default_rng(master.integers(2**63))
        m = int(rng.integers(3, 9))
        n = int(rng.integers(m + 1, m + 8))
        m_high = int(rng.integers(3, 9))
        low = rng.standard_normal((m, n))
        high = rng.standard_normal((m_high, m)) @ low \
            + 0.05 * rng.standard_normal((m_high, n))
        ids = _ids(n)
        pair = GramianPair.full(SnapshotMatrix(high, ids), SnapshotMatrix(low, ids))
        eps = np.array([epsilon_estimated(pair, t) for t in grid])
        h2 = spectral_norm(high) ** 2
        assert abs(eps[0] - h2) <= 1e-10 * h2
        assert np.all(np.diff(eps) <= 1e-10 * h2)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 7 PASS - eps non-increasing with eps(0)=||H||^2: "
          f"200/200, {elapsed:.1f} s")


def test_criterion_8_round_trip_and_determinism(tmp_path):
    start = time.time()

    # binary format: bitwise round-trip
    rng = np.random.default_rng(17)
    snap = SnapshotMatrix(rng.standard_normal((7, 11)), _ids(11))
    path = tmp_path / "m.bfsm"
    write_snapshots(snap, path)
    back = read_snapshots(path)
    assert back.data.tobytes() == snap.data.tobytes()
    assert back.sample_ids == snap.sample_ids

    # full CLI pipeline twice: bitwise-identical artifacts
    outputs = {}
    for run in ("run1", "run2"):
        d = tmp_path / run
        d.mkdir()
        assert cli_main(["generate", "beam", "--samples", "40", "--seed", "7",
                         "--out", str(d / "beam")]) == 0
        assert cli_main(["decompose", "--low", str(d / "beam.low.bfsm"),
                         "--rank", "1", "--out-id", str(d / "beam.id.json")]) == 0
        high = read_snapshots(d / "beam.high.bfsm")
        dec, ids = read_id(d / "beam.id.json")
        need = required_samples(dec, ids)
        cols = [high.sample_ids.index(sid) for sid in need]
        write_snapshots(high.columns(cols), d / "beam.skel.bfsm")
        sub = np.sort(np.random.default_rng(5).choice(high.n_samples, 8,
                                                      replace=False))
        write_snapshots(high.columns(sub), d / "beam.sub.bfsm")
        assert cli_main(["lift", "--id", str(d / "beam.id.json"),
                         "--high-skeleton", str(d / "beam.skel.bfsm"),
                         "--out", str(d / "beam.hat.bfsm")]) == 0
        assert cli_main(["bound", "--low", str(d / "beam.low.bfsm"),
                         "--high-sub", str(d / "beam.sub.bfsm"), "--rank", "1",
                         "--out", str(d / "beam.report.csv")]) == 0
        outputs[run] = sorted(p for p in d.iterdir())
    for a, b in zip(outputs["run1"], outputs["run2"]):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes(), a.name

    # the bound sweep equals its per-tau scalar reference exactly
    rng = np.random.default_rng(23)
    low = rng.standard_normal((8, 20))
    high = rng.standard_normal((9, 8)) @ low + 0.05 * rng.standard_normal((9, 20))
    ids = _ids(20)
    high_s, low_s = SnapshotMatrix(high, ids), SnapshotMatrix(low, ids)
    dec = build_id(low_s, rank=4)
    sigma = singular_values(low)
    pair = GramianPair.full(high_s, low_s)
    report = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm)
    eps_ref = [epsilon_estimated(pair, t) for t in report.tau_grid]
    assert np.array_equal(report.eps_values, eps_ref)
    rho_ref = np.array([
        [np.nan if v is None else v
         for v in (rho(k, t, e, sigma, dec.coeff_norm(), dec.residual_norm)
                   for k in range(1, report.rank + 1))]
        for t, e in zip(report.tau_grid, eps_ref)
    ])
    assert np.array_equal(report.rho_values, rho_ref, equal_nan=True)

    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8 PASS - round-trip and determinism, {elapsed:.1f} s")
