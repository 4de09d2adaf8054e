import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifidelity
from bifidelity.cli import _tau_grid_from_args, build_parser, cli_main
from bifidelity.errors import DataError
from bifidelity.interp import build_id
from bifidelity.snapio import read_id, read_snapshots, write_id, write_snapshots
from bifidelity.lifting import required_samples
from bifidelity.linalg import pivoted_qr, spectral_norm
from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples
from bifidelity.snapshots import SnapshotMatrix

from oracles import columns, efficacy_full_sweep, from_array, random_matrix_with_spectrum


def run_pipeline(workdir: Path, seed=7) -> dict[str, Path]:
    """generate -> decompose -> samples -> lift -> bound, all inside workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "high": workdir / "beam.high.bfsm",
        "low": workdir / "beam.low.bfsm",
        "id": workdir / "beam.id.json",
        "skeleton": workdir / "beam.skel.bfsm",
        "estimate": workdir / "beam.hat.bfsm",
        "sub": workdir / "beam.sub.bfsm",
        "report": workdir / "beam.report.csv",
    }
    assert cli_main([
        "generate", "beam", "--samples", "40", "--seed", str(seed),
        "--out", str(workdir / "beam"),
    ]) == 0
    assert cli_main([
        "decompose", "--low", str(paths["low"]), "--rank", "1",
        "--out-id", str(paths["id"]),
    ]) == 0

    high = read_snapshots(paths["high"])
    dec, ids = read_id(paths["id"])
    need = required_samples(dec, ids)
    skeleton_cols = [high.sample_ids.index(s) for s in need]
    write_snapshots(columns(high, skeleton_cols), paths["skeleton"])

    sub_idx = np.sort(np.random.default_rng(seed).choice(high.n_samples, 8,
                                                         replace=False))
    write_snapshots(columns(high, sub_idx), paths["sub"])

    assert cli_main([
        "lift", "--id", str(paths["id"]), "--high-skeleton",
        str(paths["skeleton"]), "--out", str(paths["estimate"]),
    ]) == 0
    assert cli_main([
        "bound", "--low", str(paths["low"]), "--high-sub", str(paths["sub"]),
        "--rank", "1", "--out", str(paths["report"]),
    ]) == 0
    return paths


def test_generate_is_bitwise_reproducible(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert cli_main([
            "generate", "beam", "--samples", "100", "--seed", "7",
            "--out", str(d / "beam"),
        ]) == 0
    for name in ("beam.high.bfsm", "beam.low.bfsm", "beam.manifest.json",
                 "beam.high.bfsm.json", "beam.low.bfsm.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


# sha256 of every file the two generate commands below write, recorded with
# numpy 2.4 and its bundled OpenBLAS on x86-64: the fixed model constants and
# the solves must keep every bit
GENERATE_DIGESTS = {
    "bfsm": {
        "beam.high.bfsm":
            "884a9caf275434ed76a8714d7e015dc2c6c7c94bcf507253fc5e17bfec16c5cc",
        "beam.high.bfsm.json":
            "7e4498572ea1f22fa6767c5774ef91676682ccdf63a074c9f99bfb474c37e6fd",
        "beam.low.bfsm":
            "76cfb1197195fd5c39dc658e7474ff8f3b2f4623255d58db4b8b369ab48df3ba",
        "beam.low.bfsm.json":
            "7e4498572ea1f22fa6767c5774ef91676682ccdf63a074c9f99bfb474c37e6fd",
        "beam.manifest.json":
            "70b66a1ff644ed3adb2cbc36d2faed3462ef8b1754ef3af125ad7b4065ac2db0",
        "diffusion.high.bfsm":
            "ef665034462b272b6051d2e7db1e5861c241202cbb5226cad404a8e1bad78e7f",
        "diffusion.high.bfsm.json":
            "04a75070e593675005e1602e62ec7a0122e9d0bc3213940693dddd15500d0995",
        "diffusion.low.bfsm":
            "8074edf991fc3c0c6678ca452a167bc5d02df0a1098cf5f4b27e0488509b55bf",
        "diffusion.low.bfsm.json":
            "04a75070e593675005e1602e62ec7a0122e9d0bc3213940693dddd15500d0995",
        "diffusion.manifest.json":
            "8f52a0299f67061d5a6c81383eb7cd0aff4dcb6300fcc41db018312a94328fb1",
    },
    "csv": {
        "beam.high.csv":
            "607051bf5f4f11d04fefbbf57dedade49e4e7bbf3e7da9756f66e5fa22e48fbd",
        "beam.high.csv.json":
            "7e4498572ea1f22fa6767c5774ef91676682ccdf63a074c9f99bfb474c37e6fd",
        "beam.low.csv":
            "5420e2d45ff5a6da35700de83d5f84a0d37ac8a001f35de13628122c6b7836d4",
        "beam.low.csv.json":
            "7e4498572ea1f22fa6767c5774ef91676682ccdf63a074c9f99bfb474c37e6fd",
        "beam.manifest.json":
            "9705044ce1dd5114999d8c6a85759e903b5685c0af432c603dbd8d78fece349a",
        "diffusion.high.csv":
            "ee2844a90beb9152e77360be1c302922bdb19a4ce1a5cdb019b1838caf43db14",
        "diffusion.high.csv.json":
            "04a75070e593675005e1602e62ec7a0122e9d0bc3213940693dddd15500d0995",
        "diffusion.low.csv":
            "03957da11b762dbdf5c2c2c0a1bb5faf64537f9ed1bfbd26b6934b4ef20966f2",
        "diffusion.low.csv.json":
            "04a75070e593675005e1602e62ec7a0122e9d0bc3213940693dddd15500d0995",
        "diffusion.manifest.json":
            "06219b4c9787ebb63a41aacd7e01e8b39f591fb5cfa8a96b287a685a58fc6269",
    },
}


@pytest.mark.parametrize("fmt", ["bfsm", "csv"])
def test_generate_writes_the_recorded_bytes(tmp_path, fmt):
    assert cli_main(["generate", "beam", "--samples", "30", "--seed", "1",
                     "--out", str(tmp_path / "beam"), "--format", fmt]) == 0
    assert cli_main(["generate", "diffusion", "--samples", "30", "--seed", "1",
                     "--mesh-high", "64", "--out", str(tmp_path / "diffusion"),
                     "--format", fmt]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == GENERATE_DIGESTS[fmt]


def test_full_pipeline_reproducible(tmp_path):
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes(), key


def test_lift_output_improves_on_lofi(tmp_path):
    paths = run_pipeline(tmp_path)
    high = read_snapshots(paths["high"])
    low = read_snapshots(paths["low"])
    estimate = read_snapshots(paths["estimate"])
    assert estimate.data.shape == high.data.shape
    err_bifi = spectral_norm(high.data - estimate.data)
    err_lofi = spectral_norm(high.data - low.data)
    assert err_bifi < err_lofi


def test_samples_command_lists_required_ids(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    capsys.readouterr()  # drop pipeline chatter
    assert cli_main(["samples", "--id", str(paths["id"])]) == 0
    out = capsys.readouterr().out.split()
    dec, ids = read_id(paths["id"])
    assert tuple(out) == required_samples(dec, ids)


def test_bound_on_identical_ensembles_reports_tiny_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    low = from_array(rng.standard_normal((6, 12)))
    low_path = tmp_path / "low.bfsm"
    sub_path = tmp_path / "high_sub.bfsm"
    write_snapshots(low, low_path)
    write_snapshots(low, sub_path)  # "high" columns identical, n = N
    assert cli_main([
        "bound", "--low", str(low_path), "--high-sub", str(sub_path),
        "--rank", "6",
    ]) == 0
    out = capsys.readouterr().out
    best_rho = float(next(l for l in out.splitlines()
                          if l.startswith("best_rho:")).split()[1])
    assert best_rho <= 1e-8 * spectral_norm(low.data)


def test_bound_two_tau_flag(tmp_path, capsys):
    paths = run_pipeline(tmp_path)
    assert cli_main([
        "bound", "--low", str(paths["low"]), "--high-sub", str(paths["sub"]),
        "--rank", "1", "--two-tau",
    ]) == 0
    out = capsys.readouterr().out
    assert "best_tau2:" in out


def test_efficacy_cli_on_diffusion_pair(tmp_path, capsys):
    assert cli_main([
        "generate", "diffusion", "--samples", "120", "--seed", "3",
        "--out", str(tmp_path / "diff"),
    ]) == 0
    capsys.readouterr()
    assert cli_main([
        "efficacy", "--high", str(tmp_path / "diff.high.bfsm"),
        "--low", str(tmp_path / "diff.low.bfsm"),
        "--rank", "10", "--n", "20", "--trials", "30", "--seed", "1",
        "--out", str(tmp_path / "ratios.csv"),
    ]) == 0
    out = capsys.readouterr().out
    mean = float(next(l for l in out.splitlines()
                      if l.startswith("mean:")).split()[1])
    assert 0.95 <= mean <= 12.0
    table = (tmp_path / "ratios.csv").read_text().splitlines()
    assert table[0] == "trial,ratio"
    assert table[-1].startswith("mean,")


def test_csv_format_pipeline(tmp_path):
    assert cli_main([
        "generate", "beam", "--samples", "10", "--seed", "2",
        "--out", str(tmp_path / "beam"), "--format", "csv",
    ]) == 0
    low = read_snapshots(tmp_path / "beam.low.csv")
    assert low.n_samples == 10


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["bound", "--low", "x.bfsm", "--high-sub", "y.bfsm",
                     "--rank", "1", "--workers", "2"]) == 1  # removed flag
    assert cli_main(["decompose", "--low", "x.bfsm"]) == 1  # missing mode
    assert cli_main([
        "decompose", "--low", "x.bfsm", "--rank", "1", "--tol", "0.1",
        "--out-id", str(tmp_path / "id.json"),
    ]) == 1  # both modes
    assert cli_main([]) == 1


def test_data_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.bfsm"
    bad.write_bytes(b"NOPE" + b"\x00" * 60)
    assert cli_main([
        "decompose", "--low", str(bad), "--rank", "1",
        "--out-id", str(tmp_path / "id.json"),
    ]) == 2
    missing = tmp_path / "missing.bfsm"
    assert cli_main([
        "decompose", "--low", str(missing), "--rank", "1",
        "--out-id", str(tmp_path / "id.json"),
    ]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def diffusion_files(tmp_path_factory):
    """Small diffusion pair plus a file of every fourth high-fidelity column."""
    d = tmp_path_factory.mktemp("diffusion")
    assert cli_main(["generate", "diffusion", "--samples", "40", "--seed", "3",
                     "--out", str(d / "diff")]) == 0
    high = read_snapshots(d / "diff.high.bfsm")
    write_snapshots(columns(high, list(range(0, 40, 4))), d / "diff.sub.bfsm")
    return {"high": d / "diff.high.bfsm", "low": d / "diff.low.bfsm",
            "sub": d / "diff.sub.bfsm"}


def _command(name, files):
    if name == "bound":
        return ["bound", "--low", str(files["low"]), "--high-sub",
                str(files["sub"]), "--rank", "4"]
    return ["efficacy", "--high", str(files["high"]), "--low", str(files["low"]),
            "--rank", "4", "--n", "10", "--trials", "2"]


BAD_TAU_FLAGS = {
    "count-zero": ["--tau-count", "0"],
    "unordered": ["--tau-min", "10", "--tau-max", "1"],
    "min-nan": ["--tau-min", "nan"],
    "min-negative": ["--tau-min", "-1"],
    "log-min-zero": ["--tau-min", "0"],
    "max-inf": ["--tau-max", "inf"],
}
BAD_FLAGS = [
    pytest.param(command, flags, id=f"{command}-{name}")
    for command in ("bound", "efficacy") for name, flags in BAD_TAU_FLAGS.items()
] + [
    pytest.param("efficacy", ["--trials", "-1"], id="efficacy-trials-negative"),
    pytest.param("efficacy", ["--trials", "0"], id="efficacy-trials-zero"),
]


def _assert_data_error(capsys, argv):
    capsys.readouterr()
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    return lines[0]


@pytest.mark.parametrize("command,flags", BAD_FLAGS)
def test_out_of_range_parameters_exit_two(diffusion_files, capsys, command, flags):
    _assert_data_error(capsys, _command(command, diffusion_files) + flags)


def test_tau_scale_alone_selects_default_bounds(diffusion_files, tmp_path):
    report = tmp_path / "report.csv"
    assert cli_main(_command("bound", diffusion_files) + [
        "--tau-scale", "linear", "--out", str(report)]) == 0
    rows = [line.split(",") for line in report.read_text().splitlines()[1:-1]]
    taus = [float(row[1]) for row in rows if row[0] == "1"]
    assert np.array_equal(taus, np.linspace(1e-6, 1e6, 201))


def test_numerical_errors_exit_three(tmp_path, capsys):
    rng = np.random.default_rng(1)
    low = from_array(rng.standard_normal((4, 9)))
    low_path = tmp_path / "low.bfsm"
    write_snapshots(low, low_path)
    assert cli_main([
        "decompose", "--low", str(low_path), "--tol", "0.0",
        "--out-id", str(tmp_path / "id.json"),
    ]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_decompose_tol_below_the_truncation_plateau_exits_zero(tmp_path, capsys):
    """L is 24 x 60 with singular values graded from 1 to 1e-14. At tol 1e-13
    the QR certifies rank 22, where cond(R11) is about 1e13; back
    substitution keeps the ID residual at the trailing block's, below tol.
    A solve that dropped R11's singular values under 1e-12 sigma_1 would
    leave a residual near 1e-12 at every rank."""
    low = random_matrix_with_spectrum(np.random.default_rng(5), 24, 60,
                                      10.0 ** -np.linspace(0.0, 14.0, 24))
    write_snapshots(from_array(low), tmp_path / "low.bfsm")
    assert cli_main(["decompose", "--low", str(tmp_path / "low.bfsm"), "--tol", "1e-13",
                     "--out-id", str(tmp_path / "id.json")]) == 0
    dec, _ = read_id(tmp_path / "id.json")
    assert dec.rank == pivoted_qr(low, tol=1e-13)[3] == 22
    assert dec.residual_norm <= 1e-13
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def beam_files(tmp_path_factory):
    """A 60-sample beam study plus a file of every sixth high-fidelity column."""
    d = tmp_path_factory.mktemp("beam")
    assert cli_main(["generate", "beam", "--samples", "60", "--seed", "1",
                     "--out", str(d / "beam")]) == 0
    high = read_snapshots(d / "beam.high.bfsm")
    write_snapshots(columns(high, list(range(0, 60, 6))), d / "beam.sub.bfsm")
    return {"high": d / "beam.high.bfsm", "low": d / "beam.low.bfsm",
            "sub": d / "beam.sub.bfsm"}


@pytest.mark.parametrize("command", ["bound", "efficacy"])
def test_overflowing_tau_exits_two_with_one_line(beam_files, capsys, command):
    """tau = 1e308 overflows Gh - tau Gl: one data error naming that tau, and
    no numpy warning ahead of it. The log grid up to the largest double ends
    at that --tau-max itself, which overflows the same way."""
    for tau_max, shown in (("1e308", "1e+308"),
                           ("1.7976931348623157e308", "1.7976931348623157e+308")):
        argv = _command(command, beam_files) + [
            "--tau-min", "1", "--tau-max", tau_max, "--tau-count", "5"]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv) == 2
        assert caught == []
        assert capsys.readouterr() == (
            "", f"data error: Gh - tau Gl overflows at tau = {shown}\n")


def test_a_warning_is_one_stderr_line(diffusion_files, capsys):
    """rank > n warns in one line and exits 0; a rank build_id refuses
    prints only its data error."""
    argv = _command("efficacy", diffusion_files) + ["--n", "5"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # Python's own setting for RuntimeWarning
        assert cli_main(argv + ["--rank", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: approximation rank 10 exceeds sub-sample size 5; "
                            "the estimate may fall below the true error\n")
    assert len(captured.out.splitlines()) == 4
    assert cli_main(argv + ["--rank", "40"]) == 2
    assert capsys.readouterr() == ("", "data error: rank 40 outside [1, 16]\n")


@pytest.mark.parametrize("command", ["generate-beam", "generate-diffusion", "efficacy"])
def test_a_negative_seed_exits_two_with_one_line(diffusion_files, tmp_path, capsys,
                                                 command):
    if command == "efficacy":
        argv = _command(command, diffusion_files)
    else:
        argv = ["generate", command.split("-")[1], "--out", str(tmp_path / "g")]
    capsys.readouterr()
    assert cli_main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "data error: seed must be >= 0, got -1\n")
    assert list(tmp_path.iterdir()) == []


GENERATE_SIZES = {
    "samples-zero": (["beam", "--samples", "0"], "need at least one sample"),
    "grid-one": (["beam", "--grid", "1"], "n_grid must be at least 2"),
    "mesh-low-two": (["diffusion", "--mesh-low", "2"], "meshes need at least 3 nodes"),
}


@pytest.mark.parametrize("flags,message", GENERATE_SIZES.values(),
                         ids=GENERATE_SIZES.keys())
def test_a_generate_size_out_of_range_exits_two_with_one_line(tmp_path, capsys, flags,
                                                              message):
    capsys.readouterr()
    assert cli_main(["generate", *flags, "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr() == ("", f"data error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_sub_sampled_id_missing_from_low_exits_two(diffusion_files, tmp_path, capsys):
    high = read_snapshots(diffusion_files["high"])
    sub = tmp_path / "sub.bfsm"
    write_snapshots(SnapshotMatrix(high.data[:, :2], ["diff-0000", "elsewhere"]), sub)
    argv = _command("bound", diffusion_files)
    argv[argv.index("--high-sub") + 1] = str(sub)
    line = _assert_data_error(capsys, argv)
    assert line == ("data error: sub-sampled column id 'elsewhere' not present in "
                    f"{diffusion_files['low']}")


def test_efficacy_on_ensembles_of_other_sizes_exits_two(diffusion_files, capsys):
    argv = _command("efficacy", diffusion_files)
    argv[argv.index("--high") + 1] = str(diffusion_files["sub"])
    line = _assert_data_error(capsys, argv)
    assert line == "data error: sample counts differ: 10 vs 40"


def test_bound_on_an_all_zero_low_ensemble_exits_two(tmp_path, capsys):
    ids = [f"s{j}" for j in range(6)]
    low, sub = tmp_path / "low.bfsm", tmp_path / "sub.bfsm"
    write_snapshots(SnapshotMatrix(np.zeros((3, 6)), ids), low)
    write_snapshots(SnapshotMatrix(np.ones((4, 2)), ids[:2]), sub)
    line = _assert_data_error(capsys, ["bound", "--low", str(low), "--high-sub", str(sub),
                                       "--rank", "1"])
    assert line == "data error: rank(L) is zero; no valid k exists"


def test_failed_eigensolve_exits_three_with_one_line(diffusion_files, capsys,
                                                      monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    capsys.readouterr()
    assert cli_main(_command("bound", diffusion_files)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numerical failure: symmetric eigensolve failed: Eigenvalues did not converge"]


@pytest.mark.parametrize("svd", ["of the residual", "of the trailing block in the band"])
def test_failed_svd_exits_three_with_one_line(tmp_path, capsys, monkeypatch, svd):
    """A failed SVD of the ID residual, or of the QR's trailing block when the
    Gram side reads exactly tol, ends decompose with exit 3 and one line."""
    data = np.random.default_rng(3).uniform(-0.9, 0.9, (16, 40))
    low_path = tmp_path / "low.bfsm"
    write_snapshots(from_array(data), low_path)
    calls = []

    def fail(a, *args, **kwargs):
        calls.append(np.shape(a))
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    if svd == "of the residual":
        mode, expected = ["--rank", "3"], [data.shape]
    else:
        # max|L| < 1, so the QR steps run on L itself and meet tol unscaled;
        # tol lies between the largest column norm and their 2-norm
        tol = 1.5 * float(np.linalg.norm(data, axis=0).max())
        monkeypatch.setattr(bifidelity.linalg, "_gram_norm", lambda *args: tol)
        mode, expected = ["--tol", repr(tol)], [data.shape]
    capsys.readouterr()
    assert cli_main(["decompose", "--low", str(low_path), *mode,
                     "--out-id", str(tmp_path / "id.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numerical failure: SVD did not converge: SVD did not converge"]
    assert calls == expected
    assert not (tmp_path / "id.json").exists()


@pytest.fixture(scope="module")
def id_file(diffusion_files, tmp_path_factory):
    """A valid decomposition file of the small diffusion pair."""
    path = tmp_path_factory.mktemp("id") / "diff.id.json"
    assert cli_main(["decompose", "--low", str(diffusion_files["low"]), "--rank", "3",
                     "--out-id", str(path)]) == 0
    return path


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: dict(doc, **{key: value})


def _with_entry(key, value):
    """Entry [0][0] of the matrix ``key`` set to ``value``."""
    return lambda doc: dict(doc, **{key: [[value] + doc[key][0][1:]] + doc[key][1:]})


BAD_ID_DOCS = {
    "missing-rank": _without("rank"),
    "missing-coeffs": _without("coeffs"),
    "missing-selected": _without("selected"),
    "missing-skeleton": _without("skeleton"),
    "missing-residual": _without("residual_norm"),
    "selected-string": _with("selected", "012"),
    "selected-floats": _with("selected", [0.0, 1.0, 2.0]),
    "rank-string": _with("rank", "3"),
    "rank-mismatch": _with("rank", 2),
    "coeffs-ragged": _with("coeffs", [[1.0, 2.0], [3.0]]),
    "coeffs-flat": _with("coeffs", []),
    "skeleton-text": _with("skeleton", [["a"]]),
    "residual-null": _with("residual_norm", None),
    "ids-string": _with("sample_ids", "abc"),
    "ids-numbers": _with("sample_ids", [1, 2, 3]),
    "not-an-object": lambda doc: [doc],
    "version-2": _with("version", 2),
    "coeffs-nan": _with_entry("coeffs", float("nan")),
    "coeffs-past-float": _with_entry("coeffs", 10**400),
    "skeleton-inf": _with_entry("skeleton", float("inf")),
    "residual-nan": _with("residual_norm", float("nan")),
    "residual-negative": _with("residual_norm", -1.0),
    "residual-past-float": _with("residual_norm", 10**400),
    "ids-null": _with("sample_ids", None),  # samples needs them
    "ids-repeated": lambda doc: dict(doc, sample_ids=doc["sample_ids"][1:2]
                                     + doc["sample_ids"][1:]),
    "ids-one-short": lambda doc: dict(doc, sample_ids=doc["sample_ids"][:-1]),
}


@pytest.mark.parametrize("mutate", BAD_ID_DOCS.values(), ids=BAD_ID_DOCS.keys())
def test_malformed_id_file_exits_two(id_file, tmp_path, capsys, mutate):
    bad = tmp_path / "bad.id.json"
    bad.write_text(json.dumps(mutate(json.loads(id_file.read_text()))))
    assert str(bad) in _assert_data_error(capsys, ["samples", "--id", str(bad)])


@pytest.mark.parametrize("text", ["{not json", "", "\xff\xfe"], ids=["brace", "empty", "bytes"])
def test_unparseable_id_file_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "bad.id.json"
    bad.write_bytes(text.encode("latin-1"))
    _assert_data_error(capsys, ["samples", "--id", str(bad)])


@settings(max_examples=40, deadline=None)
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_id_file_exits_two(id_file, tmp_path_factory, cut):
    text = id_file.read_bytes()
    bad = tmp_path_factory.mktemp("cut") / "cut.id.json"
    bad.write_bytes(text[:int(cut * (len(text) - 1))])  # never the closing brace
    for argv in (["samples", "--id", str(bad)],
                 ["lift", "--id", str(bad), "--high-skeleton", str(bad),
                  "--out", str(bad) + ".out"]):
        assert cli_main(argv) == 2


BAD_SIDECARS = {
    "not-json": "{not json",
    "missing-ids": '{"provenance": {}}',
    "ids-string": '{"sample_ids": "abc"}',
    "ids-numbers": '{"sample_ids": [1, 2]}',
    "not-an-object": '["a", "b"]',
    "ids-one-short": '{"sample_ids": ["a", "b"]}',
    "ids-repeated": '{"sample_ids": ["a", "b", "a"]}',
}
# the BFSM reader's lines for the sidecars that parse (a CSV file's header
# disagrees with them)
BFSM_SIDECAR_LINES = {
    "ids-one-short": "data error: {low}: sidecar lists 2 ids for 3 columns",
    "ids-repeated": "data error: {low}: sample ids must be distinct",
}


@pytest.mark.parametrize("fmt", ["bfsm", "csv"])
@pytest.mark.parametrize("name", BAD_SIDECARS)
def test_malformed_sidecar_exits_two(tmp_path, capsys, name, fmt):
    low = tmp_path / f"low.{fmt}"
    write_snapshots(from_array(np.eye(3)), low, fmt=fmt)
    Path(f"{low}.json").write_text(BAD_SIDECARS[name])
    line = _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                       "--out-id", str(tmp_path / "id.json")])
    if fmt == "bfsm" and name in BFSM_SIDECAR_LINES:
        assert line == BFSM_SIDECAR_LINES[name].format(low=low)


def test_a_csv_header_with_repeated_ids_names_the_file(tmp_path, capsys):
    low = tmp_path / "low.csv"
    low.write_text("a,b,a\n1,2,3\n")
    line = _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                       "--out-id", str(tmp_path / "id.json")])
    assert line == f"data error: {low}: sample ids must be distinct"


def test_a_csv_cell_past_the_field_limit_exits_two(tmp_path, capsys):
    low = tmp_path / "low.csv"
    low.write_text("a\n" + "1" * (csv.field_size_limit() + 1) + "\n")
    line = _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                       "--out-id", str(tmp_path / "id.json")])
    assert line == f"data error: {low}: neither BFSM binary nor parseable CSV"


def test_lift_rejects_misaligned_skeleton(tmp_path):
    paths = run_pipeline(tmp_path)
    high = read_snapshots(paths["high"])
    wrong = columns(high, [0])  # not the required sample
    dec, ids = read_id(paths["id"])
    if required_samples(dec, ids)[0] == high.sample_ids[0]:
        wrong = columns(high, [1])
    wrong_path = tmp_path / "wrong.bfsm"
    write_snapshots(wrong, wrong_path)
    assert cli_main([
        "lift", "--id", str(paths["id"]), "--high-skeleton", str(wrong_path),
        "--out", str(tmp_path / "out.bfsm"),
    ]) == 2


def test_lift_names_the_first_skeleton_id_that_differs(diffusion_files, tmp_path,
                                                       monkeypatch, capsys):
    """One short line, however many ids the two lists hold."""
    monkeypatch.chdir(tmp_path)
    low = str(diffusion_files["low"])
    assert cli_main(["decompose", "--low", low, "--rank", "4", "--out-id", "d.json"]) == 0
    dec, ids = read_id("d.json")
    need = required_samples(dec, ids)
    short = columns(read_snapshots(diffusion_files["high"]),
                    [ids.index(s) for s in need[:2]])
    write_snapshots(short, "short.bfsm")
    for skeleton, line in [
        (low, f"data error: high-fidelity skeleton has 40 ids where 4 are required; "
              f"at position 0 it has {ids[0]!r} where {need[0]!r} is required"),
        ("short.bfsm", f"data error: high-fidelity skeleton has 2 ids where 4 are "
                       f"required; at position 2 it has nothing where {need[2]!r} "
                       f"is required"),
    ]:
        capsys.readouterr()
        assert cli_main(["lift", "--id", "d.json", "--high-skeleton", skeleton,
                         "--out", "x.bfsm"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")
        assert len(captured.err.encode()) < 200
    assert not Path("x.bfsm").exists()


def test_a_failed_write_names_its_target(diffusion_files, tmp_path, monkeypatch, capsys):
    """The path as given, not the temporary file or the resolved path, and
    no temporary file is left behind."""
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    for out, line in [
        ("nodir/z.json", "data error: [Errno 2] No such file or directory: 'nodir/z.json'"),
        ("sub", "data error: [Errno 21] Is a directory: 'sub'"),
    ]:
        capsys.readouterr()
        assert cli_main(["decompose", "--low", str(diffusion_files["low"]),
                         "--rank", "3", "--out-id", out]) == 2
        assert capsys.readouterr() == ("", line + "\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


def test_help_and_version_exit_zero():
    assert cli_main(["--help"]) == 0
    assert cli_main(["--version"]) == 0


def _child_env():
    """This process's environment with the imported package's source
    directory first on PYTHONPATH: pytest's ``pythonpath`` setting reaches
    this process only, so a child needs it to run an uninstalled checkout."""
    src = str(Path(bifidelity.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bifidelity.cli", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0


# --------------------------------------------------------------------------
# a reader that stops early
# --------------------------------------------------------------------------

def _run_on_a_pipe(argv, lines_read):
    """Run the CLI with stdout on a pipe whose reader takes ``lines_read``
    lines and closes it; returns (exit code, lines read, stderr bytes)."""
    proc = subprocess.Popen([sys.executable, "-m", "bifidelity.cli", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    got = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), got, err


def test_samples_into_a_pipe_closed_after_one_line_exits_zero(tmp_path):
    """100 ids of 1000 characters: more than the pipe holds, so the command
    is still writing when the reader closes."""
    low = np.random.default_rng(5).standard_normal((100, 120))
    ids = [f"{j:04d}" + "x" * 996 for j in range(120)]
    decomposition = build_id(low, rank=100)
    write_id(decomposition, tmp_path / "id.json", sample_ids=ids)
    rc, got, err = _run_on_a_pipe(["samples", "--id", tmp_path / "id.json"], 1)
    assert (rc, err) == (0, b"")
    assert got == [f"{ids[decomposition.selected[0]]}\n".encode()]


def test_efficacy_into_a_pipe_closed_after_one_line_writes_its_out_file(tmp_path, capsys):
    """3000 trial lines overfill the pipe; the ratio file is written before
    the first of them, so it is whole although the reader stopped early."""
    rng = np.random.default_rng(6)
    ids = tuple(f"s{j}" for j in range(8))
    write_snapshots(SnapshotMatrix(rng.standard_normal((3, 8)), ids), tmp_path / "h.bfsm")
    write_snapshots(SnapshotMatrix(rng.standard_normal((3, 8)), ids), tmp_path / "l.bfsm")
    argv = ["efficacy", "--high", tmp_path / "h.bfsm", "--low", tmp_path / "l.bfsm",
            "--rank", "1", "--n", "2", "--trials", "3000", "--tau-min", "0",
            "--tau-max", "0", "--tau-count", "1", "--tau-scale", "linear", "--out"]
    assert cli_main([str(a) for a in argv + [tmp_path / "full.csv"]]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    rc, got, err = _run_on_a_pipe(argv + [tmp_path / "piped.csv"], 1)
    assert (rc, err) == (0, b"")
    assert got == [f"{first}\n".encode()]
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_bound_into_a_closed_pipe_writes_its_report(diffusion_files, tmp_path, capsys):
    """The reader closes before the command writes anything. A report that
    cannot be written is still a data error, before any stdout line."""
    argv = _command("bound", diffusion_files) + ["--out"]
    assert cli_main(argv + [str(tmp_path / "full.csv")]) == 0
    capsys.readouterr()
    rc, got, err = _run_on_a_pipe(argv + [tmp_path / "piped.csv"], 0)
    assert (rc, err) == (0, b"")
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    _assert_data_error(capsys, argv + [str(tmp_path / "missing" / "report.csv")])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_stdout_that_cannot_be_written_exits_two(id_file):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "bifidelity.cli", "samples",
                               "--id", str(id_file)], stdout=full, stderr=subprocess.PIPE,
                              env=_child_env())
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "data error: [Errno 28] No space left on device"]


def test_rank_zero_pipeline(tmp_path, capsys):
    """An all-zero ensemble: decompose --tol -> samples (none) -> lift."""
    ids = tuple(f"z{j}" for j in range(6))
    write_snapshots(SnapshotMatrix(np.zeros((3, 6)), ids), tmp_path / "z.low.bfsm")
    write_snapshots(SnapshotMatrix(np.zeros((4, 0)), ()), tmp_path / "z.skel.bfsm")
    id_path = tmp_path / "z.id.json"
    assert cli_main(["decompose", "--low", str(tmp_path / "z.low.bfsm"),
                     "--tol", "1e-3", "--out-id", str(id_path)]) == 0
    assert "rank: 0" in capsys.readouterr().out
    assert cli_main(["samples", "--id", str(id_path)]) == 0
    assert capsys.readouterr().out == ""
    est = tmp_path / "z.est.bfsm"
    assert cli_main(["lift", "--id", str(id_path), "--high-skeleton",
                     str(tmp_path / "z.skel.bfsm"), "--out", str(est)]) == 0
    back = read_snapshots(est)
    assert back.sample_ids == ids
    assert back.data.shape == (4, 6) and not back.data.any()
    # without sample_ids nothing in the file records the sample count
    doc = json.loads(id_path.read_text())
    doc["sample_ids"] = doc["required_sample_ids"] = None
    id_path.write_text(json.dumps(doc))
    _assert_data_error(capsys, ["samples", "--id", str(id_path)])


def test_pipeline_commands_never_load_scipy(diffusion_files, tmp_path):
    """No command imports scipy, generate included: the package runs on
    numpy and its BLAS runtime alone."""
    files = {k: str(v) for k, v in diffusion_files.items()}
    script = textwrap.dedent(f"""
        import sys
        from bifidelity.cli import _tau_grid_from_args, build_parser, cli_main
        from bifidelity.lifting import required_samples
        from bifidelity.snapio import read_id, read_snapshots, write_snapshots
        from bifidelity.snapshots import SnapshotMatrix

        def run(*argv):
            assert cli_main(list(argv)) == 0, argv

        d, f = {str(tmp_path)!r}, {files!r}
        run("generate", "diffusion", "--samples", "5", "--out", d + "/gen")
        run("generate", "beam", "--samples", "5", "--out", d + "/beam")
        run("decompose", "--low", f["low"], "--rank", "4", "--out-id", d + "/r.json")
        run("decompose", "--low", f["low"], "--tol", "1e-3", "--out-id", d + "/t.json")
        run("samples", "--id", d + "/r.json")
        dec, ids = read_id(d + "/r.json")
        high = read_snapshots(f["high"])
        need = required_samples(dec, ids)
        cols = [high.sample_ids.index(s) for s in need]
        write_snapshots(SnapshotMatrix(high.data[:, cols], need), d + "/skel.bfsm")
        run("lift", "--id", d + "/r.json", "--high-skeleton", d + "/skel.bfsm",
            "--out", d + "/est.bfsm")
        run("bound", "--low", f["low"], "--high-sub", f["sub"], "--rank", "4")
        run("efficacy", "--high", f["high"], "--low", f["low"], "--rank", "4",
            "--n", "10", "--trials", "2")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_overflowing_column_norms_exit_two_without_warnings(tmp_path, capsys):
    """An entry of 1e300 squares past the float range, but the QR works on
    A scaled below 1, so its column norms never overflow: --rank 1 pivots
    on that entry. The residual left after it lies about 1e300 below it,
    where every column norm underflows to 0 while the block is not zero, so
    --rank 3 stops with a data error instead of returning rank 1."""
    data = np.random.default_rng(0).standard_normal((3, 4))
    data[1, 2] = 1e300
    low = tmp_path / "low.bfsm"
    write_snapshots(from_array(data), low)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["decompose", "--low", str(low), "--rank", "1",
                         "--out-id", str(tmp_path / "one.json")]) == 0
        assert capsys.readouterr().err == ""
        assert read_id(tmp_path / "one.json")[0].selected == (2,)
        _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "3",
                                    "--out-id", str(tmp_path / "id.json")])
    assert caught == []
    assert not (tmp_path / "id.json").exists()


# --------------------------------------------------------------------------
# bound report in both modes, read back through the CLI's own stdout
# --------------------------------------------------------------------------

def _stdout_fields(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


@pytest.mark.parametrize("two_tau", [False, True], ids=["single", "two-tau"])
def test_bound_report_round_trip(diffusion_files, tmp_path, capsys, two_tau):
    report = tmp_path / "report.csv"
    capsys.readouterr()
    assert cli_main(_command("bound", diffusion_files) + ["--out", str(report)]
                    + (["--two-tau"] if two_tau else [])) == 0
    fields = _stdout_fields(capsys.readouterr().out)
    lines = report.read_text().splitlines()
    assert lines[0] == "k,tau,eps_hat,rho,valid"
    body = [line.split(",") for line in lines[1:] if line.split(",")[4] in ("true", "false")]
    tail = [line.split(",") for line in lines[1 + len(body):]]
    eps_at = {float(row[1]): float(row[2]) for row in body}
    best_k, best_rho = int(fields["best_k"]), float(fields["best_rho"])
    if not two_tau:
        assert [row[4] for row in tail] == ["summary"]
        k, tau, eps_hat, value, _ = tail[0]
        assert float(tau) == float(fields["best_tau"])
        assert float(eps_hat) == eps_at[float(tau)]
        # the single-tau summary is the body cell it names
        assert [k, tau, eps_hat, value, "true"] in body
        assert (int(k), float(value)) == (best_k, best_rho)
        return
    assert [row[4] for row in tail] == ["b1", "b2", "summary"]
    (k1, tau1, eps1, b1, _), (k2, tau2, eps2, b2, _), summary = tail
    assert int(k1) == int(k2) == int(summary[0]) == best_k
    assert (float(tau1), float(tau2)) == (float(fields["best_tau"]),
                                         float(fields["best_tau2"]))
    assert (float(eps1), float(eps2)) == (eps_at[float(tau1)], eps_at[float(tau2)])
    assert (float(b1), float(b2)) == (float(fields["b1"]), float(fields["b2"]))
    assert summary[1:3] == ["", ""]
    assert float(summary[3]) == best_rho == float(b1) + float(b2)


# --------------------------------------------------------------------------
# mutated snapshot files: exit 2 with one line, never a traceback
# --------------------------------------------------------------------------

MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.just("cut"), st.integers(0, 2**16), st.just(0)),
)


def _mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for op, pos, arg in ops:
        i = pos % (len(out) + 1)
        if op == "insert":
            out[i:i] = bytes([arg])
        elif op == "cut":
            del out[i:]
        elif i < len(out):
            if op == "set":
                out[i] = arg
            elif op == "flip":
                out[i] ^= 1 << arg
            else:
                del out[i]
    return bytes(out)


@pytest.fixture(scope="module")
def snapshot_bytes(tmp_path_factory):
    """Payload and sidecar bytes of one small matrix in both formats."""
    d = tmp_path_factory.mktemp("pristine")
    m = SnapshotMatrix(np.random.default_rng(3).standard_normal((3, 4)),
                       ("a", "b,c", 'd"e', "f"))
    files = {}
    for fmt in ("bfsm", "csv"):
        write_snapshots(m, d / f"m.{fmt}", fmt=fmt)
        files[fmt] = ((d / f"m.{fmt}").read_bytes(),
                      Path(f"{d / f'm.{fmt}'}.json").read_bytes())
    return files


def _decompose_mutated(directory, fmt, payload, sidecar):
    """(exit code, stdout, stderr) of ``decompose`` on the given bytes, and
    whether ``read_snapshots`` accepts them."""
    path = directory / f"m.{fmt}"
    path.write_bytes(payload)
    Path(f"{path}.json").write_bytes(sidecar)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["decompose", "--low", str(path), "--rank", "1",
                         "--out-id", str(directory / "id.json")])
    try:
        read_snapshots(path)
        readable = True
    except DataError:
        readable = False
    return code, out.getvalue(), err.getvalue(), readable


def _assert_one_line_data_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(["bfsm", "csv"]),
       target=st.sampled_from(["payload", "sidecar"]),
       ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_snapshot_file_exits_two_or_reads(snapshot_bytes, tmp_path_factory,
                                                  fmt, target, ops):
    payload, sidecar = snapshot_bytes[fmt]
    if target == "payload":
        payload = _mutate(payload, ops)
    else:
        sidecar = _mutate(sidecar, ops)
    code, out, err, readable = _decompose_mutated(
        tmp_path_factory.mktemp("mut"), fmt, payload, sidecar)
    # a mutation may leave a well-formed file (a changed digit or id);
    # everything else is a one-line data error, never a traceback
    if not readable:
        _assert_one_line_data_error(code, out, err)
    else:
        assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from([("bfsm", "payload"), ("bfsm", "header"),
                             ("bfsm", "sidecar"), ("csv", "sidecar")]),
       pos=st.integers(0, 2**16), byte=st.integers(0, 255))
def test_truncated_file_or_corrupt_header_always_exits_two(snapshot_bytes,
                                                           tmp_path_factory,
                                                           case, pos, byte):
    fmt, target = case
    payload, sidecar = snapshot_bytes[fmt]
    if target == "sidecar":
        # cut before the closing brace: never a complete JSON document
        sidecar = sidecar[:pos % sidecar.rindex(b"}")]
    elif target == "payload":
        payload = payload[:pos % len(payload)]
    else:  # magic, version or shape: any change breaks the file
        i = pos % 24
        new = byte if byte != payload[i] else byte ^ 1
        payload = payload[:i] + bytes([new]) + payload[i + 1:]
    code, out, err, readable = _decompose_mutated(
        tmp_path_factory.mktemp("cut"), fmt, payload, sidecar)
    assert not readable
    _assert_one_line_data_error(code, out, err)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"sample_ids": ["a", "b", "c"], "n": ' + "1" * 5000 + "}",
], ids=["deep-nesting", "long-integer"])
def test_sidecar_past_json_limits_exits_two(tmp_path, capsys, text):
    low = tmp_path / "low.bfsm"
    write_snapshots(from_array(np.eye(3)), low)
    Path(f"{low}.json").write_text(text)
    _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                "--out-id", str(tmp_path / "id.json")])


@pytest.mark.parametrize("dim,n", [(2**63, 0), (2**64 - 1, 0), (0, 2**63),
                                   (2**62, 0), (2**60, 0), (0, 2**60)])
def test_bfsm_header_beyond_array_limits_exits_two(tmp_path, capsys, dim, n):
    low = tmp_path / "low.bfsm"
    low.write_bytes(struct.pack("<4sIQQ", b"BFSM", 1, dim, n))
    _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                "--out-id", str(tmp_path / "id.json")])


@pytest.mark.parametrize("dim", [2**62, 2**60, 2**59])
def test_lift_of_rank_zero_with_a_huge_empty_skeleton_exits_two(tmp_path, capsys, dim):
    """A skeleton without columns has no payload to bound its row count: the
    header alone, or the estimate it implies, can pass numpy's array size."""
    low = tmp_path / "z.low.bfsm"
    write_snapshots(SnapshotMatrix(np.zeros((4, 6)), tuple("abcdef")), low)
    id_path = tmp_path / "z.id.json"
    assert cli_main(["decompose", "--low", str(low), "--tol", "1e-3",
                     "--out-id", str(id_path)]) == 0
    skeleton = tmp_path / "skel.bfsm"
    skeleton.write_bytes(struct.pack("<4sIQQ", b"BFSM", 1, dim, 0))
    _assert_data_error(capsys, ["lift", "--id", str(id_path), "--high-skeleton",
                                str(skeleton), "--out", str(tmp_path / "est.bfsm")])


def test_samples_with_an_unprintable_id_exits_two(tmp_path, capsys):
    """BFSM carries a lone surrogate id; stdout cannot encode it."""
    low = tmp_path / "low.bfsm"
    write_snapshots(SnapshotMatrix(np.eye(3), ("\ud800", "b", "c")), low)
    assert cli_main(["decompose", "--low", str(low), "--rank", "1",
                     "--out-id", str(tmp_path / "id.json")]) == 0
    _assert_data_error(capsys, ["samples", "--id", str(tmp_path / "id.json")])


# --------------------------------------------------------------------------
# efficacy: one all-invalid trial aborts the study
# --------------------------------------------------------------------------

def test_efficacy_all_invalid_trial_exits_three(tmp_path, capsys):
    """With L = I and H = 0.1 I every sub-sample of one column has
    eps_hat = 2 (0.01 - tau) and every (k, tau) is invalid at tau = 10."""
    ids = ("a", "b")
    write_snapshots(SnapshotMatrix(0.1 * np.eye(2), ids), tmp_path / "h.bfsm")
    write_snapshots(SnapshotMatrix(np.eye(2), ids), tmp_path / "l.bfsm")
    capsys.readouterr()
    assert cli_main([
        "efficacy", "--high", str(tmp_path / "h.bfsm"), "--low", str(tmp_path / "l.bfsm"),
        "--rank", "1", "--n", "1", "--trials", "3",
        "--tau-min", "10", "--tau-max", "10", "--tau-count", "1",
        "--out", str(tmp_path / "ratios.csv"),
    ]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numerical failure: trial 0: every (k, tau) combination had a negative radicand"
    ]
    assert not (tmp_path / "ratios.csv").exists()


# --------------------------------------------------------------------------
# efficacy: the pruned search prints what a full sweep per trial gives
# --------------------------------------------------------------------------

EFFICACY_STUDIES = {
    # generate flags, efficacy flags; 16 + 8 output rows < 40 columns puts
    # the reduced study on the p x p pencil, the others on the n x n one
    "diffusion": (["diffusion", "--samples", "150", "--seed", "4"],
                  ["--rank", "10", "--n", "20"]),
    "diffusion-reduced": (["diffusion", "--samples", "150", "--seed", "5",
                           "--mesh-low", "8", "--mesh-high", "16"],
                          ["--rank", "6", "--n", "40"]),
    "beam": (["beam", "--samples", "60", "--seed", "6", "--grid", "32"],
             ["--rank", "3", "--n", "12"]),
}
GRID_FLAGS = {"default": [], "linear": ["--tau-min", "1e-3", "--tau-scale", "linear"]}


@pytest.mark.parametrize("grid", sorted(GRID_FLAGS))
@pytest.mark.parametrize("study", sorted(EFFICACY_STUDIES))
def test_efficacy_output_matches_a_full_sweep_per_trial(tmp_path, capsys, study,
                                                        grid):
    generate, flags = EFFICACY_STUDIES[study]
    assert cli_main(["generate", *generate, "--out", str(tmp_path / "s")]) == 0
    high, low = tmp_path / "s.high.bfsm", tmp_path / "s.low.bfsm"
    out = tmp_path / "ratios.csv"
    argv = ["efficacy", "--high", str(high), "--low", str(low), *flags,
            "--trials", "25", "--seed", "2", *GRID_FLAGS[grid], "--out", str(out)]
    capsys.readouterr()
    assert cli_main(argv) == 0
    stdout = capsys.readouterr().out

    args = build_parser().parse_args(argv)
    ratios, true_error = efficacy_full_sweep(
        read_snapshots(high), read_snapshots(low), args.rank, args.n,
        args.trials, args.seed, _tau_grid_from_args(args))
    rows = [(t, repr(float(r))) for t, r in enumerate(ratios)]
    mean = repr(float(np.mean(ratios)))
    assert stdout == "".join(f"trial {t}: {r}\n" for t, r in rows) \
        + f"mean: {mean}\ntrue_error: {true_error!r}\n{out}\n"
    assert out.read_bytes() == ("trial,ratio\n" + "".join(f"{t},{r}\n" for t, r in rows)
                                + f"mean,{mean}\n").encode("utf-8")


def test_bfsm_lift_holds_one_estimate(tmp_path):
    """evaluate_all builds the estimate column-major, as a BFSM payload holds
    it, so the write takes its buffer without a copy: on a 256 x 2000 study
    the traced peak of lift is within 1.3 times the estimate's bytes (1.15
    here; a row-major estimate and its column-major copy read 2.10)."""
    cfg = DiffusionConfig(mesh_low=16, mesh_high=256)
    high, low = diffusion_pair(draw_diffusion_samples(2000, seed=1, cfg=cfg), cfg)
    dec = build_id(low, rank=10)
    write_id(dec, tmp_path / "id.json", sample_ids=low.sample_ids)
    write_snapshots(columns(high, dec.selected), tmp_path / "skel.bfsm")
    estimate_bytes = high.data.nbytes
    del high, low, dec
    tracemalloc.start()
    try:
        assert cli_main(["lift", "--id", str(tmp_path / "id.json"),
                         "--high-skeleton", str(tmp_path / "skel.bfsm"),
                         "--out", str(tmp_path / "est.bfsm")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * estimate_bytes, peak / estimate_bytes


#: 10**17 float64s (800 PB) exceed any address space, so numpy's allocation
#: fails under every overcommit policy; 10**30 exceeds numpy's size limit
HUGE_COUNTS = {
    "bound-tau-count": ("bound", ["--tau-count"]),
    "efficacy-tau-count": ("efficacy", ["--tau-count"]),
    "efficacy-trials": ("efficacy", ["--trials"]),
    "generate-diffusion-samples": ("generate", ["diffusion", "--samples"]),
    "generate-beam-samples": ("generate", ["beam", "--samples"]),
    "generate-beam-grid": ("generate", ["beam", "--grid"]),
}


@pytest.mark.parametrize("count", [10**17, 10**30], ids=["memory", "size-limit"])
@pytest.mark.parametrize("command,flags", HUGE_COUNTS.values(), ids=HUGE_COUNTS.keys())
def test_a_count_that_cannot_be_allocated_exits_two(diffusion_files, tmp_path, capsys,
                                                    command, flags, count):
    argv = flags + [str(count)]
    if command == "generate":
        argv = ["generate"] + argv + ["--out", str(tmp_path / "g")]
    else:
        argv = _command(command, diffusion_files) + argv
    _assert_data_error(capsys, argv)
    assert list(tmp_path.iterdir()) == []


def test_a_value_error_that_is_no_size_limit_stays_a_fault(diffusion_files, monkeypatch):
    """LinAlgError is a ValueError too: only numpy's size limit is a data error."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(bifidelity.cli, "build_id", fail)
    with pytest.raises(np.linalg.LinAlgError):
        cli_main(_command("bound", diffusion_files))


def test_lift_of_rank_zero_whose_estimate_cannot_be_allocated_exits_two(tmp_path, capsys):
    """A 2**40-row skeleton header implies a 48 TiB estimate: below numpy's
    array limit, so only the allocation itself can fail."""
    low = tmp_path / "z.low.bfsm"
    write_snapshots(SnapshotMatrix(np.zeros((4, 6)), tuple("abcdef")), low)
    id_path = tmp_path / "z.id.json"
    assert cli_main(["decompose", "--low", str(low), "--tol", "1e-3",
                     "--out-id", str(id_path)]) == 0
    skeleton = tmp_path / "skel.bfsm"
    skeleton.write_bytes(struct.pack("<4sIQQ", b"BFSM", 1, 2**40, 0))
    _assert_data_error(capsys, ["lift", "--id", str(id_path), "--high-skeleton",
                                str(skeleton), "--out", str(tmp_path / "est.bfsm")])
    assert not (tmp_path / "est.bfsm").exists()
