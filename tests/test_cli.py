import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifidelity
from bifidelity.cli import cli_main
from bifidelity.errors import DataError
from bifidelity.snapio import read_id, read_snapshots, write_snapshots
from bifidelity.lifting import required_samples
from bifidelity.linalg import spectral_norm
from bifidelity.snapshots import SnapshotMatrix


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
    write_snapshots(high.columns(skeleton_cols), paths["skeleton"])

    sub_idx = np.sort(np.random.default_rng(seed).choice(high.n_samples, 8,
                                                         replace=False))
    write_snapshots(high.columns(sub_idx), paths["sub"])

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
    from bifidelity.snapshots import SnapshotMatrix
    low = SnapshotMatrix.from_array(rng.standard_normal((6, 12)))
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
    write_snapshots(high.columns(list(range(0, 40, 4))), d / "diff.sub.bfsm")
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
    from bifidelity.snapshots import SnapshotMatrix
    low = SnapshotMatrix.from_array(rng.standard_normal((4, 9)))
    low_path = tmp_path / "low.bfsm"
    write_snapshots(low, low_path)
    assert cli_main([
        "decompose", "--low", str(low_path), "--tol", "0.0",
        "--out-id", str(tmp_path / "id.json"),
    ]) == 3
    assert "numerical failure" in capsys.readouterr().err


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


BAD_ID_DOCS = {
    "missing-rank": _without("rank"),
    "missing-coeffs": _without("coeffs"),
    "missing-selected": _without("selected"),
    "missing-skeleton": _without("skeleton"),
    "missing-residual": _without("residual_norm"),
    "selected-string": _with("selected", "012"),
    "selected-floats": _with("selected", [0.0, 1.0, 2.0]),
    "rank-string": _with("rank", "3"),
    "coeffs-ragged": _with("coeffs", [[1.0, 2.0], [3.0]]),
    "coeffs-flat": _with("coeffs", []),
    "skeleton-text": _with("skeleton", [["a"]]),
    "residual-null": _with("residual_norm", None),
    "ids-string": _with("sample_ids", "abc"),
    "ids-numbers": _with("sample_ids", [1, 2, 3]),
    "not-an-object": lambda doc: [doc],
}


@pytest.mark.parametrize("mutate", BAD_ID_DOCS.values(), ids=BAD_ID_DOCS.keys())
def test_malformed_id_file_exits_two(id_file, tmp_path, capsys, mutate):
    bad = tmp_path / "bad.id.json"
    bad.write_text(json.dumps(mutate(json.loads(id_file.read_text()))))
    _assert_data_error(capsys, ["samples", "--id", str(bad)])


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
}


@pytest.mark.parametrize("fmt", ["bfsm", "csv"])
@pytest.mark.parametrize("text", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
def test_malformed_sidecar_exits_two(tmp_path, capsys, text, fmt):
    low = tmp_path / f"low.{fmt}"
    write_snapshots(SnapshotMatrix.from_array(np.eye(3)), low, fmt=fmt)
    Path(f"{low}.json").write_text(text)
    _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
                                "--out-id", str(tmp_path / "id.json")])


def test_lift_rejects_misaligned_skeleton(tmp_path):
    paths = run_pipeline(tmp_path)
    high = read_snapshots(paths["high"])
    wrong = high.columns([0])  # not the required sample
    dec, ids = read_id(paths["id"])
    if required_samples(dec, ids)[0] == high.sample_ids[0]:
        wrong = high.columns([1])
    wrong_path = tmp_path / "wrong.bfsm"
    write_snapshots(wrong, wrong_path)
    assert cli_main([
        "lift", "--id", str(paths["id"]), "--high-skeleton", str(wrong_path),
        "--out", str(tmp_path / "out.bfsm"),
    ]) == 2


def test_help_and_version_exit_zero():
    assert cli_main(["--help"]) == 0
    assert cli_main(["--version"]) == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bifidelity.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


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
        from bifidelity.cli import cli_main
        from bifidelity.lifting import required_samples
        from bifidelity.snapio import read_id, read_snapshots, write_snapshots

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
        write_snapshots(high.columns([high.sample_ids.index(s) for s in need]),
                        d + "/skel.bfsm")
        run("lift", "--id", d + "/r.json", "--high-skeleton", d + "/skel.bfsm",
            "--out", d + "/est.bfsm")
        run("bound", "--low", f["low"], "--high-sub", f["sub"], "--rank", "4")
        run("efficacy", "--high", f["high"], "--low", f["low"], "--rank", "4",
            "--n", "10", "--trials", "2")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(bifidelity.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_overflowing_column_norms_exit_two_without_warnings(tmp_path, capsys):
    """An entry of 1e300 squares past the float range: the QR's column norms
    overflow, so decompose stops with a data error instead of pivoting on
    an infinite norm."""
    data = np.random.default_rng(0).standard_normal((3, 4))
    data[1, 2] = 1e300
    low = tmp_path / "low.bfsm"
    write_snapshots(SnapshotMatrix.from_array(data), low)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_data_error(capsys, ["decompose", "--low", str(low), "--rank", "1",
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
    write_snapshots(SnapshotMatrix.from_array(np.eye(3)), low)
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
