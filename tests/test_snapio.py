import json

import numpy as np
import pytest

from bifidelity.errors import (
    BadMagic,
    NonFiniteEntry,
    TruncatedPayload,
    VersionUnsupported,
)
from bifidelity.interp import build_id
from bifidelity.snapio import read_id, read_snapshots, write_id, write_snapshots
from bifidelity.snapshots import SnapshotMatrix


def sample_matrix(seed=0, dim=7, n=11):
    rng = np.random.default_rng(seed)
    return SnapshotMatrix(
        data=rng.standard_normal((dim, n)),
        sample_ids=tuple(f"s{j:03d}" for j in range(n)),
    )


def test_binary_round_trip_bitwise(tmp_path):
    m = sample_matrix()
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    back = read_snapshots(path)
    assert np.array_equal(back.data, m.data)
    assert back.data.tobytes() == m.data.tobytes()
    assert back.sample_ids == m.sample_ids


def test_binary_write_is_reproducible(tmp_path):
    m = sample_matrix(seed=3)
    a, b = tmp_path / "a.bfsm", tmp_path / "b.bfsm"
    write_snapshots(m, a)
    write_snapshots(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_single_zero_entry_layout(tmp_path):
    m = SnapshotMatrix(data=np.zeros((1, 1)), sample_ids=("only",))
    path = tmp_path / "one.bfsm"
    write_snapshots(m, path)
    raw = path.read_bytes()
    # magic(4) + version u32(4) + dim u64(8) + n u64(8) + one f64(8)
    assert len(raw) == 32
    assert raw[:4] == b"BFSM"
    assert raw[24:] == b"\x00" * 8


def test_csv_round_trip_exact_values(tmp_path):
    m = sample_matrix(seed=5)
    path = tmp_path / "m.csv"
    write_snapshots(m, path, fmt="csv")
    back = read_snapshots(path)
    assert np.array_equal(back.data, m.data)
    assert back.sample_ids == m.sample_ids


def test_csv_round_trip_quotes_special_ids(tmp_path):
    ids = ("a,b", 'say "hi"', "two\nlines", "plain")
    m = SnapshotMatrix(data=np.arange(8.0).reshape(2, 4), sample_ids=ids)
    path = tmp_path / "m.csv"
    write_snapshots(m, path, fmt="csv")
    assert path.read_text().splitlines()[0].startswith('"a,b","say ""hi""",')
    back = read_snapshots(path)
    assert back.sample_ids == ids
    assert np.array_equal(back.data, m.data)


def test_csv_plain_ids_keep_the_joined_layout(tmp_path):
    m = sample_matrix(seed=6, dim=2, n=3)
    path = tmp_path / "m.csv"
    write_snapshots(m, path, fmt="csv")
    rows = [",".join(m.sample_ids)]
    rows += [",".join(repr(float(v)) for v in row) for row in m.data]
    assert path.read_text() == "\n".join(rows) + "\n"


def test_csv_rejects_nan_naming_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\nnan,4.0\n")
    with pytest.raises(NonFiniteEntry) as err:
        read_snapshots(path)
    assert "row 1" in str(err.value)
    assert "'a'" in str(err.value)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bfsm"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        read_snapshots(path, fmt="bfsm")


def test_unsupported_version(tmp_path):
    m = sample_matrix(seed=1, dim=2, n=2)
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionUnsupported):
        read_snapshots(path)


def test_truncated_payload(tmp_path):
    m = sample_matrix(seed=2, dim=3, n=4)
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayload):
        read_snapshots(path)


def test_trailing_bytes_rejected(tmp_path):
    m = sample_matrix(seed=2, dim=3, n=4)
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(TruncatedPayload):
        read_snapshots(path)


def test_binary_nonfinite_entry_rejected(tmp_path):
    m = sample_matrix(seed=4, dim=2, n=2)
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    raw = bytearray(path.read_bytes())
    raw[24:32] = np.float64("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteEntry):
        read_snapshots(path)


def test_missing_sidecar_yields_positional_ids(tmp_path):
    m = sample_matrix(seed=6, dim=2, n=3)
    path = tmp_path / "m.bfsm"
    write_snapshots(m, path)
    (tmp_path / "m.bfsm.json").unlink()
    back = read_snapshots(path)
    assert back.sample_ids == ("col-000000", "col-000001", "col-000002")


def test_sidecar_id_mismatch_rejected(tmp_path):
    m = sample_matrix(seed=7, dim=2, n=3)
    path = tmp_path / "m.csv"
    write_snapshots(m, path, fmt="csv")
    sidecar = tmp_path / "m.csv.json"
    doc = json.loads(sidecar.read_text())
    doc["sample_ids"] = ["x", "y", "z"]
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(Exception):
        read_snapshots(path)


def test_format_sniffing(tmp_path):
    m = sample_matrix(seed=8, dim=2, n=3)
    binary = tmp_path / "a.dat"
    text = tmp_path / "b.dat"
    write_snapshots(m, binary, fmt="bfsm")
    write_snapshots(m, text, fmt="csv")
    assert np.array_equal(read_snapshots(binary).data, m.data)
    assert np.array_equal(read_snapshots(text).data, m.data)


def test_id_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    low = SnapshotMatrix.from_array(rng.standard_normal((6, 10)))
    dec = build_id(low, rank=3)
    path = tmp_path / "dec.json"
    write_id(dec, path, sample_ids=low.sample_ids)
    back, ids = read_id(path)
    assert back.rank == dec.rank
    assert back.selected == dec.selected
    assert np.array_equal(back.skeleton, dec.skeleton)
    assert np.array_equal(back.coeffs, dec.coeffs)
    assert back.residual_norm == dec.residual_norm
    assert ids == low.sample_ids


def test_id_file_rejects_other_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(BadMagic):
        read_id(path)
