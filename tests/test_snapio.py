import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bifidelity.bound import GramianPair, minimize_bound, write_bound_report
from bifidelity.errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    NonFiniteEntry,
    TruncatedPayload,
    VersionUnsupported,
)
from bifidelity.interp import build_id
from bifidelity.linalg import singular_values
from bifidelity.snapio import (
    _atomic_write,
    read_id,
    read_snapshots,
    write_id,
    write_snapshots,
)
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
    path.write_bytes(b"NOPE\xff" + b"\x00" * 40)  # neither BFSM nor UTF-8
    with pytest.raises(BadMagic):
        read_snapshots(path)


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


def test_rank_zero_id_file_round_trip(tmp_path):
    dec = build_id(np.zeros((3, 5)), tol=1e-3)
    path = tmp_path / "zero.json"
    write_id(dec, path, sample_ids=[f"z{j}" for j in range(5)])
    back, ids = read_id(path)
    assert back.rank == 0 and back.coeffs.shape == (0, 5)
    assert back.skeleton.shape == (3, 0)
    assert ids == tuple(f"z{j}" for j in range(5))
    with pytest.raises(DimensionMismatch):
        write_id(dec, tmp_path / "bare.json")  # would not record the sample count


# --------------------------------------------------------------------------
# any ids and values round-trip, or the writer says why it cannot
# --------------------------------------------------------------------------

# every code point, lone surrogates included, with the characters the CSV
# form treats specially and a magic-like prefix drawn often
ANY_ID = st.tuples(
    st.sampled_from(["", "", "BFSM"]),
    st.text(st.sampled_from(',"\r\n \0') | st.characters(exclude_categories=()),
            max_size=8),
).map("".join)


def _csv_cannot_carry(ids):
    return ids[0].startswith("BFSM") or any(
        "\0" in s or any(0xD800 <= ord(c) < 0xE000 for c in s) for s in ids
    )


@st.composite
def snapshot_matrices(draw):
    ids = draw(st.lists(ANY_ID, min_size=1, max_size=5, unique=True))
    data = draw(hnp.arrays(
        np.float64, (draw(st.integers(1, 4)), len(ids)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    return SnapshotMatrix(data=data, sample_ids=tuple(ids))


@settings(max_examples=300, deadline=None)
@given(m=snapshot_matrices(), fmt=st.sampled_from(["bfsm", "csv"]))
@example(m=SnapshotMatrix(np.ones((1, 2)), ("x\ry", "b")), fmt="csv")
@example(m=SnapshotMatrix(np.ones((1, 2)), (" a", "b ")), fmt="csv")
@example(m=SnapshotMatrix(np.ones((1, 1)), ("",)), fmt="csv")
def test_any_ids_and_values_round_trip(tmp_path_factory, m, fmt):
    path = tmp_path_factory.mktemp("ids") / f"m.{fmt}"
    try:
        write_snapshots(m, path, fmt=fmt)
    except DataError:
        assert fmt == "csv" and _csv_cannot_carry(m.sample_ids)
        assert not path.exists()
        return
    back = read_snapshots(path)
    assert back.sample_ids == m.sample_ids
    assert back.data.tobytes() == m.data.tobytes()
    plain = not any(c in s for s in m.sample_ids for c in ',"\n\r')
    if fmt == "csv" and plain and m.sample_ids != ("",):
        header = path.read_bytes().split(b"\n")[0]
        assert header == ",".join(m.sample_ids).encode("utf-8")


def test_csv_rejects_what_it_cannot_carry(tmp_path):
    data = np.ones((2, 2))
    for ids in [("a\0b", "c"), ("a", "\ud800"), ("BFSM-1", "c"),
                ("a", "x" * (2**17 + 1))]:
        with pytest.raises(DataError):
            write_snapshots(SnapshotMatrix(data, ids), tmp_path / "m.csv", fmt="csv")
    with pytest.raises(DataError):
        write_snapshots(SnapshotMatrix(np.ones((2, 0)), ()), tmp_path / "m.csv", fmt="csv")
    # quoting keeps a magic-like id clear of the sniffer, and BFSM carries all
    for ids, fmt in [(("BFSM,1", "c"), "csv"), (("BFSM-1", "\0\ud800"), "bfsm")]:
        write_snapshots(SnapshotMatrix(data, ids), tmp_path / "ok", fmt=fmt)
        assert read_snapshots(tmp_path / "ok").sample_ids == ids
    assert not (tmp_path / "m.csv").exists()


def test_zero_column_binary_round_trip(tmp_path):
    m = SnapshotMatrix(np.ones((3, 0)), ())
    write_snapshots(m, tmp_path / "empty.bfsm")
    back = read_snapshots(tmp_path / "empty.bfsm")
    assert back.data.shape == (3, 0) and back.sample_ids == ()


# --------------------------------------------------------------------------
# whole-file writes
# --------------------------------------------------------------------------

def _tiny_report():
    rng = np.random.default_rng(3)
    high = SnapshotMatrix.from_array(rng.standard_normal((4, 6)))
    low = SnapshotMatrix.from_array(rng.standard_normal((3, 6)))
    dec = build_id(low, rank=2)
    return minimize_bound(GramianPair.full(high, low), singular_values(low.data),
                          dec.coeff_norm(), dec.residual_norm)


WRITERS = {
    "bfsm": lambda path: write_snapshots(sample_matrix(seed=1), path),
    "csv": lambda path: write_snapshots(sample_matrix(seed=1), path, fmt="csv"),
    "id": lambda path: write_id(build_id(sample_matrix(seed=1), rank=2), path),
    "report": lambda path: write_bound_report(_tiny_report(), path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write(target)
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]  # no temp left


def test_atomic_write_gives_the_plain_open_mode_and_follows_symlinks(tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    _atomic_write(tmp_path / "new", b"data")
    assert stat.S_IMODE(os.stat(tmp_path / "new").st_mode) == stat.S_IMODE(
        os.stat(plain).st_mode)
    link = tmp_path / "link"
    link.symlink_to(plain)
    _atomic_write(link, b"through")
    assert link.is_symlink() and plain.read_bytes() == b"through"


def test_atomic_write_feeds_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    _atomic_write(fifo, b"data")
    reader.join(10)
    assert got == [b"data"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("order", ["C", "F"])
def test_bfsm_write_holds_at_most_one_copy_of_the_payload(tmp_path, order):
    data = np.asarray(np.random.default_rng(4).standard_normal((500, 400)), order=order)
    m = SnapshotMatrix(data, tuple(f"s{j}" for j in range(400)))
    tracemalloc.start()
    try:
        write_snapshots(m, tmp_path / "m.bfsm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a column-major copy of a row-major matrix; the bytes go out unconcatenated
    assert peak <= 1.25 * data.nbytes
    raw = (tmp_path / "m.bfsm").read_bytes()
    assert raw[24:] == m.data.tobytes(order="F")


# --------------------------------------------------------------------------
# who holds a snapshot matrix's data
# --------------------------------------------------------------------------

def _sources(data):
    """(array handed to SnapshotMatrix, a caller-side write or None, the
    caller's own buffer) for each way a caller can hold the data."""
    shape = data.shape
    a = data.copy()
    yield a, lambda: a.__iadd__(1.0), a
    b = data.copy()
    yield b[:, ::-1][:, ::-1], lambda: b.__iadd__(1.0), b  # a writable view
    big = np.zeros((shape[0], 2 * shape[1]))
    big[:, ::2] = data
    yield big[:, ::2], lambda: big.__iadd__(1.0), big  # a strided view
    c = data.copy()
    ro = c.view()
    ro.flags.writeable = False
    yield ro, lambda: c.__iadd__(1.0), c  # read-only view of a writable array
    for writeable in (True, False):
        buf = bytearray(data.tobytes(order="F"))
        arr = np.frombuffer(buf).reshape(shape, order="F")
        arr.flags.writeable = writeable

        def rewrite(buf=buf):
            buf[:] = (data + 1.0).tobytes(order="F")
        yield arr, rewrite, arr
    raw = data.tobytes(order="F")
    over_bytes = np.frombuffer(raw).reshape(shape, order="F")
    yield over_bytes, None, over_bytes  # no one can write it, and it is copied


@settings(max_examples=100, deadline=None)
@given(data=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                       elements=st.floats(-1e6, 1e6)))
def test_no_caller_side_write_reaches_a_snapshot_matrix(data):
    ids = tuple(f"s{j}" for j in range(data.shape[1]))
    for src, write, owner in _sources(data):
        m = SnapshotMatrix(src, ids)
        before = m.data.tobytes()
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0
        assert not np.shares_memory(m.data, owner)
        if write is not None:
            write()
        assert m.data.tobytes() == before
        sub = m.columns([0])
        assert not sub.data.flags.writeable
        assert not np.shares_memory(sub.data, m.data)


@pytest.mark.parametrize("fmt", ["bfsm", "csv"])
def test_a_read_matrix_is_read_only_and_its_own(tmp_path, fmt):
    m = sample_matrix(seed=5)
    path = tmp_path / f"m.{fmt}"
    write_snapshots(m, path, fmt=fmt)
    back = read_snapshots(path)
    assert not back.data.flags.writeable
    with pytest.raises(ValueError):
        back.data[0, 0] = 1.0
    if fmt == "bfsm":
        # the file's bytes, column-major as stored
        base = back.data
        while isinstance(base, np.ndarray):
            base = base.base
        assert type(base) is bytes and back.data.flags.f_contiguous
    path.write_bytes(path.read_bytes()[:-8] + b"\0" * 8)
    assert back.data.tobytes() == m.data.tobytes()


def test_reading_the_bench_study_h_holds_the_payload_once(tmp_path):
    """A 1024 x 2000 BFSM (15.6 MB): the matrix keeps the bytes it read."""
    dim, n = 1024, 2000
    path = tmp_path / "h.bfsm"
    write_snapshots(SnapshotMatrix(np.random.default_rng(6).standard_normal((dim, n)),
                                   tuple(f"s{j:04d}" for j in range(n))), path)
    tracemalloc.start()
    try:
        m = read_snapshots(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.shape == (dim, n)
    assert peak <= 1.1 * 8 * dim * n, peak
