"""Snapshot file formats.

Binary format (extension-agnostic, sniffed by magic):

    offset  size  field
    0       4     magic "BFSM" (0x42 0x46 0x53 0x4D)
    4       4     version, u32 little-endian, currently 1
    8       8     dim (rows), u64 little-endian
    16      8     n_samples (cols), u64 little-endian
    24      ...   dim * n_samples IEEE-754 f64 little-endian, column-major

Sample ids and provenance live in a JSON sidecar at ``<path>.json``; a
missing sidecar yields positional ids. Round-trips are bitwise exact.

CSV alternative: header row of sample ids, then one row per QoI component,
one column per sample. Numbers are written in shortest round-trip notation,
so values survive exactly. A NaN/Inf entry is rejected naming its row and
column. Ids are kept verbatim; an id holding ``,`` ``"`` ``\n`` or ``\r`` is
quoted. The CSV form cannot carry a matrix without columns, an id holding a
NUL or a lone surrogate, an id longer than ``csv.field_size_limit()``, or a
first id that starts with the magic "BFSM" (the file would sniff as binary);
``write_snapshots`` rejects those with a :class:`DataError`.

Every file is written whole: the bytes go to a temporary file in the target
directory that then replaces the target, so a crash never leaves part of a
file. A payload and its sidecar are still two separate replaces.
"""

import contextlib
import csv
import io
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionMismatch
from .interp import InterpDecomposition
from .linalg import _all_finite
from .snapshots import SnapshotMatrix, _positional_ids, _sample_ids

__all__ = [
    "read_snapshots",
    "write_snapshots",
    "read_id",
    "write_id",
]

MAGIC = b"BFSM"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def _atomic_write(path, *blocks) -> None:
    """Write the bytes-like ``blocks``, in order, to ``path`` through a
    temporary file in the same directory and ``os.replace``, so ``path``
    never holds part of them.

    A symlink is written through. An existing target that is not a regular
    file (``/dev/null``, a FIFO) is written in place, never replaced. An
    error that names a file names ``path``, not the temporary file.
    """
    target = os.path.realpath(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "wb") as fh:
                for block in blocks:
                    fh.write(block)
            return
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        # 0o666 under the umask: the same mode a plain open() would give
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_sidecar(path, sample_ids, provenance) -> None:
    doc = {
        "sample_ids": list(sample_ids),
        "provenance": provenance or {},
    }
    _atomic_write(_sidecar_path(path), _json_bytes(doc))


def _load_json(path) -> dict:
    """A JSON object from ``path``; :class:`DataError` if it is none."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past Python's
        # digit limit; RecursionError comes from very deep nesting
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def _field(doc: dict, key: str, kind, path):
    """``doc[key]``, checked to be an instance of ``kind`` (never a bool)."""
    if key not in doc:
        raise DataError(f"{path}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"{path}: {key!r} has the wrong type")
    return value


def _list_of(doc: dict, key: str, kind, path) -> list:
    """``doc[key]``, checked to be a list of ``kind`` (never of bools)."""
    items = _field(doc, key, list, path)
    if not all(isinstance(x, kind) and not isinstance(x, bool) for x in items):
        raise DataError(f"{path}: {key!r} must be a list of {kind.__name__}")
    return items


def _matrix(doc: dict, key: str, path) -> np.ndarray:
    """``doc[key]`` as a float64 array; :class:`DataError` if not numeric
    or not finite."""
    rows = _field(doc, key, list, path)
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer past the float range
        raise DataError(f"{path}: {key!r} is not a numeric matrix") from exc
    if not _all_finite(matrix):
        raise DataError(f"{path}: {key!r} holds NaN or Inf")
    return matrix


def _read_sidecar(path):
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return None
    return _list_of(_load_json(sidecar), "sample_ids", str, sidecar)


def _csv_header(sample_ids) -> str:
    """The CSV header line of ``sample_ids`` without its line end;
    :class:`DataError` for ids the CSV form cannot carry."""
    if not sample_ids:
        raise DataError("the CSV format cannot hold a matrix without columns")
    for sid in sample_ids:
        if "\0" in sid or len(sid) > csv.field_size_limit():
            raise DataError(f"sample id {sid[:40]!r} cannot be written to CSV: "
                            "it holds a NUL or is too long for a CSV field")
        try:
            sid.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"sample id {sid!r} is not valid Unicode text") from exc
    head = io.StringIO()
    # the writer quotes fields holding a character of its line terminator;
    # "\r\n" makes it quote ids with \r as well as , " and \n
    csv.writer(head, lineterminator="\r\n").writerow(sample_ids)
    line = head.getvalue()[:-2]
    if line.startswith(MAGIC.decode("ascii")):
        raise DataError(f"the first sample id {sample_ids[0]!r} starts with the "
                        "BFSM magic; a CSV file would be read as binary")
    return line


def write_snapshots(matrix: SnapshotMatrix, path, fmt: str = "bfsm",
                    provenance: dict | None = None) -> None:
    """Write a snapshot matrix; ``fmt`` is ``bfsm`` (binary) or ``csv``."""
    if fmt == "bfsm":
        header = _HEADER.pack(MAGIC, VERSION, matrix.dim, matrix.n_samples)
        # the transpose of column-major data is C-contiguous: the file takes
        # its buffer as is, with no bytes copy; only row-major data is copied
        _atomic_write(path, header, np.asfortranarray(matrix.data).T)
    elif fmt == "csv":
        lines = [_csv_header(matrix.sample_ids)]
        lines.extend(",".join(repr(float(v)) for v in row) for row in matrix.data)
        _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    else:
        raise DimensionMismatch(f"unknown snapshot format {fmt!r}")
    _write_sidecar(path, matrix.sample_ids, provenance)


def _read_binary(raw: bytes, path) -> SnapshotMatrix:
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: file shorter than the header")
    _, version, dim, n_samples = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if 8 * max(dim, n_samples) > np.iinfo(np.intp).max:
        # numpy caps each dimension's byte length, even with no entries; a
        # zero count would let the size check below pass
        raise DimensionMismatch(f"{path}: header shape {dim} x {n_samples} "
                                "exceeds the largest array dimension")
    expected = _HEADER.size + 8 * dim * n_samples
    if len(raw) < expected:
        raise DataError(
            f"{path}: payload holds {len(raw) - _HEADER.size} bytes, "
            f"header promises {expected - _HEADER.size}"
        )
    if len(raw) > expected:
        raise DataError(f"{path}: {len(raw) - expected} trailing bytes")
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    data = flat.reshape((dim, n_samples), order="F")
    if not _all_finite(data):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"{path}: non-finite value at row {i}, column {j}")
    ids = _read_sidecar(path)
    if ids is None:
        ids = _positional_ids(n_samples)
    if len(ids) != n_samples:
        raise DimensionMismatch(
            f"{path}: sidecar lists {len(ids)} ids for {n_samples} columns"
        )
    # read-only over the file's immutable bytes: kept without a copy
    with _naming(path):
        return SnapshotMatrix._adopt(data, ids)


@contextlib.contextmanager
def _naming(path):
    """Raise a :class:`DimensionMismatch` of the block, such as repeated
    ids, again with the file ``path`` in front."""
    try:
        yield
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{path}: {exc}") from exc


def _read_csv(text: str, path) -> SnapshotMatrix:
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: neither BFSM binary nor parseable CSV") from exc
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise DataError(f"{path}: CSV needs a header and at least one row")
    ids = tuple(rows[0])
    n = len(ids)
    data = np.empty((len(rows) - 1, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise DimensionMismatch(
                f"{path}: row {i} has {len(row)} fields, header has {n}"
            )
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: unparseable value at row {i}, column {ids[j]!r}"
                ) from exc
            if not np.isfinite(v):
                raise DataError(
                    f"{path}: non-finite value at row {i}, column {ids[j]!r}"
                )
            data[i, j] = v
    sidecar_ids = _read_sidecar(path)
    if sidecar_ids is not None and tuple(sidecar_ids) != ids:
        raise DimensionMismatch(f"{path}: sidecar ids disagree with the CSV header")
    with _naming(path):
        return SnapshotMatrix._adopt(data, ids)


def read_snapshots(path) -> SnapshotMatrix:
    """Read a snapshot file: BFSM binary when it starts with the magic,
    CSV otherwise (:class:`DataError` when it is not UTF-8 text)."""
    raw = Path(path).read_bytes()
    if raw[:4] == MAGIC:
        return _read_binary(raw, path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: neither BFSM binary nor parseable CSV") from exc
    return _read_csv(text, path)


# --------------------------------------------------------------------------
# interpolative-decomposition files (JSON, used by the CLI pipeline)
# --------------------------------------------------------------------------

ID_FORMAT = "bifidelity-id"
ID_VERSION = 1


def write_id(decomposition: InterpDecomposition, path,
             sample_ids=None) -> None:
    """Persist a decomposition as JSON.

    ``sample_ids`` are the column ids of the source ensemble, n distinct
    strings for its n columns (else :class:`DimensionMismatch`); they let
    the file name its required high-fidelity samples.
    """
    ids = None if sample_ids is None else _sample_ids(sample_ids, decomposition.n_samples)
    if ids is None and decomposition.rank == 0:
        raise DimensionMismatch(
            "a rank-0 decomposition needs sample ids: its empty coeffs do not "
            "record the sample count"
        )
    doc = {
        "format": ID_FORMAT,
        "version": ID_VERSION,
        "rank": decomposition.rank,
        "selected": list(decomposition.selected),
        "residual_norm": decomposition.residual_norm,
        "sample_ids": ids,
        "required_sample_ids": None if ids is None
        else [ids[j] for j in decomposition.selected],
        "skeleton": decomposition.skeleton.tolist(),
        "coeffs": decomposition.coeffs.tolist(),
    }
    _atomic_write(path, _json_bytes(doc))


def read_id(path):
    """Load a decomposition file; returns (decomposition, sample_ids).

    The file must hold what :func:`write_id` writes: finite matrices, a
    finite residual norm >= 0, and, if it carries ``sample_ids``, n
    distinct ids for n columns. A refusal of its contents is a
    :class:`DataError` naming ``path``.
    """
    doc = _load_json(path)
    if doc.get("format") != ID_FORMAT:
        raise DataError(f"{path}: not a {ID_FORMAT} file")
    if doc.get("version") != ID_VERSION:
        raise DataError(f"{path}: unsupported version {doc.get('version')}")
    rank = _field(doc, "rank", int, path)
    coeffs = _matrix(doc, "coeffs", path)
    ids = None
    if doc.get("sample_ids") is not None:
        ids = _list_of(doc, "sample_ids", str, path)
    if rank == 0 and coeffs.size == 0:
        # a rank-0 coeffs matrix is written as [], which loses its width
        if ids is None:
            raise DataError(f"{path}: a rank-0 decomposition needs 'sample_ids'")
        coeffs = np.zeros((0, len(ids)))
    selected = tuple(_list_of(doc, "selected", int, path))
    skeleton = _matrix(doc, "skeleton", path)
    residual_norm = _field(doc, "residual_norm", (int, float), path)
    # NaN fails the comparison; an integer past the float range exceeds max
    if not 0.0 <= residual_norm <= sys.float_info.max:
        raise DataError(f"{path}: 'residual_norm' must be finite and >= 0")
    if rank != len(selected):
        raise DataError(f"{path}: rank must equal the number of selected columns")
    with _naming(path):
        decomposition = InterpDecomposition(
            selected=selected, skeleton=skeleton, coeffs=coeffs,
            residual_norm=residual_norm,
        )
        ids = None if ids is None else _sample_ids(ids, decomposition.n_samples)
    return decomposition, ids
