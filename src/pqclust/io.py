"""Dataset and artifact file formats.

All formats are little-endian regardless of platform:

* fvecs: per record, an int32 dimension d followed by d float32 values.
* bvecs: per record, an int32 dimension d followed by d unsigned bytes.
* PQKC:  PQ code file. Header (magic "PQKC", version u32, N u64, M u32,
  L u32) followed by N * M payload bytes, one byte per subindex.
* PQCB:  codebook file. Header (magic "PQCB", version u32, D u32,
  M u32, L u32) followed by M * L * (D / M) float32 values in
  subspace-major, codeword-major, dimension-minor order.
* PQKB:  binary code file. Header (magic "PQKB", B u32, N u64)
  followed by N * B/8 raw bytes.
* labels: a bare array of uint32 values, no header.

Readers validate as they go and name the offending record in every
diagnostic. The iter_* variants stream fixed-size chunks and never
allocate proportional to the file size. The whole-file readers learn the
array's shape from the header or the file size first and read into that
one preallocated array: a file whose records hold nothing but payload is
read straight into it, an fvecs/bvecs file one chunk at a time through
one reused buffer. Writers write from the array, one converted chunk at a
time where the file's records differ from it. `staged` gives writers a
temporary path beside each target and moves them into place only when
every write succeeded.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .lloyd import _check_indices
from .pq import MAX_CODEWORDS, PQCodebook

_CODE_HEADER = struct.Struct("<4sIQII")
_BOOK_HEADER = struct.Struct("<4sIIII")
_BINARY_HEADER = struct.Struct("<4sIQ")
FORMAT_VERSION = 1
RESULT_FORMAT_VERSION = 1


class FormatError(ValueError):
    """A file does not conform to its declared format."""


# Records per chunk of the whole-file readers and of the writers.
_CHUNK_RECORDS = 65536


def _read_exact(fh, count: int, path, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise FormatError(f"{path}: truncated {what} ({len(raw)} of {count} bytes)")
    return raw


def _read_into(fh, out: np.ndarray, path, what: str) -> None:
    """Fill the contiguous array `out` with the next bytes of fh."""
    view = memoryview(out.reshape(-1).view(np.uint8))
    got = 0
    while got < len(view):
        count = fh.readinto(view[got:])
        if not count:
            raise FormatError(f"{path}: truncated {what} ({got} of {len(view)} bytes)")
        got += count


def _write_rows(fh, rows: np.ndarray, dtype) -> None:
    """Write rows as dtype, one chunk at a time; a chunk is cast only when
    its dtype or layout differs, so no whole-array copy is made."""
    for a in range(0, len(rows), _CHUNK_RECORDS):
        fh.write(np.ascontiguousarray(rows[a : a + _CHUNK_RECORDS], dtype=dtype))


@contextlib.contextmanager
def staged(*paths) -> Iterator[list[Path]]:
    """Yield a temporary path beside each target path.

    If the block completes, every temporary file is moved onto its target;
    whether or not it does, none is left behind. A failed block therefore
    leaves every target as it was.
    """
    temps = [Path(p).with_name(f".{Path(p).name}.{os.getpid()}.tmp") for p in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# fvecs / bvecs


def _vecs_layout(path, component_bytes: int) -> tuple[int, int, int]:
    """(N, D, record bytes) of an fvecs/bvecs file, from its first record and size."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        size = os.fstat(fh.fileno()).st_size
    if not head:
        return 0, 0, 4
    if len(head) < 4:
        raise FormatError(f"{path}: truncated record 0")
    dim = struct.unpack("<i", head)[0]
    if dim <= 0:
        raise FormatError(f"{path}: record 0 declares dimension {dim}")
    record_bytes = 4 + component_bytes * dim
    n, tail = divmod(size, record_bytes)
    if tail:
        raise FormatError(f"{path}: truncated record {n}")
    return n, dim, record_bytes


def fvecs_shape(path) -> tuple[int, int]:
    """(N, D) of an fvecs file without reading past its first record."""
    return _vecs_layout(path, 4)[:2]


def _vec_record(component: str, dim: int) -> np.dtype:
    """One packed fvecs/bvecs record: int32 dimension, then dim components."""
    return np.dtype([("dim", "<i4"), ("x", component, (dim,))])


def _vec_chunks(path, component: str, chunk_records: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first record index, (n_i, D) component view) per chunk of
    whole records. Every view is into one reused buffer and holds only
    until the next chunk is read."""
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    n, dim, _ = _vecs_layout(path, np.dtype(component).itemsize)
    if n == 0:
        return
    buffer = np.empty(min(chunk_records, n), dtype=_vec_record(component, dim))
    with open(path, "rb") as fh:
        for index in range(0, n, chunk_records):
            block = buffer[: min(chunk_records, n - index)]
            _read_into(fh, block, path, f"record {index}")
            dims = block["dim"]
            if not np.all(dims == dim):
                bad = int(np.argmax(dims != dim))
                raise FormatError(
                    f"{path}: record {index + bad} declares dimension "
                    f"{dims[bad]}, expected {dim}"
                )
            yield index, block["x"]


def _read_vecs(path, component: str) -> np.ndarray:
    """A whole fvecs/bvecs file as float32, copied chunk by chunk into the result."""
    out = np.empty(_vecs_layout(path, np.dtype(component).itemsize)[:2], dtype=np.float32)
    for index, vectors in _vec_chunks(path, component, _CHUNK_RECORDS):
        out[index : index + len(vectors)] = vectors
    return out


def _write_vecs(path, data: np.ndarray, component: str) -> None:
    """Write (N, D) rows as fvecs/bvecs records through one chunk-sized buffer."""
    n, dim = data.shape
    buffer = np.empty(min(n, _CHUNK_RECORDS), dtype=_vec_record(component, dim))
    buffer["dim"] = dim
    with open(path, "wb") as fh:
        for a in range(0, n, _CHUNK_RECORDS):
            block = buffer[: min(_CHUNK_RECORDS, n - a)]
            block["x"] = data[a : a + _CHUNK_RECORDS]
            fh.write(block)


def iter_fvecs(path, chunk_records: int = _CHUNK_RECORDS) -> Iterator[np.ndarray]:
    """Stream an fvecs file as float32 chunks of shape (n_i, D)."""
    for _, vectors in _vec_chunks(path, "<f4", chunk_records):
        yield vectors.astype(np.float32)


def read_fvecs(path) -> np.ndarray:
    """Load a whole fvecs file as a float32 array of shape (N, D)."""
    return _read_vecs(path, "<f4")


def write_fvecs(path, vectors: np.ndarray) -> None:
    """Write float32 vectors of shape (N, D) as an fvecs file."""
    data = np.asarray(vectors)
    if data.ndim != 2 or data.shape[1] == 0:
        raise ValueError(f"vectors must have shape (N, D), D >= 1, got {data.shape}")
    _write_vecs(path, data, "<f4")


def iter_bvecs(path, chunk_records: int = _CHUNK_RECORDS) -> Iterator[np.ndarray]:
    """Stream a bvecs file as float32 chunks (byte components widened)."""
    for _, vectors in _vec_chunks(path, "u1", chunk_records):
        yield vectors.astype(np.float32)


def read_bvecs(path) -> np.ndarray:
    """Load a whole bvecs file, widened to float32."""
    return _read_vecs(path, "u1")


def write_bvecs(path, vectors: np.ndarray) -> None:
    """Write integer-valued vectors in [0, 255] as a bvecs file."""
    data = np.asarray(vectors)
    if data.ndim != 2 or data.shape[1] == 0:
        raise ValueError(f"vectors must have shape (N, D), D >= 1, got {data.shape}")
    rounded = np.rint(data)
    if not np.array_equal(rounded, data) or data.min(initial=0) < 0 or data.max(initial=0) > 255:
        raise ValueError("bvecs components must be integers in [0, 255]")
    _write_vecs(path, data, "u1")


# ---------------------------------------------------------------------------
# PQ code files


def write_codes(path, codes: np.ndarray, num_codewords: int) -> None:
    """Write (N, M) PQ codes, integers (not bool) in [0, L) with M >= 1, as
    a PQKC file; other codes raise ValueError naming them."""
    if not 2 <= num_codewords <= MAX_CODEWORDS:
        raise ValueError(f"num_codewords must be in [2, {MAX_CODEWORDS}], got {num_codewords}")
    arr = _check_indices(codes, (None, None), num_codewords, "codes")
    n, m = arr.shape
    if m == 0:
        raise ValueError(f"codes must have shape (N, M), M >= 1, got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_CODE_HEADER.pack(b"PQKC", FORMAT_VERSION, n, m, num_codewords))
        _write_rows(fh, arr, np.uint8)


class CodesWriter:
    """Incremental PQKC writer for streaming encoders.

    The header is written up front from the promised record count, into
    a staged file beside the target. close() moves it into place only
    once exactly that many records arrived; a failed write removes it.
    """

    def __init__(self, path, n: int, m: int, num_codewords: int) -> None:
        if not 0 <= n < 2**64:
            raise ValueError(f"record count must lie in [0, 2**64), got {n}")
        if m < 1 or not 2 <= num_codewords <= MAX_CODEWORDS:
            raise ValueError(f"invalid code geometry M={m}, L={num_codewords}")
        self._path = path
        self._n = n
        self._m = m
        self._l = num_codewords
        self._written = 0
        self._stage = contextlib.ExitStack()
        (temp,) = self._stage.enter_context(staged(path))
        self._fh = self._stage.enter_context(open(temp, "wb"))
        self._fh.write(_CODE_HEADER.pack(b"PQKC", FORMAT_VERSION, n, m, num_codewords))

    def write(self, codes: np.ndarray) -> None:
        arr = _check_indices(codes, (None, self._m), self._l, "codes")
        _write_rows(self._fh, arr, np.uint8)
        self._written += len(arr)

    def close(self) -> None:
        with self._stage:
            if self._written != self._n:
                raise ValueError(
                    f"{self._path}: wrote {self._written} records, header promised {self._n}"
                )

    def __enter__(self) -> "CodesWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._stage.__exit__(exc_type, exc, tb)


def _check_payload(path, size: int, n: int, record_bytes: int) -> None:
    """Check that a payload of size bytes holds exactly the n records of
    record_bytes each that its header promises, naming the first short one."""
    if size < n * record_bytes:
        raise FormatError(
            f"{path}: truncated record {size // record_bytes} (header promises {n} records)"
        )
    if size > n * record_bytes:
        raise FormatError(f"{path}: trailing bytes after {n} records")


def read_codes_header(path) -> tuple[int, int, int]:
    """Return (N, M, L) from a PQKC header whose payload holds exactly N records."""
    with open(path, "rb") as fh:
        magic, version, n, m, l_count = _CODE_HEADER.unpack(
            _read_exact(fh, _CODE_HEADER.size, path, "PQKC header")
        )
        size = os.fstat(fh.fileno()).st_size - _CODE_HEADER.size
    if magic != b"PQKC":
        raise FormatError(f"{path}: bad magic {magic!r}, expected b'PQKC'")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported PQKC version {version}")
    if m == 0 or not 2 <= l_count <= MAX_CODEWORDS:
        raise FormatError(f"{path}: invalid header fields M={m}, L={l_count}")
    _check_payload(path, size, n, m)
    return n, m, l_count


def _code_chunks(path, header, chunk_records: int, out=None) -> Iterator[np.ndarray]:
    """Read the PQKC payload of read_codes_header's (N, M, L) in validated
    chunks, each straight into its rows of `out`, or a fresh array if None."""
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    n, m, l_count = header
    with open(path, "rb") as fh:
        fh.seek(_CODE_HEADER.size)
        for index in range(0, n, chunk_records):
            rows = min(chunk_records, n - index)
            chunk = np.empty((rows, m), np.uint8) if out is None else out[index : index + rows]
            _read_into(fh, chunk, path, f"record {index}")
            if chunk.max(initial=0) >= l_count:
                flat = int(np.argmax(chunk >= l_count))
                raise FormatError(
                    f"{path}: record {index + flat // m} holds subindex "
                    f"{chunk.ravel()[flat]}, must be below L={l_count}"
                )
            yield chunk


def iter_codes(path, chunk_records: int = 262144) -> Iterator[np.ndarray]:
    """Stream a PQKC file as uint8 chunks of shape (n_i, M)."""
    yield from _code_chunks(path, read_codes_header(path), chunk_records)


def read_codes(path) -> tuple[np.ndarray, int, int]:
    """Load a PQKC file. Returns (codes of shape (N, M), M, L)."""
    header = read_codes_header(path)
    codes = np.empty(header[:2], dtype=np.uint8)
    for _ in _code_chunks(path, header, 262144, codes):
        pass
    return codes, header[1], header[2]


# ---------------------------------------------------------------------------
# codebook files


def write_codebook(path, codebook: PQCodebook) -> None:
    """Write a PQCodebook as a PQCB file."""
    m, l_count, _ = codebook.codewords.shape
    with open(path, "wb") as fh:
        fh.write(
            _BOOK_HEADER.pack(b"PQCB", FORMAT_VERSION, codebook.dim, m, l_count)
        )
        fh.write(np.ascontiguousarray(codebook.codewords, dtype="<f4").tobytes())


def read_codebook(path) -> PQCodebook:
    """Load a PQCB file into a PQCodebook."""
    with open(path, "rb") as fh:
        magic, version, dim, m, l_count = _BOOK_HEADER.unpack(
            _read_exact(fh, _BOOK_HEADER.size, path, "PQCB header")
        )
        if magic != b"PQCB":
            raise FormatError(f"{path}: bad magic {magic!r}, expected b'PQCB'")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported PQCB version {version}")
        if m == 0 or dim % m != 0 or not 2 <= l_count <= MAX_CODEWORDS:
            raise FormatError(
                f"{path}: invalid header fields D={dim}, M={m}, L={l_count}"
            )
        payload = _read_exact(fh, 4 * m * l_count * (dim // m), path, "PQCB payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after codebook payload")
    codewords = np.frombuffer(payload, dtype="<f4").reshape(m, l_count, dim // m)
    return PQCodebook(codewords.copy())


# ---------------------------------------------------------------------------
# binary code files


def write_binary_codes(path, packed: np.ndarray) -> None:
    """Write (N, B/8) packed binary codes, integers (not bool) in [0, 256)
    with B >= 8, as a PQKB file; other codes raise ValueError naming them."""
    arr = _check_indices(packed, (None, None), 256, "packed codes")
    if arr.shape[1] == 0:
        raise ValueError(f"packed codes must have shape (N, B/8), got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(b"PQKB", 8 * arr.shape[1], len(arr)))
        _write_rows(fh, arr, np.uint8)


def read_binary_codes(path) -> tuple[np.ndarray, int]:
    """Load a PQKB file. Returns (packed codes of shape (N, B/8), B)."""
    with open(path, "rb") as fh:
        magic, bits, n = _BINARY_HEADER.unpack(
            _read_exact(fh, _BINARY_HEADER.size, path, "PQKB header")
        )
        if magic != b"PQKB":
            raise FormatError(f"{path}: bad magic {magic!r}, expected b'PQKB'")
        if bits == 0 or bits % 8 != 0:
            raise FormatError(f"{path}: bit count {bits} is not a positive multiple of 8")
        _check_payload(path, os.fstat(fh.fileno()).st_size - _BINARY_HEADER.size, n, bits // 8)
        packed = np.empty((n, bits // 8), dtype=np.uint8)
        _read_into(fh, packed, path, "PQKB payload")
    return packed, bits


# ---------------------------------------------------------------------------
# label arrays


def write_labels(path, labels: np.ndarray) -> None:
    """Write 1-d labels, integers (not bool) in [0, 2**32), as a bare
    little-endian uint32 array; other labels raise ValueError naming them."""
    arr = _check_indices(labels, (None,), 2**32, "labels")
    with open(path, "wb") as fh:
        _write_rows(fh, arr, "<u4")


def read_labels(path) -> np.ndarray:
    """Load a bare uint32 label array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 4:
            raise FormatError(f"{path}: size {size} is not a multiple of 4")
        labels = np.empty(size // 4, dtype="<u4")
        _read_into(fh, labels, path, "labels")
    return labels


# ---------------------------------------------------------------------------
# synthetic data


def generate_synthetic(
    n: int, dim: int, clusters: int, spread: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a labeled Gaussian-mixture dataset.

    Cluster means are sampled uniformly in the unit hypercube [0, 1)^D,
    each point picks a cluster uniformly and adds isotropic Gaussian
    noise with the given standard deviation. Deterministic under the
    seed.

    Args:
        n: Number of points (>= 1).
        dim: Dimensionality (>= 1).
        clusters: Number of mixture components (>= 1).
        spread: Component standard deviation (>= 0).
        seed: RNG seed.

    Returns:
        (vectors, labels): float32 data of shape (n, dim) and the uint32
        ground-truth component of every point.
    """
    if n < 1 or dim < 1 or clusters < 1:
        raise ValueError(
            f"n, dim and clusters must be positive, got n={n}, dim={dim}, "
            f"clusters={clusters}"
        )
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(clusters, dim))
    labels = rng.integers(0, clusters, size=n).astype(np.uint32)
    points = means[labels] + rng.normal(0.0, spread, size=(n, dim)) if spread > 0 else means[labels]
    return points.astype(np.float32), labels


# ---------------------------------------------------------------------------
# result documents


def save_result_document(path, document: dict) -> None:
    """Write a clustering result summary as versioned JSON."""
    payload = dict(document)
    payload.setdefault("format_version", RESULT_FORMAT_VERSION)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result_document(path) -> dict:
    """Read a result document back, checking its version."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    version = document.get("format_version")
    if version != RESULT_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported result version {version!r}")
    return document
