"""Unit tests for file formats and synthetic data."""

import io
import struct

import numpy as np
import pytest

import pqclust.io
from pqclust import PQCodebook
from pqclust.io import (
    CodesWriter,
    FormatError,
    generate_synthetic,
    iter_bvecs,
    iter_codes,
    iter_fvecs,
    load_result_document,
    read_binary_codes,
    read_bvecs,
    read_codebook,
    read_codes,
    read_codes_header,
    read_fvecs,
    read_labels,
    save_result_document,
    write_binary_codes,
    write_bvecs,
    write_codebook,
    write_codes,
    write_fvecs,
    write_labels,
)


class TestFvecs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(17, 5)).astype(np.float32)
        path = tmp_path / "data.fvecs"
        write_fvecs(path, vectors)
        back = read_fvecs(path)
        assert back.dtype == np.float32
        assert back.tobytes() == vectors.tobytes()

    def test_hand_built_record(self, tmp_path):
        path = tmp_path / "one.fvecs"
        path.write_bytes(struct.pack("<i", 2) + struct.pack("<ff", 1.5, -2.25))
        assert np.array_equal(read_fvecs(path), [[1.5, -2.25]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        assert read_fvecs(path).shape == (0, 0)

    def test_streaming_matches_whole_read(self, tmp_path):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(23, 3)).astype(np.float32)
        path = tmp_path / "data.fvecs"
        write_fvecs(path, vectors)
        chunks = list(iter_fvecs(path, chunk_records=4))
        assert all(len(c) <= 4 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), vectors)

    def test_mixed_dimension_names_record(self, tmp_path):
        # Record 1 keeps the 12-byte stride but declares the wrong width.
        path = tmp_path / "bad.fvecs"
        rec = struct.pack("<i", 2) + struct.pack("<ff", 0.0, 0.0)
        bad = struct.pack("<i", 3) + struct.pack("<ff", 0.0, 0.0)
        path.write_bytes(rec + bad + rec)
        with pytest.raises(FormatError, match="record 1 declares dimension 3"):
            read_fvecs(path)

    def test_truncation_names_record(self, tmp_path):
        path = tmp_path / "cut.fvecs"
        rec = struct.pack("<i", 2) + struct.pack("<ff", 0.0, 0.0)
        path.write_bytes(rec + rec[:7])
        with pytest.raises(FormatError, match="truncated record 1"):
            read_fvecs(path)
        path.write_bytes(b"\x01\x00")
        with pytest.raises(FormatError, match="truncated record 0"):
            read_fvecs(path)

    def test_nonpositive_dimension(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        path.write_bytes(struct.pack("<i", -1))
        with pytest.raises(FormatError, match="record 0 declares dimension -1"):
            read_fvecs(path)

    def test_write_validation(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_fvecs(tmp_path / "x.fvecs", np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            write_fvecs(tmp_path / "x.fvecs", np.zeros((4, 0), dtype=np.float32))


class TestBvecs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = rng.integers(0, 256, size=(9, 7))
        path = tmp_path / "data.bvecs"
        write_bvecs(path, vectors)
        back = read_bvecs(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, vectors.astype(np.float32))

    def test_write_rejects_non_bytes(self, tmp_path):
        path = tmp_path / "x.bvecs"
        with pytest.raises(ValueError, match="integers in"):
            write_bvecs(path, np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="integers in"):
            write_bvecs(path, np.array([[-1, 0]]))
        with pytest.raises(ValueError, match="integers in"):
            write_bvecs(path, np.array([[256, 0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 2)])
    def test_write_rejects_a_wrong_shape(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"vectors must have shape \(N, D\), D >= 1"):
            write_bvecs(tmp_path / "x.bvecs", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []


class TestCodes:
    def test_round_trip_and_header(self, tmp_path):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 50, size=(31, 4), dtype=np.uint8)
        path = tmp_path / "codes.pqkc"
        write_codes(path, codes, 50)
        assert read_codes_header(path) == (31, 4, 50)
        back, m, l_count = read_codes(path)
        assert (m, l_count) == (4, 50)
        assert back.tobytes() == codes.tobytes()

    def test_streaming_matches_whole_read(self, tmp_path):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 8, size=(25, 2), dtype=np.uint8)
        path = tmp_path / "codes.pqkc"
        write_codes(path, codes, 8)
        chunks = list(iter_codes(path, chunk_records=7))
        assert all(len(c) <= 7 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), codes)

    def test_write_validation(self, tmp_path):
        path = tmp_path / "x.pqkc"
        with pytest.raises(ValueError, match="num_codewords"):
            write_codes(path, np.zeros((2, 2), dtype=np.uint8), 1)
        with pytest.raises(ValueError, match=r"codes must lie in \[0, 4\), got 7"):
            write_codes(path, np.array([[0, 7]], dtype=np.uint8), 4)
        with pytest.raises(ValueError, match="shape"):
            write_codes(path, np.zeros(4, dtype=np.uint8), 4)

    @pytest.mark.parametrize("bad", [[[0, 300]], [[0, -1]], [[0.0, 1.7]]])
    def test_writers_reject_what_a_byte_cast_would_change(self, tmp_path, bad):
        bad = np.array(bad)
        message = r"\[0, 256\)|integers"
        with pytest.raises(ValueError, match=message):
            write_codes(tmp_path / "x.pqkc", bad, 256)
        with pytest.raises(ValueError, match=message):
            write_binary_codes(tmp_path / "x.pqkb", bad)
        with CodesWriter(tmp_path / "y.pqkc", 0, 2, 256) as writer:
            with pytest.raises(ValueError, match=message):
                writer.write(bad)
        assert [p.name for p in tmp_path.iterdir()] == ["y.pqkc"]

    def test_read_errors(self, tmp_path):
        header = struct.Struct("<4sIQII")
        path = tmp_path / "bad.pqkc"

        path.write_bytes(header.pack(b"NOPE", 1, 1, 1, 4) + b"\x00")
        with pytest.raises(FormatError, match="bad magic"):
            read_codes(path)

        path.write_bytes(header.pack(b"PQKC", 9, 1, 1, 4) + b"\x00")
        with pytest.raises(FormatError, match="version 9"):
            read_codes(path)

        path.write_bytes(header.pack(b"PQKC", 1, 4, 3, 8) + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated record 3"):
            read_codes(path)

        path.write_bytes(header.pack(b"PQKC", 1, 2, 2, 4) + bytes([0, 1, 2, 7]))
        with pytest.raises(FormatError, match="record 1 holds subindex 7"):
            read_codes(path)

        path.write_bytes(header.pack(b"PQKC", 1, 2, 2, 4) + b"\x00" * 5)
        with pytest.raises(FormatError, match="trailing bytes"):
            read_codes(path)

        path.write_bytes(header.pack(b"PQKC", 1, 1, 0, 4) + b"")
        with pytest.raises(FormatError, match="invalid header"):
            read_codes(path)

    def test_codes_writer_matches_whole_write(self, tmp_path):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 30, size=(40, 3), dtype=np.uint8)
        whole = tmp_path / "whole.pqkc"
        streamed = tmp_path / "streamed.pqkc"
        write_codes(whole, codes, 30)
        with CodesWriter(streamed, 40, 3, 30) as writer:
            writer.write(codes[:11])
            writer.write(codes[11:11])
            writer.write(codes[11:])
        assert streamed.read_bytes() == whole.read_bytes()

    def test_codes_writer_validation(self, tmp_path):
        path = tmp_path / "x.pqkc"
        with pytest.raises(ValueError, match="geometry"):
            CodesWriter(path, 4, 0, 8)
        writer = CodesWriter(path, 4, 2, 8)
        with pytest.raises(ValueError, match=r"codes must have shape \(None, 2\), got \(1, 3\)"):
            writer.write(np.zeros((1, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"codes must lie in \[0, 8\), got 9"):
            writer.write(np.array([[0, 9]], dtype=np.uint8))
        writer.write(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="header promised 4"):
            writer.close()
        assert list(tmp_path.iterdir()) == []

    def test_codes_writer_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.pqkc"
        write_codes(path, np.ones((3, 2), dtype=np.uint8), 8)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            with CodesWriter(path, 3, 2, 8) as writer:
                writer.write(np.zeros((2, 2), dtype=np.uint8))
                raise RuntimeError("interrupted")
        writer = CodesWriter(path, 3, 2, 8)
        writer.write(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="header promised 3"):
            writer.close()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("n", [-1, 2**64])
    def test_codes_writer_rejects_a_record_count_outside_u64(self, tmp_path, n):
        # The header's N is a u64; struct.pack used to raise struct.error,
        # which is no ValueError, with the staged file already open.
        message = rf"record count must lie in \[0, 2\*\*64\), got {n}"
        with pytest.raises(ValueError, match=message):
            CodesWriter(tmp_path / "x.pqkc", n, 2, 8)
        assert list(tmp_path.iterdir()) == []

    def test_read_codes_parses_the_header_once(self, tmp_path, monkeypatch):
        codes = np.arange(12, dtype=np.uint8).reshape(6, 2)
        path = tmp_path / "codes.pqkc"
        write_codes(path, codes, 16)
        parses = []

        def counted(p):
            parses.append(p)
            return read_codes_header(p)

        monkeypatch.setattr(pqclust.io, "read_codes_header", counted)
        back, m, l_count = read_codes(path)
        assert (back.tobytes(), m, l_count) == (codes.tobytes(), 2, 16)
        assert np.array_equal(np.concatenate(list(iter_codes(path, chunk_records=4))), codes)
        assert parses == [path, path]

    def test_short_stream_names_what_it_was_reading(self):
        # A file that shrinks between the size check and the read.
        out = np.empty(4, dtype="<u4")
        with pytest.raises(FormatError, match=r"^x.bin: truncated labels \(6 of 16 bytes\)$"):
            pqclust.io._read_into(io.BytesIO(b"\x01" * 6), out, "x.bin", "labels")


class TestWholeFileReaders:
    """The whole-file readers against their streams, past one default chunk."""

    def test_vector_files_longer_than_one_chunk(self, tmp_path):
        # 65,541 records: one full 65,536-record chunk and a short one.
        values = np.arange(65_541, dtype=np.float32).reshape(-1, 1) % 251
        cases = (
            (write_fvecs, read_fvecs, iter_fvecs, "x.fvecs"),
            (write_bvecs, read_bvecs, iter_bvecs, "x.bvecs"),
        )
        for write, read, stream, name in cases:
            path = tmp_path / name
            write(path, values)
            whole = read(path)
            assert whole.dtype == np.float32
            assert whole.shape == (65_541, 1)
            assert whole.tobytes() == np.concatenate(list(stream(path))).tobytes()
            path.write_bytes(path.read_bytes() + b"\x01\x00\x00\x00")
            with pytest.raises(FormatError, match="truncated record 65541$"):
                read(path)

    def test_codes_longer_than_one_chunk(self, tmp_path):
        # 262,149 records: one full 262,144-record chunk and a short one.
        rng = np.random.default_rng(8)
        codes = rng.integers(0, 200, size=(262_149, 2), dtype=np.uint8)
        path = tmp_path / "codes.pqkc"
        write_codes(path, codes, 200)
        back, m, l_count = read_codes(path)
        assert (m, l_count) == (2, 200)
        assert back.tobytes() == np.concatenate(list(iter_codes(path))).tobytes()
        assert back.tobytes() == codes.tobytes()
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match=r"truncated record 262147 \(header promises 262149"):
            read_codes(path)


    def test_bad_record_in_a_later_chunk_names_its_index(self, tmp_path):
        values = np.arange(65_541, dtype=np.float32).reshape(-1, 1) % 251
        for write, read, stream, name, record_bytes in (
            (write_fvecs, read_fvecs, iter_fvecs, "x.fvecs", 8),
            (write_bvecs, read_bvecs, iter_bvecs, "x.bvecs", 5),
        ):
            path = tmp_path / name
            write(path, values)
            raw = bytearray(path.read_bytes())
            raw[65_539 * record_bytes : 65_539 * record_bytes + 4] = struct.pack("<i", 2)
            path.write_bytes(bytes(raw))
            for load in (read, lambda p: list(stream(p))):
                with pytest.raises(FormatError, match="record 65539 declares dimension 2, expected 1"):
                    load(path)

        # One full 262,144-record chunk of codes, then record 262,146 holds
        # subindex 9 in its second subspace.
        path = tmp_path / "codes.pqkc"
        write_codes(path, np.zeros((262_149, 2), dtype=np.uint8), 8)
        raw = bytearray(path.read_bytes())
        raw[-3 * 2 + 1] = 9
        path.write_bytes(bytes(raw))
        for load in (read_codes, lambda p: list(iter_codes(p))):
            with pytest.raises(FormatError, match="record 262146 holds subindex 9, must be below L=8"):
                load(path)

    def test_payload_files_longer_than_one_chunk(self, tmp_path):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2**32, size=300_001, dtype=np.uint32)
        write_labels(tmp_path / "labels.bin", labels)
        back = read_labels(tmp_path / "labels.bin")
        assert back.dtype == np.dtype("<u4")
        assert back.tobytes() == (tmp_path / "labels.bin").read_bytes() == labels.tobytes()
        packed = rng.integers(0, 256, size=(300_001, 3), dtype=np.uint8)
        write_binary_codes(tmp_path / "codes.pqkb", packed)
        back, bits = read_binary_codes(tmp_path / "codes.pqkb")
        assert bits == 24
        assert back.tobytes() == packed.tobytes()
        assert back.tobytes() == (tmp_path / "codes.pqkb").read_bytes()[16:]


class TestWritersWriteFromTheArray:
    """Chunked writers produce the bytes of a whole-array conversion."""

    def test_vector_files(self, tmp_path):
        rng = np.random.default_rng(10)
        n, dim = 65_536 + 70, 3
        vectors = rng.normal(size=(n, dim))
        expected = np.empty((n, dim + 1), dtype="<f4")
        expected[:, 0] = np.full(n, dim, dtype="<i4").view("<f4")
        expected[:, 1:] = vectors
        write_fvecs(tmp_path / "x.fvecs", vectors)
        assert (tmp_path / "x.fvecs").read_bytes() == expected.tobytes()
        write_fvecs(tmp_path / "y.fvecs", vectors.astype(np.float32)[:, ::-1])
        assert read_fvecs(tmp_path / "y.fvecs").tobytes() == expected[:, :0:-1].tobytes()
        small = rng.integers(0, 256, size=(n, dim))
        raw = np.empty((n, 4 + dim), dtype=np.uint8)
        raw[:, :4] = np.full(n, dim, dtype="<i4").view(np.uint8).reshape(n, 4)
        raw[:, 4:] = small
        write_bvecs(tmp_path / "x.bvecs", small.astype(np.float64))
        assert (tmp_path / "x.bvecs").read_bytes() == raw.tobytes()

    def test_code_and_label_files(self, tmp_path):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 200, size=(65_536 * 2 + 5, 3))
        write_codes(tmp_path / "a.pqkc", codes, 200)
        write_codes(tmp_path / "b.pqkc", codes.astype(np.uint8), 200)
        payload = (tmp_path / "a.pqkc").read_bytes()
        assert payload == (tmp_path / "b.pqkc").read_bytes()
        assert payload[-codes.size :] == codes.astype(np.uint8).tobytes()
        write_binary_codes(tmp_path / "a.pqkb", codes.T.astype(np.int16).T)
        assert (tmp_path / "a.pqkb").read_bytes()[16:] == codes.astype(np.uint8).tobytes()
        labels = rng.integers(0, 2**32, size=65_536 * 2 + 5)
        write_labels(tmp_path / "a.bin", labels)
        assert (tmp_path / "a.bin").read_bytes() == labels.astype("<u4").tobytes()


@pytest.mark.parametrize("chunk_records", [0, -1])
def test_stream_readers_reject_nonpositive_chunks(tmp_path, chunk_records):
    write_fvecs(tmp_path / "x.fvecs", np.zeros((3, 2), dtype=np.float32))
    write_bvecs(tmp_path / "x.bvecs", np.zeros((3, 2)))
    write_codes(tmp_path / "x.pqkc", np.zeros((3, 2), dtype=np.uint8), 4)
    for reader, name in ((iter_fvecs, "x.fvecs"), (iter_bvecs, "x.bvecs"), (iter_codes, "x.pqkc")):
        with pytest.raises(ValueError, match="chunk_records must be positive"):
            next(reader(tmp_path / name, chunk_records=chunk_records))


class TestCodebookFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        book = PQCodebook(rng.normal(size=(3, 9, 4)).astype(np.float32))
        path = tmp_path / "book.pqcb"
        write_codebook(path, book)
        back = read_codebook(path)
        assert back.codewords.tobytes() == book.codewords.tobytes()

    def test_read_errors(self, tmp_path):
        header = struct.Struct("<4sIIII")
        path = tmp_path / "bad.pqcb"

        path.write_bytes(b"PQ")
        with pytest.raises(FormatError, match="truncated PQCB header"):
            read_codebook(path)

        path.write_bytes(header.pack(b"XXXX", 1, 4, 2, 4))
        with pytest.raises(FormatError, match="bad magic"):
            read_codebook(path)

        path.write_bytes(header.pack(b"PQCB", 2, 4, 2, 4))
        with pytest.raises(FormatError, match="version 2"):
            read_codebook(path)

        path.write_bytes(header.pack(b"PQCB", 1, 5, 2, 4))
        with pytest.raises(FormatError, match="invalid header"):
            read_codebook(path)

        payload = np.zeros(2 * 4 * 2, dtype="<f4").tobytes()
        path.write_bytes(header.pack(b"PQCB", 1, 4, 2, 4) + payload[:-3])
        with pytest.raises(FormatError, match="truncated PQCB payload"):
            read_codebook(path)

        path.write_bytes(header.pack(b"PQCB", 1, 4, 2, 4) + payload + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_codebook(path)


class TestBinaryCodes:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        packed = rng.integers(0, 256, size=(12, 4), dtype=np.uint8)
        path = tmp_path / "codes.pqkb"
        write_binary_codes(path, packed)
        back, bits = read_binary_codes(path)
        assert bits == 32
        assert back.tobytes() == packed.tobytes()

    def test_errors(self, tmp_path):
        header = struct.Struct("<4sIQ")
        path = tmp_path / "bad.pqkb"

        path.write_bytes(header.pack(b"XXXX", 8, 1) + b"\x00")
        with pytest.raises(FormatError, match="bad magic"):
            read_binary_codes(path)

        path.write_bytes(header.pack(b"PQKB", 12, 1) + b"\x00\x00")
        with pytest.raises(FormatError, match="multiple of 8"):
            read_binary_codes(path)

        # Both code formats name the first short record, as PQKC does.
        path.write_bytes(header.pack(b"PQKB", 8, 3) + b"\x00\x00")
        with pytest.raises(FormatError, match=r"truncated record 2 \(header promises 3 records\)"):
            read_binary_codes(path)
        path.write_bytes(header.pack(b"PQKB", 16, 3) + b"\x00" * 3)
        with pytest.raises(FormatError, match=r"truncated record 1 \(header promises 3 records\)"):
            read_binary_codes(path)

        path.write_bytes(header.pack(b"PQKB", 8, 1) + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing bytes after 1 records"):
            read_binary_codes(path)

        with pytest.raises(ValueError, match="shape"):
            write_binary_codes(path, np.zeros((2, 0), dtype=np.uint8))


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 3, 2**32 - 1, 7], dtype=np.uint32)
        path = tmp_path / "labels.bin"
        write_labels(path, labels)
        assert path.stat().st_size == 16
        assert np.array_equal(read_labels(path), labels)

    def test_errors(self, tmp_path):
        path = tmp_path / "labels.bin"
        path.write_bytes(b"\x00" * 6)
        with pytest.raises(FormatError, match="multiple of 4"):
            read_labels(path)
        with pytest.raises(ValueError, match=r"labels must have shape \(None,\), got \(2, 2\)"):
            write_labels(path, np.zeros((2, 2), dtype=np.uint32))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4294967296\), got -1"):
            write_labels(path, np.array([-1]))
        too_big = r"labels must lie in \[0, 4294967296\), got 8589934592"
        with pytest.raises(ValueError, match=too_big):
            write_labels(path, np.array([2**33]))
        with pytest.raises(ValueError, match="integers"):
            write_labels(path, np.array([1.7]))


class TestSynthetic:
    def test_shapes_determinism_and_label_range(self):
        vectors, labels = generate_synthetic(500, 6, 9, 0.1, seed=21)
        assert vectors.shape == (500, 6)
        assert vectors.dtype == np.float32
        assert labels.shape == (500,)
        assert labels.dtype == np.uint32
        assert labels.max() < 9
        again_v, again_l = generate_synthetic(500, 6, 9, 0.1, seed=21)
        assert np.array_equal(vectors, again_v)
        assert np.array_equal(labels, again_l)
        other_v, _ = generate_synthetic(500, 6, 9, 0.1, seed=22)
        assert not np.array_equal(vectors, other_v)

    def test_zero_spread_collapses_clusters(self):
        vectors, labels = generate_synthetic(200, 4, 6, 0.0, seed=23)
        for ki in set(labels.tolist()):
            members = vectors[labels == ki]
            assert np.all(members == members[0])
        assert len(np.unique(vectors, axis=0)) <= 6

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            generate_synthetic(0, 4, 2, 0.1)
        with pytest.raises(ValueError, match="positive"):
            generate_synthetic(10, 0, 2, 0.1)
        with pytest.raises(ValueError, match="positive"):
            generate_synthetic(10, 4, 0, 0.1)
        with pytest.raises(ValueError, match="non-negative"):
            generate_synthetic(10, 4, 2, -0.5)


class TestResultDocument:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        save_result_document(path, {"objective": 1.5, "labels": [0, 1]})
        doc = load_result_document(path)
        assert doc["objective"] == 1.5
        assert doc["labels"] == [0, 1]
        assert doc["format_version"] == 1

    def test_version_check(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text('{"format_version": 99}\n', encoding="utf-8")
        with pytest.raises(FormatError, match="version 99"):
            load_result_document(path)
