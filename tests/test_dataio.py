"""Round trips and corruption rejection for the dataset container format."""

import struct

import numpy as np
import pytest

from flowmat import dataio
from flowmat.dataio import (FormatError, KIND_CHANNEL, KIND_EIGEN, KIND_PILOT,
                            read_records, write_records)


def sample_batch(rng, shape=(2, 4, 3), count=5):
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(count)]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", [KIND_CHANNEL, KIND_EIGEN, KIND_PILOT])
    def test_kind_round_trip(self, tmp_path, kind):
        rng = np.random.default_rng(1)
        samples = sample_batch(rng)
        path = tmp_path / "data.fmc"
        write_records(path, kind, samples)
        kind_back, back = read_records(path)
        assert kind_back == kind
        assert len(back) == len(samples)
        for orig, rec in zip(samples, back):
            assert rec.dtype == np.complex64
            np.testing.assert_allclose(rec, orig.astype(np.complex64))

    def test_bytes_identical_on_rewrite(self, tmp_path):
        samples = sample_batch(np.random.default_rng(2))
        p1, p2 = tmp_path / "a.fmc", tmp_path / "b.fmc"
        write_records(p1, KIND_EIGEN, samples)
        write_records(p2, KIND_EIGEN, samples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_payload_survives_second_round_trip(self, tmp_path):
        # after one float32 round trip the values are exactly representable,
        # so a second trip is bit-exact
        samples = sample_batch(np.random.default_rng(3))
        path = tmp_path / "a.fmc"
        write_records(path, KIND_CHANNEL, samples)
        _, once = read_records(path)
        write_records(path, KIND_CHANNEL, once)
        _, twice = read_records(path)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a, b)


class TestWriteValidation:
    def test_empty_batch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "x.fmc", KIND_EIGEN, [])

    def test_mixed_shapes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "x.fmc", KIND_EIGEN,
                          [np.zeros((2, 2)), np.zeros((3, 2))])

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "x.fmc", 9, [np.zeros((2, 2))])


class TestCorruptionRejection:
    @pytest.fixture
    def container(self, tmp_path):
        path = tmp_path / "data.fmc"
        write_records(path, KIND_CHANNEL,
                      sample_batch(np.random.default_rng(4)))
        return path

    def test_bad_magic(self, container):
        raw = bytearray(container.read_bytes())
        raw[:4] = b"XXXX"
        container.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_records(container)

    def test_bad_version(self, container):
        raw = bytearray(container.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        container.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_records(container)

    def test_bad_kind(self, container):
        raw = bytearray(container.read_bytes())
        raw[8] = 7
        container.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="kind"):
            read_records(container)

    def test_flipped_payload_bit_fails_crc(self, container):
        raw = bytearray(container.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        container.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            read_records(container)

    def test_truncated_file(self, container):
        raw = container.read_bytes()
        container.write_bytes(raw[:-10])
        with pytest.raises(FormatError):
            read_records(container)

    def test_trailing_bytes(self, container):
        container.write_bytes(container.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 bytes after"):
            read_records(container)

    def test_truncated_header(self, container):
        container.write_bytes(container.read_bytes()[:11])
        with pytest.raises(FormatError):
            read_records(container)

    def test_dimension_overflow(self, container):
        raw = bytearray(container.read_bytes())
        # dims start after magic(4) + version(4) + kind/ndim(2)
        raw[10:14] = struct.pack("<I", 0xFFFFFFFF)
        container.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_records(container)
