"""Bit-exact container format for channel / eigenvector / pilot datasets.

Layout (little-endian):
  magic "FMC1" | version u32 | record kind u8 | dim count u8 | dims u32[]
  | sample count u64 | payload | CRC32(payload) u32
Payload is one float32 (re, im) pair per element, row-major, per sample.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"FMC1"
VERSION = 1

KIND_CHANNEL = 0
KIND_EIGEN = 1
KIND_PILOT = 2

_MAX_ELEMENTS = 1 << 32  # per-sample element guard against corrupt dims


class FormatError(ValueError):
    """Raised when a container fails header or checksum validation."""


def write_records(path, kind: int, samples) -> None:
    """Write a list of equally shaped complex arrays as one container."""
    samples = [np.asarray(s) for s in samples]
    if not samples:
        raise ValueError("no samples to write")
    shape = samples[0].shape
    if any(s.shape != shape for s in samples):
        raise ValueError("all samples must share one shape")
    if kind not in (KIND_CHANNEL, KIND_EIGEN, KIND_PILOT):
        raise ValueError(f"unknown record kind {kind}")

    stacked = np.stack(samples)
    payload = np.stack([stacked.real, stacked.imag], axis=-1).astype(
        "<f4").tobytes()

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<BB", kind, len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(struct.pack("<Q", len(samples)))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def read_records(path):
    """Read a container back; returns (kind, list of complex64 arrays)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 14 or raw[:4] != MAGIC:
        raise FormatError("bad magic")
    off = 4
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    kind, ndim = struct.unpack_from("<BB", raw, off)
    off += 2
    if kind not in (KIND_CHANNEL, KIND_EIGEN, KIND_PILOT):
        raise FormatError(f"unknown record kind {kind}")
    if len(raw) < off + 4 * ndim + 8:
        raise FormatError("truncated header")
    dims = struct.unpack_from(f"<{ndim}I", raw, off)
    off += 4 * ndim
    (count,) = struct.unpack_from("<Q", raw, off)
    off += 8
    per_sample = int(np.prod(dims, dtype=np.uint64)) if ndim else 1
    if per_sample <= 0 or per_sample > _MAX_ELEMENTS:
        raise FormatError("dimension overflow")
    payload_len = count * per_sample * 8  # 2 float32 per element
    if len(raw) != off + payload_len + 4:
        raise FormatError("truncated payload")
    payload = raw[off:off + payload_len]
    (crc,) = struct.unpack_from("<I", raw, off + payload_len)
    if crc != zlib.crc32(payload):
        raise FormatError("payload CRC mismatch")

    inter = np.frombuffer(payload, dtype="<f4").reshape((count,) + dims + (2,))
    return kind, list((inter[..., 0] + 1j * inter[..., 1]).astype(np.complex64))
