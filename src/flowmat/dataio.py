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
    """Raised when a container, checkpoint or recorded range is invalid."""


class Reader:
    """Bounds-checked cursor over the bytes of a container or checkpoint
    (``what``); short reads and leftover bytes raise FormatError."""

    def __init__(self, raw: bytes, what: str):
        self.raw, self.what, self.off = raw, what, 0

    def take(self, fmt: str) -> tuple:
        """The values of struct ``fmt`` at the cursor; moves past them."""
        try:
            values = struct.unpack_from(fmt, self.raw, self.off)
        except struct.error as exc:
            raise FormatError(f"truncated {self.what}: {exc}") from exc
        self.off += struct.calcsize(fmt)
        return values

    def end(self) -> None:
        """FormatError unless every byte has been read."""
        left = len(self.raw) - self.off
        if left:
            raise FormatError(f"{left} bytes after the {self.what}")


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
        reader = Reader(fh.read(), "container")
    take = reader.take
    if take("<4s")[0] != MAGIC:
        raise FormatError("bad magic")
    (version,) = take("<I")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    kind, ndim = take("<BB")
    if kind not in (KIND_CHANNEL, KIND_EIGEN, KIND_PILOT):
        raise FormatError(f"unknown record kind {kind}")
    dims = take(f"<{ndim}I")
    (count,) = take("<Q")
    per_sample = int(np.prod(dims, dtype=np.uint64)) if ndim else 1
    if per_sample <= 0 or per_sample > _MAX_ELEMENTS:
        raise FormatError("dimension overflow")
    payload, crc = take(f"<{count * per_sample * 8}sI")  # 2 f4 per element
    reader.end()
    if crc != zlib.crc32(payload):
        raise FormatError("payload CRC mismatch")

    inter = np.frombuffer(payload, dtype="<f4").reshape((count,) + dims + (2,))
    return kind, list((inter[..., 0] + 1j * inter[..., 1]).astype(np.complex64))
