"""Binary container for frame stacks (magic ``BPCM``).

Layout: a fixed 60-byte little-endian header followed by frames back to back.

    offset  field         type
    0       magic         4s   = b"BPCM"
    4       version       u16  = 1
    6       kind          u8   (0 = raw electrons, 1 = thresholded bits)
    7       plane         u8   (0 = dark, 1 = image, 2 = farfield)
    8       width         u32  pixels
    12      height        u32  pixels
    16      frame_count   u32  (patched on commit)
    20      seed          u64  master seed the frames came from
    28      config_digest 32s  sha256 of the producing configuration

Raw frames store each pixel as int32 fixed point in units of 1/256 electron
(row-major).  Binary frames store each row bit-packed MSB-first, padded to a
whole byte, so one frame is height * ceil(width / 8) bytes.  The writer
moves a finished stack onto its path only when it commits, so a failed or
killed write never leaves a stack there that looks complete.  The
reader validates the header and that the payload length is a whole number
of frames; it is cheap to construct and re-iterable (every iteration opens
its own handle), so it can be streamed twice by calibration passes.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FrameFormatError, ParameterError

MAGIC = b"BPCM"
FORMAT_VERSION = 1
HEADER_STRUCT = struct.Struct("<4sHBBIIIQ32s")
HEADER_SIZE = HEADER_STRUCT.size  # 60
_FRAME_COUNT_OFFSET = struct.calcsize("<4sHBBII")  # 16

KIND_RAW = 0
KIND_BINARY = 1
_KIND_NAMES = {KIND_RAW: "raw", KIND_BINARY: "binary"}

PLANE_DARK = 0
PLANE_IMAGE = 1
PLANE_FARFIELD = 2
_PLANE_NAMES = {PLANE_DARK: "dark", PLANE_IMAGE: "image", PLANE_FARFIELD: "farfield"}

#: raw frames are fixed point with this many steps per electron
RAW_SCALE = 256.0
_I32_MIN = np.iinfo(np.int32).min
_I32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class StackHeader:
    kind: int
    plane: int
    width: int
    height: int
    frame_count: int
    seed: int
    config_digest: bytes

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ParameterError(f"unknown frame kind {self.kind!r}")
        if self.plane not in _PLANE_NAMES:
            raise ParameterError(f"unknown plane code {self.plane!r}")
        if self.width < 1 or self.height < 1:
            raise ParameterError(f"degenerate frame shape {self.shape}")
        if len(self.config_digest) != 32:
            raise ParameterError("config_digest must be exactly 32 bytes")
        try:
            self.pack()
        except struct.error:
            raise ParameterError(f"the header cannot hold shape {self.shape}, frame count "
                                 f"{self.frame_count} and seed {self.seed}") from None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    @property
    def plane_name(self) -> str:
        return _PLANE_NAMES[self.plane]

    @property
    def frame_nbytes(self) -> int:
        if self.kind == KIND_RAW:
            return self.height * self.width * 4
        return self.height * ((self.width + 7) // 8)

    def pack(self) -> bytes:
        return HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, self.kind, self.plane,
            self.width, self.height, self.frame_count, self.seed, self.config_digest,
        )


def _parse_header(raw: bytes, path) -> StackHeader:
    if len(raw) < HEADER_SIZE:
        raise FrameFormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    magic, version, kind, plane, width, height, count, seed, digest = HEADER_STRUCT.unpack(
        raw[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise FrameFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FrameFormatError(f"{path}: unsupported format version {version}")
    try:
        return StackHeader(kind, plane, width, height, count, seed, digest)
    except ParameterError as exc:
        raise FrameFormatError(f"{path}: {exc}") from None


class AtomicFile:
    """A file written beside `path` that replaces it only when closed cleanly.

    The open handle writes to ``<path>.<pid>.tmp``.  `commit` closes it and
    moves it onto `path` with `os.replace`; `discard` closes and deletes
    it, leaving any earlier file at `path` as it was.  As a context manager
    it yields the handle, commits when the block ends cleanly and discards
    when it raises.
    """

    def __init__(self, path, mode: str = "w", **open_kwargs):
        self.path = os.fspath(path)
        self.tmp_path = f"{self.path}.{os.getpid()}.tmp"
        self.fh = open(self.tmp_path, mode, **open_kwargs)

    def commit(self) -> None:
        try:
            self.fh.close()
            os.replace(self.tmp_path, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self) -> None:
        self.fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.tmp_path)

    def __enter__(self):
        return self.fh

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
        else:
            self.discard()
        return False


class StackWriter(AtomicFile):
    """Sequential writer of a stack file, an `AtomicFile` over `path`.

    `commit` (or a `with` block that ends cleanly) patches the frame count
    into the header and moves the file onto `path`; `discard` (or a `with`
    block that raises) deletes it and leaves any earlier file at `path`.
    """

    def __init__(self, path, *, kind: int, plane: int, shape: tuple[int, int],
                 seed: int, config_digest: bytes):
        self.header = StackHeader(kind, plane, int(shape[1]), int(shape[0]), 0, int(seed),
                                  bytes(config_digest))
        self.n_frames = 0
        super().__init__(path, "wb")
        self.fh.write(self.header.pack())

    def write(self, frame) -> None:
        frame = np.asarray(frame)
        if frame.shape != self.header.shape:
            raise ParameterError(
                f"frame shape {frame.shape} != stack shape {self.header.shape}"
            )
        if self.header.kind == KIND_BINARY:
            payload = np.packbits(frame.astype(bool), axis=1).tobytes()
        else:
            fixed = np.rint(np.asarray(frame, dtype=np.float64) * RAW_SCALE)
            payload = np.clip(fixed, _I32_MIN, _I32_MAX).astype("<i4").tobytes()
        self.fh.write(payload)
        self.n_frames += 1

    def commit(self) -> None:
        try:
            self.fh.seek(_FRAME_COUNT_OFFSET)
            self.fh.write(struct.pack("<I", self.n_frames))
        except BaseException:
            self.discard()
            raise
        super().commit()

    def __enter__(self):
        return self


class StackReader:
    """Validated, re-iterable view of a stack file.

    Iterating yields float64 electron frames (raw stacks) or bool frames
    (binary stacks).  Each iteration opens a fresh handle, so the same
    reader can feed multi-pass consumers.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        size = os.path.getsize(self.path)
        with open(self.path, "rb") as fh:
            self.header = _parse_header(fh.read(HEADER_SIZE), self.path)
        payload = size - HEADER_SIZE
        per = self.header.frame_nbytes
        if payload != self.header.frame_count * per:
            raise FrameFormatError(
                f"{self.path}: payload is {payload} bytes, expected "
                f"{self.header.frame_count} frames of {per} bytes (truncated or corrupt)"
            )

    # convenience passthroughs
    @property
    def shape(self) -> tuple[int, int]:
        return self.header.shape

    @property
    def kind(self) -> int:
        return self.header.kind

    @property
    def plane_name(self) -> str:
        return self.header.plane_name

    @property
    def config_digest(self) -> bytes:
        return self.header.config_digest

    def __len__(self) -> int:
        return self.header.frame_count

    def _decode(self, buf: bytes) -> np.ndarray:
        h, w = self.header.shape
        if self.header.kind == KIND_BINARY:
            packed = np.frombuffer(buf, dtype=np.uint8).reshape(h, (w + 7) // 8)
            return np.unpackbits(packed, axis=1, count=w).astype(bool)
        fixed = np.frombuffer(buf, dtype="<i4").reshape(h, w)
        return fixed.astype(np.float64) / RAW_SCALE

    def __iter__(self):
        per = self.header.frame_nbytes
        with open(self.path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            for _ in range(self.header.frame_count):
                buf = fh.read(per)
                if len(buf) != per:
                    raise FrameFormatError(f"{self.path}: truncated mid-frame")
                yield self._decode(buf)

    def describe(self) -> dict:
        h = self.header
        return {
            "path": self.path,
            "kind": h.kind_name,
            "plane": h.plane_name,
            "width": h.width,
            "height": h.height,
            "frame_count": h.frame_count,
            "seed": h.seed,
            "config_digest": h.config_digest.hex(),
        }
