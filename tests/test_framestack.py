"""Stack container round-trips, validation, and corruption detection."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpcam import KIND_BINARY, KIND_RAW, StackReader, StackWriter
from bpcam.emccd import Calibration, threshold
from bpcam.errors import FrameFormatError, ParameterError
from bpcam.framestack import (
    HEADER_SIZE,
    PLANE_DARK,
    PLANE_FARFIELD,
    PLANE_IMAGE,
    RAW_SCALE,
)

NO_DIGEST = b"\x00" * 32
#: header fields of the small hand-made stacks below
ANON = dict(seed=0, config_digest=NO_DIGEST)


def write_stack(path, frames, kind, plane=PLANE_IMAGE, seed=0, digest=NO_DIGEST):
    with StackWriter(path, kind=kind, plane=plane, shape=frames[0].shape,
                     seed=seed, config_digest=digest) as wr:
        for f in frames:
            wr.write(f)
    return StackReader(path)


def test_binary_roundtrip(tmp_path, rng):
    frames = [rng.random((7, 13)) < 0.3 for _ in range(5)]
    digest = bytes(range(32))
    rd = write_stack(tmp_path / "s.bpcm", frames, KIND_BINARY, PLANE_FARFIELD,
                     seed=99, digest=digest)
    assert len(rd) == 5
    assert rd.shape == (7, 13)
    assert rd.plane_name == "farfield"
    assert rd.header.seed == 99
    assert rd.config_digest == digest
    for got, want in zip(rd, frames):
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, want)


def test_raw_roundtrip_quantises_to_fixed_point(tmp_path, rng):
    frames = [rng.normal(390.0, 6.0, size=(6, 5)) for _ in range(3)]
    rd = write_stack(tmp_path / "s.bpcm", frames, KIND_RAW, PLANE_DARK)
    for got, want in zip(rd, frames):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, atol=0.5 / RAW_SCALE + 1e-12)
        # stored values are exact multiples of the quantum
        assert np.all(got * RAW_SCALE == np.rint(got * RAW_SCALE))


def test_reader_is_reiterable(tmp_path, rng):
    frames = [rng.random((4, 11)) < 0.5 for _ in range(6)]
    rd = write_stack(tmp_path / "s.bpcm", frames, KIND_BINARY)
    first = [f.copy() for f in rd]
    second = list(rd)  # fresh handle, same contents
    assert len(first) == len(second) == len(frames)
    for a, b, want in zip(first, second, frames):
        np.testing.assert_array_equal(a, want)
        np.testing.assert_array_equal(b, want)


def test_frame_count_patched_on_close(tmp_path):
    path = tmp_path / "s.bpcm"
    wr = StackWriter(path, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3), **ANON)
    wr.write(np.zeros((3, 3), dtype=bool))
    wr.write(np.ones((3, 3), dtype=bool))
    wr.commit()
    assert wr.n_frames == 2
    assert len(StackReader(path)) == 2
    committed = path.read_bytes()
    with pytest.raises(ValueError):  # the handle is closed: a stack commits once
        wr.commit()
    assert path.read_bytes() == committed
    assert [p.name for p in tmp_path.iterdir()] == ["s.bpcm"]


def test_stack_appears_at_its_path_only_when_closed(tmp_path):
    path = tmp_path / "s.bpcm"
    with StackWriter(path, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3), **ANON) as wr:
        wr.write(np.eye(3, dtype=bool))
        assert not path.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["s.bpcm"]
    assert len(StackReader(path)) == 1


def test_failed_write_keeps_the_earlier_stack(tmp_path):
    path = tmp_path / "s.bpcm"
    write_stack(path, [np.eye(3, dtype=bool)], KIND_BINARY)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="interrupted"):
        with StackWriter(path, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3), **ANON) as wr:
            wr.write(np.zeros((3, 3), dtype=bool))
            raise RuntimeError("interrupted mid-stack")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.bpcm"]


def test_describe_reports_header_fields(tmp_path):
    rd = write_stack(tmp_path / "s.bpcm", [np.zeros((2, 9), dtype=bool)],
                     KIND_BINARY, PLANE_IMAGE, seed=5)
    info = rd.describe()
    assert info["kind"] == "binary"
    assert info["plane"] == "image"
    assert (info["height"], info["width"]) == (2, 9)
    assert info["frame_count"] == 1
    assert info["seed"] == 5
    assert info["config_digest"] == "00" * 32


def test_writer_validation(tmp_path):
    path = tmp_path / "s.bpcm"
    with pytest.raises(ParameterError):
        StackWriter(path, kind=7, plane=PLANE_IMAGE, shape=(3, 3), **ANON)
    with pytest.raises(ParameterError):
        StackWriter(path, kind=KIND_BINARY, plane=7, shape=(3, 3), **ANON)
    with pytest.raises(ParameterError):  # planes are given by code, not by name
        StackWriter(path, kind=KIND_BINARY, plane="image", shape=(3, 3), **ANON)
    with pytest.raises(ParameterError):
        StackWriter(path, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3),
                    seed=0, config_digest=b"short")
    with StackWriter(path, kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3), **ANON) as wr:
        with pytest.raises(ParameterError):
            wr.write(np.zeros((4, 4), dtype=bool))


@pytest.mark.parametrize("changes", [dict(seed=-1), dict(seed=2**64), dict(shape=(3, 2**32)),
                                     dict(shape=(0, 3))])
def test_header_overflow_is_refused_before_any_file(tmp_path, changes):
    """A seed or shape the header cannot hold leaves no temporary file behind."""
    kwargs = dict(kind=KIND_BINARY, plane=PLANE_IMAGE, shape=(3, 3), **ANON) | changes
    with pytest.raises(ParameterError, match="header cannot hold|degenerate frame shape"):
        StackWriter(tmp_path / "s.bpcm", **kwargs)
    assert list(tmp_path.iterdir()) == []


def test_truncated_payload_detected(tmp_path, rng):
    path = tmp_path / "s.bpcm"
    write_stack(path, [rng.random((5, 5)) < 0.5 for _ in range(4)], KIND_BINARY)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FrameFormatError, match="truncated or corrupt"):
        StackReader(path)


def test_header_corruption_detected(tmp_path):
    path = tmp_path / "s.bpcm"
    write_stack(path, [np.zeros((3, 3), dtype=bool)], KIND_BINARY)
    data = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bpcm"
    bad_magic.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(FrameFormatError, match="magic"):
        StackReader(bad_magic)

    bad_version = tmp_path / "version.bpcm"
    bad_version.write_bytes(data[:4] + struct.pack("<H", 9) + data[6:])
    with pytest.raises(FrameFormatError, match="version"):
        StackReader(bad_version)

    short = tmp_path / "short.bpcm"
    short.write_bytes(data[: HEADER_SIZE - 10])
    with pytest.raises(FrameFormatError, match="header"):
        StackReader(short)

    # the header's own check, reported with the path
    no_width = tmp_path / "width.bpcm"
    no_width.write_bytes(data[:8] + struct.pack("<I", 0) + data[12:])
    with pytest.raises(FrameFormatError, match=r"width\.bpcm: degenerate frame shape"):
        StackReader(no_width)


def test_writes_threshold_output(tmp_path):
    # `threshold` returns the bool array itself, which a binary stack stores
    cal = Calibration(pixel_mean=np.zeros((4, 4)), sigma_noise=1.0, centre=0.0)
    bits = threshold(3.0 * np.eye(4), cal, 2.0)
    with StackWriter(tmp_path / "s.bpcm", kind=KIND_BINARY, plane=PLANE_IMAGE,
                     shape=bits.shape, **ANON) as wr:
        wr.write(bits)
    rd = StackReader(tmp_path / "s.bpcm")
    np.testing.assert_array_equal(next(iter(rd)), np.eye(4, dtype=bool))


@given(
    h=st.integers(1, 12),
    w=st.integers(1, 20),
    n=st.integers(1, 4),
    plane=st.sampled_from([(PLANE_DARK, "dark"), (PLANE_IMAGE, "image"),
                           (PLANE_FARFIELD, "farfield")]),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_binary_roundtrip_property(tmp_path_factory, h, w, n, plane, seed, data):
    """Any bit pattern survives pack/unpack, including widths not on byte
    boundaries."""
    bits = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=h * w, max_size=h * w),
            min_size=n, max_size=n,
        )
    )
    frames = [np.array(row, dtype=bool).reshape(h, w) for row in bits]
    path = tmp_path_factory.mktemp("fs") / "prop.bpcm"
    code, name = plane
    rd = write_stack(path, frames, KIND_BINARY, code, seed=seed)
    assert rd.header.seed == seed
    assert rd.plane_name == name
    for got, want in zip(rd, frames):
        np.testing.assert_array_equal(got, want)
