import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from pcmd.arrayio import (array_from_bytes, array_to_bytes, read_array, write_array,
                          write_png_preview)
from pcmd.errors import ArrayFormatError


def test_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 5, 3))
    path = tmp_path / "a.pcmd"
    write_array(path, arr, ["view", "channel", "bin"])
    back, labels = read_array(path)
    assert back.tobytes() == arr.tobytes()
    assert labels == ["view", "channel", "bin"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 2**31 - 1))
def test_roundtrip_hypothesis_shapes(shape, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=tuple(shape))
    back, _ = array_from_bytes(array_to_bytes(arr))
    assert np.array_equal(back, arr)
    assert back.dtype == np.float64


def test_special_values_survive():
    arr = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308]])
    back, _ = array_from_bytes(array_to_bytes(arr))
    assert back.tobytes() == arr.astype("<f8").tobytes()


def test_codec_holds_one_copy_and_a_file_read_two(tmp_path):
    arr = np.random.default_rng(5).normal(size=(360, 256, 8))   # 5.6 MB
    path = tmp_path / "big.pcmd"
    labels = ["view", "channel", "bin"]
    blob = array_to_bytes(arr, labels)
    assert traced_peak(array_to_bytes, arr, labels) <= 1.1 * arr.nbytes
    assert traced_peak(array_from_bytes, blob) <= 1.1 * arr.nbytes
    assert traced_peak(write_array, path, arr, labels) <= 1.1 * arr.nbytes
    # the file's bytes and the array, plus room for the header and the file object
    assert traced_peak(read_array, path) <= 2 * arr.nbytes + 2**16
    assert path.read_bytes() == blob


def test_bad_magic_rejected():
    buf = bytearray(array_to_bytes(np.zeros(3)))
    buf[:4] = b"JUNK"
    with pytest.raises(ArrayFormatError, match="magic"):
        array_from_bytes(bytes(buf))


def test_crc_validates_payload():
    buf = bytearray(array_to_bytes(np.arange(4.0)))
    buf[-12] ^= 0x01  # flip one payload bit
    with pytest.raises(ArrayFormatError, match="CRC"):
        array_from_bytes(bytes(buf))


def test_unsupported_version_rejected():
    buf = bytearray(array_to_bytes(np.zeros(2)))
    buf[4:6] = struct.pack("<H", 9)
    body = bytes(buf[:-4])
    patched = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(ArrayFormatError, match="version"):
        array_from_bytes(patched)


def test_truncated_container_rejected():
    buf = array_to_bytes(np.zeros((3, 3)))
    with pytest.raises(ArrayFormatError):
        array_from_bytes(buf[: len(buf) // 2])


def test_label_count_must_match_ndim():
    with pytest.raises(ArrayFormatError, match="labels"):
        array_to_bytes(np.zeros((2, 2)), labels=["only-one"])


def test_png_preview_structure(tmp_path):
    img = np.linspace(990.0, 1010.0, 32 * 16).reshape(32, 16)
    path = tmp_path / "p.png"
    write_png_preview(path, img, window_center=1000.0, window_width=20.0)
    blob = path.read_bytes()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    width, height = struct.unpack(">II", blob[16:24])
    assert (width, height) == (32, 16)  # x across, y down
    bit_depth, color_type = blob[24], blob[25]
    assert bit_depth == 8 and color_type == 0


def test_png_window_clips(tmp_path):
    img = np.array([[500.0, 1000.0, 1500.0]])
    path = tmp_path / "w.png"
    write_png_preview(path, img, window_center=1000.0, window_width=20.0)
    blob = path.read_bytes()
    idat_at = blob.find(b"IDAT") + 4
    length = struct.unpack(">I", blob[idat_at - 8:idat_at - 4])[0]
    rows = zlib.decompress(blob[idat_at:idat_at + length])
    pixels = [rows[i] for i in range(len(rows)) if i % 2 == 1]  # one pixel per row
    assert pixels == [255, 128, 0]  # y axis flipped: top row shows the largest y


@pytest.mark.parametrize("header", [
    b"PCMD" + struct.pack("<HHH", 1, 0, 50),
    b"PCMD" + struct.pack("<HHHQH", 1, 0, 1, 1, 1) + b"\xff" + struct.pack("<d", 1.0),
], ids=["sizes past the end", "label not UTF-8"])
def test_malformed_header_under_a_valid_crc_rejected(header):
    sealed = header + struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF)
    with pytest.raises(ArrayFormatError, match="malformed header"):
        array_from_bytes(sealed)
