"""Portable binary array container and preview images.

Container layout (all integers little-endian):

    magic   4 bytes  b"PCMD"
    version u16      currently 1
    dtype   u16      0 = float64 little-endian
    ndim    u16
    sizes   u64 * ndim
    labels  ndim * (u16 length + UTF-8 bytes)   axis labels
    payload row-major float64 little-endian
    crc     u32      CRC-32 of every preceding byte

Written files round-trip bitwise; readers validate magic, version, payload
length, and CRC.
"""

import struct
import zlib

import numpy as np

from .errors import ArrayFormatError

MAGIC = b"PCMD"
VERSION = 1
DTYPE_F64LE = 0


def array_to_bytes(arr: np.ndarray, labels=None) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    labels = list(labels) if labels is not None else [""] * arr.ndim
    if len(labels) != arr.ndim:
        raise ArrayFormatError(f"need {arr.ndim} axis labels, got {len(labels)}")
    head = bytearray()
    head += MAGIC
    head += struct.pack("<HHH", VERSION, DTYPE_F64LE, arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    for lab in labels:
        enc = lab.encode("utf-8")
        head += struct.pack("<H", len(enc)) + enc
    payload = memoryview(arr).cast("B")
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return b"".join((head, payload, struct.pack("<I", crc)))


def array_from_bytes(buf: bytes):
    """Decode a container; returns (array, labels)."""
    if len(buf) < 14:
        raise ArrayFormatError("container truncated")
    if buf[:4] != MAGIC:
        raise ArrayFormatError(f"bad magic {buf[:4]!r}")
    view = memoryview(buf)   # slices of it copy nothing
    (crc,) = struct.unpack("<I", buf[-4:])
    if crc != (zlib.crc32(view[:-4]) & 0xFFFFFFFF):
        raise ArrayFormatError("CRC mismatch")
    version, dtype, ndim = struct.unpack("<HHH", buf[4:10])
    if version != VERSION:
        raise ArrayFormatError(f"unsupported container version {version}")
    if dtype != DTYPE_F64LE:
        raise ArrayFormatError(f"unsupported element type tag {dtype}")
    off = 10
    try:  # the CRC can hold over a header whose fields run past its end or are not UTF-8
        sizes = struct.unpack(f"<{ndim}Q", buf[off:off + 8 * ndim])
        off += 8 * ndim
        labels = []
        for _ in range(ndim):
            (n,) = struct.unpack("<H", buf[off:off + 2])
            off += 2
            labels.append(buf[off:off + n].decode("utf-8"))
            off += n
    except (struct.error, UnicodeDecodeError) as err:
        raise ArrayFormatError(f"malformed header ({err})") from None
    count = int(np.prod(sizes)) if ndim else 1
    expect = off + 8 * count + 4
    if len(buf) != expect:
        raise ArrayFormatError(f"payload length mismatch: file {len(buf)} bytes, expected {expect}")
    arr = np.frombuffer(view[off:off + 8 * count], dtype="<f8").reshape(sizes).copy()
    return arr, labels


def write_array(path, arr: np.ndarray, labels=None):
    with open(path, "wb") as fh:
        fh.write(array_to_bytes(arr, labels))


def read_array(path):
    with open(path, "rb") as fh:
        return array_from_bytes(fh.read())


# --- 8-bit windowed grayscale PNG previews (quantitative work uses the arrays) ---

def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def write_png_preview(path, image: np.ndarray, window_center: float, window_width: float):
    """Write image as an 8-bit grayscale PNG with the given display window.

    The image is indexed [x, y] with y up; rows in the file run top to bottom,
    so the y axis is flipped for display.
    """
    lo = window_center - window_width / 2.0
    scaled = (np.asarray(image, dtype=float) - lo) / max(window_width, 1e-300)
    pix = np.clip(np.round(scaled * 255.0), 0, 255).astype(np.uint8)
    pix = pix.T[::-1]  # (rows, cols), top row = +y
    h, w = pix.shape
    raw = b"".join(b"\x00" + pix[r].tobytes() for r in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_png_chunk(b"IHDR", ihdr))
        fh.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(_png_chunk(b"IEND", b""))
