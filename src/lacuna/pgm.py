"""Minimal PGM (portable graymap) reader/writer.

Reads both ASCII (P2) and binary (P5) encodings with maxval up to 255 and
returns pixel values verbatim as a (1, 1, H, W) float map.  Writing always
emits P5 with the map linearly rescaled to [0, 255] (round half up;
constant maps write zeros), which makes write-read-write round trips
byte-identical after the first write.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeMismatchError

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PgmError(ValueError):
    """Base class for PGM format problems."""


class MalformedHeaderError(PgmError):
    pass


class TruncatedPayloadError(PgmError):
    pass


class UnsupportedMaxvalError(PgmError):
    pass


def _parse(blob: bytes, path: str):
    """Header tokens (magic, width, height, maxval) and the payload offset."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            elif ch in _WHITESPACE:
                pos += 1
            else:
                break
        if pos >= len(blob):
            raise MalformedHeaderError(f"{path}: header ended early")
        start = pos
        while pos < len(blob) and blob[pos:pos + 1] not in _WHITESPACE:
            if blob[pos:pos + 1] == b"#":
                break
            pos += 1
        return blob[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise MalformedHeaderError(f"{path}: magic {magic!r} is not P2/P5")
    fields = [next_token() for _ in range(3)]
    # ASCII digits only: int() would also take signs, underscores and spaces
    if not all(tok.isdigit() for tok in fields):
        raise MalformedHeaderError(f"{path}: non-numeric header field")
    try:
        width, height, maxval = (int(tok) for tok in fields)
    except ValueError as exc:  # more digits than int() converts
        raise MalformedHeaderError(f"{path}: header field too long") from exc
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{path}: bad dims {width}x{height}")
    if maxval < 1:
        raise MalformedHeaderError(f"{path}: bad maxval {maxval}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"{path}: maxval {maxval} > 255")
    if blob[pos:pos + 1] == b"#":  # as in libnetpbm, its newline ends maxval
        newline = blob.find(b"\n", pos)
        pos = len(blob) if newline < 0 else newline
    return magic, width, height, maxval, pos


def read_pgm_raw(path: str) -> tuple[np.ndarray, int]:
    """Pixels (verbatim, as (1,1,H,W) float64) plus the file's maxval."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, width, height, maxval, pos = _parse(blob, path)
    count = width * height
    if magic == b"P5":
        payload = blob[pos + 1:pos + 1 + count]  # one whitespace then bytes
        if len(payload) < count:
            raise TruncatedPayloadError(
                f"{path}: need {count} pixel bytes, found {len(payload)}")
        pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        fields = blob[pos:].split()
        if len(fields) < count:
            raise TruncatedPayloadError(
                f"{path}: need {count} pixel values, found {len(fields)}")
        samples = fields[:count]
        if not b"".join(samples).isdigit():  # each sample is ASCII digits
            raise PgmError(f"{path}: non-numeric pixel value")
        try:
            pixels = np.array([int(v) for v in samples], dtype=np.float64)
        except (ValueError, OverflowError) as exc:  # absurdly long digit runs
            raise PgmError(f"{path}: pixel value out of range") from exc
    if pixels.max(initial=0.0) > maxval or pixels.min(initial=0.0) < 0:
        raise PgmError(f"{path}: pixel outside [0, {maxval}]")
    return pixels.reshape(1, 1, height, width), maxval


def read_pgm(path: str) -> np.ndarray:
    """Pixel values verbatim as a (1, 1, H, W) float map."""
    pixels, _ = read_pgm_raw(path)
    return pixels


def write_pgm(x: np.ndarray, path: str) -> None:
    """Rescale [min, max] to [0, 255] (half-up), write binary P5.

    A range whose width overflows, or so narrow that 255 over it does, is
    rescaled in halves or by division, so every finite map writes its
    extremes as 0 and 255."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 4 and arr.shape[:2] == (1, 1):
        arr = arr[0, 0]
    if arr.ndim != 2:
        raise ShapeMismatchError(f"write_pgm wants (H, W) or (1,1,H,W), got {x.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("write_pgm requires finite values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        span = hi - lo
        if span == math.inf:  # the range overflows; halves do not
            q = arr * 0.5
            q -= lo * 0.5
            q *= 255.0 / (hi * 0.5 - lo * 0.5)
        elif 255.0 / span == math.inf:  # a range too narrow to invert
            q = arr - lo
            q /= span
            q *= 255.0
        else:
            q = arr - lo
            q *= 255.0 / span
        q += 0.5
        np.floor(q, out=q)
    else:
        q = np.zeros_like(arr)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(q.astype(np.uint8).tobytes())
