"""Seeded byte-level corruption of file images for reader fuzz tests."""

import numpy as np

# tokens that parse as numbers under looser rules than a file format allows
_SPLICES = (b"+", b"-", b"_", b" ", b"#", b"\n", b"0", b"9" * 12, b"\x00",
            b"\xff", b"1_0", b"+5", b"nan", b"inf", b"\xd9\xa3")


def corrupt(blob, rng):
    """One corrupted copy of `blob`: 1-3 flips, splices, cuts or truncations."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(5))
        at = int(rng.integers(len(out) + 1))
        if op == 0 and out:  # overwrite one byte
            out[min(at, len(out) - 1)] = int(rng.integers(256))
        elif op == 1:  # insert a short run of random bytes
            out[at:at] = rng.integers(0, 256, size=int(rng.integers(1, 5)),
                                      dtype=np.uint8).tobytes()
        elif op == 2:  # splice in a number-like token
            out[at:at] = _SPLICES[int(rng.integers(len(_SPLICES)))]
        elif op == 3:  # delete a short span
            del out[at:at + int(rng.integers(1, 9))]
        else:  # truncate
            del out[at:]
    return bytes(out)
