import numpy as np
import pytest
from _fuzz import corrupt
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import cli
from lacuna.pgm import (
    MalformedHeaderError,
    PgmError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    read_pgm,
    read_pgm_raw,
    write_pgm,
)
from lacuna.tensor import ShapeMismatchError


def test_write_rescales_half_up(tmp_path):
    # values 0..8 against span 8: scale 255/8 = 31.875
    x = np.arange(9, dtype=np.float64).reshape(3, 3)
    path = str(tmp_path / "ramp.pgm")
    write_pgm(x, path)
    back = read_pgm(path)
    assert back.shape == (1, 1, 3, 3)
    expected = [0, 32, 64, 96, 128, 159, 191, 223, 255]
    assert back.reshape(-1).tolist() == expected


def test_write_constant_map_is_all_zero(tmp_path):
    path = str(tmp_path / "flat.pgm")
    write_pgm(np.full((4, 5), 7.25), path)
    assert np.all(read_pgm(path) == 0.0)


@pytest.mark.parametrize("values, expected", [
    # 255 over the range overflows (1.1e-308 is subnormal)
    ([0.0] * 8 + [1.1e-308], [0] * 8 + [255]),
    ([0.0, 2.0 ** -1072, 2.0 ** -1070, 3 * 2.0 ** -1072], [0, 64, 255, 191]),
    # the range itself overflows: 2^1023 - -2^1023 is 2^1024
    ([-2.0 ** 1023, 0.0, 2.0 ** 1023, 2.0 ** 1021], [0, 128, 255, 159]),
    ([-1e308, 1e308], [0, 255]),
], ids=["subnormal-spike", "subnormal-ramp", "power-of-two-halves", "huge"])
def test_write_rescales_ranges_at_the_float_limits(tmp_path, values, expected):
    # no overflow warning (warnings fail the suite), and no NaN bytes
    path = str(tmp_path / "edge.pgm")
    write_pgm(np.array([values]), path)
    assert read_pgm(path).reshape(-1).tolist() == expected


def test_write_accepts_feature_map_rank(tmp_path):
    path = str(tmp_path / "r4.pgm")
    write_pgm(np.zeros((1, 1, 2, 2)), path)
    assert read_pgm(path).shape == (1, 1, 2, 2)
    for bad in (np.zeros((2, 1, 2, 2)), [1.0, 2.0, 3.0]):
        with pytest.raises(ShapeMismatchError):
            write_pgm(bad, path)


def test_write_rejects_non_finite(tmp_path):
    x = np.zeros((2, 2))
    x[0, 0] = np.nan
    with pytest.raises(ValueError):
        write_pgm(x, str(tmp_path / "nan.pgm"))


def test_read_p2_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2 # trailing\n255\n0 10 20\n30 40 50\n")
    arr, maxval = read_pgm_raw(str(path))
    assert maxval == 255
    assert arr.shape == (1, 1, 2, 3)
    assert arr.reshape(-1).tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def test_read_p5_binary(tmp_path):
    path = tmp_path / "bin.pgm"
    path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 25, 50, 100]))
    arr, maxval = read_pgm_raw(str(path))
    assert maxval == 100
    # pixels come back verbatim, no rescale by maxval
    assert arr.reshape(-1).tolist() == [0.0, 25.0, 50.0, 100.0]


def test_p2_and_p5_agree(tmp_path):
    vals = [0, 63, 127, 255, 1, 2]
    p2 = tmp_path / "a.pgm"
    p2.write_text("P2\n3 2\n255\n" + " ".join(map(str, vals)))
    p5 = tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n3 2\n255\n" + bytes(vals))
    assert np.array_equal(read_pgm(str(p2)), read_pgm(str(p5)))


@pytest.mark.parametrize(
    "blob,err",
    [
        (b"P6\n2 2\n255\n" + bytes(4), MalformedHeaderError),
        (b"P5\n2 x\n255\n" + bytes(4), MalformedHeaderError),
        (b"P5\n0 2\n255\n", MalformedHeaderError),
        (b"P5\n2 2\n", MalformedHeaderError),
        (b"P5\n2 2\n70000\n" + bytes(4), UnsupportedMaxvalError),
        (b"P5\n2 2\n255\n" + bytes(3), TruncatedPayloadError),
        (b"P2\n2 2\n255\n1 2 3", TruncatedPayloadError),
        (b"P5\n2 2\n10\n" + bytes([0, 5, 10, 11]), PgmError),
        # header fields and P2 samples are ASCII decimal digits only
        (b"P5\n1_0 1\n255\n" + bytes(10), MalformedHeaderError),
        (b"P5\n+5 1\n255\n" + bytes(5), MalformedHeaderError),
        (b"P5\n2 1\n2_55\n" + bytes(2), MalformedHeaderError),
        (b"P5\n\xd9\xa3 1\n255\n" + bytes(3), MalformedHeaderError),
        pytest.param(b"P5\n" + b"9" * 5000 + b" 1\n255\n",
                     MalformedHeaderError, id="header-field-5000-digits"),
        (b"P2\n2 1\n255\n+5 1", PgmError),
        (b"P2\n2 1\n255\n1_0 1", PgmError),
        pytest.param(b"P2\n2 1\n255\n1 " + b"9" * 400, PgmError,
                     id="p2-sample-400-digits"),
        # a comment right after maxval runs to its newline, raster included
        pytest.param(b"P5\n2 2\n255#x" + bytes([10, 20, 30, 40]),
                     TruncatedPayloadError, id="p5-comment-after-maxval-eats-raster"),
        pytest.param(b"P2\n2 1\n255#x 1 2", TruncatedPayloadError,
                     id="p2-comment-after-maxval-eats-raster"),
    ],
)
def test_malformed_inputs(tmp_path, blob, err):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(err):
        read_pgm(str(path))


def test_zero_maxval_is_a_malformed_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n0\n" + bytes(4))
    with pytest.raises(MalformedHeaderError, match="bad maxval 0"):
        read_pgm(str(path))


_PIXELS = [[10.0, 20.0], [35.0, 10.0]]


@pytest.mark.parametrize(
    "blob,expected",
    [
        # libnetpbm reads the comment's newline as the delimiter after maxval
        pytest.param(b"P5\n2 2\n255#x\n" + bytes([10, 20, 35, 10]), _PIXELS,
                     id="p5-comment-after-maxval"),
        pytest.param(b"P5\n2 2\n255#\n" + bytes([10, 20, 35, 10]), _PIXELS,
                     id="p5-empty-comment-after-maxval"),
        pytest.param(b"P2\n2 2\n255#x\n10 20\n35 10\n", _PIXELS,
                     id="p2-comment-after-maxval"),
        # one whitespace ends maxval, so a "#" after it is raster: "#x\n\n"
        pytest.param(b"P5\n2 2\n255 #x\n\n", [[35.0, 120.0], [10.0, 10.0]],
                     id="p5-hash-after-delimiter-is-raster"),
    ],
)
def test_comment_after_maxval_ends_the_header(tmp_path, blob, expected):
    path = tmp_path / "c.pgm"
    path.write_bytes(blob)
    assert read_pgm(str(path))[0, 0].tolist() == expected


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_write_read_write_idempotent(tmp_path_factory, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, size=(h, w))
    base = tmp_path_factory.mktemp("pgm")
    first, second = str(base / "one.pgm"), str(base / "two.pgm")
    write_pgm(x, first)
    write_pgm(read_pgm(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_fuzzed_files_raise_only_pgm_errors(tmp_path, capsys):
    """Corrupt P2/P5 files either read cleanly or raise PgmError, and
    lacmap exits 2 on each one the reader rejects."""
    rng = np.random.default_rng(20240917)
    pixels = rng.integers(0, 256, size=(3, 4))
    seeds = [
        b"P5\n4 3\n255\n" + pixels.astype(np.uint8).tobytes(),
        b"P2\n# c\n4 3\n255\n" + " ".join(map(str, pixels.ravel())).encode(),
    ]
    path, out = tmp_path / "fuzz.pgm", str(tmp_path / "heat.pgm")
    rejected = 0
    for case in range(2000):
        path.write_bytes(corrupt(seeds[case % 2], rng))
        try:
            arr, maxval = read_pgm_raw(str(path))
        except PgmError:
            rejected += 1
            if case % 10 < 2:  # a fifth of the rejects also go through the CLI
                assert cli.main(["lacmap", str(path), out]) == cli.EXIT_IO
            continue
        assert arr.ndim == 4 and arr.shape[:2] == (1, 1)
        assert 1 <= maxval <= 255
        assert np.all((arr >= 0) & (arr <= maxval))
    capsys.readouterr()
    assert rejected > 1000  # the loop exercised the error paths
