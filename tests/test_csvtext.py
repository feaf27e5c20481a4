"""The vectorized ``%.17g`` formatter behind ``cli.write_csv``, cell by cell
against ``"%.17g" % v``."""

import os
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

from splineproj import cli, csvtext


def formatted(values):
    """The text of each value, through the templates and one compress."""
    chars, keep = csvtext.cell_templates(values)
    chars[:, -1] = ord("\n")
    return np.compress(keep.ravel(), chars.ravel()).tobytes().decode().splitlines()


def assert_formats_as_percent_g(values):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    expect = ["%.17g" % v for v in values.tolist()]
    got = formatted(values)
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expect) if g != e]
    assert len(got) == len(expect) and not wrong, wrong[:5]


def with_neighbours(values):
    """``values`` and the doubles on either side of each, short of inf."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        up = np.nextafter(values, np.inf)
    return np.concatenate([values, np.nextafter(values, 0.0), up[np.isfinite(up)]])


def test_powers_of_ten_and_their_neighbours():
    # the double just below 10^E can lie within 5e-17 of it (relative; 178
    # of the powers between 1e-300 and 1e300 have one): digits rounded at
    # exponent E would make it 1eE, where %.17g prints 9.99...e(E-1), so E
    # is decided on the unrounded product
    powers = np.array([float(f"1e{E}") for E in range(-323, 309)])
    assert_formats_as_percent_g(with_neighbours(powers))


def test_negative_powers_of_two_with_exact_ties():
    # 2^-25 = 2.98023223876953125e-08 has 18 significant digits: a tie that
    # %.17g rounds half-even, to ...12
    values = 2.0 ** -np.arange(1, 1075)
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    assert_formats_as_percent_g(values)


def test_largest_significand_across_exponents():
    values = np.ldexp(float(2 ** 53 - 1), np.arange(-1074, 972))
    assert np.isfinite(values).all()
    assert_formats_as_percent_g(values)


@pytest.mark.parametrize("v", [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
def test_subnormals_and_largest(v):
    assert_formats_as_percent_g(with_neighbours([v]))


def test_notation_switches():
    # %g switches to exponent notation below 1e-4 and from 1e17 on
    assert_formats_as_percent_g(with_neighbours([1e-5, 1e-4, 1e16, 1e17]))
    assert formatted([1e-5, 1e-4, 1e16, 1e17]) == [
        "1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"]


def test_zeros_infinities_and_nans():
    nans = np.array([np.nan, -np.nan, np.copysign(np.nan, -1.0)])
    assert np.signbit(nans).any() and not np.signbit(nans).all()
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])
    assert formatted(values) == ["%.17g" % v for v in values.tolist()] == [
        "0", "-0", "inf", "-inf", "nan", "nan", "nan"]


def test_random_bit_patterns():
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2 ** 63, 50_000, dtype=np.int64).view(float)
    values = np.concatenate([values, rng.standard_normal(20_000),
                             np.arange(-1000.0, 1000.0), rng.random(20_000) * 1e-5])
    assert_formats_as_percent_g(values)


def test_every_cell_through_the_fallback(monkeypatch):
    # a band of 1 holds every fraction: each finite nonzero cell takes
    # "%.17g" % v, and the text is the same
    values = np.concatenate([2.0 ** -np.arange(1, 60), [1e-300, 3.0, 0.1, 1e22],
                             [0.0, -0.0, np.inf, np.nan]])
    monkeypatch.setattr(csvtext, "_TIE_BAND", 1.0)
    with patch.object(csvtext, "_fallback_rows", wraps=csvtext._fallback_rows) as fallback:
        assert_formats_as_percent_g(values)
    assert sum(call.args[0].size for call in fallback.call_args_list) == 2 * 63


def test_decimal_exponent_table_never_overshoots():
    # 10^E0 <= 2^(e-1) < 10^(E0+1) for every frexp exponent e, exactly
    *_, e0 = csvtext._scales()
    for e, E in zip(range(csvtext._E_MIN, csvtext._E_MAX + 1), e0.tolist()):
        assert Fraction(10) ** E <= Fraction(2) ** (e - 1) < Fraction(10) ** (E + 1)


def test_inverse_table_takes_no_fallback(tmp_path):
    # the 252,004-row i, j, value table of the benchmark's invert: not one
    # cell lies within the band of a tie, and the bytes are those of %.17g
    with patch.object(csvtext, "_fallback_rows", wraps=csvtext._fallback_rows) as fallback, \
            patch.object(cli, "write_csv", wraps=cli.write_csv) as write:
        assert cli.main(["invert", "--k", "3", "--partition", "random:500:1",
                         "-o", str(tmp_path)]) == 0
    assert fallback.call_count == 0
    header, rows = write.call_args.args[1:]
    assert rows.shape == (252_004, 3)
    expect = ",".join(header) + "\n" + ("%.17g,%.17g,%.17g\n" * rows.shape[0]) \
        % tuple(rows.ravel().tolist())
    with open(os.path.join(tmp_path, "inverse_full.csv"), "rb") as fh:
        assert fh.read() == expect.encode()
