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
    chars = np.empty((len(values), csvtext.WIDTH), np.uint8)
    keep = np.empty(chars.shape, bool)
    csvtext.cell_templates(values, chars, keep)
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


def integer_formatted(values):
    """The text of each value, through ``integer_templates`` in rows of
    ``cell_width(values)`` bytes, whose unused bytes hold junk."""
    values = np.asarray(values, dtype=float)
    width = csvtext.cell_width(values)
    assert width < csvtext.WIDTH and width % 8 == 0
    chars = np.full((values.size, width), 0xAA, np.uint8)
    keep = np.ones(chars.shape, bool)
    csvtext.integer_templates(values, chars, keep)
    chars[:, -1] = ord("\n")
    return np.compress(keep.ravel(), chars.ravel()).tobytes().decode().splitlines()


def integer_edges():
    """0, -0, and +-(10^p - 1) and +-10^p for p = 0 .. 15."""
    powers = 10.0 ** np.arange(16)
    return np.concatenate([[0.0, -0.0], powers - 1, powers, 1 - powers, -powers])


def test_integer_cells_at_every_digit_count():
    values = integer_edges()
    expect = ["%.17g" % v for v in values.tolist()]
    assert expect[:2] == ["0", "-0"] and "-1000000000000000" in expect
    # each value alone, so that the width follows its own digit count, and
    # all in one column of the widest layout
    assert [integer_formatted([v])[0] for v in values.tolist()] == expect
    assert integer_formatted(values) == expect
    assert [csvtext.cell_width([v]) for v in (0.0, -1e4, 999999.0, 1e6, 1e13, 1e14, 1e15)] \
        == [8, 8, 8, 16, 16, 24, 24]


@pytest.mark.parametrize("v", [1e16, -1e16, 0.5, np.nan, np.inf, -np.inf])
def test_float_path_beyond_the_integer_rule(v):
    # 10^16 and up print as integers too, but take the float templates
    assert csvtext.cell_width([3.0, v]) == csvtext.WIDTH
    assert formatted([3.0, v]) == ["3", "%.17g" % v]


def write_and_read(tmp_path, rows):
    path = os.path.join(tmp_path, "t.csv")
    cli.write_csv(path, [f"c{j}" for j in range(rows.shape[1])], rows)
    with open(path) as fh:
        return fh.read().splitlines()[1:]


@pytest.mark.parametrize("row", [8191, 8192, 8193])
@pytest.mark.parametrize("odd", [0.5, np.nan, np.inf, 1e16])
def test_one_non_integer_moves_only_its_slice(tmp_path, row, odd):
    # an index column beside a float column, over three slices and a part
    # slice; one cell that is not an integer below 10^16 puts its own slice's
    # index column on the float templates, every other slice stays narrow
    assert cli._CSV_ROWS == 8192
    nrows = 3 * 8192 + 5
    index = np.arange(nrows, dtype=float) - 20_000
    index[row] = odd
    rows = np.column_stack([index, np.random.default_rng(row).standard_normal(nrows)])
    with patch.object(csvtext, "integer_templates",
                      wraps=csvtext.integer_templates) as narrow:
        got = write_and_read(tmp_path, rows)
    assert got == ["%.17g,%.17g" % tuple(r) for r in rows.tolist()]
    slices = [8192, 8192, 8192, 5]
    del slices[row // 8192]
    assert [call.args[0].size for call in narrow.call_args_list] == slices


def test_integer_and_float_columns_side_by_side(tmp_path):
    # integer columns of every width, -0.0 and a float column between them
    edges = integer_edges()
    rng = np.random.default_rng(3)
    rows = np.column_stack([edges, rng.standard_normal(edges.size) * 1e3,
                            rng.permutation(edges), np.floor(edges / 7), edges[::-1] * 0.0])
    with patch.object(csvtext, "integer_templates",
                      wraps=csvtext.integer_templates) as narrow:
        got = write_and_read(tmp_path, rows)
    assert got == [",".join("%.17g" % v for v in r) for r in rows.tolist()]
    assert narrow.call_count == 4
