"""``%.17g`` text of float64 arrays without a Python call per value.

``table_bytes(rows)`` yields the CSV lines of a 2-D float array, ``_CSV_ROWS``
rows at a time, as one bytes object a slice.  Each slice is laid out as
template rows: every cell is a fixed-width run of bytes with a keep-mask,
its columns' cells end to end, and the kept bytes of a cell, in order, are
``"%.17g" % v`` and its separator, ``,`` or ``\n``.  The slice's text is
the templates multiplied by their keep-mask, which zeroes the dropped
bytes in place, with the NULs deleted: CSV text holds none.

A float cell is a ``WIDTH``-byte row of ``cell_templates``.  A column whose
values in the slice are all finite integers below ``10^16`` in magnitude
prints each as its sign and digits, with no point and no exponent (``-0``
for ``-0.0``).  ``cell_width`` finds such a column and gives it narrow rows,
``integer_templates`` fills them: a sign slot, D right-aligned digits for
the D digits of the largest magnitude and the separator slot, rounded up to
8, 16 or 24 bytes, so that the 48-byte templates after them stay
word-aligned.  An index column costs 8 bytes of template a cell up to
999,999, and the 48 bytes of ``cell_templates`` only in a slice where one
of its values is not such an integer.  The ``i, j, value`` row of
``invert``'s table is 8 + 8 + 48 = 64 bytes, not 144.

The 17 significant digits are those of ``N = round(|v| 10^(16-E))``, the
integer in ``[10^16, 10^17)`` for the decimal exponent ``E`` of ``|v|``.
``|v| = m 2^(e-53)`` with the frexp exponent ``e`` and an integer ``m <
2^53``, and ``x = m c`` for the cached double-double ``c = 2^(e-53)
10^(16-E0) = hi + lo``, where ``10^E0 <= 2^(e-1)`` never overshoots ``E``:
``E`` is ``E0`` or ``E0 + 1``, decided on the unrounded ``x`` (``x >=
10^17``).  Dekker's two-product gives ``m hi`` exactly as ``p + err``; ``p``
is an integer (``x >= 10^16 > 2^53``) and ``x - p = err + m lo`` up to an
error ``_PRODUCT_ERROR``.  A value whose computed ``x`` lies within
``_TIE_BAND`` of a rounding tie (a half-integer; an exact tie, which ``%.17g``
rounds half-even, is one of them) takes ``"%.17g" % v`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

#: Rows of a table formatted at once by ``table_bytes``.
_CSV_ROWS = 8192
#: Bytes of a template row: six 8-byte words.
#: 0: unused | 1: sign | 2-6: "0.000" | 7: first digit |
#: 8-39: ".d" for each of the other 16 digits |
#: 40-44: "e", exponent sign, 3 exponent digits | 45-46: unused | 47: separator
WIDTH = 48
#: frexp exponents of float64: 5e-324 = 0.5 * 2^-1073, 1.8e308 < 2^1024.
_E_MIN, _E_MAX = -1073, 1024
#: Bound on |(err + m lo) - (x - p)| for x < 2 * 10^17 < 2^58: at most
#: 2^-48 each from the rounding of c to hi + lo, from the product m * lo
#: (|m lo| < 2^5) and from adding it to err (|err| <= ulp(p) / 2 = 16).
_PRODUCT_ERROR = 3 * 2.0 ** -48
#: Half-width of the band around a tie that falls back to ``%.17g``.
_TIE_BAND = 16 * _PRODUCT_ERROR
#: Layout cases: fixed notation for E = -4 .. 16 (``%g`` with precision
#: 17), then exponent notation with 2 and with 3 exponent digits.
_CASES = 23


def _split(x):
    """Veltkamp split of float64 ``x`` into two parts of at most 26 bits each."""
    t = 134217729.0 * x
    hi = t - (t - x)
    return hi, x - hi


def _words(rows):
    """8-byte strings as uint64 words, to be stored back in byte order."""
    return np.array(rows, dtype="S8").view(np.uint64)


@functools.cache
def _scales():
    """By ``e - _E_MIN``: ``hi``, its split, ``lo``, and ``E0 =
    floor((e - 1) log10 2)``, the largest ``E0`` with ``10^E0 <= 2^(e-1)``
    (no power of two is a power of ten, so the float product is far enough
    from an integer)."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    e0 = np.floor((e - 1) * np.log10(2.0)).astype(np.int64)
    hi = np.empty(e.size)
    lo = np.empty(e.size)
    for i, (b, d) in enumerate(zip((e - 53).tolist(), (16 - e0).tolist())):
        num = 2 ** max(b, 0) * 10 ** max(d, 0)
        den = 2 ** max(-b, 0) * 10 ** max(-d, 0)
        hi[i] = num / den
        hn, hd = hi[i].as_integer_ratio()
        lo[i] = (num * hd - hn * den) / (den * hd)
    return (hi, *_split(hi), lo, e0)


@functools.cache
def _layout():
    """The word tables and the keep table of the template rows.

    ``head[d]``: word 0 with first digit ``d``; ``quads[c]``: a word of the 4
    digits of ``c < 10^4``, each after a point slot; ``last[j][c]``: the
    count of significant digits up to the last nonzero one of ``c`` as digit
    group ``j`` (0 if ``c`` is 0); ``expo[E + 400]``: word 5.  ``keep`` has
    a row for each (case, significant digits 1..17, sign).
    """
    head = _words([b"\0-0.000" + bytes([48 + d]) for d in range(10)])
    c = np.arange(10000)
    digits = c[:, None] // 10 ** np.arange(3, -1, -1) % 10
    quads = np.empty((10000, 8), np.uint8)
    quads[:, 0::2] = ord(".")
    quads[:, 1::2] = 48 + digits
    nonzero = digits != 0
    sig = np.where(c > 0, 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    last = np.where(sig > 0, 1 + 4 * np.arange(4)[:, None] + sig, 0).astype(np.uint8)
    expo = _words([b"e%+04d" % E for E in range(-400, 400)])

    i = np.arange(17)
    t = np.arange(18)[:, None]
    digit_slot = 7 + 2 * i
    keep = np.zeros((_CASES, 18, 2, WIDTH), bool)
    keep[:, :, 1, 1] = True
    keep[..., WIDTH - 1] = True
    for case in range(_CASES):
        k = keep[case]
        X = case - 4
        if 0 <= X <= 16:
            # the integer digits stay, the point after digit X only before a fraction
            k[:, :, digit_slot] = ((i <= X) | (i < t))[:, None]
            if X < 16:
                k[:, :, 8 + 2 * X] = t > X + 1
        elif X < 0:
            k[:, :, 2: 3 - X] = True
            k[:, :, digit_slot] = (i < t)[:, None]
        else:
            k[:, :, digit_slot] = (i < t)[:, None]
            k[:, :, 8] = t > 1
            k[:, :, [40, 41, 43, 44]] = True
            k[:, :, 42] = case == _CASES - 1
    return head, quads.view(np.uint64)[:, 0], last, expo, keep.reshape(-1, WIDTH)


def _text_rows(texts):
    """Template rows holding the strings ``texts`` as they are."""
    padded = np.array([s.encode() for s in texts], dtype=f"S{WIDTH - 1}")
    chars = np.zeros((len(texts), WIDTH), np.uint8)
    chars[:, :WIDTH - 1] = padded.view(np.uint8).reshape(-1, WIDTH - 1)
    keep = chars != 0
    keep[:, WIDTH - 1] = True
    return chars, keep


def _fallback_rows(values):
    """Template rows of the values too close to a rounding tie."""
    return _text_rows(["%.17g" % v for v in values.tolist()])


@functools.cache
def _special_rows():
    return _text_rows(["0", "-0", "inf", "-inf", "nan"])


def cell_width(values):
    """Bytes of each cell's template row: ``WIDTH``, or the width that
    ``integer_templates`` fills when every value is a finite integer below
    ``10^16`` in magnitude: a sign slot, as many digits as the largest
    magnitude has and the separator, rounded up to whole 8-byte words."""
    m = np.abs(values)
    top = m.max(initial=0.0)
    if not top < 1e16 or not (np.trunc(m) == m).all():
        return WIDTH
    return -(-(len(str(int(top))) + 2) // 8) * 8


@functools.cache
def _integer_words(width, digits, group):
    """By ``c``: the words of a ``width``-byte row of ``integer_templates``
    for values of ``digits`` digits, holding ``c`` as their digit group
    ``group`` (4 digits, the lowest group 0; the top group has the rest) and
    no other digit; the top group's rows also hold the sign slot's ``-``.
    It has one row per value of the group only, as the tables stay cached."""
    count = min(4, digits - 4 * group)
    c = np.arange(10 ** count)
    rows = np.zeros((c.size, width), np.uint8)
    for j in range(count):
        rows[:, width - 2 - 4 * group - j] = 48 + c // 10 ** j % 10
    if 4 * group + 4 >= digits:
        rows[:, width - 2 - digits] = ord("-")
    return rows.view(np.uint64)


@functools.cache
def _integer_keep(width, digits):
    """Keep-mask words of ``integer_templates`` by ``2 (count - 1) + sign
    bit``, for values of ``count`` = 1 .. ``digits`` digits."""
    count = np.arange(1, digits + 1)[:, None]
    keep = np.zeros((digits, 2, width), bool)
    keep[:, :, width - 1 - digits: width - 1] = (np.arange(digits, 0, -1) <= count)[:, None]
    keep[:, 1, width - 2 - digits] = True
    keep[..., width - 1] = True
    return keep.reshape(-1, width).view(np.uint64)


def integer_templates(values, chars, keep):
    """``cell_templates`` of values that all print as integers, in rows of
    ``cell_width(values)`` bytes: the digits right-aligned before the
    separator slot, after one sign slot; the keep-mask drops the leading
    zeros, the sign slot of a value without a sign bit and the unused bytes
    before it.  For an integer ``|v| < 10^16``, ``"%.17g" % v`` is its sign
    and digits, ``-0`` for ``-0.0``."""
    v = np.asarray(values, dtype=float)
    n = np.abs(v).astype(np.int64)
    digits = len(str(int(n.max(initial=0))))
    width = chars.shape[1]
    groups = -(-digits // 4)
    rest, low = n, []
    for _ in range(groups - 1):
        rest, c = np.divmod(rest, 10 ** 4)
        low.append(c)
    words = chars.view(np.uint64)
    np.take(_integer_words(width, digits, groups - 1), rest, axis=0, out=words, mode="clip")
    for group, c in enumerate(low):
        words |= np.take(_integer_words(width, digits, group), c, axis=0)
    count = np.searchsorted(10 ** np.arange(1, digits, dtype=np.int64), n, side="right")
    count *= 2
    count += np.signbit(v)
    np.take(_integer_keep(width, digits), count, axis=0, out=keep.view(np.uint64), mode="clip")


def cell_templates(values, chars, keep):
    """Fill ``chars`` and ``keep``, a uint8 and a bool array of shape
    ``(len(values), WIDTH)`` whose rows may be strided but whose bytes within
    a row are contiguous: the kept bytes of each row are ``"%.17g" % value``
    followed by the separator slot ``chars[:, -1]``, which the caller fills.

    Each per-value temporary is freed, or reused in place, once the last
    step that reads it is done, so few are alive at once."""
    v = np.asarray(values, dtype=float)
    hi_t, hh_t, hl_t, lo_t, e0_t = _scales()
    head, quads, last, expo, keep_t = _layout()
    m = np.abs(v)
    regular = np.isfinite(v) & (m != 0)
    m[~regular] = 1.0
    m, e = np.frexp(m)
    np.ldexp(m, 53, out=m)
    e -= _E_MIN
    p = m * np.take(hi_t, e)
    # r = (((mh bh - p) + mh bl + ml bh) + ml bl) + m lo, one term at a time
    bh = np.take(hh_t, e)
    mh, ml = _split(m)
    r = mh * bh
    r -= p
    bl = np.take(hl_t, e)
    mh *= bl
    r += mh
    del mh
    bh *= ml
    r += bh
    del bh
    ml *= bl
    r += ml
    del ml, bl
    lo = np.take(lo_t, e)
    lo *= m
    r += lo
    del lo, m
    fl = np.floor(r)
    n = p.astype(np.int64)
    del p
    n += fl.astype(np.int64)
    r -= fl
    frac = r
    del fl, r
    # E = E0 + 1 when x >= 10^17: then x / 10, integer part and fraction
    big = n >= 10 ** 17
    E = np.take(e0_t, e)
    del e
    E += big
    s = np.where(big, 10, 1)
    del big
    q = n // s
    n -= q * s
    frac += n
    frac /= s
    del s
    q += frac > 0.5
    n = q
    over = n == 10 ** 17
    n[over] = 10 ** 16
    E += over
    del over
    # N = d0 c1 c2 c3 c4 in digit groups of 1, 4, 4, 4, 4: mid holds d0 c1
    # c2, then c1 c2, then c2; n holds c3 c4, then c4
    mid = n // 10 ** 8
    n -= mid * 10 ** 8
    c3 = n // 10 ** 4
    n -= c3 * 10 ** 4
    c4 = n
    d0 = mid // 10 ** 8
    mid -= d0 * 10 ** 8
    c1 = mid // 10 ** 4
    mid -= c1 * 10 ** 4
    c2 = mid
    t = np.maximum(np.maximum(np.take(last[0], c1), np.take(last[1], c2)),
                   np.maximum(np.take(last[2], c3), np.take(last[3], c4)))
    np.maximum(t, 1, out=t)
    case = np.where((E >= -4) & (E <= 16), E + 4, 21 + (np.abs(E) >= 100))
    words = chars.view(np.uint64)
    for w, (table, index) in enumerate(((head, d0), (quads, c1), (quads, c2),
                                        (quads, c3), (quads, c4), (expo, E + 400))):
        words[:, w] = np.take(table, index)
    del d0, c1, c2, c3, c4, E
    case *= 18
    case += t
    case *= 2
    case += np.signbit(v)
    np.take(keep_t, case, axis=0, out=keep, mode="clip")
    del case, t
    tie = regular & (np.abs(frac - 0.5) <= _TIE_BAND)
    if tie.any():
        rows = np.flatnonzero(tie)
        chars[rows], keep[rows] = _fallback_rows(v[rows])
    if not regular.all():
        rows = np.flatnonzero(~regular)
        special = v[rows]
        kind = np.where(np.isnan(special), 4,
                        np.where(special == 0, 0, 2) + np.signbit(special))
        special_chars, special_keep = _special_rows()
        chars[rows], keep[rows] = special_chars[kind], special_keep[kind]


def table_bytes(rows):
    """The CSV lines of the rows-by-columns array ``rows``, one bytes object
    per slice of ``_CSV_ROWS`` rows.  The slices are formatted into one pair
    of template buffers, sized for a row of ``WIDTH``-byte cells and reused
    slice after slice."""
    rows = np.asarray(rows, dtype=float)
    size = min(_CSV_ROWS, rows.shape[0]) * rows.shape[1] * WIDTH
    all_chars, all_keep = np.empty(size, np.uint8), np.empty(size, bool)
    for s in range(0, rows.shape[0], _CSV_ROWS):
        part = rows[s: s + _CSV_ROWS]
        widths = [cell_width(column) for column in part.T]
        ends = np.cumsum(widths)
        chars = all_chars[: len(part) * ends[-1]].reshape(len(part), ends[-1])
        keep = all_keep[: chars.size].reshape(chars.shape)
        for column, width, end in zip(part.T, widths, ends):
            fill = cell_templates if width == WIDTH else integer_templates
            fill(column, chars[:, end - width: end], keep[:, end - width: end])
        chars[:, ends - 1] = ord(",")
        chars[:, -1] = ord("\n")
        np.multiply(chars, keep, out=chars)
        yield chars.tobytes().translate(None, b"\0")
