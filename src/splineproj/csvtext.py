"""``%.17g`` text of float64 arrays without a Python call per value.

``cell_templates(v)`` gives each value a fixed-width row of bytes and a
keep-mask; the kept bytes of a row, in order, are ``"%.17g" % v`` and its
last byte is a separator slot.  ``np.compress(keep.ravel(), chars.ravel())``
over many rows is their text, one after the other.

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


def cell_templates(values):
    """``(chars, keep)``: a uint8 and a bool array of shape ``(len(values),
    WIDTH)`` whose kept bytes in each row are ``"%.17g" % value`` followed by
    the separator slot ``chars[:, -1]``, which the caller fills."""
    v = np.asarray(values, dtype=float)
    hi_t, hh_t, hl_t, lo_t, e0_t = _scales()
    head, quads, last, expo, keep_t = _layout()
    a = np.abs(v)
    regular = np.isfinite(v) & (a != 0)
    f, e = np.frexp(np.where(regular, a, 1.0))
    m = np.ldexp(f, 53)
    e -= _E_MIN
    p = m * np.take(hi_t, e)
    bh, bl = np.take(hh_t, e), np.take(hl_t, e)
    mh, ml = _split(m)
    r = (((mh * bh - p) + mh * bl + ml * bh) + ml * bl) + m * np.take(lo_t, e)
    fl = np.floor(r)
    n = p.astype(np.int64) + fl.astype(np.int64)
    frac = r - fl
    # E = E0 + 1 when x >= 10^17: then x / 10, integer part and fraction
    big = n >= 10 ** 17
    E = np.take(e0_t, e) + big
    s = np.where(big, 10, 1)
    q = n // s
    frac = (n - q * s + frac) / s
    n = q + (frac > 0.5)
    over = n == 10 ** 17
    n[over] = 10 ** 16
    E += over
    # N = d0 c1 c2 c3 c4 in digit groups of 1, 4, 4, 4, 4
    hi8 = n // 10 ** 8
    lo8 = n - hi8 * 10 ** 8
    d0 = hi8 // 10 ** 8
    mid = hi8 - d0 * 10 ** 8
    c1 = mid // 10 ** 4
    c2 = mid - c1 * 10 ** 4
    c3 = lo8 // 10 ** 4
    c4 = lo8 - c3 * 10 ** 4
    t = np.maximum(np.maximum(np.take(last[0], c1), np.take(last[1], c2)),
                   np.maximum(np.take(last[2], c3), np.take(last[3], c4)))
    np.maximum(t, 1, out=t)
    case = np.where((E >= -4) & (E <= 16), E + 4, 21 + (np.abs(E) >= 100))
    words = np.empty((v.size, WIDTH // 8), np.uint64)
    words[:, 0] = np.take(head, d0)
    words[:, 1] = np.take(quads, c1)
    words[:, 2] = np.take(quads, c2)
    words[:, 3] = np.take(quads, c3)
    words[:, 4] = np.take(quads, c4)
    words[:, 5] = np.take(expo, E + 400)
    chars = words.view(np.uint8)
    keep = np.take(keep_t, (case * 18 + t) * 2 + np.signbit(v), axis=0)
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
    return chars, keep
