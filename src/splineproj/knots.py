"""Extended knot vectors, partition generators, and interval geometry.

A knot sequence of order ``k`` on ``[a, b]`` is a nondecreasing vector of
``n + k`` reals, clamped so that each endpoint appears exactly ``k`` times
and no interior value appears more than ``k`` times.  ``n`` is the dimension
of the spanned spline space.  Everything downstream (basis evaluation, Gram
matrices, projections, decay experiments) is parameterized by one of these.

Knot comparisons are exact; generators emit exactly representable
breakpoints whenever possible, and degenerate (zero-length) knot intervals
are kept in storage but skipped by every point-to-interval lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyInterval,
    InvalidRatio,
    LengthMismatch,
    MultiplicityOutOfRange,
    NonFiniteKnots,
    NonMonotoneBreaks,
    OutOfDomain,
    ZeroIntervals,
)

__all__ = [
    "KnotSequence",
    "PartitionSpec",
    "make_knot_sequence",
    "generate_partition",
    "dyadic_ladder",
]

FAMILIES = ("uniform", "dyadic", "geometric", "random")


@dataclass(frozen=True, eq=False)
class KnotSequence:
    """Clamped extended knot vector of length ``n + k`` on ``[a, b]``.

    Indices are 0-based throughout: basis functions are ``0 .. n-1`` and
    knot intervals ``s`` run over ``0 .. n+k-2``, interval ``s`` being
    ``[t[s], t[s+1]]``.
    """

    k: int
    t: np.ndarray

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"spline order must be a positive integer, got {self.k!r}")
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 2 * self.k:
            raise LengthMismatch(
                f"knot vector needs at least 2k = {2 * self.k} entries, got {t.size}"
            )
        if not np.all(np.isfinite(t)):
            raise NonFiniteKnots("knots must be finite")
        if np.any(np.diff(t) < 0):
            raise NonMonotoneBreaks("knot vector must be nondecreasing")
        if not t[0] < t[-1]:
            raise EmptyInterval(f"empty interval: a = {t[0]!r}, b = {t[-1]!r}")
        if np.any(t[self.k:] <= t[: -self.k]):
            raise MultiplicityOutOfRange(
                f"some knot repeats more than k = {self.k} times"
            )
        if np.any(t[: self.k] != t[0]) or np.any(t[-self.k:] != t[-1]):
            raise MultiplicityOutOfRange(
                f"endpoint knots must each appear exactly k = {self.k} times"
            )
        t.setflags(write=False)

    # -- basic geometry -------------------------------------------------

    @property
    def n(self) -> int:
        """Dimension of the spline space."""
        return self.t.size - self.k

    @property
    def a(self) -> float:
        return float(self.t[0])

    @property
    def b(self) -> float:
        return float(self.t[-1])

    @cached_property
    def h(self) -> np.ndarray:
        """Knot interval lengths, ``h[s] = t[s+1] - t[s]`` (zeros allowed)."""
        h = np.diff(self.t)
        h.setflags(write=False)
        return h

    @property
    def mesh(self) -> float:
        """Mesh diameter: the largest knot interval length."""
        return float(self.h.max())

    @cached_property
    def kappa(self) -> np.ndarray:
        """Support lengths ``kappa[i] = t[i+k] - t[i]``, all positive."""
        kap = self.t[self.k:] - self.t[: -self.k]
        kap.setflags(write=False)
        return kap

    @cached_property
    def spans(self) -> np.ndarray:
        """Indices of the nondegenerate knot intervals inside [a, b]."""
        s = np.arange(self.k - 1, self.n)
        s = s[self.h[s] > 0]
        s.setflags(write=False)
        return s

    # -- point location -------------------------------------------------

    def span_indices(self, x: np.ndarray) -> np.ndarray:
        """Nondegenerate knot interval containing each point of ``x``.

        Points exactly at a break belong to the interval on their right,
        except ``x = b`` which belongs to the last interval.
        """
        x = np.asarray(x, dtype=float)
        outside = ~((self.a <= x) & (x <= self.b))  # a NaN is outside too
        if outside.any():
            bad = float(x[outside].flat[0])
            raise OutOfDomain(f"x = {bad!r} outside [{self.a!r}, {self.b!r}]")
        idx = np.searchsorted(self.t, x, side="right") - 1
        return np.minimum(idx, self.n - 1)

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        """Line-based text form: header ``k n a b``, then one knot per line."""
        head = "%d %d %.17g %.17g" % (self.k, self.n, self.a, self.b)
        body = "\n".join("%.17g" % v for v in self.t)
        return head + "\n" + body + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KnotSequence":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty knot sequence document")
        parts = lines[0].split()
        if len(parts) != 4:
            raise ValueError(f"bad header {lines[0]!r}, expected 'k n a b'")
        k, n = int(parts[0]), int(parts[1])
        a, b = float(parts[2]), float(parts[3])
        knots = np.array([float(v) for v in lines[1:]])
        if knots.size != n + k:
            raise LengthMismatch(f"expected {n + k} knots, found {knots.size}")
        seq = cls(k, knots)
        if seq.a != a or seq.b != b:
            raise ValueError("header endpoints disagree with the knot vector")
        return seq

    def __repr__(self):
        return (
            f"KnotSequence(k={self.k}, n={self.n}, "
            f"[{self.a:g}, {self.b:g}], mesh={self.mesh:.3g})"
        )


def make_knot_sequence(breaks, mults, k: int) -> KnotSequence:
    """Build a clamped knot vector from breakpoints and interior multiplicities.

    ``breaks`` must be strictly increasing with first entry ``a`` and last
    entry ``b``; ``mults`` gives one multiplicity in ``[1, k]`` per interior
    breakpoint.  The result has ``n = sum(mults) + k`` basis functions.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2:
        raise EmptyInterval("need at least two breakpoints")
    if np.any(np.diff(breaks) <= 0):
        raise NonMonotoneBreaks("breakpoints must be strictly increasing")
    counts = np.asarray(mults)
    if counts.ndim != 1 or counts.dtype.kind not in "biuf" or not np.isfinite(counts).all():
        # anything else converts, or raises, as int() does
        counts = np.array([int(m) for m in mults], dtype=object)
    elif counts.dtype.kind == "f":
        counts = np.trunc(counts)  # as int() truncates
    if len(counts) != breaks.size - 2:
        raise LengthMismatch(
            f"expected {breaks.size - 2} interior multiplicities, got {len(counts)}"
        )
    if ((counts < 1) | (counts > k)).any():
        raise MultiplicityOutOfRange(f"interior multiplicities must lie in [1, {k}]")
    t = np.concatenate(
        [
            np.repeat(breaks[0], k),
            np.repeat(breaks[1:-1], counts.astype(np.int64)),
            np.repeat(breaks[-1], k),
        ]
    )
    return KnotSequence(k, t)


@dataclass(frozen=True)
class PartitionSpec:
    """Recipe for a breakpoint family on an interval.

    Families: ``uniform`` (equal spacing), ``dyadic`` (uniform with a
    power-of-two interval count), ``geometric`` (interval lengths in exact
    ratio ``ratio``), ``random`` (seeded random widths with bounded mesh
    ratio).  Caller-supplied breaks go to ``make_knot_sequence``.
    """

    family: str
    n_intervals: int = 0
    interior_multiplicity: int = 1
    ratio: float = 2.0
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown partition family {self.family!r}")


def _geometric_breaks(a: float, b: float, m: int, q: float) -> np.ndarray:
    if not (q > 0) or not np.isfinite(q):
        raise InvalidRatio(f"geometric ratio must be positive, got {q!r}")
    if q == 1.0:
        return np.linspace(a, b, m + 1)
    # h_0 * (q^m - 1)/(q - 1) = b - a, successive lengths in exact ratio q
    # an overflow is an inf that the isfinite test below rejects
    with np.errstate(over="ignore"):
        powers = np.power(q, np.arange(m + 1, dtype=float))
    cum = (powers - 1.0) / (q - 1.0)
    if not np.all(np.isfinite(cum)) or cum[-1] == 0:
        raise InvalidRatio(f"geometric mesh q={q}, m={m} is not representable")
    breaks = a + (b - a) * (cum / cum[-1])
    breaks[0], breaks[-1] = a, b
    if np.any(np.diff(breaks) <= 0):
        raise InvalidRatio(
            f"geometric mesh q={q}, m={m} collapses in double precision"
        )
    return breaks


def generate_partition(spec: PartitionSpec, k: int, interval=(0.0, 1.0)) -> KnotSequence:
    """Generate the clamped knot sequence of order ``k`` described by ``spec``.

    Deterministic given ``(spec, k, interval)``; the ``random`` family
    requires an explicit seed.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise EmptyInterval(f"empty interval: a = {a!r}, b = {b!r}")
    m = spec.n_intervals
    if m < 1:
        raise ZeroIntervals(f"n_intervals must be >= 1, got {m}")
    if spec.family in ("uniform", "dyadic"):
        if spec.family == "dyadic" and m & (m - 1):
            raise ValueError(f"dyadic family needs a power-of-two interval count, got {m}")
        breaks = np.linspace(a, b, m + 1)
    elif spec.family == "geometric":
        breaks = _geometric_breaks(a, b, m, spec.ratio)
    elif spec.family == "random":
        if spec.seed is None:
            raise ValueError("random family requires an explicit seed")
        rng = np.random.default_rng(spec.seed)
        widths = rng.uniform(0.1, 1.0, m)
        cum = np.concatenate([[0.0], np.cumsum(widths)])
        breaks = a + (b - a) * (cum / cum[-1])
        breaks[0], breaks[-1] = a, b
    mults = np.full(len(breaks) - 2, spec.interior_multiplicity)
    return make_knot_sequence(breaks, mults, k)


def dyadic_ladder(k: int, levels, interval=(0.0, 1.0), interior_multiplicity: int = 1):
    """Knot sequences on dyadic partitions with 2**level intervals per level.

    The mesh diameter halves from each level to the next.
    """
    out = []
    for lev in levels:
        spec = PartitionSpec(
            "dyadic", n_intervals=2 ** int(lev),
            interior_multiplicity=interior_multiplicity,
        )
        out.append(generate_partition(spec, k, interval))
    return out
