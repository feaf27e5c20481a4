import numpy as np
import pytest

from splineproj import (
    EmptyInterval,
    InvalidRatio,
    KnotSequence,
    LengthMismatch,
    MultiplicityOutOfRange,
    NonFiniteKnots,
    NonMonotoneBreaks,
    OutOfDomain,
    PartitionSpec,
    ZeroIntervals,
    dyadic_ladder,
    generate_partition,
    make_knot_sequence,
)


def test_no_interior_knots():
    K = make_knot_sequence([0, 1], [], 2)
    assert np.array_equal(K.t, [0, 0, 1, 1])
    assert K.n == 2


def test_order_one_indicator_basis():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    assert np.array_equal(K.t, [0, 0.5, 1])
    assert K.n == 2


def test_full_interior_multiplicity():
    K = make_knot_sequence([0, 0.3, 1], [3], 3)
    assert np.array_equal(K.t, [0, 0, 0, 0.3, 0.3, 0.3, 1, 1, 1])
    assert K.n == 6  # sum of interior multiplicities plus order


def test_make_knot_sequence_errors():
    with pytest.raises(NonMonotoneBreaks):
        make_knot_sequence([0, 0.5, 0.4, 1], [1, 1], 2)
    with pytest.raises(MultiplicityOutOfRange):
        make_knot_sequence([0, 0.5, 1], [3], 2)
    with pytest.raises(MultiplicityOutOfRange):
        make_knot_sequence([0, 0.5, 1], [0], 2)
    with pytest.raises(EmptyInterval):
        make_knot_sequence([0], [], 2)
    with pytest.raises(LengthMismatch):
        make_knot_sequence([0, 0.5, 1], [], 2)


@pytest.mark.parametrize("mults, as_ints", [
    ([1, 2, 2], [1, 2, 2]), ((2.9, 1.0, 1.5), [2, 1, 1]), ([True, 2, 1], [1, 2, 1]),
    (np.array([2, 1, 2], np.uint8), [2, 1, 2]), (np.array([1.99, 1.0, 2.0]), [1, 1, 2]),
    (["1", "2", "2"], [1, 2, 2]), ((m for m in [2, 2, 1]), [2, 2, 1])])
def test_multiplicities_truncate_as_int(mults, as_ints):
    # numbers, strings and iterables give the knots of [int(m) for m in mults]
    breaks = [0.0, 0.2, 0.5, 0.7, 1.0]
    expect = np.repeat(breaks, [2] + as_ints + [2]).astype(float)
    assert make_knot_sequence(breaks, mults, 2).t.tobytes() == expect.tobytes()


@pytest.mark.parametrize("mults, error, message", [
    ([np.nan, 1], ValueError, "cannot convert float NaN to integer"),
    ([1, np.inf], OverflowError, "cannot convert float infinity to integer"),
    ([None, 1], TypeError, "int() argument must be"),
    (["a", 1], ValueError, "invalid literal for int()"),
    ([0.99, 1], MultiplicityOutOfRange, r"interior multiplicities must lie in \[1, 2\]"),
    ([-0.5, 1], MultiplicityOutOfRange, r"must lie in \[1, 2\]"),
    ([3.5, 1], MultiplicityOutOfRange, r"must lie in \[1, 2\]"),
    ([10**30, 1], MultiplicityOutOfRange, r"must lie in \[1, 2\]"),
    (np.array([1, 3], np.uint64), MultiplicityOutOfRange, r"must lie in \[1, 2\]"),
    ([1], LengthMismatch, "expected 2 interior multiplicities, got 1"),
    ([1, 1, 1], LengthMismatch, "expected 2 interior multiplicities, got 3"),
])
def test_multiplicity_errors_as_int(mults, error, message):
    # the exceptions and messages of converting with int() one by one
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        make_knot_sequence([0.0, 0.3, 0.6, 1.0], mults, 2)


def test_partition_knots_repeat_each_break():
    # generated partitions: every interior break repeated as often as asked
    for mult, k in [(1, 1), (1, 4), (2, 3), (4, 4)]:
        K = generate_partition(PartitionSpec("random", 4000, seed=3,
                                             interior_multiplicity=mult), k)
        breaks = np.unique(K.t)
        assert breaks.size == 4001
        expect = np.repeat(breaks, [k] + [mult] * 3999 + [k])
        assert K.t.tobytes() == expect.tobytes()


def test_knot_vector_validation():
    with pytest.raises(MultiplicityOutOfRange):
        KnotSequence(2, np.array([0, 0, 0, 1, 1]))  # endpoint run of 3 > k
    with pytest.raises(NonMonotoneBreaks):
        KnotSequence(2, np.array([0, 0, 0.6, 0.4, 1, 1]))
    with pytest.raises(EmptyInterval):
        KnotSequence(1, np.array([1.0, 1.0]))
    for t in ([0, 0, np.nan, 0.5, 1, 1], [-np.inf, -np.inf, 0.5, 1, 1],
              [0, 0, 0.5, 1, np.inf, np.inf]):
        with pytest.raises(NonFiniteKnots):
            KnotSequence(2, np.array(t))


def test_uniform_partition():
    K = generate_partition(PartitionSpec("uniform", 4), 2)
    assert np.allclose(np.unique(K.t), [0, 0.25, 0.5, 0.75, 1])
    assert K.mesh == 0.25


def test_geometric_partition_exact_breaks():
    K = generate_partition(PartitionSpec("geometric", 3, ratio=2.0), 1, (0, 7))
    assert np.array_equal(K.t, [0, 1, 3, 7])
    h = np.diff(K.t)
    assert np.allclose(h[1:] / h[:-1], 2.0)


def test_random_partition_deterministic():
    spec = PartitionSpec("random", 10, seed=42)
    K1 = generate_partition(spec, 3)
    K2 = generate_partition(spec, 3)
    assert np.array_equal(K1.t, K2.t)
    assert K1.t[0] == 0.0 and K1.t[-1] == 1.0


def test_partition_errors():
    with pytest.raises(InvalidRatio):
        generate_partition(PartitionSpec("geometric", 4, ratio=-1.0), 2)
    with pytest.raises(ZeroIntervals):
        generate_partition(PartitionSpec("uniform", 0), 2)
    with pytest.raises(ValueError):
        generate_partition(PartitionSpec("random", 4), 2)  # no seed
    with pytest.raises(ValueError):
        PartitionSpec("pseudo")
    with pytest.raises(ValueError):
        generate_partition(PartitionSpec("dyadic", 6), 2)  # not a power of two


def test_explicit_partition():
    K = make_knot_sequence((0.0, 0.2, 1.0), (2,), 3)
    assert np.array_equal(K.t, [0, 0, 0, 0.2, 0.2, 1, 1, 1])


def test_generated_sequences_satisfy_invariants():
    rng = np.random.default_rng(0)
    specs = [PartitionSpec("uniform", 7),
             PartitionSpec("geometric", 9, ratio=3.0),
             PartitionSpec("random", 11, seed=1)]
    for k in range(1, 7):
        for spec in specs:
            for mult in (1, max(1, k - 1)):
                s = PartitionSpec(spec.family, spec.n_intervals,
                                  interior_multiplicity=mult,
                                  ratio=spec.ratio, seed=spec.seed)
                K = generate_partition(s, k)
                t = K.t
                assert np.all(np.diff(t) >= 0)
                assert np.all(t[k:] > t[:-k])  # no run longer than k
                assert np.all(t[:k] == t[0]) and np.all(t[-k:] == t[-1])
                # random in-domain points always land in a nondegenerate span
                xs = rng.uniform(K.a, K.b, 50)
                spans = K.span_indices(xs)
                assert np.all(K.h[spans] > 0)
                assert np.all((t[spans] <= xs) & (xs <= t[spans + 1]))


def test_span_index_conventions():
    K = make_knot_sequence([0, 0.25, 0.5, 1], [2, 1], 3)
    # at an interior break the right interval wins
    s = K.span_indices(0.25)
    assert K.t[s] == 0.25 and K.t[s + 1] > 0.25
    # x = b maps to the last nondegenerate interval
    s = K.span_indices(1.0)
    assert K.t[s] < 1.0 and K.t[s + 1] == 1.0
    assert K.span_indices(0.0) == K.k - 1
    with pytest.raises(OutOfDomain):
        K.span_indices(1.5)
    # a NaN is outside [a, b] too; the message shows a plain float
    with pytest.raises(OutOfDomain, match=r"x = nan outside"):
        K.span_indices([0.5, np.nan])
    with pytest.raises(OutOfDomain, match=r"x = 2\.0 outside"):
        K.span_indices(np.array([0.5, 2.0]))


def test_dyadic_ladder_mesh_halves():
    ladder = dyadic_ladder(3, range(1, 8))
    meshes = [K.mesh for K in ladder]
    for m1, m2 in zip(meshes, meshes[1:]):
        assert m2 <= 0.5 * m1 + 1e-15


def test_serialization_round_trip():
    K = generate_partition(PartitionSpec("random", 13, seed=5), 4)
    K2 = KnotSequence.from_text(K.to_text())
    assert K2.k == K.k and K2.n == K.n
    assert np.array_equal(K2.t, K.t)

    with pytest.raises(ValueError):
        KnotSequence.from_text("")
    with pytest.raises(LengthMismatch):
        KnotSequence.from_text("2 2 0 1\n0\n0\n1\n")


def test_knots_immutable():
    K = generate_partition(PartitionSpec("uniform", 4), 2)
    with pytest.raises(ValueError):
        K.t[0] = -1.0
