"""Group backends: arithmetic, hashing, encodings, operation counting."""

import hashlib
import random
import struct
from functools import reduce
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcs import transient
from avcs.errors import ParseError
from avcs.groups import (
    P192,
    P256,
    CurveGroup,
    ToyGroup,
    _PreparedPoint,
    _regular_digits,
    batch_inverse,
    count_group_ops,
    digest32,
    expand_bytes,
    get_group,
    note_extraction,
)
from avcs.ringsig import ManufactoryRegistry, forge_tuple, keygen, ring_sign, ring_verify, setup
from helpers import PROPERTY, chi_square

TOY = ToyGroup(23)
BIG_TOY = ToyGroup(2147483647)


# --- independent digest oracle: recomputes the framed-SHA-256 constructions
# --- from their definition, importing nothing from the package


def oracle_digest32(tag: str, data: bytes) -> bytes:
    t = tag.encode("ascii")
    return hashlib.sha256(bytes([len(t)]) + t + data).digest()


def oracle_expand(tag: str, data: bytes, n: int) -> bytes:
    t = tag.encode("ascii")
    out = b""
    ctr = 0
    while len(out) < n:
        out += hashlib.sha256(bytes([len(t)]) + t + struct.pack(">I", ctr) + data).digest()
        ctr += 1
    return out[:n]


def test_digest_constructions_match_oracle():
    for tag, data in [("h2", b"abc"), ("H1", b""), ("ring", b"\x00" * 40)]:
        assert digest32(tag, data) == oracle_digest32(tag, data)
        assert expand_bytes(tag, data, 100) == oracle_expand(tag, data, 100)


def test_hash_to_scalar_frozen_values():
    # frozen from the digest-and-reduce oracle above
    assert TOY.hash_to_scalar("h2", b"abc") == 0
    assert BIG_TOY.hash_to_scalar("H1", b"U-bytes") == 587950966
    assert P192.hash_to_scalar("h2", b"abc") == 0x27FEC8D09C5A1F51B047249B9F2D54932E0D0C68D6860CA7


def test_hash_to_scalar_is_wide_reduction():
    for group in (TOY, BIG_TOY, P192):
        wide = oracle_expand("h2", b"xyz", 2 * group.scalar_byte_len)
        assert group.hash_to_scalar("h2", b"xyz") == int.from_bytes(wide, "big") % group.q


def test_hash_to_group_toy_frozen_values():
    # digest mod (q-1) + 1, never the identity
    assert TOY.hash_to_group("h0", b"abc") == 21
    assert TOY.hash_to_group("h1", struct.pack(">Q", 7)) == 11


def test_domain_tags_separate():
    collisions = 0
    for i in range(100):
        data = f"input-{i}".encode()
        if P192.hash_to_scalar("H1", data) == P192.hash_to_scalar("h2", data):
            collisions += 1
        if TOY.hash_to_group("h0", data) == TOY.hash_to_group("h1", data):
            collisions += 1
    # toy values collide about 1/22 of the time by chance; curve scalars never
    assert P192.hash_to_scalar("H1", b"same") != P192.hash_to_scalar("h2", b"same")
    assert collisions < 20


def test_hash_to_scalar_uniform_on_toy():
    counts = [0] * TOY.q
    for i in range(10_000):
        counts[TOY.hash_to_scalar("h2", struct.pack(">I", i))] += 1
    assert chi_square(counts) < 40.2894  # p > 0.01 at 22 degrees of freedom


def test_toy_scalar_mul_exhaustive():
    for k in range(TOY.q):
        for a in range(TOY.q):
            assert TOY.scalar_mul(k, a) == k * a % 23


def test_toy_scalar_mul_examples():
    assert TOY.scalar_mul(7, 3) == 21
    assert TOY.scalar_mul(0, 5) == 0
    assert TOY.scalar_mul(22, 1) == 22


def test_toy_requires_prime_modulus():
    with pytest.raises(ValueError):
        ToyGroup(21)
    with pytest.raises(ValueError):
        ToyGroup(1)


def test_curve_known_multiples():
    # public base-point multiples for P-256
    g2 = P256.scalar_mul(2, P256.generator)
    assert g2[0] == 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978
    assert g2[1] == 0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1
    g3 = P256.scalar_mul(3, P256.generator)
    assert g3[0] == 0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C


def test_curve_group_order():
    for group in (P192, P256):
        assert group.scalar_mul(group.q, group.generator) is None
        assert group.scalar_mul(1, group.generator) == group.generator
        minus = group.scalar_mul(group.q - 1, group.generator)
        assert group.add(minus, group.generator) is None


def test_identity_behaviour():
    for group in (TOY, P192):
        P = group.generator
        assert group.add(group.identity, P) == P
        assert group.add(P, group.identity) == P
        assert group.is_identity(group.scalar_mul(0, P))
        assert group.is_identity(group.scalar_mul(7, group.identity))


def test_distributivity_toy_exhaustive():
    q = TOY.q
    for k1 in range(q):
        for k2 in range(q):
            left = TOY.scalar_mul((k1 + k2) % q, 5)
            right = TOY.add(TOY.scalar_mul(k1, 5), TOY.scalar_mul(k2, 5))
            assert left == right


def test_distributivity_p192_randomized():
    rng = random.Random(1918)
    A = P192.scalar_mul(rng.randrange(1, P192.q), P192.generator)
    for _ in range(1000):
        k1 = rng.randrange(P192.q)
        k2 = rng.randrange(P192.q)
        left = P192.scalar_mul((k1 + k2) % P192.q, A)
        right = P192.add(P192.scalar_mul(k1, A), P192.scalar_mul(k2, A))
        assert left == right


def test_hash_to_group_lands_in_subgroup():
    seen = set()
    for i in range(100):
        data = f"certificate-{i}".encode()
        pt = P192.hash_to_group("h0", data)
        assert P192._on_curve(pt)
        seen.add(pt)
        assert pt == P192.hash_to_group("h0", data)  # deterministic
    assert len(seen) == 100
    # cofactor 1: every curve point has order q
    assert P192.scalar_mul(P192.q, P192.hash_to_group("h0", b"x")) is None


def test_encoding_round_trips():
    rng = random.Random(7)
    for group in (TOY, BIG_TOY, P192, P256):
        for _ in range(20):
            a = group.scalar_mul(rng.randrange(group.q), group.generator)
            blob = group.encode_element(a)
            assert len(blob) == group.element_byte_len
            assert group.decode_element(blob) == a
        k = rng.randrange(group.q)
        assert group.decode_scalar(group.encode_scalar(k)) == k
    for a in range(TOY.q):
        assert TOY.decode_element(TOY.encode_element(a)) == a


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        TOY.decode_element(b"\x17")  # 23 >= q
    with pytest.raises(ParseError):
        TOY.decode_element(b"\x01\x02")
    with pytest.raises(ParseError):
        P192.decode_scalar(b"\xff" * P192.scalar_byte_len)
    with pytest.raises(ParseError):
        P192.decode_element(b"\x05" + b"\x00" * 24)  # bad tag
    with pytest.raises(ParseError):
        P192.decode_element(b"\x00" + b"\x01" * 24)  # dented identity
    with pytest.raises(ParseError):
        P192.decode_element(b"\x02" + b"\xff" * 24)  # x >= p
    # an x with no curve point: walk until decode refuses
    rng = random.Random(99)
    rejected = False
    for _ in range(20):
        x = rng.randrange(P192._p)
        try:
            P192.decode_element(b"\x02" + x.to_bytes(24, "big"))
        except ParseError:
            rejected = True
            break
    assert rejected


def test_get_group():
    assert get_group("p192") is P192
    assert get_group("P256") is P256
    assert get_group("toy:23").q == 23
    with pytest.raises(ParseError):
        get_group("p384")
    with pytest.raises(ParseError):
        get_group("toy:nope")


def test_op_counter_scoping():
    with count_group_ops() as outer:
        TOY.scalar_mul(2, 3)
        with count_group_ops() as inner:
            TOY.scalar_mul(4, 5)
            note_extraction()
        TOY.scalar_mul(6, 7)
    assert inner.scalar_muls == 1
    assert inner.extractions == 1
    assert outer.scalar_muls == 3
    assert outer.extractions == 1
    # outside any region nothing is recorded and nothing breaks
    TOY.scalar_mul(1, 1)
    assert outer.scalar_muls == 3


# --- multi_mul and sum_points against the fold of scalar_mul and an
# --- addition formula of their own


MSM_GROUPS = (P192, P256, TOY, BIG_TOY)
CURVES = (P192, P256)


def affine_add(group, a, b):
    """Chord-and-tangent addition in affine coordinates, one inversion a
    call: a formula of its own, shared with nothing under test."""
    if a is None or b is None:
        return b if a is None else a
    p = group._p
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 + group._a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def reference_add(group):
    """Affine addition on a curve; the toy group's add is plain arithmetic."""
    if isinstance(group, ToyGroup):
        return group.add
    return lambda a, b: affine_add(group, a, b)


def fold_mul(group, pairs):
    terms = (group.scalar_mul(k, pt) for k, pt in pairs)
    return reduce(reference_add(group), terms, group.identity)


@st.composite
def msm_cases(draw):
    """(group, pairs): scalars include 0, negatives and multiples of q;
    bases repeat and include the generator and the identity."""
    group = draw(st.sampled_from(MSM_GROUPS))
    q = group.q
    multiples = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    bases = [group.generator, group.identity] + [
        group.scalar_mul(k, group.generator) for k in multiples
    ]
    scalars = st.one_of(st.sampled_from([0, 1, -1, q - 1, q, 2 * q + 3]), st.integers(-2 * q, 2 * q))
    pairs = draw(st.lists(st.tuples(scalars, st.sampled_from(bases)), max_size=7))
    return group, pairs


@PROPERTY
@given(msm_cases())
def test_multi_mul_matches_fold(case):
    group, pairs = case
    expected = fold_mul(group, pairs)
    with count_group_ops() as ops:
        assert group.multi_mul(pairs) == expected
    assert ops.scalar_muls == len(pairs)


@PROPERTY
@given(msm_cases())
def test_multi_mul_cancelling_sums_are_identity(case):
    group, pairs = case
    cancelled = pairs + [(-k, pt) for k, pt in reversed(pairs)]
    with count_group_ops() as ops:
        assert group.is_identity(group.multi_mul(cancelled))
    assert ops.scalar_muls == len(cancelled)


@PROPERTY
@given(msm_cases())
def test_sum_points_matches_fold(case):
    group, pairs = case
    points = [pt for _, pt in pairs]
    with count_group_ops() as ops:
        assert group.sum_points(points) == reduce(reference_add(group), points, group.identity)
    assert ops.scalar_muls == 0


def test_batch_inverse_matches_pow_and_keeps_zeros():
    rng = random.Random(2015)
    for modulus in (23, P192.q, P192._p):
        values = [rng.randrange(modulus) for _ in range(9)] + [0, 1, 0]
        assert batch_inverse(values, modulus) == [pow(v, -1, modulus) if v else 0 for v in values]
    assert batch_inverse([], 23) == []


@pytest.mark.parametrize("group", MSM_GROUPS, ids=str)
def test_multi_mul_edge_cases(group):
    G = group.generator
    G3 = group.scalar_mul(3, G)
    assert group.multi_mul([]) == group.identity
    assert group.multi_mul([(0, G), (5, group.identity)]) == group.identity
    # cancellation across distinct bases, and a doubling inside the chain
    assert group.is_identity(group.multi_mul([(3 * 11, G), (-11, G3)]))
    assert group.multi_mul([(3, G), (1, G3)]) == group.scalar_mul(6, G)
    assert group.multi_mul([(1, G), (-1, G), (-1, G)]) == group.scalar_mul(group.q - 1, G)
    with count_group_ops() as ops:
        group.multi_mul([(0, G), (1, group.identity), (2, G)])
    assert ops.scalar_muls == 3


# --- point operations, counted on the formulas themselves


@pytest.fixture
def point_ops(monkeypatch):
    """``point_ops(fn)`` runs ``fn()`` and returns the (doublings, mixed
    additions, inversions) it made on either curve; every conversion to
    affine coordinates takes one inversion."""
    calls = dict.fromkeys(("_jac_double", "_jac_add_affine", "_batch_to_affine"), 0)

    def counted(name):
        method = getattr(CurveGroup, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(CurveGroup, name, counted(name))

    def pattern(fn):
        for name in calls:
            calls[name] = 0
        fn()
        return tuple(calls.values())

    return pattern


# --- prepared bases: the split path of multi_mul against the plain one


def slice_bits(group):
    return -(-group.q.bit_length() // 8)


@st.composite
def prepared_cases(draw):
    """(group, pairs with some bases prepared, the same pairs unprepared):
    scalars include slice boundaries, where a slice's NAF carries into
    digit L; a base can appear both prepared and plain."""
    group = draw(st.sampled_from(MSM_GROUPS))
    q, L = group.q, slice_bits(group)
    multiples = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    bases = [group.generator, group.identity] + [
        group.scalar_mul(k, group.generator) for k in multiples
    ]
    boundaries = [2**L - 1, 2**L, 2 ** (2 * L) - 1, 2 ** (4 * L) - 1, 2 ** (7 * L) - 1,
                  2 ** (7 * L) + 2**L - 1]
    scalars = st.one_of(
        st.sampled_from([0, 1, -1, q - 1, q, 2 * q + 3] + boundaries + [-b for b in boundaries]),
        st.integers(-2 * q, 2 * q),
    )
    plain = draw(st.lists(st.tuples(scalars, st.sampled_from(bases)), max_size=6))
    flags = draw(st.lists(st.booleans(), min_size=len(plain), max_size=len(plain)))
    pairs = [(k, group.prepare(pt) if flag else pt) for (k, pt), flag in zip(plain, flags)]
    return group, pairs, plain


@PROPERTY
@given(prepared_cases())
def test_multi_mul_over_prepared_bases_matches_plain_and_fold(case):
    group, pairs, plain = case
    expected = fold_mul(group, plain)
    assert group.multi_mul(plain) == expected
    with count_group_ops() as ops:
        assert group.multi_mul(pairs) == expected
    assert ops.scalar_muls == len(pairs)


@PROPERTY
@given(prepared_cases())
def test_multi_mul_over_prepared_bases_cancels_to_identity(case):
    group, pairs, _ = case
    cancelled = pairs + [(-k, pt) for k, pt in reversed(pairs)]
    assert group.is_identity(group.multi_mul(cancelled))


@pytest.mark.parametrize("group", MSM_GROUPS, ids=str)
def test_prepare_counts_nothing_and_keeps_the_point(group):
    pt = group.scalar_mul(0xBEEF, group.generator)
    with count_group_ops() as ops:
        prepared = group.prepare(pt)
        assert group.prepare(prepared) is prepared
        assert group.prepare(group.identity) == group.identity
    assert ops.scalar_muls == 0
    assert prepared == pt
    assert group.encode_element(prepared) == group.encode_element(pt)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_generator_rows_line_up_with_the_slices(group, point_ops):
    L = group._slice_bits
    assert L == slice_bits(group) and L % group._GEN_WIDTH == 0
    assert len(group._generator_rows) == 8
    for j, row in enumerate(group._generator_rows):
        assert row == [group.scalar_mul(d * 2 ** (L * j), group.generator) for d in range(1, 16, 2)]
    assert group.prepare(group.generator).rows == [row[:4] for row in group._generator_rows]
    # 15 in every slice: one width-5 digit per slice on the generator's
    # 8-entry rows, and two width-4 digits (16 - 1) on a prepared key's
    k = sum(15 << L * j for j in range(8))
    pk = group.prepare(group.scalar_mul(0xBEEF, group.generator))
    assert point_ops(lambda: group.multi_mul([(k, group.generator)])) == (L + 1, 8, 1)
    assert point_ops(lambda: group.multi_mul([(k, pk)])) == (L + 1, 16, 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_prepared_check_runs_one_short_doubling_chain(group, point_ops):
    # a message check on a prepared key: eight L-bit slices, one chain
    sk, pk = transient.gen_keypair(group, random.Random(2014))
    prepared = group.prepare(pk)
    for i in range(10):
        msg = b"beacon %d" % i
        signature = transient.sign(group, sk, pk, msg)
        assert transient.verify(group, prepared, msg, signature)
        doublings, _, _ = point_ops(lambda: transient.verify(group, prepared, msg, signature))
        assert doublings == {"p192": 25, "p256": 33}[group.group_id] == group._slice_bits + 1


# --- scalar_mul's one loop, over the generator's table or a per-call row,
# --- against double-and-add


def double_and_add(group, k, pt):
    """Reference k * pt from affine additions, independent of any table."""
    acc = group.identity
    for bit in bin(k % group.q)[2:]:
        acc = affine_add(group, acc, acc)
        if bit == "1":
            acc = affine_add(group, acc, pt)
    return acc


def last_row_doubling_scalar(group):
    """The odd scalar whose last table addition meets its own operand.

    Its recoding ends in the digit 15 after a partial sum of
    ``15 * 16**(rows - 1) - q``, so the final mixed addition takes its
    doubling branch; ``q`` minus it is recoded the same way.
    """
    rows = -(-group.q.bit_length() // 4)
    return 30 * 16 ** (rows - 1) - group.q


def other_bases(group):
    """Two bases that are not the generator: a hashed point, which takes
    the per-call row of ``scalar_mul``, and a prepared one, which takes
    its split rows."""
    return [
        group.hash_to_group("test-base", b"h0"),
        group.prepare(group.scalar_mul(0xBEEF, group.generator)),
    ]


@st.composite
def generator_scalars(draw):
    """(group, k, base): the base is the generator or another point."""
    group = draw(st.sampled_from(CURVES))
    q = group.q
    special = [0, 1, 2, 3, 15, 16, 17, q - 2, q - 1, q, q + 1, 2 * q, -1, -2,
               last_row_doubling_scalar(group), q - last_row_doubling_scalar(group)]
    k = draw(st.one_of(st.sampled_from(special), st.integers(-2 * q, 2 * q)))
    base = draw(st.sampled_from([group.generator] + other_bases(group)))
    return group, k, base


@PROPERTY
@given(generator_scalars())
def test_generator_multiples_match_double_and_add(case):
    group, k, base = case
    expected = double_and_add(group, k, base)
    assert group.scalar_mul(k, base) == expected
    assert group.multi_mul([(k, base)]) == expected


def walked_digit_sum(S, n, unwalked):
    """Whether ``S`` is ``sum(d_t * 8**t)`` over t < n with ``d_t = 0`` for
    t in ``unwalked`` and odd and below 8 in size otherwise.  Such digits
    are unique: at each walked position, of the two odd candidates
    ``S mod 8`` and ``S mod 8 - 8`` only one leaves a remainder that
    suits the next position (odd if it is walked, a multiple of 8 if not).
    """
    for t in range(n):
        if t in unwalked:
            if S % 8:
                return False
            S //= 8
            continue
        r = S % 8
        if not r & 1:
            return False
        walked_next = t + 1 < n and t + 1 not in unwalked
        for d in (r, r - 8):
            rest = (S - d) // 8
            if (rest & 1) if walked_next else not rest % 8:
                break
        S = rest
    return S == 0


def prepared_doubling_scalars(group):
    """Every scalar whose walk over a prepared base meets an addition's
    own operand (or its negation), found by exhaustive search.

    Before digit i is added, the partial sum is S, the sum of
    ``d_t * 2**(3t)`` over the digits already walked, all at bits at or
    above the current offset o; the addition is exceptional iff
    ``S = +-d_i * 2**(3i) mod q``.  As integers the two differ (the
    lowest walked bit fixes the 2-adic valuation of S, and bit 3i is not
    walked yet), so ``S = m * q +- d_i * 2**(3i)`` with m nonzero, below
    ``8**n / q`` in size (both sides are digit sums) and a multiple of
    ``2**o``.  That leaves the few digits walked at the lowest offsets.
    For each, the search solves for S, keeps it if it is a digit sum over
    exactly the walked positions, and adds every choice of the digits
    still to come that keeps the scalar below q.
    """
    q, L = group.q, group._slice_bits
    walk = [i for _, _, i in group._split_walk]
    n = len(walk)
    m_max = 8**n // q
    found = set()
    for pos, i in enumerate(walk):
        step = 2 ** (3 * i % L)
        to_come = walk[pos:]
        for m, d, sign in product(range(-m_max, m_max + 1), range(-7, 8, 2), (1, -1)):
            if not m or m % step:
                continue
            S = m * q + sign * (d << 3 * i)
            if not walked_digit_sum(S, n, set(to_come)):
                continue
            for ds in product(range(-7, 8, 2), repeat=len(to_come) - 1):
                k = S + sum(x << 3 * t for x, t in zip((d, *ds), to_come))
                if 0 < k < q and _regular_digits(k, n, 3)[i] == d:
                    found |= {k, q - k}
    return sorted(found)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_generator_multiples_have_one_operation_pattern(group, point_ops):
    group.scalar_mul(1, group.generator)  # build the table outside the count

    def pattern(k, base=group.generator):
        return point_ops(lambda: group.scalar_mul(k, base))

    rng = random.Random(2009)
    q = group.q
    scalars = [1, 2, q - 1, q - 2] + [rng.randrange(1, q) for _ in range(50)]
    rows = -(-q.bit_length() // 4)
    assert {pattern(k) for k in scalars} == {(0, rows, 1)}
    # the incomplete addition formula's one exception on each curve
    for k in (last_row_doubling_scalar(group), q - last_row_doubling_scalar(group)):
        assert pattern(k) == (1, rows, 1)
    # any other base: its row P..15P costs one doubling, 7 mixed additions
    # and two inversions, then 4 doublings before each of the rows additions
    base = group.hash_to_group("test-base", b"pattern")
    assert {pattern(k, base) for k in [1, q - 1] + scalars[4:]} == {(4 * rows + 1, rows + 7, 3)}
    # q = 17 mod 32: q - 2 ends in the digit -1 after a partial sum of -P
    assert q % 32 == 17
    for k in (2, q - 2):
        assert pattern(k, base) == (4 * rows + 2, rows + 7, 3)
    # a prepared base: one doubling per offset of a slice, one addition
    # per width-3 digit from its split rows, and no table to build
    prepared = group.prepare(base)
    digits = -(-q.bit_length() // 3)
    assert {pattern(k, prepared) for k in scalars} == {(group._slice_bits, digits, 1)}
    exceptions = prepared_doubling_scalars(group)
    # on P-192 the last digit, -7 at bit 7L, meets a partial sum of q - 7 * 2**(7L)
    assert exceptions == ([7 << 169, q - (7 << 169)] if group is P192 else [])
    for k in exceptions:
        assert pattern(k, prepared) == (group._slice_bits + 1, digits, 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_forge_on_a_prepared_key_has_one_operation_pattern(group, point_ops):
    E = group.prepare(group.scalar_mul(0xF00D, group.generator))
    group.scalar_mul(1, group.generator)  # build the table outside the count
    patterns = {point_ops(lambda: forge_tuple(group, E, random.Random(seed))) for seed in range(50)}
    # a*G, b*E and their sum: one inversion each
    digits = -(-group.q.bit_length() // 3)
    assert patterns == {(group._slice_bits, -(-group.q.bit_length() // 4) + digits + 2, 3)}


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_a_minus_3_doubling_matches_the_generic_formula(group):
    p, a = group._p, group._a

    def generic_double(pt):
        # the same Jacobian doubling with M = 3X^2 + a*Z^4 for any a
        X, Y, Z = pt
        if not Y or not Z:
            return (1, 1, 0)
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + a * ZZ * ZZ) % p
        X3 = (M * M - 2 * S) % p
        return (X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p)

    assert a == p - 3
    rng = random.Random(1998)
    for _ in range(50):
        x, y = group.scalar_mul(rng.randrange(1, group.q), group.generator)
        Z = rng.randrange(2, p)
        pt = (x * Z * Z % p, y * Z * Z * Z % p, Z)
        assert group._jac_double(pt) == generic_double(pt)
    for pt in [(1, 1, 0), (rng.randrange(p), 0, rng.randrange(1, p))]:
        assert group._jac_double(pt) == generic_double(pt) == (1, 1, 0)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_generator_multiple_counts_one_scalar_mul(group):
    for base in [group.generator] + other_bases(group):
        for k in (0, 1, 2, group.q - 1, group.q, 0xC0FFEE, -7):
            with count_group_ops() as ops:
                group.scalar_mul(k, base)
            assert ops.scalar_muls == 1


# --- multi_mul's slice rule: the widest scalar on a fresh base picks
# --- 8, 4, 2 or 1 slices, and prepared bases and the generator follow


@st.composite
def sliced_cases(draw):
    """(group, pairs) mixing the generator, prepared and fresh bases;
    fresh scalars sit around L, 2L, 4L and full width, so every slice
    count is taken and each boundary is crossed from both sides."""
    group = draw(st.sampled_from(CURVES))
    q, L = group.q, group._slice_bits
    G = group.generator
    fresh = [group.scalar_mul(k, G) for k in (5, 0xF00D)]
    prepared = [group.prepare(group.scalar_mul(k, G)) for k in (7, 0xBEEF)]
    bits = st.sampled_from([1, L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1,
                            4 * L - 1, 4 * L, 4 * L + 1, q.bit_length()])
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(bits)
        k = draw(st.integers(1 << (n - 1), min((1 << n) - 1, q - 1)))
        pairs.append((k, draw(st.sampled_from([G] + prepared + fresh))))
    return group, pairs


@PROPERTY
@given(sliced_cases())
def test_multi_mul_slice_rule_matches_double_and_add(case):
    group, pairs = case
    terms = (double_and_add(group, k, pt) for k, pt in pairs)
    expected = reduce(lambda a, b: affine_add(group, a, b), terms, group.identity)
    with count_group_ops() as ops:
        assert group.multi_mul(pairs) == expected
    assert ops.scalar_muls == len(pairs)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_ring_verify_over_prepared_keys_runs_a_half_length_chain(group, point_ops):
    mk = setup(group, n=16, rng=random.Random(12), manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    r = 4
    ring = [f"m:car-{i}" for i in range(r)]
    for id_str in ring:
        registry.extract_pubkey(id_str)
    sig = ring_sign(b"half", ring, keygen(mk, ring[1]), 1, registry, random.Random(3))
    # the first acceptance prepares the signer's key, which was cached plain
    assert ring_verify(b"half", sig, registry)
    assert all(isinstance(registry._cache[id_str], _PreparedPoint) for id_str in ring)
    group.scalar_mul(1, group.generator)  # build the table outside the count
    # 96-bit (128-bit) randomizers on the fresh U_i: two slices, a chain
    # of 4L + 1 doublings, and one doubling for each U_i's odd multiples
    chain = {"p192": 97, "p256": 129}[group.group_id]
    assert chain == 4 * group._slice_bits + 1
    doublings, _, _ = point_ops(lambda: ring_verify(b"half", sig, registry))
    assert doublings == chain + r
