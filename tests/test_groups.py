"""Group backends: arithmetic, hashing, encodings, operation counting."""

import hashlib
import random
import struct
from functools import cache, reduce
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avcs import groups, transient
from avcs.errors import ParseError
from avcs.groups import (
    P192,
    P256,
    ToyGroup,
    _PreparedPoint,
    _wnaf,
    batch_inverse,
    count_group_ops,
    digest32,
    expand_bytes,
    get_group,
    note_extraction,
)
from avcs.hardware import _window_tag
from avcs.ringsig import ManufactoryRegistry, RingSignature, forge_tuple, keygen, ring_sign, ring_verify, setup
from helpers import PROPERTY, chi_square, opcode_trace

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


@pytest.mark.parametrize("group", (TOY, BIG_TOY, P192, P256), ids=str)
def test_hash_to_short_is_a_reduced_hash_to_scalar(group):
    lam = -(-group.q.bit_length() // 2)
    assert lam == {"p192": 96, "p256": 128}.get(group.group_id, lam)
    seen = set()
    for i in range(500):
        data = struct.pack(">I", i)
        e = group.hash_to_short("schnorr", data)
        assert 1 <= e <= 2**lam - 1
        assert e == group.hash_to_scalar("schnorr", data) % (2**lam - 1) + 1
        seen.add(e)
    if group is TOY:
        assert seen == set(range(1, 8))  # lam = 3: every short scalar occurs


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
        x, y = pt
        assert (y * y - (x * x * x + P192._a * x + P192._b)) % P192._p == 0
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


def test_check_encoding_is_decoding_without_the_square_root(monkeypatch):
    rng = random.Random(98)
    for group in (TOY, BIG_TOY, P192, P256):
        for a in (group.identity, group.generator, group.hash_to_group("h0", b"c")):
            blob = group.encode_element(a)
            assert group.check_encoding(blob) is blob
            assert group.encode_element(blob) is blob  # an encoding passes unchanged
    for blob in (b"\x17", b"\x01\x02"):
        with pytest.raises(ParseError):
            TOY.check_encoding(blob)
    for group in (P192, P256):
        n = group.element_byte_len - 1
        for blob in (b"\x05" + bytes(n), b"\x00" + b"\x01" * n, b"\x02" + b"\xff" * n,
                     b"\x03" + group._p.to_bytes(n, "big"), b"\x02" + bytes(n - 1)):
            with pytest.raises(ParseError):
                group.check_encoding(blob)
            with pytest.raises(ParseError):
                group.decode_element(blob)
        # canonical x with and without a curve point: no square root either way
        monkeypatch.setattr(group, "_lift_x", lambda *a: pytest.fail("square root taken"))
        xs = [0, group._p - 1] + [rng.randrange(group._p) for _ in range(20)]
        for x in xs:
            blob = bytes([2 + x % 2]) + x.to_bytes(n, "big")
            assert group.check_encoding(blob) is blob
        monkeypatch.undo()
        off_curve = [x for x in xs if group._lift_x(x, 0) is None]
        assert off_curve
        for x in off_curve:
            with pytest.raises(ParseError):
                group.decode_element(b"\x02" + x.to_bytes(n, "big"))


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


def reference_lift(group, x, parity):
    """The curve's y of that parity at x, or None, by one ``pow``."""
    p = group._p
    rhs = (x * x * x + group._a * x + group._b) % p
    y = pow(rhs, (p + 1) // 4, p)
    if y * y % p != rhs:
        return None
    return y if y & 1 == parity else p - y


def reference_hash_to_group(group, tag, data):
    """Try-and-increment on ``reference_lift``: the point and its attempts."""
    for attempt in range(256):
        x = int.from_bytes(digest32(tag, bytes([attempt]) + data), "big") % group._p
        y = reference_lift(group, x, 0)
        if y is not None:
            return (x, y), attempt + 1
    raise AssertionError("no point")  # pragma: no cover


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_root_chain_is_the_power_by_pow(group):
    p = group._p
    rng = random.Random(2033)
    squares = [rng.randrange(1, p) ** 2 % p for _ in range(100)]
    values = [0, 1, p - 1] + squares + [p - a for a in squares]  # -1 is no square: p = 3 mod 4
    for a in values:
        assert group._root(a) == pow(a, (p + 1) // 4, p)
    assert all(group._root(a) ** 2 % p == a for a in squares)
    assert not any(group._root(p - a) ** 2 % p == p - a for a in squares)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_decoding_and_hashing_match_a_pow_root(group):
    # and each x -> y lift counts one root: a decode one, a hash one per attempt
    n = group.element_byte_len - 1
    rng = random.Random(2034)
    on_curve = 0
    for _ in range(300):
        x = rng.randrange(group._p)
        blob = bytes([2 + rng.randrange(2)]) + x.to_bytes(n, "big")
        y = reference_lift(group, x, blob[0] & 1)
        with count_group_ops() as ops:
            if y is None:
                with pytest.raises(ParseError):
                    group.decode_element(blob)
            else:
                assert group.decode_element(blob) == (x, y)
                on_curve += 1
        assert ops.roots == 1
    assert 100 < on_curve < 200
    attempts = set()
    for i in range(300):
        data = rng.randbytes(i % 40)
        point, tries = reference_hash_to_group(group, "h0", data)
        with count_group_ops() as ops:
            assert group.hash_to_group("h0", data) == point
        assert ops.roots == tries
        attempts.add(tries)
    assert {1, 2, 3} <= attempts


def test_batch_inverse_matches_pow_and_keeps_zeros():
    rng = random.Random(2015)
    for modulus in (23, P192.q, P192._p):
        values = [rng.randrange(modulus) for _ in range(9)] + [0, 1, 0]
        assert batch_inverse(values, modulus) == [pow(v, -1, modulus) if v else 0 for v in values]
    assert batch_inverse([], 23) == []


def test_batch_inverse_never_inverts_its_unblinded_product(monkeypatch):
    # the one Euclid runs on the product times a blind from secrets, so
    # its steps do not depend on the values (Z coordinates, nonces)
    calls = []

    def recorded_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr("avcs.groups.pow", recorded_pow, raising=False)
    rng = random.Random(2031)
    for modulus in (23, P192.q, P192._p, P256.q):
        for values in ([rng.randrange(1, modulus)], [rng.randrange(modulus) for _ in range(6)] + [0]):
            calls.clear()
            assert batch_inverse(values, modulus) == [pow(v, -1, modulus) if v else 0 for v in values]
            product = reduce(lambda a, b: a * b % modulus, (v for v in values if v), 1)
            assert len(calls) == 1 and calls[0][1:] == (-1, modulus)
            if modulus > 23:  # a blind of 1 in q - 1 leaves it as it is
                assert calls[0][0] != product
        # nothing to invert, such as the identity of an accepted check: no Euclid
        calls.clear()
        assert batch_inverse([0], modulus) == [0] and batch_inverse([0, 0], modulus) == [0, 0]
        assert calls == []
    # two calls on the same values invert two different products
    calls.clear()
    batch_inverse([5, 7], P192.q), batch_inverse([5, 7], P192.q)
    assert calls[0][0] != calls[1][0]


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


# --- the bounded NAF that multi_mul recodes each scalar into


@st.composite
def naf_cases(draw):
    """(k, w), k >= 1, for the widths multi_mul uses (4 and 9) and one
    between: runs of ones, such a run less a small odd value, q - 1,
    q - 2 and 2**lam - 1, where a plain NAF's last carry would land
    above the top bit, and any scalar below q."""
    w = draw(st.sampled_from([4, 5, 9]))
    group = draw(st.sampled_from(CURVES))
    q = group.q
    n = draw(st.integers(1, q.bit_length()))
    odd = 2 * draw(st.integers(0, 2 ** (w - 2) - 1)) + 1  # below 2**(w-1)
    runs = [2**n - 1] + ([2**n - 1 - odd] if 2**n - 1 > odd else [])
    special = runs + [q - 1, q - 2, 2 ** short_bits(group) - 1]
    return draw(st.one_of(st.sampled_from(special), st.integers(1, q - 1))), w


def check_naf(k, w):
    terms = _wnaf(k, w)
    assert sum(d << i for i, d in terms) == k
    assert all(d & 1 and abs(d) < 2 ** (w - 1) for _, d in terms)
    positions = [i for i, _ in terms]
    assert positions == sorted(set(positions))
    assert positions[-1] < k.bit_length()


@PROPERTY
@given(naf_cases())
def test_naf_sums_to_k_with_odd_digits_none_above_its_top_bit(case):
    check_naf(*case)


def test_naf_of_every_small_scalar():
    for w in (4, 5, 9):
        for k in range(1, 2**12):
            check_naf(k, w)
    # a plain width-4 NAF writes a run of ones as 2**8 - 1, a digit above
    # the top bit; the bounded one uses positive digits below it
    assert _wnaf(2**8 - 1, 4) == [(0, 7), (3, 7), (6, 3)]


# --- prepared bases: multi_mul over their rows against the plain bases


def slice_bits(group):
    return -(-group.q.bit_length() // 8)


def short_bits(group):
    """lam: the width of a half-width scalar from ``hash_to_short``."""
    return -(-group.q.bit_length() // 2)


def top_step(C, *recodings):
    """The doublings of a C-step chain: digit (i, d) lands at step i mod C,
    and the chain doubles from the top step that holds a digit."""
    return max(i % C for digits in recodings for i, _ in digits)


def check_scalars(group, pk, msg, signature):
    """(s, e) of a message check ``s*G + e*pk``, read as ``transient.verify``
    reads them."""
    R = signature[: group.element_byte_len]
    e = group.hash_to_short("schnorr", R + group.encode_element(pk) + msg)
    return group.decode_scalar(signature[group.element_byte_len :]), e


@st.composite
def prepared_cases(draw):
    """(group, pairs with some bases prepared, the same pairs unprepared):
    each prepared base has the signed comb or a transient key's short
    rows 16 bits apart.  Scalars include the bounds of a row and of each
    layout's reach (16 and lam bits), and of L = bits(q)/8, 4L and 7L
    bits; a base can appear both prepared and plain."""
    group = draw(st.sampled_from(MSM_GROUPS))
    q, L, lam = group.q, slice_bits(group), short_bits(group)
    multiples = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    bases = [group.generator, group.identity] + [
        group.scalar_mul(k, group.generator) for k in multiples
    ]
    boundaries = [2**L - 1, 2**L, 2**16 - 1, 2**16, 2**lam - 1, 2**lam, 2 ** (4 * L) - 1,
                  2 ** (4 * L), 2 ** (7 * L) - 1, 2 ** (7 * L) + 2**L - 1]
    scalars = st.one_of(
        st.sampled_from([0, 1, -1, q - 1, q, 2 * q + 3] + boundaries + [-b for b in boundaries]),
        st.integers(-2 * q, 2 * q),
    )
    plain = draw(st.lists(st.tuples(scalars, st.sampled_from(bases)), max_size=6))
    layouts = st.sampled_from(["plain", "comb", "short"])
    chosen = draw(st.lists(layouts, min_size=len(plain), max_size=len(plain)))
    pairs = [(k, pt if layout == "plain" else group.prepare(pt, short=layout == "short"))
             for (k, pt), layout in zip(plain, chosen)]
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
def test_multi_mul_reads_comb_rows_at_stride_c_over_8(group, point_ops, monkeypatch):
    G, lam = group.generator, short_bits(group)
    # the generator's comb: teeth 16 bits apart in two tables 8 apart on
    # P-192, 24 apart in three on P-256; table i holds 2**(8i) times the
    # first, and each scalar has one column per bit of a tooth
    spacing, m = {"p192": (16, 2), "p256": (24, 3)}[group.group_id]
    assert G.comb == (spacing, 8) and len(G.rows) == m
    read = []

    class Table(list):
        def __getitem__(self, e):
            read.append(self.i)
            return list.__getitem__(self, e)

    tables = [Table(table) for table in G.rows]
    for i, table in enumerate(tables):
        table.i = i
    monkeypatch.setattr(G, "rows", tables)
    key = group.scalar_mul(0xBEEF, G)
    rng = random.Random(2019)
    # the chain is C = 16 beside a transient key or a ring key's signed
    # comb, and lam beside a fresh base whose scalar's top bit is lam - 1:
    # G's column t lands at step t mod C from table (t // C) * (C / 8), so
    # C = 16 reads every second table and C = lam the first alone.  Every
    # column is nonzero, so G adds one entry per column, and the chain
    # doubles from its top step that holds a digit: step 15 of G's columns
    # on C = 16, and the fresh base's top bit on C = lam
    for other, k, C, top in ((group.prepare(key, short=True), 1, 16, 15),
                             (group.prepare(key), 1, 16, 15),
                             (key, 2 ** (lam - 1) + 1, lam, lam - 1)):
        s = rng.randrange(1, group.q)
        read.clear()
        ops = point_ops(lambda: group.multi_mul([(s, G), (k, other)]))
        assert set(read) == {t // C * (C // 8) for t in range(spacing)}
        assert len(read) == spacing
        if other is key:  # one doubling and 3 additions for its odd multiples
            assert ops == (top + 1, spacing + 2 + 3, 2)
        else:
            assert ops == (top, spacing + (32 if group.has_comb(other) else 1), 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_prepared_check_runs_one_short_doubling_chain(group, point_ops):
    # a message check on a key prepared short, its rows 16 bits apart: the
    # generator's tables 8 bits apart and key rows 16 apart make one chain
    # of 16 steps on either curve, which doubles from step 15, where G's
    # top column lies in the first table
    sk, pk = transient.gen_keypair(group, random.Random(2014))
    prepared = group.prepare(pk, short=True)
    columns = group.generator.comb[0]
    for i in range(50):
        msg = b"beacon %d" % i
        signature = transient.sign(group, sk, pk, msg)
        assert transient.verify(group, prepared, msg, signature)
        s, e = check_scalars(group, pk, msg, signature)
        # one addition per column of G (16 on P-192, 24 on P-256) and per
        # width-4 NAF digit of the half-width e
        assert point_ops(lambda: transient.verify(group, prepared, msg, signature)) == (
            15, columns + len(_wnaf(e, 4)), 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_plain_key_check_runs_a_half_length_chain(group, point_ops):
    # a half-width challenge on a plain key: one chain to the first
    # multiple of 8 above its top digit (lam for each of these ten), which
    # doubles from e's top digit, and one more doubling for the key's odd
    # multiples: G's columns all lie below it, read from G's first table
    sk, pk = transient.gen_keypair(group, random.Random(2015))
    additions, chains = 0, []
    lam, columns = short_bits(group), group.generator.comb[0]
    for i in range(10):
        msg = b"first %d" % i
        signature = transient.sign(group, sk, pk, msg)
        assert transient.verify(group, pk, msg, signature)
        doublings, adds, _ = point_ops(lambda: transient.verify(group, pk, msg, signature))
        s, e = check_scalars(group, pk, msg, signature)
        assert (_wnaf(e, 4)[-1][0] // 8 + 1) * 8 == lam
        assert doublings == top_step(lam, group._comb_digits(s, columns), _wnaf(e, 4)) + 1 <= lam
        # 3 additions for the key's odd multiples, one per column of G and per NAF digit of e
        assert adds == 3 + columns + len(_wnaf(e, 4))
        additions += adds
        chains.append(doublings)
    assert chains == {"p192": [96, 94, 91, 94, 95, 95, 95, 95, 95, 93],
                      "p256": [125, 127, 127, 126, 122, 128, 128, 128, 124, 127]}[group.group_id]
    assert additions == {"p192": 394, "p256": 532}[group.group_id]


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_transient_prepare_builds_rows_16_bits_apart(group, point_ops):
    lam = short_bits(group)
    pt = group.scalar_mul(0xBEEF, group.generator)
    # ceil(lam / 16) rows from one inversion: each row is built where its
    # base's double is affine
    rows = {"p192": 6, "p256": 8}[group.group_id]
    assert rows == -(-lam // 16)
    cost = {"p192": (81, 18, 1), "p256": (113, 24, 1)}[group.group_id]
    assert point_ops(lambda: group.prepare(pt, short=True)) == cost
    assert cost == (rows + 15 * (rows - 1), 3 * rows, 1)
    short, full = group.prepare(pt, short=True), group.prepare(pt)
    assert short == pt and (short.comb, full.comb) == (None, (32, 16))
    assert len(short.rows) == rows
    for j in (0, 1, rows - 1):
        assert short.rows[j] == [double_and_add(group, m << 16 * j, pt) for m in (1, 3, 5, 7)]
    # the same shape: the same object; the other shape: a table of its own
    assert group.prepare(short, short=True) is short and group.prepare(full) is full
    assert group.prepare(full, short=True).rows == short.rows
    assert group.prepare(short).rows == full.rows


def comb_teeth(group, comb):
    """The teeth of a comb-prepared point: bits(q) / its teeth's spacing."""
    return -(-group.q.bit_length() // comb.comb[0])


def comb_entry(group, comb, e):
    """The multiple of the base that entry e of the comb's first table
    holds: ``1 + sum(+-2**(spacing*j))`` over teeth j >= 1, + where bit
    j - 1 of e is set.  Its table i's entry e holds ``2**(offset*i)``
    times it."""
    spacing = comb.comb[0]
    return 1 + sum((1 if e >> (j - 1) & 1 else -1) << spacing * j for j in range(1, comb_teeth(group, comb)))


def comb_columns(group, comb, k):
    """The column values of ``k``'s walk on ``comb``, least significant
    first: each digit's entry as a multiple of the base, with its sign."""
    return [(1 if d > 0 else -1) * comb_entry(group, comb, abs(d) >> 1)
            for _, d in group._comb_digits(k, comb.comb[0])]


def digit_sums_of_q(q, positions):
    """Each nonzero multiple M * q that is a +-1-digit sum over the bit
    ``positions``, as (M, the set of positions whose digit is +1): M * q
    is such a sum iff ``(M * q + sum(2**b)) / 2`` is an integer >= 0
    whose set bits lie in ``positions``, and then those bits are the +1
    digits.  A +-1-digit sum is never 0: its lowest digit is odd at its
    own bit."""
    union = sum(1 << b for b in positions)
    found = []
    for M in range(-(union // q), union // q + 1):
        v = M * q + union
        if M and v >= 0 and v % 2 == 0 and (v >> 1) & ~union == 0:
            found.append((M, {b for b in positions if v >> b + 1 & 1}))
    return found


@cache
def comb_doubling_scalars(group, shape):
    """Every scalar in (0, q) whose walk on a comb of this shape, (the
    teeth's spacing, the tables' offset), meets an addition's own
    operand or sums to the identity before its end, derived from the
    order of the walk.

    The recoding writes k's odd fold K as ``sum(s_b * 2**b)`` over
    b < n = spacing * teeth, every s_b = +-1.  Bit b lies in column
    b mod spacing, which step b mod offset adds from table (b mod
    spacing) // offset, and the steps run from offset - 1 down to 0,
    each adding its columns table by table.  So at step t the partial
    sum before an addition and the addend are 2**-t times +-1-digit sums
    over disjoint sets of bit positions, and the addition doubles (or
    reaches the identity) iff the partial sum minus (plus) the addend,
    a +-1-digit sum over the union of both sets, is a multiple of q
    (``digit_sums_of_q``).  On every comb here only the walk's last
    addition, column L = offset * (m - 1) from table m - 1 at step 0,
    admits one.  There the union holds every bit, so each M gives one K:
    K = M * q for the identity, which |K| < q rules out, and for a
    doubling the digits with column L's flipped, ``K = 2**(L+1) * c_L +
    M * q``, kept if |K| < q.
    """
    q = group.q
    spacing, offset = shape
    m, n = spacing // offset, spacing * -(-q.bit_length() // spacing)
    meets, found = set(), set()
    for t, i in product(range(offset), range(m)):
        table = {b: b % spacing // offset for b in range(n) if b % offset >= t}
        added = {b for b in table if b % offset == t and table[b] == i}
        for M, plus in digit_sums_of_q(q, [b for b in table if b % offset > t or table[b] <= i]):
            meets.add((t, i))
            K = sum((1 if b in plus else -1) * (-1 if b in added else 1) << b for b in range(n))
            if abs(K) < q:
                found |= {K % q, -K % q}
    assert meets == {(0, m - 1)}
    return tuple(sorted(found))


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_ring_key_prepare_builds_a_signed_comb(group, point_ops):
    pt = group.scalar_mul(0xBEEF, group.generator)
    # one chain of 2 * teeth - 1 runs of 16 doublings gives 2**(16i) * pt,
    # teeth = bits(q) / 32, made affine by one inversion; then each tooth
    # j >= 1 adds -+2**(32j) * pt to every entry of the first table and
    # -+2**(32j + 16) * pt to every entry of the second in one lane step:
    # 4 + 8 + ... + 2**teeth lane additions, one inversion per step
    teeth = {"p192": 6, "p256": 8}[group.group_id]
    assert teeth == -(-group.q.bit_length() // 32)
    cost = {"p192": (176, 0, 6), "p256": (240, 0, 8)}[group.group_id]
    assert point_ops(lambda: group.prepare(pt)) == cost == (16 * (2 * teeth - 1), 0, teeth)
    lanes = {"p192": (124, 5), "p256": (508, 7)}[group.group_id]
    assert point_ops.lanes == lanes == (2 ** (teeth + 1) - 4, teeth - 1)
    comb = group.prepare(pt)
    # two tables of 32 points per ring key or window tag on P-192, 64 in
    # all; two of 128 on P-256, 256 in all
    assert comb.comb == (32, 16) and comb_teeth(group, comb) == teeth
    assert [len(row) for row in comb.rows] == [2 ** (teeth - 1)] * 2
    assert sum(map(len, comb.rows)) == {"p192": 64, "p256": 256}[group.group_id]
    for e in range(2 ** (teeth - 1)):
        assert [comb.rows[t][e] for t in (0, 1)] == [
            double_and_add(group, comb_entry(group, comb, e) << 16 * t, pt) for t in (0, 1)]


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_generator_prepare_builds_a_signed_comb(group, point_ops):
    # the generator's comb: teeth 8 * ceil(bits(q) / 96) bits apart, in
    # m tables 8 bits apart, built as a ring key's comb is: one chain of
    # m * teeth - 1 runs of 8 doublings, one inversion, then one lane step
    # per tooth j >= 1 over every table, m * (4 + 8 + ... + 2**teeth) lane
    # additions; the operation table's `prepare generator`
    spacing, m, teeth = {"p192": (16, 2, 12), "p256": (24, 3, 11)}[group.group_id]
    assert spacing == 8 * -(-group.q.bit_length() // 96) and teeth == -(-group.q.bit_length() // spacing)
    build = type(group).generator.func  # the cached property's own function, run afresh
    cost = {"p192": (184, 0, 12), "p256": (256, 0, 11)}[group.group_id]
    assert point_ops(lambda: build(group)) == cost == (8 * (m * teeth - 1), 0, teeth)
    lanes = {"p192": (8188, 11), "p256": (6138, 10)}[group.group_id]
    assert point_ops.lanes == lanes == (m * (2**teeth - 2), teeth - 1)
    G = group.generator
    assert build(group).rows == G.rows and G.comb == (spacing, 8)
    # two tables of 2048 points on P-192 and three of 1024 on P-256
    assert [len(table) for table in G.rows] == {"p192": [2048] * 2, "p256": [1024] * 3}[group.group_id]
    for e in (0, 1, 2 ** (teeth - 2), 2 ** (teeth - 1) - 1):
        assert [G.rows[t][e] for t in range(m)] == [
            double_and_add(group, comb_entry(group, G, e) << 8 * t, G) for t in range(m)]


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_transient_key_stays_exact_past_its_rows(group, point_ops):
    # multi_mul reads a transient key's rows up to lam bits, on a chain
    # of 16 steps, and beyond them its row 0 alone, on a chain to the
    # first multiple of 8 above the scalar's top digit, which doubles from
    # that digit's step; scalar_mul never reads them at all
    lam, G = short_bits(group), group.generator
    pt = group.scalar_mul(0xBEEF, G)
    short = group.prepare(pt, short=True)
    for k in (2**lam - 1, 2**lam, 2 ** (lam + 40), group.q - 1):
        expected = double_and_add(group, k, pt)
        assert group.multi_mul([(k, short)]) == group.multi_mul([(k, pt)]) == expected
        doublings, _, _ = point_ops(lambda: group.multi_mul([(k, short), (5, G)]))
        digits = _wnaf(k, 4)
        assert doublings == (top_step(16, digits) if k < 2**lam else digits[-1][0])
        assert group.scalar_mul(k, short) == expected
        assert point_ops(lambda: group.scalar_mul(k, short)) == point_ops(lambda: group.scalar_mul(k, pt))


# --- scalar_mul's one loop, over a comb or a per-call row,
# --- against double-and-add


def double_and_add(group, k, pt):
    """Reference k * pt from affine additions, independent of any table."""
    acc = group.identity
    for bit in bin(k % group.q)[2:]:
        acc = affine_add(group, acc, acc)
        if bit == "1":
            acc = affine_add(group, acc, pt)
    return acc


def other_bases(group):
    """Two bases that are not the generator: a hashed point, which takes
    the per-call row of ``scalar_mul``, and a prepared one, which takes
    its signed comb."""
    return [
        group.hash_to_group("test-base", b"h0"),
        group.prepare(group.scalar_mul(0xBEEF, group.generator)),
    ]


@st.composite
def generator_scalars(draw):
    """(group, k, base): the base is the generator or another point."""
    group = draw(st.sampled_from(CURVES))
    q = group.q
    special = [0, 1, 2, 3, 15, 16, 17, 255, 256, 257, q - 2, q - 1, q, q + 1, 2 * q, -1, -2,
               *comb_doubling_scalars(group, group.generator.comb)]
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


@PROPERTY
@given(generator_scalars(), st.data())
def test_fixed_multi_mul_matches_double_and_add(case, data):
    # a forge's U = a*G + b*E, cancellations included (0xBEEF * G is a base)
    group, k, base = case
    q = group.q
    a = data.draw(st.one_of(st.sampled_from([0, 1, 2, q - 1, -k, -k * 0xBEEF]),
                            st.integers(-2 * q, 2 * q)))
    G = group.generator
    expected = affine_add(group, double_and_add(group, a, G), double_and_add(group, k, base))
    with count_group_ops() as ops:
        assert group.fixed_multi_muls([[(k, base), (a, G)]])[0] == expected
    assert ops.scalar_muls == 2


@cache
def fixed_bases(group):
    """One base of each layout a fixed-pattern sum walks, with its
    documented incomplete-addition pair: the generator's signed comb, the
    signed comb of a ring key or a window tag, and a transient key and a
    plain point, both on the per-call row.  Hashed points, so that no base
    is a known multiple of another."""
    q = group.q
    point = {name: group.hash_to_group("test-base", name.encode()) for name in ("comb", "key", "plain")}
    comb = group.prepare(point["comb"])
    return [
        (group.generator, comb_doubling_scalars(group, group.generator.comb)),
        (comb, comb_doubling_scalars(group, comb.comb)),
        (group.prepare(point["key"], short=True), (2, q - 2)),
        (point["plain"], (2, q - 2)),
    ]


@st.composite
def fixed_mix_cases(draw):
    """(group, pairs, bases): distinct bases drawn from ``fixed_bases``,
    each with a scalar among 0, 1, 2, q - 1, q - 2, its base's pair, or
    any scalar."""
    group = draw(st.sampled_from(CURVES))
    q = group.q
    bases = draw(st.lists(st.sampled_from(fixed_bases(group)), min_size=1, max_size=4,
                          unique_by=lambda base: id(base[0])))
    pairs = [(draw(st.one_of(st.sampled_from([0, 1, 2, q - 1, q - 2, *special]), st.integers(1, q - 1))), pt)
             for pt, special in bases]
    return group, pairs, bases


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fixed_mix_cases())
def test_fixed_sums_over_any_mix_of_bases(case, point_ops):
    group, pairs, bases = case
    q = group.q
    terms = (double_and_add(group, k, pt) for k, pt in pairs)
    expected = reduce(reference_add(group), terms, group.identity)
    with count_group_ops() as ops:
        assert group.fixed_multi_muls([pairs])[0] == expected
    assert ops.scalar_muls == len(pairs)
    assert group.multi_mul(pairs) == expected
    # the pattern depends on the bases of the nonzero scalars alone: the
    # same as for arbitrary scalars on them, bar the pair of a lone base
    group.scalar_mul(1, group.generator)  # build the table outside the count
    live = [(k, pt) for k, pt in pairs if k % q]
    ordinary = [(0xC0FFEE * (i + 1), pt) for i, (_, pt) in enumerate(live)]
    pattern = point_ops(lambda: group.fixed_multi_muls([live])[0])
    reference = point_ops(lambda: group.fixed_multi_muls([ordinary])[0])
    documented = {id(pt): special for pt, special in bases}
    if len(live) == 1 and live[0][0] in documented[id(live[0][1])]:
        # the last addition meets its own operand and doubles
        assert pattern == (reference[0] + 1, *reference[1:])
    else:
        assert pattern == reference


@pytest.mark.parametrize("group", MSM_GROUPS, ids=str)
def test_list_forms_match_the_one_sum_forms_with_one_inversion(group, point_ops):
    # a batch as a mint, a ring's forgeries or a rogue scan makes one: an
    # empty sum, scalars all 0 mod q, a sum that cancels to the identity
    # and finite sums, over bases whose rows both forms read (the
    # generator's, a ring key's comb and a tag's), so no per-call row is
    # built and the batch's shared conversion is its one inversion
    q, G = group.q, group.generator
    rng = random.Random(2031)
    comb = group.prepare(group.scalar_mul(0xBEEF, G))
    tag = group.prepare(group.scalar_mul(0xF00D, G))
    k, a = rng.randrange(1, q), rng.randrange(1, q)
    sums = [
        [],
        [(0, G), (q, comb), (-2 * q, tag)],
        [(k, comb), (a, G), (-k, comb), (q - a, G)],
        [(k, G), (a, comb)],
        [(rng.randrange(q), tag), (5, G), (q - 1, comb)],
    ]
    expected = [fold_mul(group, pairs) for pairs in sums]
    assert expected[:3] == [group.identity] * 3
    inversions = 0 if isinstance(group, ToyGroup) else 1
    for batch, single in ((group.fixed_multi_muls, lambda pairs: group.fixed_multi_muls([pairs])[0]),
                          (group.multi_muls, group.multi_mul)):
        assert [single(pairs) for pairs in sums] == expected
        with count_group_ops() as ops:
            assert batch(sums) == expected
        assert ops.scalar_muls == sum(map(len, sums))
        assert point_ops(lambda: batch(sums))[2] == inversions


@pytest.mark.parametrize("group", MSM_GROUPS, ids=str)
def test_subset_sums_hold_every_subset_of_each_chunk(group):
    rng = random.Random(1992)
    P = group.scalar_mul(rng.randrange(1, group.q), group.generator)
    others = [group.scalar_mul(rng.randrange(1, group.q), group.generator) for _ in range(7)]
    # 9 points: two full rows and a row of 2; P and -P sum to the identity
    points = [P, group.scalar_mul(-1, P)] + others
    rows = group.subset_sums(points, 4)
    assert [len(row) for row in rows] == [16, 16, 2]
    for i, row in enumerate(rows):
        chunk = points[4 * i : 4 * i + 4]
        for s, entry in enumerate(row):
            subset = [pt for t, pt in enumerate(chunk) if s >> t & 1]
            assert entry == reduce(reference_add(group), subset, group.identity)
    assert rows[0][0] == rows[0][0b11] == rows[2][0] == group.identity


# --- affine lanes: many independent additions sharing one inversion


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_add_lanes_matches_reference_add(group):
    rng = random.Random(1987)
    P, Q, *ordinary = (group.scalar_mul(rng.randrange(1, group.q), group.generator) for _ in range(10))
    minus_P = group.scalar_mul(-1, P)
    # P + P, P + (-P), identity operands on either side and on both
    lanes = [(P, P), (P, minus_P), (minus_P, P), (None, Q), (Q, None), (None, None)]
    lanes += list(zip(ordinary[:4], ordinary[4:]))
    for _ in range(5):
        rng.shuffle(lanes)
        acc, pts = (list(side) for side in zip(*lanes))
        group._add_lanes(acc, pts)
        assert acc == [affine_add(group, a, b) for a, b in lanes]


@pytest.mark.parametrize("group", (P192, P256, BIG_TOY), ids=str)
def test_setup_multiples_match_scalar_mul(group):
    # a master set-up's Y is one fixed_multi_muls of one sum per scalar on
    # the generator (test_ringsig checks Y itself): here over edge scalars,
    # on a curve the generator comb's pair among them
    q, G = group.q, group.generator
    edges = [0, 1, 2, q - 1, q - 2, q, q + 5, -3]
    if not isinstance(group, ToyGroup):
        edges += comb_doubling_scalars(group, G.comb)
    with count_group_ops() as ops:
        assert group.fixed_multi_muls([[(k, G)] for k in edges]) == [reference_mul(group, k, G) for k in edges]
    assert ops.scalar_muls == len(edges)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_generator_multiples_have_one_operation_pattern(group, point_ops):
    G = group.generator

    def pattern(k, base=G):
        return point_ops(lambda: group.scalar_mul(k, base))

    rng = random.Random(2009)
    q = group.q
    scalars = [1, 2, q - 1, q - 2] + [rng.randrange(1, q) for _ in range(50)]
    # the generator's comb: its 16 columns on P-192 (24 on P-256), one
    # addition each, one from each of its tables per step of an 8-step
    # walk, 7 doublings between
    columns = {"p192": 16, "p256": 24}[group.group_id]
    assert columns == G.comb[0]
    assert {pattern(k) for k in scalars} == {(7, columns, 1)}
    # the pair on each curve whose last addition, 2**L times column L's c_L
    # from the last table (L = 8 on P-192, 16 on P-256), meets a partial sum
    # of k - 2**L * c_L = 2**L * c_L mod q: k = 2**(L+1) * c_L + M * q and q - k
    L = {"p192": 8, "p256": 16}[group.group_id]
    exceptions = comb_doubling_scalars(group, G.comb)
    assert len(exceptions) == 2 and sum(exceptions) == q
    k = max(exceptions, key=lambda k: k & 1)
    assert (k - (comb_columns(group, G, k)[L] << L + 1)) % q == 0
    assert k == {"p192": 0xFDFFFDFFFDFFFDFFFDFFFDFF9BDEFA36166BCBB1B6D22A31,
                 "p256": 0xFFFFFDFD00020002FDFFFFFDFFFFFDFF36B6F008F746DB8CDB2D6248F52B6FF3}[group.group_id]
    for k in exceptions:
        assert pattern(k) == (8, columns, 1)
    # any other base: its per-call row P..15P stays at width 4 whatever the
    # generator's width (one doubling, 7 mixed additions, one inversion),
    # then its bits(q)/4 digits, one at each of bits 0, 4, 8, ..., on a
    # chain that starts at the top digit: 4 doublings between additions
    base = group.hash_to_group("test-base", b"pattern")
    per_call = {"p192": (189, 55, 2), "p256": (253, 71, 2)}[group.group_id]
    assert per_call[:2] == (1 + 4 * (q.bit_length() // 4 - 1), 7 + q.bit_length() // 4)
    assert {pattern(k, base) for k in [1, q - 1] + scalars[4:]} == {per_call}
    # q = 17 mod 32: q - 2 ends in the digit -1 after a partial sum of -P
    assert q % 32 == 17
    for k in (2, q - 2):
        assert pattern(k, base) == (per_call[0] + 1, *per_call[1:])
    # a prepared base: its signed comb's 32 columns on 16 steps, most
    # significant first, two additions each (one per table) and a doubling
    # between, and no table to build
    prepared = group.prepare(base)
    assert {pattern(k, prepared) for k in scalars} == {(15, 32, 1)}
    # the one pair on each curve whose last addition, 2**16 times column
    # 16's c_16 from the second table, meets a partial sum of k - 2**16 *
    # c_16 = 2**16 * c_16 mod q: k = 2**17 * c_16 + q and q - k
    exceptions = comb_doubling_scalars(group, prepared.comb)
    assert len(exceptions) == 2 and sum(exceptions) == q
    k = max(exceptions, key=lambda k: k & 1)
    assert k == (comb_columns(group, prepared, k)[16] << 17) + q
    if group is P192:
        assert k == 0xFFFDFFFFFFFDFFFFFFFDFFFF99DCF8361469C9B1B4D02831
        assert q - k == 2**17 * comb_entry(group, prepared, 2 ** (comb_teeth(group, prepared) - 1) - 1)
    for k in exceptions:
        assert pattern(k, prepared) == (16, 32, 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_a_plain_point_equal_to_the_generator_takes_the_per_call_row(group, point_ops):
    # the base object sets the pattern, not its value: G read back off the
    # wire carries no rows, so it multiplies as any plain point does, to
    # the same values as the group's prepared G
    q, G = group.q, group.generator
    plain = group.decode_element(group.encode_element(G))
    assert plain == G and not hasattr(plain, "rows")
    E = group.prepare(group.scalar_mul(0xF00D, G))
    rng = random.Random(2032)
    for k in (0, 1, 2, q - 1, q - 2, rng.randrange(1, q)):
        a = rng.randrange(q)
        assert group.scalar_mul(k, plain) == group.scalar_mul(k, G)
        assert group.fixed_multi_muls([[(k, plain), (a, E)]])[0] == group.fixed_multi_muls([[(k, G), (a, E)]])[0]
        assert group.multi_mul([(k, plain), (a, E)]) == group.multi_mul([(k, G), (a, E)])
        # beside G itself it merges into one term
        assert group.multi_mul([(k, plain), (a, G)]) == group.scalar_mul(k + a, G)
    k = rng.randrange(3, q - 2)
    per_call = {"p192": (189, 55, 2), "p256": (253, 71, 2)}[group.group_id]
    assert point_ops(lambda: group.scalar_mul(k, plain)) == per_call
    assert point_ops(lambda: group.scalar_mul(k, G)) == (7, G.comb[0], 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_forge_on_a_prepared_key_has_one_operation_pattern(group, point_ops):
    E = group.prepare(group.scalar_mul(0xF00D, group.generator))
    patterns = {point_ops(lambda: forge_tuple(group, E, random.Random(seed))) for seed in range(50)}
    # one chain: b*E's comb columns at steps 15..0 (15 doublings, two
    # additions each, one per table) and a*G's columns, one addition each
    # at steps 15..0 from G's first table, and on P-256 its columns 16..23
    # at steps 7..0 from its third; and one inversion for U
    pattern = {"p192": (15, 48, 1), "p256": (15, 56, 1)}[group.group_id]
    assert patterns == {pattern}
    # step 0 adds E's columns 0 and 16, then G's: before E's column 16 the
    # partial sum is E's own, 2**16 * c_16 * E for b in E's pair, plus a's
    # columns above step 0, a +-1-digit sum over the bits of a that lie
    # off step 0, which no multiple of q is: the comb's own pair, whose walk
    # meets 2**16 * c_16 there, never doubles in a forge
    n, spacing = {"p192": (192, 16), "p256": (264, 24)}[group.group_id]
    assert digit_sums_of_q(group.q, [b for b in range(n) if b % spacing not in (0, 16)]) == []
    rng = random.Random(2005)
    for b in comb_doubling_scalars(group, E.comb):
        for a in [1, group.q - 1] + [rng.randrange(1, group.q) for _ in range(5)]:
            assert point_ops(lambda: group.fixed_multi_muls([[(b, E), (a, group.generator)]])[0]) == pattern


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_secret_scalars_run_one_opcode_path(group):
    # every walk a secret scalar takes runs the same opcodes of groups.py
    # for k and q - k, either parity, and any other scalar: the fold to
    # the odd one and each digit's entry and sign are arithmetic, so no
    # branch and no conditional expression reads the scalar
    bases = fixed_bases(group)
    G, comb, _, plain = (base for base, _ in bases)
    tag = _window_tag(group, 16)
    cases = {
        "G": lambda k, a: group.fixed_multi_muls([[(k, G)]]),
        "a mint's R and T": lambda k, a: group.fixed_multi_muls([[(k, plain)], [(k, tag)]]),
        "comb": lambda k, a: group.fixed_multi_muls([[(k, comb)]]),
        "plain": lambda k, a: group.fixed_multi_muls([[(k, plain)]]),
        "forge on a comb": lambda b, a: group.fixed_multi_muls([[(b, comb), (a, G)]]),
        "forge on a plain key": lambda b, a: group.fixed_multi_muls([[(b, plain), (a, G)]]),
        "setup": lambda k, a: group.fixed_multi_muls([[(k, G)], [(a, G)]]),
    }
    q, rng = group.q, random.Random(2033)
    # an even k and an odd a, each beside q minus it, then random pairs
    k, a = 2 * rng.randrange(1, q // 2), 2 * rng.randrange(1, q // 2) - 1
    scalars = [(k, a), (q - k, a), (k, q - a), (q - k, q - a)]
    scalars += [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(20)]
    for name, fn in cases.items():
        first = opcode_trace(groups, lambda: fn(*scalars[0]))
        for pair in scalars[1:]:
            assert opcode_trace(groups, lambda: fn(*pair)) == first, f"{name}: {pair} against {scalars[0]}"
    # the incomplete-addition pairs, which the pattern tests pin, are the
    # exceptions: G's comb pair, a ring key's comb pair, and 2 and q - 2 on
    # the per-call row; none is among the scalars above, and each takes
    # another path on its base alone
    assert not {m for pair in scalars for m in pair} & {m for _, special in bases for m in special}
    for name, (_, special) in (("G", bases[0]), ("comb", bases[1]), ("plain", bases[3])):
        first = opcode_trace(groups, lambda: cases[name](scalars[0][0], None))
        assert len(special) == 2
        for m in special:
            assert opcode_trace(groups, lambda: cases[name](m, None)) != first, f"{name}: {m}"


@st.composite
def comb_cases(draw):
    """(group, k, plain base, its comb): the comb is a ring key's, of a
    random multiple of G, or the generator's own.  k is 1, 2, q - 1,
    q - 2, the pair whose last addition doubles, a scalar whose columns
    all take + entries or all take - ones (and q minus it), or any
    scalar, negatives and multiples of q included.  The comb's walk
    reads all its tables on one chain as long as its offset: 16 steps
    for a ring key's two tables, 8 for the generator's two (P-192) or
    three (P-256)."""
    group = draw(st.sampled_from(CURVES))
    q = group.q
    if draw(st.booleans()):
        base = group.scalar_mul(draw(st.integers(1, q - 1)), group.generator)
        comb = group.prepare(base)
    else:
        comb = group.generator
        base = tuple(comb)
    spacing = comb.comb[0]
    n = spacing * comb_teeth(group, comb)
    # the low spacing bits of u = (k + 2**n - 1) / 2 give the columns' signs,
    # and |k| < q holds u within q / 2 of 2**(n-1)
    high = draw(st.integers(((1 << n - 1) - q // 2 >> spacing) + 1, ((1 << n - 1) + q // 2 >> spacing) - 1))
    uniform = [2 * (high << spacing | low) - (2**n - 1) for low in (0, 2**spacing - 1)]
    special = [1, 2, q - 1, q - 2, *comb_doubling_scalars(group, comb.comb)]
    special += [m for k in uniform if 0 < k < q for m in (k, q - k)]
    k = draw(st.one_of(st.sampled_from(special), st.integers(-2 * q, 2 * q)))
    return group, k, base, comb


@PROPERTY
@given(comb_cases(), st.data())
def test_comb_walks_match_double_and_add(case, data):
    group, k, base, comb = case
    q, G = group.q, group.generator
    expected = double_and_add(group, k, base)
    assert group.scalar_mul(k, comb) == expected
    assert group.multi_mul([(k, comb)]) == expected
    # a forge's U = b*E + a*G, cancellations included
    a = data.draw(st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(-2 * q, 2 * q)))
    assert group.fixed_multi_muls([[(k, comb), (a, G)]])[0] == affine_add(group, expected, double_and_add(group, a, G))


@PROPERTY
@given(st.sampled_from(CURVES), st.booleans(), st.data())
def test_comb_walk_on_either_chain_matches_double_and_add(group, generator, data):
    # a random scalar on a random key's comb or on the generator's: alone,
    # its walk reads every table on one pattern as long as its offset, one
    # addition per column (16 steps and 32 additions on a key, 8 steps and
    # 16 or 24 on G); beside a plain point's full-width scalar, whose chain
    # is longer, it reads the first table alone
    q, G = group.q, group.generator
    if generator:
        base = comb = G
    else:
        base = double_and_add(group, data.draw(st.integers(1, q - 1)), G)
        comb = group.prepare(base)
    k, j = data.draw(st.integers(1, q - 1)), data.draw(st.integers(2**(q.bit_length() - 1), q - 1))
    expected = double_and_add(group, k, base)
    with count_group_ops() as ops:
        assert group.scalar_mul(k, comb) == expected
    spacing, offset = comb.comb
    assert (ops.doublings, ops.additions) == (offset - 1, spacing)
    plain = group.hash_to_group("test-base", b"long chain")
    assert group.multi_mul([(k, comb), (j, plain)]) == affine_add(group, expected, double_and_add(group, j, plain))


@st.composite
def tag_cases(draw):
    """(group, k, tag): a window tag's comb and k among 1, 2, q - 1,
    q - 2, the comb's pair whose last addition doubles, or any scalar,
    negatives and multiples of q included."""
    group = draw(st.sampled_from(CURVES))
    q, tag = group.q, _window_tag(group, draw(st.integers(0, 1)))
    k = draw(st.one_of(st.sampled_from([1, 2, q - 1, q - 2, *comb_doubling_scalars(group, tag.comb)]),
                       st.integers(-2 * q, 2 * q)))
    return group, k, tag


@PROPERTY
@given(tag_cases(), st.data())
def test_window_tags_match_double_and_add(case, data):
    group, k, tag = case
    q, G = group.q, group.generator
    expected = double_and_add(group, k, tag)
    assert group.scalar_mul(k, tag) == group.multi_mul([(k, tag)]) == expected
    # T, and the generator's digits after it in one accumulator
    a = data.draw(st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(-2 * q, 2 * q)))
    assert group.fixed_multi_muls([[(k, tag), (a, G)]])[0] == affine_add(group, expected, double_and_add(group, a, G))


@PROPERTY
@given(comb_cases(), st.data())
def test_multi_mul_with_a_comb_matches_double_and_add(case, data):
    # the comb beside the generator, fresh points, a transient key's rows
    # and its own plain point, which merges into it; maybe to a sum of 0
    group, k, base, comb = case
    q, lam, G = group.q, short_bits(group), group.generator
    key = group.hash_to_group("test-base", b"comb")
    bases = [G, key, group.prepare(key, short=True), comb, base]
    scalars = st.one_of(st.just(k), st.integers(1, 2**lam - 1), st.integers(-2 * q, 2 * q))
    pairs = [(k, comb)] + data.draw(st.lists(st.tuples(scalars, st.sampled_from(bases)), max_size=5))
    if data.draw(st.booleans()):
        pairs.append((-sum(m for m, pt in pairs if pt == base), base))
    terms = (double_and_add(group, m, pt) for m, pt in pairs)
    with count_group_ops() as ops:
        assert group.multi_mul(pairs) == reduce(reference_add(group), terms, group.identity)
    assert ops.scalar_muls == len(pairs)


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


# --- multi_mul across layouts: the generator's comb, a ring key's comb,
# --- transient rows and fresh bases in one call, against double-and-add


def reference_mul(group, k, pt):
    if isinstance(group, ToyGroup):
        return k * pt % group.q
    return double_and_add(group, k, pt)


@st.composite
def layout_cases(draw):
    """(group, pairs) mixing the generator's comb, a ring key's signed
    comb, a transient key's rows 16 bits apart and fresh points.  A point
    can repeat, in one layout or in two (the transient key and its plain
    point), and scalars are 0 or sit around the tables' and the key
    rows' spacings, lam and full width: past a transient key's rows
    included."""
    group = draw(st.sampled_from(MSM_GROUPS))
    q, L, lam = group.q, slice_bits(group), short_bits(group)
    G = group.generator
    key = group.scalar_mul(0xBEEF, G)
    ring_key = group.prepare(group.scalar_mul(7, G))
    bases = [G, key, group.prepare(key, short=True), ring_key]
    bases += [group.scalar_mul(k, G) for k in (5, 0xF00D)]
    widths = [1, 8, 15, 16, 17, L, L + 1, lam - 1, lam, lam + 1, q.bit_length()]
    bits = st.sampled_from([n for n in widths if 0 < n <= q.bit_length()])
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(bits)
        k = draw(st.one_of(st.just(0), st.integers(1 << (n - 1), min((1 << n) - 1, q - 1))))
        pairs.append((k, draw(st.sampled_from(bases))))
    return group, pairs


@PROPERTY
@given(layout_cases())
def test_multi_mul_across_layouts_matches_double_and_add(case):
    group, pairs = case
    terms = (reference_mul(group, k, pt) for k, pt in pairs)
    expected = reduce(reference_add(group), terms, group.identity)
    with count_group_ops() as ops:
        assert group.multi_mul(pairs) == expected
    assert ops.scalar_muls == len(pairs)


def comb_ring(group, seed, r, msg):
    """A registry holding the r keys of a signature over ``msg`` prepared,
    its signer's key included, and the signature, its U_i as bytes."""
    mk = setup(group, n=16, rng=random.Random(seed), manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    ring = [f"m:car-{i}" for i in range(r)]
    for id_str in ring:
        registry.extract_pubkey(id_str)
    sig = ring_sign(msg, ring, keygen(mk, ring[r // 2]), r // 2, registry, random.Random(seed))
    # the first acceptance prepares the signer's key, which was cached plain
    assert ring_verify(msg, sig, registry)
    assert all(group.has_comb(registry._cache[id_str]) for id_str in ring)
    group.scalar_mul(1, group.generator)  # build the table outside the count
    return registry, RingSignature.from_bytes(sig.to_bytes(group), group)


def comb_tuple_additions(group, sig):
    """The additions of tuple i's own sum (m_i/v_i)*P - (H1(U_i)/v_i)*E_i:
    the key comb's 32 columns, two per step, and G's 16 columns (24 on
    P-256), whatever the scalars."""
    return len(sig.tuples) * (32 + group.generator.comb[0])


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_ring_verify_over_prepared_keys_runs_one_comb_chain_per_tuple(group):
    r = 4
    registry, sig = comb_ring(group, 12, r, b"combs")
    # each tuple is a sum of its own, compared with U_i by encoding: its
    # key's comb sets a 16-step chain, 15 doublings, and the r sums share
    # one inversion; no U_i is decoded
    with count_group_ops() as ops:
        assert ring_verify(b"combs", sig, registry)
    assert (ops.doublings, ops.inversions, ops.roots) == (15 * r, 1, 0)
    assert ops.additions == comb_tuple_additions(group, sig)
    assert (ops.scalar_muls, ops.extractions) == (3 * r, r)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_ring_verify_of_one_prepared_key_runs_the_comb_chain(group):
    registry, sig = comb_ring(group, 14, 1, b"one")
    with count_group_ops() as ops:
        assert ring_verify(b"one", sig, registry)
    assert (ops.doublings, ops.additions, ops.inversions, ops.roots) == (
        15, comb_tuple_additions(group, sig), 1, 0)
    assert (ops.scalar_muls, ops.extractions) == (3, 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_ring_verify_with_one_plain_key_stays_on_the_batch(group, point_ops):
    r = 4
    registry, sig = comb_ring(group, 15, r, b"plain")
    E = registry._cache[sig.ids[1]] = tuple(registry._cache[sig.ids[1]])  # the same key, no comb
    # acceptance prepares the key again, at the cost of a comb build
    comb_doublings, _, comb_inversions = point_ops(lambda: group.prepare(E))
    # one sum over all 3r pairs: every U_i decoded, and the plain key's
    # full-width scalar sets one chain of up to bits(q) steps, shared by
    # the other terms, plus a doubling for each fresh row (E, U_1..U_(r-1))
    with count_group_ops() as ops:
        assert ring_verify(b"plain", sig, registry)
    assert ops.roots == r
    bits = group.q.bit_length()
    assert bits - 32 < ops.doublings - comb_doublings <= bits - 1 + r
    assert ops.inversions - comb_inversions == 1  # the fresh rows; the identity needs none
    assert (ops.scalar_muls, ops.extractions) == (3 * r, r)
    # acceptance prepares the key again: the next check is back on the combs
    with count_group_ops() as ops:
        assert ring_verify(b"plain", sig, registry)
    assert (ops.doublings, ops.roots) == (15 * r, 0)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_warm_ring_sign_walks_each_key_comb_once(group, point_ops):
    mk = setup(group, n=16, rng=random.Random(13), manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    r = 4
    ring = [f"m:car-{i}" for i in range(r)]
    sk = keygen(mk, ring[2])
    for _ in range(2):  # the second use prepares every key forged against
        ring_sign(b"warm", ring, sk, 2, registry, random.Random(1))
    assert [isinstance(registry._cache[id_str], _PreparedPoint) for id_str in ring] == [True, True, False, True]
    group.scalar_mul(1, group.generator)  # build the table outside the count
    patterns = {point_ops(lambda: ring_sign(b"warm", ring, sk, 2, registry, random.Random(seed)))
                for seed in range(10)}
    # r - 1 forges at (15, 32 + c) made affine together by one inversion,
    # and the signer's l*G at (7, c, 1), c the generator's 16 columns (24 on
    # P-256): 52 doublings on either curve
    assert patterns == {{"p192": (52, 160, 2), "p256": (52, 192, 2)}[group.group_id]}
