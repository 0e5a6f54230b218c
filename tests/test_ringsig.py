"""Unit tests for keys, forged tuples, signing, verification, wire format."""

import random

import pytest

from avcs.errors import DegenerateKeyError, ParseError, UnknownManufactoryError
from avcs.groups import P192, ToyGroup, count_group_ops
from avcs.ringsig import (
    PRODUCTION,
    HashSuite,
    IdentityKey,
    ManufactoryRegistry,
    MasterKeyPair,
    RingSignature,
    forge_tuple,
    keygen,
    ring_sign,
    ring_verify,
    setup,
    split_id,
    verify_tuple,
)
from helpers import ScriptedRng, bits_from_map, random_bits_fn, stub_chain, stub_h1

TOY = ToyGroup(23)
BIG_TOY = ToyGroup(2147483647)

TOY_SUITE = HashSuite(
    bits=bits_from_map(
        {
            "m:a": (1, 0, 1, 0),
            "m:b": (0, 1, 1, 0),
            "m:c": (0, 0, 1, 1),
            "m:zero": (0, 0, 0, 0),
        }
    )
)


def toy_registry():
    registry = ManufactoryRegistry(TOY, suite=TOY_SUITE)
    registry.register("m", (3, 5, 7, 11))
    return registry


def toy_master():
    return MasterKeyPair("m", TOY, 4, (3, 5, 7, 11), (3, 5, 7, 11))


def big_toy_setup(seed=5, n=256, mfr="m"):
    rng = random.Random(seed)
    mk = setup(BIG_TOY, n=n, rng=rng, manufactory_id=mfr)
    registry = ManufactoryRegistry(BIG_TOY)
    registry.register_master(mk)
    return mk, registry


# ---------------------------------------------------------------------------
# setup / keygen / extract
# ---------------------------------------------------------------------------


def test_setup_toy_vector():
    script = [(x, (1, 23)) for x in (3, 5, 7, 11)]
    mk = setup(TOY, n=4, rng=ScriptedRng(script), manufactory_id="m")
    assert mk.X == (3, 5, 7, 11)
    assert mk.Y == (3, 5, 7, 11)  # P = 1 in the toy group


def test_setup_defining_relation():
    mk, _ = big_toy_setup(seed=11)
    assert len(mk.X) == 256
    for x, y in zip(mk.X, mk.Y):
        assert BIG_TOY.scalar_mul(x, BIG_TOY.generator) == y
    mk192 = setup(P192, n=4, rng=random.Random(1), manufactory_id="m")
    for x, y in zip(mk192.X, mk192.Y):
        assert P192.scalar_mul(x, P192.generator) == y


def test_setup_distinct_seeds():
    a = setup(BIG_TOY, n=8, rng=random.Random(1), manufactory_id="m")
    b = setup(BIG_TOY, n=8, rng=random.Random(2), manufactory_id="m")
    assert a.X != b.X


def test_keygen_toy_hand_value():
    key = keygen(toy_master(), "m:a", suite=TOY_SUITE)
    assert key.d == (3 + 7) % 23 == 10


def test_keygen_degenerate_zero_bits():
    with pytest.raises(DegenerateKeyError):
        keygen(toy_master(), "m:zero", suite=TOY_SUITE)


def test_keygen_deterministic():
    mk, _ = big_toy_setup()
    assert keygen(mk, "m:alpha") == keygen(mk, "m:alpha")


def test_keygen_rejects_foreign_or_malformed_id():
    mk = toy_master()
    with pytest.raises(UnknownManufactoryError):
        keygen(mk, "other:a", suite=TOY_SUITE)
    with pytest.raises(ValueError):
        keygen(mk, "no-colon", suite=TOY_SUITE)
    with pytest.raises(ValueError):
        split_id(":empty-prefix")


def test_extract_toy_hand_value():
    assert toy_registry().extract_pubkey("m:a") == 10


def test_extract_matches_keygen_for_100_ids():
    mk, registry = big_toy_setup(seed=21)
    for i in range(100):
        id_str = f"m:vehicle-{i}"
        d = keygen(mk, id_str).d
        assert registry.extract_pubkey(id_str) == BIG_TOY.scalar_mul(d, BIG_TOY.generator)


def test_extract_consumes_no_scalar_muls():
    _, registry = big_toy_setup(seed=3)
    with count_group_ops() as ops:
        registry.extract_pubkey("m:affordable")
    assert ops.scalar_muls == 0
    assert ops.extractions == 1


def test_extract_unknown_manufactory():
    with pytest.raises(UnknownManufactoryError):
        toy_registry().extract_pubkey("ghost:a")


def test_extract_degenerate():
    with pytest.raises(DegenerateKeyError):
        toy_registry().extract_pubkey("m:zero")


def test_extract_cache_counts_every_call():
    _, registry = big_toy_setup(seed=4)
    with count_group_ops() as ops:
        first = registry.extract_pubkey("m:x")
        second = registry.extract_pubkey("m:x")
    assert first == second
    assert ops.extractions == 2
    assert "m:x" in registry._cache


# ---------------------------------------------------------------------------
# forged tuples
# ---------------------------------------------------------------------------


def test_forge_worked_example():
    # E=10, a=4, b=6 under the stub tuple hash: U = 4 + 60 = 64 = 18
    # (mod 23), H1(18) = 9, b^-1 = 4, v = -36 = 10, m = 40 = 17
    rng = ScriptedRng([(4, (1, 23)), (6, (1, 23))])
    stub = HashSuite(h1=stub_h1)
    m, U, v = forge_tuple(TOY, 10, rng, suite=stub)
    assert (m, U, v) == (bytes([17]), 18, 10)
    assert stub_h1(TOY, U) == 9
    assert verify_tuple(TOY, m, U, v, 10, suite=stub)
    assert not verify_tuple(TOY, bytes([m[0] ^ 1]), U, v, 10, suite=stub)


def test_forge_always_verifies():
    rng = random.Random(77)
    for group in (TOY, BIG_TOY):
        for _ in range(50):
            E = group.scalar_mul(rng.randrange(1, group.q), group.generator)
            m, U, v = forge_tuple(group, E, rng)
            assert verify_tuple(group, m, U, v, E)
    E = P192.scalar_mul(rng.randrange(1, P192.q), P192.generator)
    m, U, v = forge_tuple(P192, E, rng)
    assert verify_tuple(P192, m, U, v, E)


def test_forge_costs_two_muls():
    rng = random.Random(3)
    E = BIG_TOY.scalar_mul(rng.randrange(1, BIG_TOY.q), BIG_TOY.generator)
    with count_group_ops() as ops:
        forge_tuple(BIG_TOY, E, rng)
    assert ops.scalar_muls == 2


def test_forge_rejects_identity_pubkey():
    with pytest.raises(DegenerateKeyError):
        forge_tuple(TOY, TOY.identity, random.Random(1))


def test_forge_distinct_outputs():
    rng = random.Random(9)
    assert forge_tuple(BIG_TOY, 12345, rng) != forge_tuple(BIG_TOY, 12345, rng)


def test_tuple_soundness_random_trials():
    # acceptance odds for a random tuple are about 1/q
    group = ToyGroup(10007)
    rng = random.Random(123)
    hits = 0
    for _ in range(10_000):
        m = rng.randrange(group.q).to_bytes(2, "big")
        U = rng.randrange(group.q)
        v = rng.randrange(group.q)
        E = rng.randrange(1, group.q)
        hits += verify_tuple(group, m, U, v, E)
    assert hits < 5

    rng = random.Random(5)
    hits23 = sum(
        verify_tuple(
            TOY,
            rng.randrange(23).to_bytes(1, "big"),
            rng.randrange(23),
            rng.randrange(23),
            rng.randrange(1, 23),
        )
        for _ in range(10_000)
    )
    # expected 10000/23 = 435; allow generous binomial slack
    assert abs(hits23 - 10_000 / 23) < 150

    rng = random.Random(6)
    for _ in range(200):
        m = rng.randrange(P192.q).to_bytes(P192.scalar_byte_len, "big")
        U = P192.scalar_mul(rng.randrange(1, P192.q), P192.generator)
        v = rng.randrange(P192.q)
        E = P192.scalar_mul(rng.randrange(1, P192.q), P192.generator)
        assert not verify_tuple(P192, m, U, v, E)


# ---------------------------------------------------------------------------
# signing and verification
# ---------------------------------------------------------------------------


def make_big_toy_ring(registry, mk, r, seed):
    rng = random.Random(seed)
    ring = [f"m:veh-{seed}-{i}" for i in range(r)]
    pos = rng.randrange(r)
    signer = keygen(mk, ring[pos])
    return ring, signer, pos


def test_sign_verify_round_trip_every_position():
    mk, registry = big_toy_setup(seed=31)
    msg = b"brake hard"
    ring = [f"m:veh-{i}" for i in range(5)]
    for pos in range(5):
        signer = keygen(mk, ring[pos])
        sig = ring_sign(msg, ring, signer, pos, registry, random.Random(pos))
        assert ring_verify(msg, sig, registry)
        assert not ring_verify(b"brake soft", sig, registry)


def test_sign_verify_on_curve():
    mk = setup(P192, n=16, rng=random.Random(8), manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    ring = ["m:one", "m:two", "m:three"]
    signer = keygen(mk, "m:two")
    sig = ring_sign(b"curve msg", ring, signer, 1, registry, random.Random(2))
    assert ring_verify(b"curve msg", sig, registry)


def test_hash_suite_travels_with_registry():
    # signer and verifier take every hash role from the registry, so a
    # signature made under a stub suite verifies only under that suite
    mk = setup(BIG_TOY, n=8, rng=random.Random(17), manufactory_id="m")
    stub = HashSuite(bits=random_bits_fn(seed=17), h1=stub_h1, chain=stub_chain)
    stub_registry = ManufactoryRegistry(BIG_TOY, suite=stub)
    stub_registry.register_master(mk)
    production_registry = ManufactoryRegistry(BIG_TOY)
    production_registry.register_master(mk)
    assert production_registry.suite is PRODUCTION

    ring = ["m:p", "m:q", "m:r"]
    signer = keygen(mk, "m:q", suite=stub)
    sig = ring_sign(b"suite", ring, signer, 1, stub_registry, random.Random(3))
    assert ring_verify(b"suite", sig, stub_registry)
    assert not ring_verify(b"suite", sig, production_registry)


def test_singleton_ring():
    mk, registry = big_toy_setup(seed=41)
    signer = keygen(mk, "m:solo")
    sig = ring_sign(b"alone", ["m:solo"], signer, 0, registry, random.Random(1))
    assert sig.r == 1 and sig.x == 1
    assert ring_verify(b"alone", sig, registry)


def test_sign_argument_validation():
    mk, registry = big_toy_setup(seed=51)
    signer = keygen(mk, "m:a")
    with pytest.raises(ValueError):
        ring_sign(b"x", [], signer, 0, registry, random.Random(1))
    with pytest.raises(ValueError):
        ring_sign(b"x", ["m:a"], signer, 1, registry, random.Random(1))
    with pytest.raises(ValueError):
        ring_sign(b"x", ["m:b", "m:a"], signer, 0, registry, random.Random(1))
    with pytest.raises(UnknownManufactoryError):
        ring_sign(b"x", ["m:a", "ghost:b"], signer, 0, registry, random.Random(1))


def test_scalar_mul_counts_exact():
    mk, registry = big_toy_setup(seed=61)
    for r in range(1, 11):
        ring, signer, pos = make_big_toy_ring(registry, mk, r, seed=r)
        with count_group_ops() as sign_ops:
            sig = ring_sign(b"count me", ring, signer, pos, registry, random.Random(r))
        assert sign_ops.scalar_muls == 2 * r - 1
        assert sign_ops.extractions == r
        with count_group_ops() as verify_ops:
            assert ring_verify(b"count me", sig, registry)
        assert verify_ops.scalar_muls == 3 * r
        assert verify_ops.extractions == r


def test_scalar_mul_counts_exact_p192():
    mk = setup(P192, n=8, rng=random.Random(71), manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    for r in (1, 4):
        ring = [f"m:count-{i}" for i in range(r)]
        signer = keygen(mk, ring[0])
        with count_group_ops() as sign_ops:
            sig = ring_sign(b"count", ring, signer, 0, registry, random.Random(r))
        assert sign_ops.scalar_muls == 2 * r - 1
        with count_group_ops() as verify_ops:
            assert ring_verify(b"count", sig, registry)
        assert verify_ops.scalar_muls == 3 * r


def test_chain_closure_is_cyclic():
    # re-walking the published equation from any recomputed start closes
    from avcs.ringsig import _chain_hash, _xor

    mk, registry = big_toy_setup(seed=81)
    ring, signer, pos = make_big_toy_ring(registry, mk, 6, seed=9)
    msg = b"cyclic"
    sig = ring_sign(msg, ring, signer, pos, registry, random.Random(99))
    walk = {sig.x - 1: sig.w}
    j = sig.x - 1
    for _ in range(sig.r):
        nxt = (j + 1) % sig.r
        walk[nxt] = _chain_hash(BIG_TOY, msg, _xor(walk[j], sig.tuples[j][0]))
        j = nxt
    for start in range(sig.r):
        w = walk[start]
        j = start
        for _ in range(sig.r):
            w = _chain_hash(BIG_TOY, msg, _xor(w, sig.tuples[j][0]))
            j = (j + 1) % sig.r
        assert w == walk[start]


def test_published_index_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    mk, registry = big_toy_setup(seed=91)
    ring = [f"m:u-{i}" for i in range(5)]
    signer = keygen(mk, ring[2])
    rng = random.Random(404)
    counts = [0] * 5
    widths = set()
    for _ in range(1000):
        sig = ring_sign(b"uniform?", ring, signer, 2, registry, rng)
        counts[sig.x - 1] += 1
        widths.update((len(m), len(sig.w)) for m, _, _ in sig.tuples)
    _, p_value = scipy_stats.chisquare(counts)
    assert p_value > 0.01
    assert widths == {(4, 4)}  # signer tuple indistinguishable by shape


def test_mutation_fuzz_rejects():
    mk, registry = big_toy_setup(seed=101)
    ring, signer, pos = make_big_toy_ring(registry, mk, 4, seed=10)
    msg = b"fuzz me"
    sig = ring_sign(msg, ring, signer, pos, registry, random.Random(5))
    blob = sig.to_bytes(BIG_TOY)
    rng = random.Random(6)
    rejected = 0
    for _ in range(200):
        mutated = bytearray(blob)
        i = rng.randrange(len(mutated))
        mutated[i] ^= 1 << rng.randrange(8)
        try:
            parsed = RingSignature.from_bytes(bytes(mutated), BIG_TOY)
        except ParseError:
            rejected += 1
            continue
        if not ring_verify(msg, parsed, registry):
            rejected += 1
    assert rejected == 200


def test_verify_rejects_swapped_id():
    mk, registry = big_toy_setup(seed=111)
    ring, signer, pos = make_big_toy_ring(registry, mk, 3, seed=11)
    sig = ring_sign(b"swap", ring, signer, pos, registry, random.Random(12))
    other = (pos + 1) % 3
    swapped_ids = list(sig.ids)
    swapped_ids[other] = "m:intruder"
    swapped = RingSignature(sig.x, sig.w, tuple(swapped_ids), sig.tuples)
    assert not ring_verify(b"swap", swapped, registry)


def test_verify_rejects_perturbed_glue():
    # all tuples still verify; only the ring equation catches this
    mk, registry = big_toy_setup(seed=121)
    ring, signer, pos = make_big_toy_ring(registry, mk, 3, seed=13)
    sig = ring_sign(b"glue", ring, signer, pos, registry, random.Random(14))
    bad = RingSignature(sig.x, bytes([sig.w[0] ^ 0x40]) + sig.w[1:], sig.ids, sig.tuples)
    for (m, U, v), id_str in zip(bad.tuples, bad.ids):
        assert verify_tuple(BIG_TOY, m, U, v, registry.extract_pubkey(id_str))
    assert not ring_verify(b"glue", bad, registry)


def test_verify_rejects_unknown_manufactory_and_bad_shape():
    mk, registry = big_toy_setup(seed=131)
    ring, signer, pos = make_big_toy_ring(registry, mk, 2, seed=15)
    sig = ring_sign(b"shape", ring, signer, pos, registry, random.Random(16))
    foreign = RingSignature(sig.x, sig.w, ("ghost:a", sig.ids[1]), sig.tuples)
    assert not ring_verify(b"shape", foreign, registry)
    short_w = RingSignature(sig.x, sig.w[:-1], sig.ids, sig.tuples)
    assert not ring_verify(b"shape", short_w, registry)
    bad_x = RingSignature(5, sig.w, sig.ids, sig.tuples)
    assert not ring_verify(b"shape", bad_x, registry)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_wire_round_trip():
    mk, registry = big_toy_setup(seed=141)
    for r in (1, 3, 7):
        ring, signer, pos = make_big_toy_ring(registry, mk, r, seed=r + 20)
        sig = ring_sign(b"wire", ring, signer, pos, registry, random.Random(r))
        blob = sig.to_bytes(BIG_TOY)
        assert RingSignature.from_bytes(blob, BIG_TOY) == sig


def test_wire_rejects_truncation_everywhere():
    mk, registry = big_toy_setup(seed=151)
    ring, signer, pos = make_big_toy_ring(registry, mk, 3, seed=30)
    blob = ring_sign(b"trunc", ring, signer, pos, registry, random.Random(1)).to_bytes(BIG_TOY)
    for cut in range(len(blob)):
        with pytest.raises(ParseError):
            RingSignature.from_bytes(blob[:cut], BIG_TOY)
    with pytest.raises(ParseError):
        RingSignature.from_bytes(blob + b"\x00", BIG_TOY)


def test_wire_rejects_semantic_garbage():
    mk, registry = big_toy_setup(seed=161)
    ring, signer, pos = make_big_toy_ring(registry, mk, 2, seed=40)
    sig = ring_sign(b"bad", ring, signer, pos, registry, random.Random(2))
    blob = bytearray(sig.to_bytes(BIG_TOY))

    zero_x = blob.copy()
    zero_x[2:4] = (0).to_bytes(2, "big")
    with pytest.raises(ParseError):
        RingSignature.from_bytes(bytes(zero_x), BIG_TOY)

    big_x = blob.copy()
    big_x[2:4] = (3).to_bytes(2, "big")
    with pytest.raises(ParseError):
        RingSignature.from_bytes(bytes(big_x), BIG_TOY)

    # v >= q in the first tuple
    sbl = BIG_TOY.scalar_byte_len
    tuples_at = len(blob) - 2 * (sbl + BIG_TOY.element_byte_len + sbl)
    bad_v = blob.copy()
    bad_v[tuples_at + 2 * sbl : tuples_at + 3 * sbl] = b"\xff" * sbl
    with pytest.raises(ParseError):
        RingSignature.from_bytes(bytes(bad_v), BIG_TOY)

    # id without a manufactory prefix fails the syntactic check at parse
    no_colon = RingSignature(sig.x, sig.w, ("nocolon", sig.ids[1]), sig.tuples)
    with pytest.raises(ParseError):
        RingSignature.from_bytes(no_colon.to_bytes(BIG_TOY), BIG_TOY)

    # id bytes that are not UTF-8
    bad_utf8 = blob.copy()
    first_id_at = 4 + sbl + 2
    bad_utf8[first_id_at] = 0xFF
    with pytest.raises(ParseError):
        RingSignature.from_bytes(bytes(bad_utf8), BIG_TOY)
