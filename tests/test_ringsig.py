"""Unit tests for keys, forged tuples, signing, verification, wire format."""

import functools
import random
import struct

import pytest

from avcs.errors import DegenerateKeyError, ParseError, UnknownManufactoryError
from avcs.groups import P192, P256, ToyGroup, _PreparedPoint, batch_inverse, count_group_ops, expand_bytes
from avcs.hardware import join
from avcs.ringsig import (
    MAX_ID_BYTES,
    MAX_RING,
    PRODUCTION,
    HashSuite,
    IdentityKey,
    ManufactoryRegistry,
    MasterKeyPair,
    RingSignature,
    forge_tuple,
    h0_bits,
    keygen,
    ring_sign,
    ring_verify,
    setup,
    split_id,
    verify_tuple,
)
from helpers import ScriptedRng, bits_from_map, chi_square, random_bits_fn, stub_chain, stub_h1

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
    # the production length, one fixed_multi_muls over X on the generator's comb
    for group in (P192, P256):
        with count_group_ops() as ops:
            mk = setup(group, rng=random.Random(2), manufactory_id="m")
        assert ops.scalar_muls == len(mk.Y) == 256
        for x, y in zip(mk.X, mk.Y):
            assert group.scalar_mul(x, group.generator) == y


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


def reference_h0_bits(id_str, n):
    """H0 read one bit at a time, most significant first."""
    raw = expand_bytes("H0", id_str.encode("utf-8"), (n + 7) // 8)
    return tuple((raw[i // 8] >> (7 - i % 8)) & 1 for i in range(n))


def test_h0_bits_matches_the_bitwise_definition():
    for n in [*range(1, 10), 255, 256]:
        for id_str in ("m:a", "m:vehicle-7", "fleet:ghost-0042", "m:ü"):
            assert tuple(h0_bits(id_str, n)) == reference_h0_bits(id_str, n)


@functools.cache
def curve_world(group):
    mk = setup(group, rng=random.Random(f"table/{group.group_id}"), manufactory_id="m")
    return mk, [f"m:vehicle-{i}" for i in range(50)]


@pytest.mark.parametrize("group", [P192, P256], ids=str)
def test_extraction_table_matches_keygen_on_curves(group):
    mk, ids = curve_world(group)
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    for id_str in ids:
        assert registry.extract_pubkey(id_str) == group.scalar_mul(keygen(mk, id_str).d, group.generator)


@pytest.mark.parametrize("group", [P192, P256], ids=str)
def test_extraction_table_size_and_operation_counts(group, point_ops):
    mk, ids = curve_world(group)
    registry = ManufactoryRegistry(group)
    # one-point entries are Y's own points; the build's lane work is the
    # README operation table's register_master row
    registry.register_master(mk)
    n, rows = registry._tables["m"]
    assert n == 256 and len(rows) == 64 and {len(row) for row in rows} == {16}
    assert sum(entry is not None for row in rows for entry in row) == 960
    assert [row[1 << t] for row in rows for t in range(4)] == list(mk.Y)
    for id_str in ids[:10]:
        bits = h0_bits(id_str)
        chunks = sum(any(bits[i : i + 4]) for i in range(0, 256, 4))
        assert point_ops(lambda: registry.derive_pubkey(id_str)) == (0, chunks, 1)
        assert chunks <= 64


def test_extraction_table_on_short_toy_vectors():
    # n = 1..9: the last row is short unless 4 divides n
    for n in range(1, 10):
        mk, registry = big_toy_setup(seed=n, n=n)
        rows = registry._tables["m"][1]
        assert [len(row) for row in rows] == [16] * (n // 4) + [2 ** (n % 4)] * (n % 4 > 0)
        for i in range(20):
            id_str = f"m:short-{i}"
            try:
                d = keygen(mk, id_str).d
            except DegenerateKeyError:
                with pytest.raises(DegenerateKeyError):
                    registry.extract_pubkey(id_str)
                continue
            assert registry.extract_pubkey(id_str) == d


def test_extraction_table_with_a_point_and_its_negation():
    x0, x1 = 0xC0FFEE, 0xBEEF
    X = (x0, P192.q - x0, x1)
    mk = MasterKeyPair("m", P192, 3, X, tuple(P192.scalar_mul(x, P192.generator) for x in X))
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    assert registry._tables["m"][1][0][0b011] is None
    seen = set()
    for i in range(40):
        id_str = f"m:pair-{i}"
        bits = tuple(h0_bits(id_str, 3))
        seen.add(bits)
        if not sum(x for bit, x in zip(bits, X) if bit) % P192.q:
            # no bit, or x0 + (q - x0) = 0: both halves of the key pair are degenerate
            with pytest.raises(DegenerateKeyError):
                keygen(mk, id_str)
            with pytest.raises(DegenerateKeyError):
                registry.extract_pubkey(id_str)
        else:
            expected = P192.scalar_mul(keygen(mk, id_str).d, P192.generator)
            assert registry.extract_pubkey(id_str) == expected
    assert (1, 1, 0) in seen and (1, 1, 1) in seen


def test_register_replaces_the_table_and_clears_the_cache():
    first, registry = big_toy_setup(seed=31)
    second, _ = big_toy_setup(seed=32)
    assert registry.extract_pubkey("m:x") == keygen(first, "m:x").d
    registry.register_master(second)
    assert not registry._cache
    assert registry.extract_pubkey("m:x") == keygen(second, "m:x").d


def test_key_cache_keeps_the_ids_kept_last(monkeypatch):
    assert ManufactoryRegistry._CACHED_KEYS == 1024  # the README's bound
    monkeypatch.setattr(ManufactoryRegistry, "_CACHED_KEYS", 8)
    mk, registry = big_toy_setup(seed=33)
    signer_side = ManufactoryRegistry(BIG_TOY)
    signer_side.register_master(mk)
    # every ring holds one regular and two ids that are never seen again
    sigs = []
    for n in range(12):
        ring = ["m:regular", f"m:once-{n}-a", f"m:once-{n}-b"]
        sig = ring_sign(b"lru", ring, keygen(mk, ring[1]), 1, signer_side, random.Random(n))
        assert ring_verify(b"lru", sig, registry)
        assert len(registry._cache) == min(1 + 2 * (n + 1), 8)
        sigs.append(sig)
    # the regular survives the stream; of the one-off ids, the last 7 kept remain
    assert list(registry._cache) == [
        "m:once-8-b", "m:once-9-a", "m:once-9-b", "m:once-10-a", "m:once-10-b",
        "m:regular", "m:once-11-a", "m:once-11-b",
    ]

    # a rejected signature over cached ids neither adds an id nor moves one
    before = list(registry._cache.items())
    old = sigs[-2]
    (m, U, v), *rest = old.tuples
    bad_v = RingSignature(old.x, old.w, old.ids, ((m, U, (v + 1) % BIG_TOY.q), *rest))
    stranger = RingSignature(old.x, old.w, ("m:stranger", *old.ids[1:]), old.tuples)
    for bad in (bad_v, stranger):
        assert not ring_verify(b"lru", bad, registry)
        assert list(registry._cache.items()) == before
    # accepted again, that signature moves its ids to the back
    assert ring_verify(b"lru", old, registry)
    assert list(registry._cache)[-3:] == list(old.ids)


def test_extract_pubkey_keeps_a_cached_key_as_it_is():
    mk = setup(P192, n=16, rng=random.Random(34), manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    ring = ["m:a", "m:b", "m:c"]
    for id_str in ring:
        registry.extract_pubkey(id_str)
    # an explicit extraction never prepares, however often it runs
    assert not isinstance(registry.extract_pubkey("m:a"), _PreparedPoint)
    sig = ring_sign(b"kept", ring, keygen(mk, "m:b"), 1, registry, random.Random(3))
    assert ring_verify(b"kept", sig, registry)
    assert all(isinstance(registry._cache[id_str], _PreparedPoint) for id_str in ring)
    E = registry.extract_pubkey("m:a")
    assert isinstance(E, _PreparedPoint) and registry._cache["m:a"] is E
    assert list(registry._cache)[-1] == "m:a"


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


def test_ids_above_max_id_bytes_are_refused_and_unparseable():
    # the cap counts UTF-8 bytes: 31 two-byte characters after "m:" make
    # an id of exactly MAX_ID_BYTES, one more byte is over
    mk, registry = big_toy_setup(seed=162)
    signer = keygen(mk, "m:signer")
    longest = "m:" + "\u00e9" * 31
    over = longest + "x"
    assert len(longest.encode()) == MAX_ID_BYTES == 64 and len(over) < MAX_ID_BYTES
    sig = ring_sign(b"cap", [signer.id, longest], signer, 0, registry, random.Random(1))
    blob = sig.to_bytes(BIG_TOY)
    parsed = RingSignature.from_bytes(blob, BIG_TOY)
    assert parsed.ids == (signer.id, longest) and ring_verify(b"cap", parsed, registry)
    # signing, serializing and provisioning refuse a longer id
    with pytest.raises(ValueError, match="above 64 bytes"):
        ring_sign(b"cap", [signer.id, over], signer, 0, registry, random.Random(1))
    assert over not in registry._cache
    with pytest.raises(ValueError, match="above 64 bytes"):
        RingSignature(sig.x, sig.w, (signer.id, over), sig.tuples).to_bytes(BIG_TOY)
    with pytest.raises(ValueError, match="above 64 bytes"):
        join(mk, "m:" + "v" * 63, registry, random.Random(2))
    # on the wire it fails at its length, before its bytes are read
    field = struct.pack(">H", MAX_ID_BYTES) + longest.encode()
    assert blob.count(field) == 1
    with pytest.raises(ParseError, match="identity of 65 bytes"):
        RingSignature.from_bytes(blob.replace(field, struct.pack(">H", 65) + over.encode()), BIG_TOY)


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


def test_ring_sign_prepares_only_keys_the_registry_held():
    mk = setup(P192, n=16, rng=random.Random(9), manufactory_id="m")

    def registry_knowing(ids):
        registry = ManufactoryRegistry(P192)
        registry.register_master(mk)
        for id_str in ids:
            registry.extract_pubkey(id_str)
        return registry

    ring = ["m:warm-1", "m:signer", "m:cold", "m:warm-2"]
    signer = keygen(mk, "m:signer")
    registry = registry_knowing(["m:warm-1", "m:signer", "m:warm-2", "m:bystander"])
    before = set(registry._cache)
    first = ring_sign(b"prep", ring, signer, 1, registry, random.Random(4))
    cache = registry._cache
    assert set(cache) == before | set(ring)
    prepared = {id_str for id_str, E in cache.items() if isinstance(E, _PreparedPoint)}
    # the signer's own key is never forged against; the cold id was seen once
    assert prepared == {"m:warm-1", "m:warm-2"}
    assert ring_verify(b"prep", first, registry)
    second = ring_sign(b"prep", ring, signer, 1, registry, random.Random(5))
    assert second.to_bytes(P192) == ring_sign(
        b"prep", ring, signer, 1, registry_knowing([]), random.Random(5)
    ).to_bytes(P192)
    assert isinstance(cache["m:cold"], _PreparedPoint)


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


def test_signer_nonce_is_inverted_on_a_blinded_product(monkeypatch):
    # l gives d away, so its one Euclid must run on l times a blind, never on l
    inverted, pows = [], []

    def recorded_batch_inverse(values, modulus, **kwargs):
        inverted.append((list(values), kwargs))
        return batch_inverse(values, modulus, **kwargs)

    def recorded_pow(*args):
        pows.append(args)
        return pow(*args)

    monkeypatch.setattr("avcs.ringsig.batch_inverse", recorded_batch_inverse)
    monkeypatch.setattr("avcs.groups.pow", recorded_pow, raising=False)
    mk = setup(P192, n=8, rng=random.Random(43), manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    sig = ring_sign(b"nonce", ["m:solo"], keygen(mk, "m:solo"), 0, registry, random.Random(2))
    # the solo ring forges nothing, so its last batch is the nonce alone
    ([l], blinded) = inverted[-1]
    assert blinded == {}  # the default: blinded
    assert 0 < l < P192.q and pows
    assert all(args[0] % P192.q != l for args in pows)
    assert ring_verify(b"nonce", sig, registry)


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
    with pytest.raises(ValueError, match="1..64 members"):
        ring_sign(b"x", ["m:a"] + [f"m:{i}" for i in range(MAX_RING)], signer, 0, registry, random.Random(1))


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
    assert chi_square(counts) < 13.2767  # p > 0.01 at 4 degrees of freedom
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
        # each U_i is read as its checked encoding, decoded only by ring_verify
        tuples = tuple((m, BIG_TOY.encode_element(U), v) for m, U, v in sig.tuples)
        assert RingSignature.from_bytes(blob, BIG_TOY) == RingSignature(sig.x, sig.w, sig.ids, tuples)


def test_ring_10_signature_on_p192_is_878_bytes():
    # the README's figure: 4 + 24 + 10 * (2 + 10) + 10 * (24 + 25 + 24)
    mk = setup(P192, n=16, rng=random.Random(10), manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    ring = [f"m:car-{i:04d}" for i in range(10)]
    assert {len(id_str) for id_str in ring} == {10}
    sig = ring_sign(b"size", ring, keygen(mk, ring[3]), 3, registry, random.Random(10))
    assert len(sig.to_bytes(P192)) == 4 + 24 + 10 * 12 + 10 * 73 == 878


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

    # a ring above MAX_RING members fails at the header, before any id
    for r in (MAX_RING + 1, 0xFFFF):
        with pytest.raises(ParseError, match="not 1..64"):
            RingSignature.from_bytes(struct.pack(">HH", r, 1), BIG_TOY)

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


def eliminate(rows, rhs, q):
    """Gauss-Jordan elimination of ``rows * X = rhs`` mod q: the rank, and
    X if it is the one solution."""
    m, n, rank = [list(row) + [b] for row, b in zip(rows, rhs)], len(rows[0]), 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, q)
        m[rank] = [v * inv % q for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [(a - m[i][col] * b) % q for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank, (tuple(row[-1] for row in m) if rank == n else None)


def test_n_identity_keys_give_the_master_vector_and_n_minus_one_do_not():
    # d = sum(h_i * x_i) is linear in X: n keys whose hash vectors are independent
    # determine X, and with it every identity key of the manufactory
    n, q = 16, P192.q
    mk = setup(P192, n=n, rng=random.Random(1984), manufactory_id="acme")
    ids = [f"acme:mod-{i}" for i in range(n)]
    rows, ds = [h0_bits(id_str, n) for id_str in ids], [keygen(mk, id_str).d for id_str in ids]
    rank, X = eliminate(rows, ds, q)
    assert rank == n and X == mk.X
    victim = "acme:victim"
    assert sum(h * x for h, x in zip(h0_bits(victim, n), X)) % q == keygen(mk, victim).d
    assert eliminate(rows[:-1], ds[:-1], q) == (n - 1, None)
