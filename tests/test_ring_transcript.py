"""Transcript equality between the implementation and the test oracle.

The oracle in ring_oracle.py is a separate straight-line rendering of
the signing equations with its own chain walk and serializer.  Given
the same group, stub hashes, and scripted randomness, the two must
produce bit-identical signatures; a hand-computed r=3 case pins every
intermediate value first.
"""

import random

import pytest

from avcs.groups import P192, ToyGroup, count_group_ops
from avcs.ringsig import (
    PRODUCTION,
    HashSuite,
    ManufactoryRegistry,
    MasterKeyPair,
    keygen,
    ring_sign,
    ring_verify,
    setup,
)
from helpers import ScriptedRng, bits_from_map, random_bits_fn, stub_chain, stub_h1
from ring_oracle import (
    oracle_chain,
    oracle_h1,
    oracle_pack,
    oracle_ring_sign,
    oracle_ring_verify,
)

TOY = ToyGroup(23)
BIG_TOY = ToyGroup(2147483647)

HAND_SUITE = HashSuite(
    bits=bits_from_map(
        {
            "m:a": (1, 0, 1, 0),  # d = 3+7  = 10
            "m:b": (0, 1, 1, 0),  # d = 5+7  = 12
            "m:c": (0, 0, 1, 1),  # d = 7+11 = 18
        }
    ),
    h1=stub_h1,
    chain=stub_chain,
)

# every seeded case uses a four-entry master vector
STUB_SUITE = HashSuite(bits=random_bits_fn(seed=4242), h1=stub_h1, chain=stub_chain)

# draws for the hand case: forgery at 0 (a=4, b=6), forgery at 2
# (a=2, b=3), glue gamma=200, signer nonce l=9, published x=3
HAND_SCRIPT = [
    (4, (1, 23)),
    (6, (1, 23)),
    (2, (1, 23)),
    (3, (1, 23)),
    (200, (1, 256)),
    (9, (1, 23)),
    (3, (1, 4)),
]


def hand_registry():
    registry = ManufactoryRegistry(TOY, suite=HAND_SUITE)
    registry.register("m", (3, 5, 7, 11))
    return registry


def test_hand_computed_r3_transcript():
    # every intermediate below is verifiable with pencil and paper:
    #   forgery 0: U=4+6*10=18, H1=9, v=-9*4=10, m=4*10=17
    #   forgery 2: U=2+3*18=10, H1=15, v=-15*8=18, m=2*18=13
    #   chain (msg=b"hi"): w2=chain(200)=121, w0=chain(121^13)=53,
    #                      w1=chain(53^17)=37
    #   glue: m1 = 200^37 = 237; 237 mod 23 = 7
    #   signer: U1=9, H1(9)=10, v1=(7-12*10)*9^-1 = 2*18 = 13
    registry = hand_registry()
    mk = MasterKeyPair("m", TOY, 4, (3, 5, 7, 11), (3, 5, 7, 11))
    signer = keygen(mk, "m:b", suite=HAND_SUITE)
    assert signer.d == 12
    sig = ring_sign(
        b"hi",
        ["m:a", "m:b", "m:c"],
        signer,
        1,
        registry,
        ScriptedRng(HAND_SCRIPT),
    )
    assert sig.x == 3
    assert sig.w == bytes([121])
    assert sig.ids == ("m:a", "m:b", "m:c")
    assert sig.tuples[0] == (bytes([17]), 18, 10)
    assert sig.tuples[1] == (bytes([237]), 9, 13)
    assert sig.tuples[2] == (bytes([13]), 10, 18)
    assert ring_verify(b"hi", sig, registry)

    # the oracle, fed the same script, lands on the same bytes
    ox, ow, oids, otuples = oracle_ring_sign(
        TOY,
        b"hi",
        ["m:a", "m:b", "m:c"],
        12,
        1,
        [10, 12, 18],
        ScriptedRng(HAND_SCRIPT),
        stub_h1,
        stub_chain,
    )
    assert (ox, ow, oids, tuple(otuples)) == (sig.x, sig.w, sig.ids, sig.tuples)
    assert oracle_pack(TOY, ox, ow, oids, otuples) == sig.to_bytes(TOY)


def transcript_case(seed):
    """One seeded toy-group signing case with stubbed hashes."""
    pick = random.Random(10_000 + seed)
    registry = ManufactoryRegistry(TOY, suite=STUB_SUITE)
    mk = setup(TOY, n=4, rng=random.Random(555), manufactory_id="m")
    registry.register("m", mk.Y)
    pool = [f"m:v{i}" for i in range(8)]
    r = pick.randrange(1, 7)
    ring = pick.sample(pool, r)
    pos = pick.randrange(r)
    msg = f"case {seed}".encode()
    signer = keygen(mk, ring[pos], suite=STUB_SUITE)
    pubkeys = [registry.extract_pubkey(i) for i in ring]
    return registry, mk, msg, ring, pos, signer, pubkeys


def test_transcripts_match_oracle_100_seeded_cases():
    for seed in range(100):
        registry, mk, msg, ring, pos, signer, pubkeys = transcript_case(seed)
        sig = ring_sign(msg, ring, signer, pos, registry, random.Random(seed))
        ox, ow, oids, otuples = oracle_ring_sign(
            TOY, msg, ring, signer.d, pos, pubkeys, random.Random(seed),
            stub_h1, stub_chain,
        )
        assert sig.x == ox and sig.w == ow and sig.ids == oids
        assert sig.tuples == tuple(otuples)
        assert sig.to_bytes(TOY) == oracle_pack(TOY, ox, ow, oids, otuples)
        # dual routes: each side's verifier accepts the other's output
        assert ring_verify(msg, sig, registry)
        assert oracle_ring_verify(
            TOY, msg, sig.x, sig.w, sig.ids, list(sig.tuples), pubkeys,
            stub_h1, stub_chain,
        )


def test_transcripts_match_oracle_with_production_hashes():
    # the oracle recomputes the production hash roles from their
    # documented constructions, so this exercises the whole pipeline
    rng_master = random.Random(2024)
    mk = setup(BIG_TOY, n=256, rng=rng_master, manufactory_id="m")
    registry = ManufactoryRegistry(BIG_TOY)
    registry.register_master(mk)
    for seed in range(20):
        pick = random.Random(20_000 + seed)
        ring = [f"m:prod-{seed}-{i}" for i in range(pick.randrange(1, 6))]
        pos = pick.randrange(len(ring))
        signer = keygen(mk, ring[pos])
        pubkeys = [registry.extract_pubkey(i) for i in ring]
        msg = f"production case {seed}".encode()
        sig = ring_sign(msg, ring, signer, pos, registry, random.Random(seed))
        ox, ow, oids, otuples = oracle_ring_sign(
            BIG_TOY, msg, ring, signer.d, pos, pubkeys, random.Random(seed),
            oracle_h1, oracle_chain,
        )
        assert (sig.x, sig.w, sig.ids, sig.tuples) == (ox, ow, oids, tuple(otuples))
        assert oracle_ring_verify(
            BIG_TOY, msg, ox, ow, oids, otuples, pubkeys, oracle_h1, oracle_chain
        )
        assert ring_verify(msg, sig, registry)


def recorded(seed):
    """A seeded rng and the list of its ``randrange`` calls and values."""
    rng, draws = random.Random(seed), []
    randrange = rng.randrange

    def record(*args):
        draws.append((args, randrange(*args)))
        return draws[-1][1]

    rng.randrange = record
    return rng, draws


def test_mid_ring_redraw_matches_oracle_on_p192():
    # h1 sends the second forgery's first U to 0: the batched forgeries must
    # spend that pair, hand its key the next one, recompute the last key's U
    # with a pair of its own and still draw as the oracle, one key at a time
    mk = setup(P192, n=16, rng=random.Random(31), manufactory_id="m")
    ring, pos, seed = [f"m:car-{i}" for i in range(4)], 1, 7
    keys = ManufactoryRegistry(P192)
    keys.register_master(mk)
    pubkeys = [keys.extract_pubkey(id_str) for id_str in ring]
    q, replay = P192.q, random.Random(seed)
    _, _, a, b = (replay.randrange(1, q) for _ in range(4))  # the second pair
    spent = P192.encode_element(P192.add(P192.scalar_mul(b, pubkeys[2]), P192.scalar_mul(a, P192.generator)))
    hashed = []

    def h1(group, U):
        hashed.append(group.encode_element(U))
        return 0 if hashed[-1] == spent else PRODUCTION.h1(group, U)

    suite = HashSuite(h1=h1)
    registry = ManufactoryRegistry(P192, suite=suite)
    registry.register_master(mk)
    rng, draws = recorded(seed)
    sig = ring_sign(b"redraw", ring, keygen(mk, ring[pos], suite=suite), pos, registry, rng)
    assert hashed.count(spent) == 1
    oracle_rng, oracle_draws = recorded(seed)
    ox, ow, oids, otuples = oracle_ring_sign(
        P192, b"redraw", ring, keygen(mk, ring[pos]).d, pos, pubkeys, oracle_rng, h1, suite.chain,
    )
    assert (sig.x, sig.w, sig.ids, sig.tuples) == (ox, ow, oids, tuple(otuples))
    # three forgeries and one redraw: four pairs, then gamma, l and x
    assert draws == oracle_draws and len(draws) == 2 * 4 + 3
    assert spent not in {P192.encode_element(U) for _, U, _ in sig.tuples}
    assert ring_verify(b"redraw", sig, registry)


def test_oracle_rejects_what_verifier_rejects():
    registry, mk, msg, ring, pos, signer, pubkeys = transcript_case(7)
    sig = ring_sign(msg, ring, signer, pos, registry, random.Random(7))
    tampered = list(sig.tuples)
    m, U, v = tampered[0]
    tampered[0] = (m, U, (v + 1) % TOY.q)
    assert not ring_verify(msg, type(sig)(sig.x, sig.w, sig.ids, tuple(tampered)), registry)
    assert not oracle_ring_verify(
        TOY, msg, sig.x, sig.w, sig.ids, tampered, pubkeys, stub_h1, stub_chain
    )
