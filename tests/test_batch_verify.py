"""The batched ring_verify against the rule it batches.

ring_verify closes the hash chain and then checks all r tuple
equations as one randomized multi-scalar multiplication.  These tests
hold it to the unbatched rule of the oracle (the chain closes and every
tuple verifies on its own), including on bad tuples whose errors cancel
without the randomizers and on a tuple with v = 0, and check that a
rejected signature leaves the registry's key cache as it was, while an
accepted one prepares only the keys cached before it.
"""

import random

import pytest

from avcs.errors import DegenerateKeyError
from avcs.groups import P192, ToyGroup, _PreparedPoint, count_group_ops
from avcs.ringsig import (
    PRODUCTION,
    ManufactoryRegistry,
    RingSignature,
    keygen,
    ring_sign,
    ring_verify,
    setup,
    verify_tuple,
)
from ring_oracle import oracle_ring_verify

TOY = ToyGroup(23)
BIG_TOY = ToyGroup(2147483647)


def world(group, seed, n=8):
    mk = setup(group, n=n, rng=random.Random(seed), manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    return mk, registry


def usable_ids(mk, registry, count, prefix="car"):
    """``count`` ids whose private and public keys are both nonzero."""
    ids = []
    n = 0
    while len(ids) < count:
        id_str = f"m:{prefix}-{n}"
        n += 1
        try:
            keygen(mk, id_str)
            registry.extract_pubkey(id_str)
        except DegenerateKeyError:
            continue
        ids.append(id_str)
    return ids


def signed(group, seed, r, msg=b"batch"):
    mk, registry = world(group, seed)
    ring = usable_ids(mk, registry, r)
    pos = random.Random(seed).randrange(r)
    sig = ring_sign(msg, ring, keygen(mk, ring[pos]), pos, registry, random.Random(seed + 1))
    return registry, sig


def unbatched(msg, sig, registry):
    """The rule ring_verify batches: the chain closes and every tuple verifies."""
    group = registry.group
    suite = registry.suite
    try:
        pubkeys = [registry.extract_pubkey(id_str) for id_str in sig.ids]
    except (ValueError, DegenerateKeyError):
        return False
    return oracle_ring_verify(group, msg, sig.x, sig.w, sig.ids, sig.tuples, pubkeys,
                              suite.h1, suite.chain)


def chain_closes(msg, sig, registry):
    """Whether the ring equation alone holds: hashes only, no keys."""
    group, suite = registry.group, registry.suite
    w = sig.w
    j = sig.x - 1
    for _ in range(sig.r):
        m = sig.tuples[j][0]
        w = suite.chain(group, msg, bytes(a ^ b for a, b in zip(w, m)))
        j = (j + 1) % sig.r
    return w == sig.w


def with_tuple(sig, i, new):
    tuples = list(sig.tuples)
    tuples[i] = new
    return RingSignature(sig.x, sig.w, sig.ids, tuple(tuples))


def corrupt(sig, i, registry):
    """``sig`` with tuple ``i`` failing its own equation and the chain intact."""
    group = registry.group
    m, U, v = sig.tuples[i]
    E = registry.extract_pubkey(sig.ids[i])
    candidates = [
        (m, U, (v + 1) % group.q),
        (m, group.add(U, group.generator), v),
        (m, group.add(U, group.generator), (v + 1) % group.q),
        (m, group.add(U, group.scalar_mul(2, group.generator)), v),
    ]
    for bad in candidates:
        if not verify_tuple(group, *bad, E):
            return with_tuple(sig, i, bad)
    raise AssertionError("no corruption found")  # pragma: no cover


@pytest.mark.parametrize("group", [P192, TOY], ids=str)
def test_one_bad_tuple_anywhere_is_rejected(group):
    for r in range(1, 11):
        registry, sig = signed(group, 100 + r, r)
        assert ring_verify(b"batch", sig, registry)
        for i in range(r):
            bad = corrupt(sig, i, registry)
            assert chain_closes(b"batch", bad, registry)
            assert not ring_verify(b"batch", bad, registry), (r, i)


def test_errors_that_cancel_unweighted_are_rejected():
    group = BIG_TOY
    q = group.q
    registry, sig = signed(group, 7, 3)
    (m0, U0, v0), (m1, U1, v1) = sig.tuples[:2]
    assert U0 and U1
    # tuple 0 is off by -U0 and tuple 1 by +U0, so the plain sum of the
    # three tuple equations still balances
    bad = with_tuple(sig, 0, (m0, U0, (v0 + 1) % q))
    bad = with_tuple(bad, 1, (m1, U1, (v1 - U0 * pow(U1, -1, q)) % q))
    pubkeys = [registry.extract_pubkey(id_str) for id_str in bad.ids]
    unweighted = sum(
        int.from_bytes(m, "big") - registry.suite.h1(group, U) * E - v * U
        for (m, U, v), E in zip(bad.tuples, pubkeys)
    ) % q
    assert unweighted == 0
    for i in (0, 1):
        assert not verify_tuple(group, *bad.tuples[i], pubkeys[i])
    assert chain_closes(b"batch", bad, registry)
    assert not ring_verify(b"batch", bad, registry)


def mutate(sig, rng, registry):
    group = registry.group
    q = group.q
    i = rng.randrange(sig.r)
    m, U, v = sig.tuples[i]
    kind = rng.randrange(6)
    if kind == 0:
        return with_tuple(sig, i, (m, U, rng.randrange(q)))
    if kind == 1:
        return with_tuple(sig, i, (m, group.scalar_mul(rng.randrange(1, q), group.generator), v))
    if kind == 2:
        flipped = bytearray(m)
        flipped[rng.randrange(len(m))] ^= 1 << rng.randrange(8)
        return with_tuple(sig, i, (bytes(flipped), U, v))
    if kind == 3:
        j = rng.randrange(sig.r)
        tuples = list(sig.tuples)
        tuples[i], tuples[j] = tuples[j], tuples[i]
        return RingSignature(sig.x, sig.w, sig.ids, tuple(tuples))
    if kind == 4:
        ids = list(sig.ids)
        ids[i] = f"m:other-{rng.randrange(10 ** 6)}"
        return RingSignature(sig.x, sig.w, tuple(ids), sig.tuples)
    return RingSignature(rng.randrange(1, sig.r + 1), sig.w, sig.ids, sig.tuples)


def test_batched_verify_agrees_with_unbatched_rule():
    rng = random.Random(2024)
    signatures = [signed(BIG_TOY, 300 + r, r, msg=b"agree") for r in (1, 2, 3, 5, 8)]
    for registry, sig in signatures:
        assert ring_verify(b"agree", sig, registry)
        assert unbatched(b"agree", sig, registry)
    batch_rejects = 0
    for _ in range(200):
        registry, sig = rng.choice(signatures)
        mutated = mutate(sig, rng, registry)
        verdict = ring_verify(b"agree", mutated, registry)
        assert verdict == unbatched(b"agree", mutated, registry)
        batch_rejects += not verdict and chain_closes(b"agree", mutated, registry)
    # a good share of the mutants get past the chain and fail in the batch
    assert batch_rejects >= 50


def cache_state(registry):
    """The key cache by value and by type: a prepared key equals its plain one."""
    return {id_str: (E, type(E)) for id_str, E in registry._cache.items()}


@pytest.mark.parametrize("group", [P192, BIG_TOY], ids=str)
def test_rejected_signature_leaves_the_cache_unchanged(group):
    registry, sig = signed(group, 41, 4)
    before = cache_state(registry)
    ghosts = RingSignature(sig.x, sig.w, tuple(f"m:ghost-{i}" for i in range(sig.r)), sig.tuples)
    assert chain_closes(b"batch", ghosts, registry)
    with count_group_ops() as ops:
        assert not ring_verify(b"batch", ghosts, registry)
    assert (ops.scalar_muls, ops.extractions) == (3 * sig.r, sig.r)
    assert cache_state(registry) == before
    # a bad tuple over cached ids prepares none of them, not even the
    # signer's own key, which ring_sign left plain
    assert not ring_verify(b"batch", corrupt(sig, 0, registry), registry)
    assert cache_state(registry) == before


def test_acceptance_prepares_only_keys_cached_before_the_call():
    signer_registry, sig = signed(P192, 47, 4)
    registry = ManufactoryRegistry(P192)
    registry.register("m", signer_registry._vectors["m"])
    known = set(sig.ids[:2])
    for id_str in known:
        registry.extract_pubkey(id_str)
    assert ring_verify(b"batch", sig, registry)
    assert set(registry._cache) == set(sig.ids)
    prepared = {id_str for id_str, E in registry._cache.items() if isinstance(E, _PreparedPoint)}
    assert prepared == known
    # seen twice now: the next acceptance prepares the rest
    assert ring_verify(b"batch", sig, registry)
    assert all(isinstance(E, _PreparedPoint) for E in registry._cache.values())


def test_a_tuple_with_v_zero_is_judged_like_the_unbatched_rule():
    # v = 0 has no inverse, so that tuple keeps its unscaled pairs and
    # U's coefficient is 0: m*P = H1(U')*E must still hold on its own
    group, q = TOY, TOY.q
    h1 = PRODUCTION.h1

    def roots():
        # (registry, sig, i, m, target, U') with H1(U') = m_i / E_i
        for seed in range(50):
            registry, sig = signed(group, seed, 3)
            for i, (m, _, _) in enumerate(sig.tuples):
                E = registry.extract_pubkey(sig.ids[i])
                target = int.from_bytes(m, "big") * pow(E, -1, q) % q
                for U in range(q):
                    if h1(group, U) == target:
                        yield registry, sig, i, m, target, U

    registry, sig, i, m, target, root = next(roots())
    zero = with_tuple(sig, i, (m, root, 0))
    assert ring_verify(b"batch", zero, registry)
    assert unbatched(b"batch", zero, registry)
    off = next(U for U in range(q) if h1(group, U) != target)
    failing = with_tuple(sig, i, (m, off, 0))
    assert chain_closes(b"batch", failing, registry)
    assert not ring_verify(b"batch", failing, registry)
    assert not unbatched(b"batch", failing, registry)


def test_accepted_signature_caches_its_keys():
    registry, sig = signed(BIG_TOY, 43, 3)
    fresh = ManufactoryRegistry(BIG_TOY)
    fresh.register("m", registry._vectors["m"])
    assert ring_verify(b"batch", sig, fresh)
    assert sorted(fresh._cache) == sorted(sig.ids)


def test_open_chain_costs_nothing():
    registry, sig = signed(BIG_TOY, 45, 5)
    bad = RingSignature(sig.x, bytes([sig.w[0] ^ 0x01]) + sig.w[1:], sig.ids, sig.tuples)
    with count_group_ops() as ops:
        assert not ring_verify(b"batch", bad, registry)
    assert (ops.scalar_muls, ops.extractions) == (0, 0)
