"""Hardware module: provisioning, pseudonyms, messages, reveal."""

import hmac
import math
import random
import struct

import pytest

from avcs import transient
from avcs.errors import (
    ClockError,
    ParseError,
    ProtocolError,
    ProvisioningError,
    SupervisorAuthError,
)
from avcs.groups import P192, P256, CurveGroup, ToyGroup, _PreparedPoint, count_group_ops
from avcs.hardware import (
    WINDOW_TAGS,
    ManualClock,
    PseudonymCertificate,
    join,
    keep_window,
    leak_master_secret,
)
from avcs.ringsig import ManufactoryRegistry, RingSignature, keygen, ring_verify, setup
from avcs.vehicle import reveal_check
from helpers import SUPERVISOR_TOKEN, toy_world

BIG_TOY = ToyGroup(2147483647)


def one_module(world=None, idx=0):
    world = world or toy_world(1)
    return world, world.vehicles[idx].hsm


def test_join_rejects_unknown_manufactory():
    world = toy_world(1)
    with pytest.raises(ProvisioningError):
        join(world.mk, "ghost:123", world.registry, random.Random(1), clock=world.clock)


@pytest.mark.parametrize("span", [0.0, -1.0, math.nan, math.inf])
def test_min_span_time_must_be_positive_and_finite(span):
    world = toy_world(1)
    with pytest.raises(ValueError, match="min_span_time"):
        join(world.mk, "m:span", world.registry, random.Random(1), clock=world.clock, min_span_time=span)


def test_master_secret_never_surfaces():
    world = toy_world(1)
    module = world.vehicles[0].hsm
    f = leak_master_secret(module)
    assert isinstance(f, int) and 1 <= f < BIG_TOY.q
    public_values = {
        name: getattr(module, name)
        for name in dir(module)
        if not name.startswith("_") and not callable(getattr(module, name))
    }
    assert f not in public_values.values()
    cert = module.gen_pseudonym([module.identity], 60, random.Random(7))
    assert f not in (cert.C, cert.R, cert.T)


def test_two_joins_same_id_differ_only_in_f():
    world = toy_world(1)
    a = join(world.mk, "m:same-id", world.registry, random.Random(10),
             clock=world.clock, supervisor_token=SUPERVISOR_TOKEN)
    b = join(world.mk, "m:same-id", world.registry, random.Random(11),
             clock=world.clock, supervisor_token=SUPERVISOR_TOKEN)
    assert leak_master_secret(a) != leak_master_secret(b)
    cert = a.gen_pseudonym(["m:same-id"], 60, random.Random(1))
    # same d: certificates from either module ring-verify identically
    for module in (a, b):
        c = module.gen_pseudonym(["m:same-id"], 60, random.Random(2))
        group = world.group
        L = group.hash_to_scalar(
            "h2", c.C + group.encode_element(c.R) + group.encode_element(c.T)
        )
        assert ring_verify(group.encode_scalar(L), c.S, world.registry)
    # different f: the reveal bindings disagree about a's certificate
    ra = a.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(3))
    rb = b.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(4))
    assert ra.R == cert.R
    assert rb.R != cert.R


def test_t_equal_within_window():
    world = toy_world(1, min_span=60.0, start_time=120.0)
    module = world.vehicles[0].hsm
    c1 = module.gen_pseudonym([module.identity], 300, random.Random(1))
    world.clock.advance(1.0)
    c2 = module.gen_pseudonym([module.identity], 300, random.Random(2))
    assert c1.T == c2.T
    # independent recomputation from the leaked secret
    K = world.group.hash_to_group("h1", struct.pack(">Q", 2))
    assert c1.T == world.group.scalar_mul(leak_master_secret(module), K)


def test_t_differs_across_windows():
    world = toy_world(1, min_span=60.0, start_time=120.0)
    module = world.vehicles[0].hsm
    c1 = module.gen_pseudonym([module.identity], 600, random.Random(1))
    world.clock.advance(60.0)
    c2 = module.gen_pseudonym([module.identity], 600, random.Random(2))
    assert c1.T != c2.T


def test_t_pairwise_distinct_across_modules_one_window():
    world = toy_world(100, ring_size=1)
    certs = [
        v.hsm.gen_pseudonym([v.hsm.identity], 600, random.Random(i))
        for i, v in enumerate(world.vehicles)
    ]
    encoded = {world.group.encode_element(c.T) for c in certs}
    assert len(encoded) == 100


def test_r_values_distinct_and_balanced():
    world = toy_world(1)
    module = world.vehicles[0].hsm
    encodings = []
    for i in range(200):
        cert = module.gen_pseudonym([module.identity], 600, random.Random(i))
        encodings.append(world.group.encode_element(cert.R))
    assert len(set(encodings)) == 200
    # q = 2^31 - 1: the top bit of the 4-byte encoding is structurally
    # zero, the remaining 31 bits should look balanced
    ones = total = 0
    for enc in encodings:
        value = int.from_bytes(enc, "big")
        ones += bin(value).count("1")
        total += 31
    assert 0.45 < ones / total < 0.55


def test_c_layout_and_times():
    world = toy_world(1, start_time=1000.5)
    module = world.vehicles[0].hsm
    cert = module.gen_pseudonym([module.identity], 9.2, random.Random(1))
    parsed = cert.parse_c(world.group)
    assert parsed.scheme_id == 1
    assert parsed.issue == 1000
    assert parsed.expiration == 1010  # ceil(1000.5 + 9.2)
    assert parsed.expiration > 1000.5
    # the embedded pk is the one messages verify under
    msg = module.gen_message(b"payload")
    assert transient.verify(world.group, parsed.pk, msg.M, msg.N)


def test_gen_pseudonym_argument_errors():
    world = toy_world(2)
    module = world.vehicles[0].hsm
    other = world.vehicles[1].hsm.identity
    with pytest.raises(ValueError):
        module.gen_pseudonym([module.identity], 0, random.Random(1))
    with pytest.raises(ValueError):
        module.gen_pseudonym([other], 60, random.Random(1))
    with pytest.raises(ValueError):
        module.gen_pseudonym([module.identity, module.identity], 60, random.Random(1))
    with pytest.raises(ValueError):
        module.gen_pseudonym([module.identity, other, other], 60, random.Random(1))


def test_singleton_ring_exposes_identity_and_verifies():
    world = toy_world(1)
    module = world.vehicles[0].hsm
    cert = module.gen_pseudonym([module.identity], 60, random.Random(3))
    assert cert.S.ids == (module.identity,)
    group = world.group
    L = group.hash_to_scalar(
        "h2", cert.C + group.encode_element(cert.R) + group.encode_element(cert.T)
    )
    assert ring_verify(group.encode_scalar(L), cert.S, world.registry)


def replayed_mints(world):
    """Two mints over one ring, 100 s apart, each given the same rng state."""
    module = world.vehicles[0].hsm
    ring = [v.hsm.identity for v in world.vehicles]
    certs = []
    for _ in range(2):
        certs.append(module.gen_pseudonym(ring, 60, random.Random(1234)))
        world.clock.advance(100.0)
    return module, certs


def test_a_replayed_rng_state_gives_the_host_no_identity_key():
    world = toy_world(3)
    module, (c1, c2) = replayed_mints(world)
    group, q = world.group, world.group.q
    (m1, U1, v1), (m2, U2, v2) = c1.S.tuples[0], c2.S.tuples[0]  # the signer's, at position 0
    m1, m2 = (int.from_bytes(m, "big") for m in (m1, m2))
    # had the nonce l repeated, l = (m1 - m2) / (v1 - v2) and d = (m1 - v1*l) / h1(U)
    l = (m1 - m2) * pow(v1 - v2, -1, q) % q
    d = (m1 - v1 * l) * pow(world.registry.suite.h1(group, U1), -1, q) % q
    assert d != keygen(world.mk, module.identity, suite=world.registry.suite).d
    assert U1 != U2


def test_certificates_minted_from_one_rng_state_share_no_tuple():
    _, (c1, c2) = replayed_mints(toy_world(3))
    assert c1.S.ids == c2.S.ids
    assert not {U for _, U, _ in c1.S.tuples} & {U for _, U, _ in c2.S.tuples}
    assert c1.parse_c(BIG_TOY).pk != c2.parse_c(BIG_TOY).pk


def test_gen_message_requires_transient_key():
    world = toy_world(1)
    module = world.vehicles[0].hsm
    with pytest.raises(ProvisioningError):
        module.gen_message(b"too early")
    module.gen_pseudonym([module.identity], 60, random.Random(1))
    signed = module.gen_message(b"")
    assert signed.M == b""


def test_message_does_not_verify_under_other_cert():
    world = toy_world(2)
    m0, m1 = (v.hsm for v in world.vehicles)
    c0 = m0.gen_pseudonym([m0.identity], 60, random.Random(1))
    c1 = m1.gen_pseudonym([m1.identity], 60, random.Random(2))
    msg = m0.gen_message(b"from zero")
    group = world.group
    assert transient.verify(group, c0.parse_c(group).pk, msg.M, msg.N)
    assert not transient.verify(group, c1.parse_c(group).pk, msg.M, msg.N)


def test_reveal_round_trip_and_auth():
    world = toy_world(2)
    a, b = (v.hsm for v in world.vehicles)
    cert = a.gen_pseudonym([a.identity], 60, random.Random(1))
    with pytest.raises(SupervisorAuthError):
        a.reveal_respond(cert.C, "wrong-token", random.Random(2))
    response_a = a.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(2))
    response_b = b.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(3))
    assert reveal_check(cert, response_a, world.group)
    assert not reveal_check(cert, response_b, world.group)
    # fresh T'/S' come back but only R' decides
    assert response_a.C == cert.C


def test_reveal_check_refuses_a_response_to_another_c():
    # a response that answers another certificate's C is a protocol error,
    # not a no-match, whichever module gave it
    world = toy_world(2)
    a, b = (v.hsm for v in world.vehicles)
    cert_a = a.gen_pseudonym([a.identity], 60, random.Random(1))
    cert_b = b.gen_pseudonym([b.identity], 60, random.Random(2))
    for module, seed in ((a, 3), (b, 4)):
        response = module.reveal_respond(cert_b.C, SUPERVISOR_TOKEN, random.Random(seed))
        with pytest.raises(ProtocolError, match="different C"):
            reveal_check(cert_a, response, world.group)
    assert reveal_check(cert_b, b.reveal_respond(cert_b.C, SUPERVISOR_TOKEN, random.Random(5)), world.group)


def test_reveal_without_any_token_configured():
    world = toy_world(1)
    module = join(world.mk, "m:no-super", world.registry, random.Random(5),
                  clock=world.clock)
    cert = module.gen_pseudonym(["m:no-super"], 60, random.Random(1))
    with pytest.raises(SupervisorAuthError):
        module.reveal_respond(cert.C, None, random.Random(2))


def test_reveal_compares_the_token_in_constant_time(monkeypatch):
    world = toy_world(1)
    module = world.vehicles[0].hsm
    cert = module.gen_pseudonym([module.identity], 60, random.Random(1))
    compared = []

    def compare_digest(a, b):
        compared.append((a, b))
        return a == b

    monkeypatch.setattr(hmac, "compare_digest", compare_digest)
    # a token of another type, or one that is no ASCII, is refused, not a TypeError
    for token in (SUPERVISOR_TOKEN.encode(), 7, "s\u00fcpervisor-token"):
        with pytest.raises(SupervisorAuthError):
            module.reveal_respond(cert.C, token, random.Random(2))
    module.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(2))
    assert compared == [("s\u00fcpervisor-token".encode(), SUPERVISOR_TOKEN.encode()),
                        (SUPERVISOR_TOKEN.encode(), SUPERVISOR_TOKEN.encode())]


def test_reveal_matrix_small():
    world = toy_world(5)
    modules = [v.hsm for v in world.vehicles]
    certs = [
        m.gen_pseudonym([m.identity], 600, random.Random(i))
        for i, m in enumerate(modules)
    ]
    for i, m in enumerate(modules):
        for j, cert in enumerate(certs):
            response = m.reveal_respond(cert.C, SUPERVISOR_TOKEN, random.Random(i * 7 + j))
            assert reveal_check(cert, response, world.group) == (i == j)


def test_clock_must_not_regress():
    world = toy_world(1, start_time=500.0)
    module = world.vehicles[0].hsm
    module.gen_pseudonym([module.identity], 60, random.Random(1))
    world.clock.set(400.0)
    with pytest.raises(ClockError):
        module.gen_pseudonym([module.identity], 60, random.Random(2))


def test_certificate_wire_round_trip():
    world = toy_world(3)
    v = world.vehicles[0]
    ring = v.choose_ring(random.Random(1))
    cert = v.hsm.gen_pseudonym(ring, 60, random.Random(2))
    group = world.group
    blob = cert.to_bytes(group)
    # parsing keeps R, T and every U_i as their checked encodings
    S = cert.S
    encoded = PseudonymCertificate(
        cert.C, group.encode_element(cert.R), group.encode_element(cert.T),
        RingSignature(S.x, S.w, S.ids, tuple((m, group.encode_element(U), v) for m, U, v in S.tuples)),
    )
    assert PseudonymCertificate.from_bytes(blob, group) == encoded
    for cut in (0, 1, 5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ParseError):
            PseudonymCertificate.from_bytes(blob[:cut], world.group)
    with pytest.raises(ParseError):
        PseudonymCertificate.from_bytes(blob + b"\x01", world.group)


def test_parse_c_rejects_malformed():
    world = toy_world(1)
    module = world.vehicles[0].hsm
    cert = module.gen_pseudonym([module.identity], 60, random.Random(1))
    group = world.group
    short = PseudonymCertificate(cert.C[:-1], cert.R, cert.T, cert.S)
    with pytest.raises(ParseError):
        short.parse_c(group)
    wrong_scheme = PseudonymCertificate(b"\x02" + cert.C[1:], cert.R, cert.T, cert.S)
    with pytest.raises(ParseError):
        wrong_scheme.parse_c(group)

# --- T = f * h1(window) on the curves: one prepared tag per window, per registry


CURVES = [P192, P256]


def curve_modules(group, min_spans=(60.0, 60.0), start_time=1000.0):
    """Modules on one curve and one manual clock, one per ``min_span_time``."""
    rng = random.Random(18)
    mk = setup(group, n=16, rng=rng, manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    clock = ManualClock(start_time)
    modules = [join(mk, f"m:car-{i}", registry, rng, clock=clock, min_span_time=span)
               for i, span in enumerate(min_spans)]
    return clock, modules


def plain_t(group, module, window):
    tag = group.hash_to_group("h1", struct.pack(">Q", window))
    return group.scalar_mul(leak_master_secret(module), tag)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_t_from_the_cached_tag_matches_the_plain_point(group):
    clock, modules = curve_modules(group)
    for window in (16, 17):
        clock.set(window * 60.0 + 5)
        for i, module in enumerate(modules):
            cert = module.gen_pseudonym([module.identity], 600, random.Random(i))
            assert cert.T == plain_t(group, module, window)
        tag = modules[0].registry.window_tags[window]
        # a ring key's signed comb: two tables of 32 points on P-192, 64
        # in all, and two of 128 on P-256, 256 in all
        assert isinstance(tag, _PreparedPoint) and group.has_comb(tag)
        assert sum(map(len, tag.rows)) == {"p192": 64, "p256": 256}[group.group_id]
        assert tag == group.hash_to_group("h1", struct.pack(">Q", window))


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_modules_with_other_spans_share_the_tag_of_one_window_index(group):
    # 1000 s is window 16 for a 60 s span and for a 61 s span alike
    _, (a, b) = curve_modules(group, min_spans=(60.0, 61.0))
    tags = a.registry.window_tags
    ta = a.gen_pseudonym([a.identity], 600, random.Random(1)).T
    tag = tags[16]
    tb = b.gen_pseudonym([b.identity], 600, random.Random(2)).T
    assert list(tags) == [16] and tags[16] is tag
    assert ta == plain_t(group, a, 16) and tb == plain_t(group, b, 16)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_window_tag_cache_stays_bounded(group):
    clock, (module,) = curve_modules(group, min_spans=(60.0,))
    for _ in range(10):
        module.gen_pseudonym([module.identity], 600, random.Random(3))
        assert len(module.registry.window_tags) <= WINDOW_TAGS
        clock.advance(60.0)
    assert list(module.registry.window_tags) == [22, 23, 24, 25]


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_a_module_on_a_fresh_registry_builds_its_own_tag(group):
    # window 16 is prepared on one registry; a module on another registry
    # neither finds it nor shares it: it builds the tag's comb itself
    _, (a,) = curve_modules(group, min_spans=(60.0,))
    _, (b,) = curve_modules(group, min_spans=(60.0,))
    a.gen_pseudonym([a.identity], 600, random.Random(1))
    with count_group_ops() as ops:
        tag = b.window_tag(1000.0, 1000.0)
    assert ops.lane_additions == {"p192": 124, "p256": 508}[group.group_id]
    assert a.registry.window_tags[16] is not tag and b.registry.window_tags == {16: tag}


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_receiver_keeps_a_tag_only_for_its_current_window(group):
    clock, (module,) = curve_modules(group, min_spans=(60.0,))
    tags = module.registry.window_tags
    now = clock.now()  # window 16
    # an earlier or a later window, not cached: a comb, used once
    for t in (now - 600, now + 60):
        comb = module.window_tag(t, now)
        assert group.has_comb(comb)
        assert comb == group.hash_to_group("h1", struct.pack(">Q", module.window(t)))
        assert module.window_tag(t, now) is not comb
        assert not tags
    # the receiver's current window: a comb, cached, and then found by any issue second in it
    tag = module.window_tag(now, now)
    assert group.has_comb(tag) and list(tags) == [16]
    assert module.window_tag(now, now + 600) is tag


def kept_windows(kept, windows, current=None):
    """keep_window over ``windows``, each current unless ``current`` is
    given; the windows whose value was built, in order."""
    built = []
    for window in windows:
        value = keep_window(kept, window, window if current is None else current,
                            lambda window=window: built.append(window) or f"v{window}")
        assert value == f"v{window}"
    return built


def test_keep_window_keeps_a_current_window():
    kept = {}
    assert kept_windows(kept, [3, 3, 3]) == [3]
    assert kept == {3: "v3"}


def test_keep_window_uses_another_window_once():
    kept = {3: "v3"}
    # a window other than the current one: built at every use, kept never,
    # and nothing is evicted, however many there are
    assert kept_windows(kept, [1, 2, 9, 1, 1], current=3) == [1, 2, 9, 1, 1]
    assert kept == {3: "v3"}


def test_keep_window_stays_bounded_oldest_out():
    kept = {}
    assert kept_windows(kept, range(10)) == list(range(10))
    assert list(kept) == list(range(10 - WINDOW_TAGS, 10))


def test_a_hit_leaves_the_order_alone():
    # windows 1-4 kept, 1 the oldest: a frame that names window 1 reads
    # its value without moving it, so the next window kept evicts window 1
    kept = {}
    kept_windows(kept, range(1, WINDOW_TAGS + 1))
    before = list(kept.items())
    assert kept_windows(kept, [1], current=WINDOW_TAGS) == []
    assert kept_windows(kept, [WINDOW_TAGS]) == []
    assert list(kept.items()) == before
    assert kept_windows(kept, [WINDOW_TAGS + 1]) == [WINDOW_TAGS + 1]
    assert list(kept) == list(range(2, WINDOW_TAGS + 2))


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_t_takes_the_comb_walk_for_every_secret(group, point_ops):
    tag = group.prepare(group.hash_to_group("h1", struct.pack(">Q", 16)))
    q = group.q
    rng = random.Random(2014)
    secrets = [1, 2, q - 1, q - 2] + [rng.randrange(1, q) for _ in range(20)]
    # the comb's 32 columns two to a step on a 16-step chain, one
    # inversion; a random secret meets the comb's incomplete-addition
    # pair (pinned in test_groups) with probability 2/q
    assert {point_ops(lambda: group.scalar_mul(f, tag)) for f in secrets} == {(15, 32, 1)}


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_rogue_entry_runs_one_comb_walk(group, point_ops):
    # multi_mul reads the tag's comb as T does: its 32 columns, every one
    # nonzero, two to a step on a 16-step chain, and one inversion per
    # leaked f, the smallest f included
    tag = group.prepare(group.hash_to_group("h1", struct.pack(">Q", 16)))
    rng = random.Random(2015)
    for f in [1, 2, group.q - 1] + [rng.randrange(1, group.q) for _ in range(20)]:
        assert point_ops(lambda: group.multi_mul([(f, tag)])) == (15, 32, 1)


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_rogue_scan_makes_its_entries_affine_with_one_inversion(group, point_ops):
    # the receiver's scan is one multi_muls over its entries: each entry's
    # chain as alone, and one inversion for all of them
    tag = group.prepare(group.hash_to_group("h1", struct.pack(">Q", 16)))
    rng = random.Random(2016)
    secrets = [rng.randrange(1, group.q) for _ in range(4)]
    alone = [point_ops(lambda: group.multi_mul([(f, tag)])) for f in secrets]
    scan = []
    assert point_ops(lambda: scan.extend(group.multi_muls([[(f, tag)] for f in secrets]))) == (
        sum(ops[0] for ops in alone), sum(ops[1] for ops in alone), 1)
    assert scan == [group.scalar_mul(f, tag) for f in secrets]


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_warm_mint_shares_its_inversions(group, point_ops):
    clock, (module,) = curve_modules(group, min_spans=(60.0,))
    ring = [module.identity, "m:ghost-1", "m:ghost-2", "m:ghost-3"]
    for seed in range(2):  # cold ring keys, then keys prepared at second use
        module.gen_pseudonym(ring, 600, random.Random(seed))
    # sk*G on the generator's comb (7, 16, 1) on P-192; R on a per-call row
    # and T on the tag's comb, (189, 55) and (15, 32), made affine by one
    # more inversion; three forges at (15, 48) and one inversion; the
    # signer's l*G (7, 16, 1)
    patterns = {point_ops(lambda: module.gen_pseudonym(ring, 600, random.Random(seed))) for seed in range(2, 6)}
    assert patterns == {{"p192": (263, 263, 5), "p256": (327, 319, 5)}[group.group_id]}


@pytest.mark.parametrize("group", CURVES, ids=str)
def test_mint_still_counts_2r_plus_2_multiplications(group):
    clock, (module,) = curve_modules(group, min_spans=(60.0,))
    ring = [module.identity, "m:ghost-1", "m:ghost-2"]
    for _ in range(2):  # cold ring keys, then keys prepared at second use
        with count_group_ops() as ops:
            module.gen_pseudonym(ring, 600, random.Random(4))
        assert (ops.scalar_muls, ops.extractions) == (2 * len(ring) + 2, len(ring))
        clock.advance(60.0)


def test_secrets_never_reach_the_variable_time_sums(monkeypatch):
    # multi_mul and multi_muls are variable time and take public scalars
    # only; set-up (X), join (f, d), a mint (sk, R, T, the nonce l, every
    # forgery's a and b), a message (its nonce) and a reveal never call them
    calls = []
    for name in ("multi_mul", "multi_muls"):
        def spy(self, *args, _name=name, _original=getattr(CurveGroup, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(CurveGroup, name, spy)
    rng = random.Random(32)
    mk = setup(P192, rng=rng, manufactory_id="m")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    module = join(mk, "m:car-0", registry, rng, clock=ManualClock(1000.0), supervisor_token=SUPERVISOR_TOKEN)
    ring = [module.identity, "m:car-1", "m:car-2", "m:car-3"]
    for members in (ring[:1], ring, ring):  # r = 1, then r = 4 on cold and on prepared keys
        cert = module.gen_pseudonym(members, 600, rng)
    module.gen_message(b"secret-free")
    module.reveal_respond(cert.C, SUPERVISOR_TOKEN, rng)
    assert calls == []
    # the spies are live: a public check does call them
    L = P192.hash_to_scalar("h2", cert.C + P192.encode_element(cert.R) + P192.encode_element(cert.T))
    assert ring_verify(P192.encode_scalar(L), cert.S, registry) and calls
