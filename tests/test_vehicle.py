"""Vehicle node: send scheduling, receive pipeline, buffers, revocation."""

import gc
import math
import random
import secrets
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcs import transient
from avcs.errors import ParseError, ProvisioningError
from avcs.groups import P192, _PreparedPoint, count_group_ops
from avcs.hardware import (
    MAX_VALIDITY,
    WINDOW_TAGS,
    ManualClock,
    PseudonymCertificate,
    _tags,
    join,
    leak_master_secret,
    pack_content,
    signed_message,
)
from avcs.ringsig import (
    MAX_ID_BYTES,
    MAX_RING,
    PRODUCTION,
    ManufactoryRegistry,
    RingSignature,
    keygen,
    ring_sign,
    ring_verify,
    setup,
)
from avcs.vehicle import (
    FRAME_CERT,
    FRAME_MSG,
    REJECTION_REASONS,
    VehicleState,
    cert_fingerprint,
    encode_cert_frame,
    encode_message_frame,
)
from helpers import PROPERTY, chi_square, toy_world


def tags(frames):
    return [f[0] for f in frames]


# ---------------------------------------------------------------------------
# send scheduling
# ---------------------------------------------------------------------------


def send_all(v, payloads):
    return [f for p in payloads for f in v.send_next(p)]


def test_send_next_five_messages_k10():
    world = toy_world(1)
    v = world.vehicles[0]
    v.make_pseudonym(600, random.Random(1))
    frames = send_all(v, [f"m{i}".encode() for i in range(5)])
    assert tags(frames) == [FRAME_CERT] + [FRAME_MSG] * 5
    assert frames[0] == v.certificate_frame


def test_send_next_twenty_messages_k10():
    world = toy_world(1)
    v = world.vehicles[0]
    v.make_pseudonym(600, random.Random(2))
    frames = send_all(v, [f"m{i}".encode() for i in range(20)])
    expected = (
        [FRAME_CERT]
        + [FRAME_MSG] * 9
        + [FRAME_CERT]
        + [FRAME_MSG] * 10
        + [FRAME_CERT]
        + [FRAME_MSG]
    )
    assert tags(frames) == expected
    cert_positions = [i for i, t in enumerate(tags(frames)) if t == FRAME_CERT]
    assert cert_positions == [0, 10, 21]


def test_send_next_k1_resends_before_every_message():
    world = toy_world(1, k=1)
    v = world.vehicles[0]
    v.make_pseudonym(600, random.Random(3))
    frames = send_all(v, [b"a", b"b", b"c"])
    assert tags(frames) == [
        FRAME_CERT,
        FRAME_CERT, FRAME_MSG,
        FRAME_CERT, FRAME_MSG,
        FRAME_CERT, FRAME_MSG,
    ]


def test_send_requires_certificate():
    world = toy_world(1)
    v = world.vehicles[0]
    with pytest.raises(ProvisioningError):
        v.send_next(b"x")


# ---------------------------------------------------------------------------
# receive pipeline, certificate path
# ---------------------------------------------------------------------------


def deliver_cert(sender, receiver, now=None, validity=600, seed=1, ring=None):
    sender.make_pseudonym(validity, random.Random(seed), ring=ring)
    frame = sender.certificate_frame
    return receiver.receive(frame, now if now is not None else sender.hsm.clock.now()), frame


def test_accept_then_duplicate():
    world = toy_world(2)
    v0, v1 = world.vehicles
    result, frame = deliver_cert(v0, v1)
    assert result.accepted
    again = v1.receive(frame, world.clock.now())
    assert again.outcome == "duplicate"
    assert again.reason == "duplicate"


def test_sybil_same_window():
    world = toy_world(3)
    v0, v1, v2 = world.vehicles
    first, _ = deliver_cert(v0, v1, seed=10)
    assert first.accepted
    # same window, fresh certificate: equal T
    v0.make_pseudonym(600, random.Random(11))
    second = v1.receive(v0.certificate_frame, world.clock.now())
    assert second.outcome == "reject" and second.reason == "sybil"
    # a receiver that never saw the first accepts the second
    assert v2.receive(v0.certificate_frame, world.clock.now()).accepted


def test_expired_and_not_yet_valid():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    v0.make_pseudonym(10, random.Random(5))  # expires at 1010
    frame = v0.certificate_frame
    assert v1.receive(frame, 1016.0).reason == "expired"  # > exp + 5s skew
    assert v1.receive(frame, 994.0).reason == "expired"   # < issue - 5s skew
    assert v1.receive(frame, 1012.0).accepted              # inside skew


def test_replayed_stale_certificate_reports_expired_not_duplicate():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    result, frame = deliver_cert(v0, v1, validity=10, seed=6)
    assert result.accepted
    # long after expiry the buffered entry is pruned, so the replay is
    # judged on its own merits: expired
    replay = v1.receive(frame, 1100.0)
    assert replay.outcome == "reject" and replay.reason == "expired"


def test_pruned_certificate_frees_its_t():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    short, _ = deliver_cert(v0, v1, validity=10, seed=7)  # expires 1010
    assert short.accepted
    # same window, so the same T; the short certificate is pruned by 1016
    long_lived, _ = deliver_cert(v0, v1, now=1016.0, validity=600, seed=8)
    assert long_lived.accepted
    third, _ = deliver_cert(v0, v1, now=1017.0, validity=600, seed=9)
    assert third.outcome == "reject" and third.reason == "sybil"


def test_fingerprint_collision_replaces_buffered_t(monkeypatch):
    # every frame gets the same fingerprint: a second certificate
    # replaces the first in the buffer, and the first one's T goes too
    monkeypatch.setattr("avcs.vehicle.cert_fingerprint", lambda frame: b"\x00" * 8)
    world = toy_world(3)
    v0, v1, v2 = world.vehicles
    assert deliver_cert(v0, v1, seed=10)[0].accepted
    assert deliver_cert(v2, v1, seed=11)[0].accepted
    assert deliver_cert(v0, v1, seed=12)[0].accepted  # same T as the replaced one


def test_revoked():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v1.revoke(leak_master_secret(v0.hsm))
    result, _ = deliver_cert(v0, v1, seed=7)
    assert result.reason == "revoked"
    # unrelated revocations do not hurt honest vehicles
    v1.revoke(12345)
    world.clock.advance(60.0)  # next window, avoid the sybil check
    result2, _ = deliver_cert(v0, v1, seed=8)
    assert result2.reason == "revoked"


def test_revoke_other_f_leaves_honest_alone():
    world = toy_world(3)
    v0, v1, v2 = world.vehicles
    v1.revoke(leak_master_secret(v2.hsm))
    result, _ = deliver_cert(v0, v1, seed=9)
    assert result.accepted


def test_rogue_list_misses_certificates_minted_outside_the_module():
    # the rogue list matches T = f * h1(window), so it catches what the
    # module mints; a certificate ring-signed in software with the same
    # module's leaked identity key d, and with a random R and T, is accepted
    world = toy_world(2)
    v0, v1 = world.vehicles
    v1.revoke(leak_master_secret(v0.hsm))
    assert deliver_cert(v0, v1, seed=7)[0].reason == "revoked"
    group, rng = world.group, random.Random(13)
    d = v0.hsm._HardwareModule__identity_key  # pulled out as leak_master_secret pulls f
    _, pk = transient.gen_keypair(group, rng)
    C = pack_content(group, pk, world.clock.now(), 600)
    R, T = (group.scalar_mul(rng.randrange(1, group.q), group.generator) for _ in range(2))
    ring = [v0.hsm.identity, v1.hsm.identity]
    S = ring_sign(signed_message(group, C, R, T), ring, d, 0, world.registry, rng)
    frame = encode_cert_frame(PseudonymCertificate(C, R, T, S), group)
    assert v1.receive(frame, world.clock.now()).outcome == "accept"


def test_fractional_span_takes_the_window_from_the_issue_second():
    # 7.6 s lies in window 3 of a 2.5 s span, its issue second 7 in window
    # 2: the module binds T where the receiver looks
    world = toy_world(2, min_span=2.5, start_time=7.6)
    v0, v1 = world.vehicles
    v1.revoke(leak_master_secret(v0.hsm))
    assert deliver_cert(v0, v1, seed=7)[0].reason == "revoked"
    tag = world.group.hash_to_group("h1", struct.pack(">Q", 2))
    assert v0.current_certificate.T == world.group.scalar_mul(leak_master_secret(v0.hsm), tag)


def counted_tag_prepares(monkeypatch, window):
    """The comb shape of each table ``P192.prepare`` builds from here on
    for h1(window): (32, 16) for a ring key's comb, None for short rows."""
    shapes, prepare = [], P192.prepare
    tag = P192.hash_to_group("h1", struct.pack(">Q", window))

    def counted_prepare(a, *args):
        out = prepare(a, *args)
        if out is not a and out == tag:
            shapes.append(out.comb)
        return out

    monkeypatch.setattr(P192, "prepare", counted_prepare)
    return shapes


def test_old_unexpired_certificate_keeps_the_tag_cache_bounded(monkeypatch):
    sender, plain, revoking, clock = p192_pair(n=3)
    plain.revoke(12345)
    revoking.revoke(leak_master_secret(sender.hsm))
    sender.make_pseudonym(3600, random.Random(69))
    old, old_window = sender.certificate_frame, math.floor(clock.now() / 60.0)
    for _ in range(WINDOW_TAGS):  # later windows push the old one's tag out
        clock.advance(60.0)
        revoking.make_pseudonym(600, random.Random(70))
    plain.make_pseudonym(600, random.Random(72))  # the revoking receiver keeps now's set
    assert revoking.receive(plain.certificate_frame, clock.now()).accepted
    kept = dict(revoking._rogue_ts)
    assert list(kept) == [math.floor(clock.now() / 60.0)]
    cached = list(_tags.items())
    shapes = counted_tag_prepares(monkeypatch, old_window)
    assert plain.receive(old, clock.now()).accepted
    assert revoking.receive(old, clock.now()).reason == "revoked"
    # each scan of the old window runs on a comb of its own, which nobody
    # keeps: the cached tags stay as they were, and no set is kept
    assert shapes == [(32, 16), (32, 16)]
    assert list(_tags.items()) == cached
    assert revoking._rogue_ts == kept
    cert = sender.make_pseudonym(600, random.Random(71))
    tag = P192.hash_to_group("h1", struct.pack(">Q", math.floor(clock.now() / 60.0)))
    assert cert.T == P192.scalar_mul(leak_master_secret(sender.hsm), tag)


def test_forged_old_window_frame_keeps_no_tag(monkeypatch):
    sender, receiver, clock = p192_pair()
    receiver.revoke(12345)
    sender.make_pseudonym(600, random.Random(74))  # caches this window's tag
    assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    kept = dict(receiver._rogue_ts)
    assert list(kept) == [math.floor(clock.now() / 60.0)]
    rng = random.Random(75)
    _, pk = transient.gen_keypair(P192, rng)
    R, T = (P192.scalar_mul(rng.randrange(1, P192.q), P192.generator) for _ in range(2))
    S = sender.current_certificate.S
    cached = list(_tags.items())
    shapes = counted_tag_prepares(monkeypatch, math.floor(clock.now() / 60.0) - 10)
    # issued 10 windows back, expiring in an hour: both expiry checks pass
    C = pack_content(P192, pk, clock.now() - 600, 4200)
    frame = encode_cert_frame(PseudonymCertificate(C, R, T, S), P192)
    for _ in range(2):
        assert receiver.receive(frame, clock.now()).reason == "bad-signature"
    # a comb per scan, never kept: the frame cannot push a tag out, nor
    # build or push out a set of rogue T values
    assert shapes == [(32, 16), (32, 16)]
    assert list(_tags.items()) == cached
    assert receiver._rogue_ts == kept


def test_second_certificate_of_a_window_recalls_the_rogue_ts():
    a, b, c, d, plain, revoking, clock = p192_pair(n=6)
    ring = [v.hsm.identity for v in (a, b, c, d)]
    rng = random.Random(76)
    for f in (rng.randrange(1, P192.q) for _ in range(4)):
        revoking.revoke(f)
    for v in (a, b):  # two accepted signatures over the ring prepare its keys
        v.make_pseudonym(600, rng, ring)
        assert plain.receive(v.certificate_frame, clock.now()).accepted
    clock.advance(60.0)
    frames = []
    for v in (a, b):
        v.make_pseudonym(600, rng, ring)
        frames.append(v.certificate_frame)
    counts = []
    for receiver, frame in ((revoking, frames[0]), (revoking, frames[1]), (plain, frames[1])):
        with count_group_ops() as ops:
            assert receiver.receive(frame, clock.now()).accepted
        counts.append(ops)
    for ops in counts[:2]:
        assert (ops.scalar_muls, ops.extractions) == (3 * 4 + 4, 4)
    # the first scan of a window is one multi_muls, with an inversion of
    # its own; the second frame makes the work of a receiver with no entry
    first, second, unrevoking = ((ops.doublings, ops.additions, ops.inversions) for ops in counts)
    assert second == unrevoking
    assert first[2] == second[2] + 1 == 2


def test_revoke_drops_the_kept_rogue_ts():
    world = toy_world(3, ring_size=2)
    v0, v1, v2 = world.vehicles
    v2.revoke(12345)
    assert deliver_cert(v0, v2, seed=77)[0].accepted
    assert list(v2._rogue_ts) == [world.clock.now() // 60]
    v2.revoke(leak_master_secret(v1.hsm))  # in the middle of the window
    assert v2._rogue_ts == {}
    assert deliver_cert(v1, v2, seed=78)[0].reason == "revoked"


def test_kept_rogue_ts_stay_bounded():
    world = toy_world(2, ring_size=2)
    v0, v1 = world.vehicles
    v1.revoke(12345)
    windows = []
    for _ in range(3 * WINDOW_TAGS):
        assert deliver_cert(v0, v1, seed=79)[0].accepted
        windows.append(world.clock.now() // 60)
        assert list(v1._rogue_ts) == windows[-WINDOW_TAGS:]
        world.clock.advance(60.0)


def test_revoke_idempotent():
    world = toy_world(1)
    v = world.vehicles[0]
    v.revoke(42)
    v.revoke(42)
    assert v.rogue_list == {42}


def test_bad_signature():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(12))
    frame = bytearray(v0.certificate_frame)
    frame[-1] ^= 0x01  # inside the ring signature's last tuple
    result = v1.receive(bytes(frame), world.clock.now())
    assert result.outcome == "reject" and result.reason == "bad-signature"


def test_malformed_frames():
    world = toy_world(2)
    v0, v1 = world.vehicles
    now = world.clock.now()
    assert v1.receive(b"", now).reason == "malformed"
    assert v1.receive(b"\x03whatever", now).reason == "malformed"
    v0.make_pseudonym(600, random.Random(13))
    truncated = v0.certificate_frame[: len(v0.certificate_frame) // 2]
    assert v1.receive(truncated, now).reason == "malformed"
    assert v1.receive(v0.certificate_frame + b"\x00", now).reason == "malformed"


# ---------------------------------------------------------------------------
# pipeline precedence
# ---------------------------------------------------------------------------


def test_duplicate_beats_sybil():
    # the exact same frame trivially has an equal T in the buffer, yet
    # the verdict must be duplicate
    world = toy_world(2)
    v0, v1 = world.vehicles
    _, frame = deliver_cert(v0, v1, seed=20)
    assert v1.receive(frame, world.clock.now()).outcome == "duplicate"


def test_sybil_beats_expired():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    result, _ = deliver_cert(v0, v1, validity=600, seed=21)
    assert result.accepted
    v0.make_pseudonym(10, random.Random(22))  # same window, expires 1010
    stale_sybil = v0.certificate_frame
    verdict = v1.receive(stale_sybil, 1020.0)  # expired AND same-window T
    assert verdict.reason == "sybil"


def test_expired_beats_revoked():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    v1.revoke(leak_master_secret(v0.hsm))
    v0.make_pseudonym(10, random.Random(23))
    verdict = v1.receive(v0.certificate_frame, 1020.0)
    assert verdict.reason == "expired"


def test_validity_above_the_cap_is_expired_before_any_multiplication():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    group, now = world.group, world.clock.now()
    v1.revoke(leak_master_secret(v0.hsm))  # a rogue scan would multiply
    with pytest.raises(ValueError, match="validity"):
        v0.make_pseudonym(MAX_VALIDITY - 0.5, random.Random(25))
    pk = group.scalar_mul(7, group.generator)
    # genuine module signatures over C that span, at an integer now, one
    # second above the cap and then exactly the cap; the same window's T
    # would make the second a sybil had the first been buffered
    for validity, verdict in ((MAX_VALIDITY + 1, "expired"), (MAX_VALIDITY, "revoked")):
        cert = v0.hsm._bind_and_sign(pack_content(group, pk, now, validity), [v0.hsm.identity], 0,
                                     now, random.Random(26))
        with count_group_ops() as ops:
            assert v1.receive(encode_cert_frame(cert, group), now).reason == verdict
        assert ops.scalar_muls == (0 if verdict == "expired" else 1)
    v0.make_pseudonym(MAX_VALIDITY - 1, random.Random(27))  # the longest a module mints
    parsed = v0.current_certificate.parse_c(group)
    assert parsed.expiration - parsed.issue == MAX_VALIDITY - 1


def test_revoked_beats_bad_signature():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v1.revoke(leak_master_secret(v0.hsm))
    v0.make_pseudonym(600, random.Random(24))
    frame = bytearray(v0.certificate_frame)
    frame[-1] ^= 0x01
    verdict = v1.receive(bytes(frame), world.clock.now())
    assert verdict.reason == "revoked"


# ---------------------------------------------------------------------------
# receive pipeline, message path
# ---------------------------------------------------------------------------


def test_message_before_certificate_is_no_cert():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(30))
    msg_frame = v0.send_next(b"early")[-1]
    verdict = v1.receive(msg_frame, world.clock.now())
    assert verdict.reason == "no-cert"


def test_message_round_trip_payload_identical():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(31))
    payload = bytes(range(256))
    frames = v0.send_next(payload)
    outcomes = [v1.receive(f, world.clock.now()) for f in frames]
    assert outcomes[0].accepted
    assert outcomes[1].accepted
    assert outcomes[1].payload == payload


def test_message_with_corrupted_signature():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(32))
    cert_frame, msg_frame = v0.send_next(b"tamper me")
    assert v1.receive(cert_frame, world.clock.now()).accepted
    bad = bytearray(msg_frame)
    bad[-1] ^= 0x01
    assert v1.receive(bytes(bad), world.clock.now()).reason == "bad-signature"


def test_message_with_unknown_fingerprint():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(33))
    cert_frame, msg_frame = v0.send_next(b"hello")
    assert v1.receive(cert_frame, world.clock.now()).accepted
    bad = bytearray(msg_frame)
    bad[3] ^= 0xFF  # inside the fingerprint
    assert v1.receive(bytes(bad), world.clock.now()).reason == "no-cert"


def test_message_length_mismatch_is_malformed():
    world = toy_world(2)
    v0, v1 = world.vehicles
    v0.make_pseudonym(600, random.Random(34))
    _, msg_frame = v0.send_next(b"shrink")
    assert v1.receive(msg_frame[:-1], world.clock.now()).reason == "malformed"
    assert v1.receive(msg_frame + b"\x00", world.clock.now()).reason == "malformed"


def test_message_after_cert_expiry_is_no_cert():
    world = toy_world(2, start_time=1000.0)
    v0, v1 = world.vehicles
    v0.make_pseudonym(10, random.Random(35))
    cert_frame, msg_frame = v0.send_next(b"short lived")
    assert v1.receive(cert_frame, 1001.0).accepted
    assert v1.receive(msg_frame, 1002.0).accepted
    late = v0.send_next(b"too late")[-1]
    assert v1.receive(late, 1100.0).reason == "no-cert"


# ---------------------------------------------------------------------------
# prepared certificate keys (on P-192, where a prepared key is its own type)
# ---------------------------------------------------------------------------


def p192_pair(seed=60, n=2, *, shared_registry=True):
    rng = random.Random(seed)
    mk = setup(P192, rng=rng, manufactory_id="c")
    registries = [ManufactoryRegistry(P192) for _ in range(1 if shared_registry else n)]
    for registry in registries:
        registry.register_master(mk)
    clock = ManualClock(1000.0)
    vehicles = [
        VehicleState(join(mk, f"c:plate-{i}", registries[i % len(registries)], rng, clock=clock))
        for i in range(n)
    ]
    return (*vehicles, clock)


def prepared_entries(v):
    return [fp for fp, entry in v.pseudonym_buf.items() if isinstance(entry.pk, _PreparedPoint)]


def corrupted(frame):
    bad = bytearray(frame)
    bad[-1] ^= 0x01
    return bytes(bad)


def test_second_accepted_message_prepares_the_key():
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(600, random.Random(61))
    cert_frame, first = sender.send_next(b"m0")
    fp = cert_fingerprint(cert_frame)
    assert receiver.receive(cert_frame, clock.now()).accepted
    entry = receiver.pseudonym_buf[fp]
    plain = entry.pk
    keys = []
    for frame in [first] + [sender.send_next(f"m{i}".encode())[-1] for i in (1, 2, 3)]:
        with count_group_ops() as ops:
            assert receiver.receive(frame, clock.now()).accepted
        assert ops.scalar_muls == 2
        assert entry.pk == plain
        keys.append(entry.pk)
    assert not isinstance(keys[0], _PreparedPoint)
    assert isinstance(keys[1], _PreparedPoint)
    assert keys[1].comb is None  # short rows, the layout a challenge fills
    assert keys[1] is keys[2] is keys[3]  # built once, then reused


def test_bad_message_prepares_nothing():
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(600, random.Random(62))
    cert_frame, first = sender.send_next(b"m0")
    assert receiver.receive(cert_frame, clock.now()).accepted
    entry = receiver.pseudonym_buf[cert_fingerprint(cert_frame)]
    for frame in (corrupted(first), first, corrupted(sender.send_next(b"m1")[-1])):
        verdict = receiver.receive(frame, clock.now())
        assert verdict.accepted == (frame is first)
        assert not isinstance(entry.pk, _PreparedPoint)
    assert receiver.receive(sender.send_next(b"m2")[-1], clock.now()).accepted
    assert isinstance(entry.pk, _PreparedPoint)


def test_pruned_certificate_drops_its_table():
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(10, random.Random(63))  # expires at 1010
    frames = sender.send_next(b"m0") + sender.send_next(b"m1")
    assert all(receiver.receive(f, 1001.0).accepted for f in frames)
    assert prepared_entries(receiver) == [cert_fingerprint(frames[0])]
    clock.advance(60.0)  # next window, so not a sybil
    sender.make_pseudonym(600, random.Random(64))
    assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    assert len(receiver.pseudonym_buf) == 1
    assert prepared_entries(receiver) == []


def test_replaced_certificate_drops_its_table(monkeypatch):
    monkeypatch.setattr("avcs.vehicle.cert_fingerprint", lambda frame: b"\x00" * 8)
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(600, random.Random(65))
    frames = sender.send_next(b"m0") + sender.send_next(b"m1")
    assert all(receiver.receive(f, clock.now()).accepted for f in frames)
    assert prepared_entries(receiver) == [b"\x00" * 8]
    clock.advance(60.0)
    sender.make_pseudonym(600, random.Random(66))
    assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    assert prepared_entries(receiver) == []


def logged_decodes(monkeypatch):
    """Every encoding P192.decode_element is asked to decompress."""
    decoded = []
    decode = P192.decode_element
    monkeypatch.setattr(P192, "decode_element", lambda data: decoded.append(data) or decode(data))
    return decoded


def test_resent_certificate_is_a_duplicate_without_parsing(monkeypatch):
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(10, random.Random(68))  # expires at 1010
    frame = sender.certificate_frame
    assert receiver.receive(frame, clock.now()).accepted
    decoded = logged_decodes(monkeypatch)
    for now in (1000.0, 1015.0):  # the second is the last instant within the skew
        assert receiver.receive(frame, now).outcome == "duplicate"
    assert decoded == []
    # once pruning drops the entry, the replay is parsed and judged: expired
    replay = receiver.receive(frame, 1016.0)
    assert replay.outcome == "reject" and replay.reason == "expired"
    assert decoded and not receiver.pseudonym_buf


def pk_bytes(cert):
    return cert.C[1 : 1 + P192.element_byte_len]


def splice(frame, field, replacement):
    at = frame.index(field)
    return frame[:at] + replacement + frame[at + len(field):]


def test_accepted_certificate_decodes_its_key_and_each_u_only(monkeypatch):
    *vehicles, clock = p192_pair(seed=74, n=4)
    sender, receiver = vehicles[:2]
    cert = sender.make_pseudonym(600, random.Random(75), ring=[v.hsm.identity for v in vehicles])
    decoded = logged_decodes(monkeypatch)
    assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    us = [P192.encode_element(U) for _, U, _ in cert.S.tuples]
    assert decoded == [pk_bytes(cert)] + us  # 1 + r square roots, none for R or T


def test_open_chain_ghost_ring_decodes_only_its_key(monkeypatch):
    _, receiver, clock = p192_pair(seed=80)
    rng = random.Random(81)

    def point():
        return P192.hash_to_group("ghost", rng.randbytes(16))

    sbl = P192.scalar_byte_len
    C = pack_content(P192, point(), clock.now(), 30.0)
    tuples = tuple((rng.randbytes(sbl), point(), rng.randrange(1, P192.q)) for _ in range(8))
    S = RingSignature(1, rng.randbytes(sbl), tuple(f"c:ghost-{i}" for i in range(8)), tuples)
    frame = encode_cert_frame(PseudonymCertificate(C, point(), point(), S), P192)
    decoded = logged_decodes(monkeypatch)
    with count_group_ops() as ops:
        result = receiver.receive(frame, clock.now())
    assert result.outcome == "reject" and result.reason == "bad-signature"
    assert decoded == [C[1 : 1 + P192.element_byte_len]]
    assert (ops.scalar_muls, ops.extractions) == (0, 0)


def ghost_ring_frame(clock, r, rng, ids=None):
    """A certificate frame whose ring of r ids, fresh ones unless ``ids``
    are given, closes its chain, as anyone can close one: the glue of
    ``ring_sign`` with every tuple's U and v random, so it must end
    ``bad-signature``."""
    sbl = P192.scalar_byte_len

    def point():
        return P192.hash_to_group("ghost", rng.randbytes(16))

    C, R, T = pack_content(P192, point(), clock.now(), 30.0), point(), point()
    msg = signed_message(P192, C, R, T)
    gamma = rng.randbytes(sbl)
    w = [PRODUCTION.chain(P192, msg, gamma)]
    ms = [rng.randbytes(sbl) for _ in range(r - 1)]
    for m in ms:
        w.append(PRODUCTION.chain(P192, msg, bytes(a ^ b for a, b in zip(w[-1], m))))
    ms.append(bytes(a ^ b for a, b in zip(gamma, w[-1])))
    tuples = tuple((m, point(), rng.randrange(1, P192.q)) for m in ms)
    S = RingSignature(1, w[0], tuple(ids or (f"c:ghost-{i}" for i in range(r))), tuples)
    return encode_cert_frame(PseudonymCertificate(C, R, T, S), P192)


def test_ring_above_the_cap_is_malformed_before_any_multiplication():
    _, receiver, clock = p192_pair(seed=86)
    rng = random.Random(87)
    # MAX_RING members: the chain closes, so all 3r multiplications and r
    # extractions run before the tuples fail
    with count_group_ops() as ops:
        result = receiver.receive(ghost_ring_frame(clock, MAX_RING, rng), clock.now())
    assert (result.outcome, result.reason) == ("reject", "bad-signature")
    assert (ops.scalar_muls, ops.extractions) == (3 * MAX_RING, MAX_RING)
    # one more member: the parser stops at the header
    with count_group_ops() as ops:
        result = receiver.receive(ghost_ring_frame(clock, MAX_RING + 1, rng), clock.now())
    assert (result.outcome, result.reason) == ("reject", "malformed")
    assert (ops.scalar_muls, ops.extractions) == (0, 0)
    with pytest.raises(ValueError, match="ring_size"):
        VehicleState(receiver.hsm, ring_size=MAX_RING + 1)


def test_an_id_above_the_cap_is_malformed_before_any_multiplication():
    _, receiver, clock = p192_pair(seed=88)
    rng = random.Random(89)
    longest = "c:" + "g" * (MAX_ID_BYTES - 2)
    frame = ghost_ring_frame(clock, 2, rng, ids=("c:ghost-0", longest))
    assert receiver.receive(frame, clock.now()).reason == "bad-signature"
    # the same frame with one more byte in that id, which no signer can
    # serialize: the parser stops at its length
    field = struct.pack(">H", MAX_ID_BYTES) + longest.encode()
    over = frame.replace(field, struct.pack(">H", MAX_ID_BYTES + 1) + longest.encode() + b"g")
    with count_group_ops() as ops:
        result = receiver.receive(over, clock.now())
    assert (result.outcome, result.reason) == ("reject", "malformed")
    assert (ops.scalar_muls, ops.extractions, ops.roots) == (0, 0, 0)
    assert "c:" + "g" * (MAX_ID_BYTES - 1) not in receiver.id_buf


def test_closed_ghost_rings_stay_inside_a_budget_linear_in_r():
    # the most an attacker-closed ring of r cold ids can cost on P-192,
    # whatever the tuples: one chain to at most 200 steps (full-width
    # scalars on plain keys, raised to a multiple of the generator's 8)
    # plus one doubling for each E_i's and U_i's odd multiples; per
    # member at most 64 additions for its cold extraction, 3 + 3 for
    # the odd multiples and width-4 NAF digits of a full-width scalar on
    # E_i (49) and a 96-bit one on U_i (25), with at most 150 for the
    # generator's merged term (its comb's 16 columns); one inversion per
    # cold extraction, one for the fresh
    # bases' rows and one for the sum
    _, receiver, clock = p192_pair(seed=86)
    rng = random.Random(87)
    for r in (1, 8, MAX_RING):
        frame = ghost_ring_frame(clock, r, rng)
        with count_group_ops() as ops:
            result = receiver.receive(frame, clock.now())
        assert (result.outcome, result.reason) == ("reject", "bad-signature")
        assert ops.doublings <= 200 + 2 * r, r
        assert ops.additions <= 150 + 150 * r, r
        assert ops.inversions <= 2 + r, r


def test_closed_ghost_rings_over_comb_keys_cost_a_comb_chain_per_member():
    # ids warm at the receiver, their keys prepared: each tuple is a sum of
    # its own on its key's 16-step comb chain, 15 doublings, as G's
    # columns fill every step, and 32 column additions plus G's 16 from its
    # first table; the r sums share one inversion, and the one square
    # root is the transient key's, as no U_i is decoded
    _, receiver, clock = p192_pair(seed=88)
    registry = receiver.hsm.registry
    rng = random.Random(89)
    mk = setup(P192, rng=rng, manufactory_id="w")
    registry.register_master(mk)
    ids = [f"w:warm-{i}" for i in range(MAX_RING)]
    sig = ring_sign(b"warm", ids, keygen(mk, ids[0]), 0, registry, rng)
    assert ring_verify(b"warm", sig, registry)  # the second use of every id
    assert all(P192.has_comb(registry._cache[id_str]) for id_str in ids)
    for r in (1, 8, MAX_RING):
        frame = ghost_ring_frame(clock, r, rng, ids=ids[:r])
        with count_group_ops() as ops:
            result = receiver.receive(frame, clock.now())
        assert (result.outcome, result.reason) == ("reject", "bad-signature")
        assert (ops.scalar_muls, ops.extractions) == (3 * r, r)
        assert (ops.doublings, ops.additions) == (15 * r, (32 + 16) * r), r
        assert (ops.inversions, ops.roots) == (1, 1), r


def test_public_checks_draw_no_blind(monkeypatch):
    # batch_inverse blinds where a secret can reach it, from secrets: a mint,
    # a master set-up and a signer's nonce draw, while the tables of public
    # points (the generator's, a ring key's or a window tag's comb, a
    # transient key's rows, a registry's subset sums), cold extractions and
    # the checks on them, whose inversions see public values alone, draw
    # nothing
    # each vehicle keeps its own keys, so the receiver's own checks build its combs
    sender, receiver, clock = p192_pair(seed=90, shared_registry=False)
    draws = []
    randbelow = secrets.randbelow
    monkeypatch.setattr(secrets, "randbelow", lambda n: draws.append(n) or randbelow(n))
    assert type(P192).generator.func(P192).rows == P192.generator.rows  # the generator's comb, built afresh
    assert receiver.hsm.registry.derive_pubkey("c:cold-0") is not None  # an extraction nobody cached
    assert draws == []
    ring = [sender.hsm.identity, receiver.hsm.identity]
    cache = receiver.hsm.registry._cache
    assert sender.hsm.identity not in cache
    for seed in (91, 92):  # the first acceptance extracts the sender's key cold, the second prepares every key
        sender.make_pseudonym(600, random.Random(seed), ring=ring)
        assert not any(P192.has_comb(cache.get(id_str)) for id_str in ring)
        draws.clear()  # the mint's
        assert receiver.receive(sender.certificate_frame, clock.now()).accepted
        assert draws == []
        clock.advance(60.0)
    assert all(P192.has_comb(cache[id_str]) for id_str in ring)
    draws.clear()
    mk = setup(P192, rng=random.Random(94), manufactory_id="d")
    assert len(draws) == 1  # the one conversion of the multiples of the secret X keeps the blind
    draws.clear()
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    assert draws == []
    # a ring of one: U_s = l*G's conversion and the inverse of the signer's l
    ring_sign(b"nonce", ["d:signer"], keygen(mk, "d:signer"), 0, registry, random.Random(95))
    assert len(draws) == 2
    sender.make_pseudonym(600, random.Random(93), ring=ring)
    assert draws
    cert_frame, message = sender.send_next(b"public")
    draws.clear()  # the message's nonce is secret
    with count_group_ops() as ops:
        assert receiver.receive(cert_frame, clock.now()).accepted
    assert ops.roots == 1  # the transient key's: each U_i is compared by encoding
    assert receiver.receive(message, clock.now()).accepted
    assert draws == []
    [second] = sender.send_next(b"prepares the key")
    draws.clear()
    assert receiver.receive(second, clock.now()).accepted
    assert prepared_entries(receiver)
    assert draws == []
    # a window tag nobody has cached: a comb of 64 points
    assert sum(map(len, receiver.hsm.window_tag(clock.now() + 6000, clock.now()).rows)) == 64
    assert draws == []


def test_off_curve_u_closes_the_chain_and_is_a_bad_signature(monkeypatch):
    sender, receiver, clock = p192_pair(seed=82)
    ring = [sender.hsm.identity, receiver.hsm.identity]
    cert = sender.make_pseudonym(600, random.Random(83), ring=ring)
    x = next(x for x in range(1, 100) if P192._lift_x(x, 0) is None)
    off_curve = b"\x02" + x.to_bytes(P192.element_byte_len - 1, "big")
    u0, u1 = (P192.encode_element(U) for _, U, _ in cert.S.tuples)
    frame = splice(sender.certificate_frame, u1, off_curve)
    decoded = logged_decodes(monkeypatch)
    with count_group_ops() as ops:
        result = receiver.receive(frame, clock.now())
    assert result.outcome == "reject" and result.reason == "bad-signature"
    # the chain covers w and the m_i only: it closed, both keys extracted,
    # and the bad U_1 was the first thing that failed to decode
    assert decoded == [pk_bytes(cert), u0, off_curve]
    assert (ops.scalar_muls, ops.extractions) == (0, 2)
    assert not receiver.pseudonym_buf


def test_non_canonical_r_t_or_u_is_malformed():
    sender, receiver, clock = p192_pair(seed=84)
    cert = sender.make_pseudonym(600, random.Random(85))
    frame = sender.certificate_frame
    tail = P192.element_byte_len - 1
    for point in (cert.R, cert.T, cert.S.tuples[0][1]):
        field = P192.encode_element(point)
        for junk in (b"\x05" + field[1:], b"\x02" + b"\xff" * tail, b"\x00" + field[1:]):
            result = receiver.receive(splice(frame, field, junk), clock.now())
            assert result.outcome == "reject" and result.reason == "malformed"
    assert receiver.receive(frame, clock.now()).accepted


def test_rogue_scan_on_a_prepared_tag():
    sender, receiver, clock = p192_pair()
    receiver.revoke(12345)
    receiver.revoke(67890)
    sender.make_pseudonym(600, random.Random(67))
    with count_group_ops() as ops:
        assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    assert ops.scalar_muls == 3 * 1 + 2  # r = 1, one per rogue entry
    receiver.revoke(leak_master_secret(sender.hsm))
    clock.advance(60.0)
    sender.make_pseudonym(600, random.Random(68))
    assert receiver.receive(sender.certificate_frame, clock.now()).reason == "revoked"


def test_rogue_scan_builds_no_table_per_certificate(monkeypatch):
    sender, receiver, clock = p192_pair()
    receiver.revoke(12345)
    receiver.revoke(67890)
    assert deliver_cert(sender, receiver, seed=72)[0].accepted  # prepares the ring key
    clock.advance(60.0)
    sender.make_pseudonym(600, random.Random(73))  # caches this window's tag
    calls = []
    prepare, hash_to_group = P192.prepare, P192.hash_to_group

    def counted_prepare(a, *args, **kwargs):
        out = prepare(a, *args, **kwargs)
        if out is not a:  # a prepared key comes back as it is; anything else built a table
            calls.append("prepare")
        return out

    monkeypatch.setattr(P192, "prepare", counted_prepare)
    monkeypatch.setattr(P192, "hash_to_group", lambda *a: calls.append("hash_to_group") or hash_to_group(*a))
    assert receiver.receive(sender.certificate_frame, clock.now()).accepted
    assert calls == []


# ---------------------------------------------------------------------------
# hostile bytes at the trust boundary
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["toy", "p192"])
def boundary(request):
    """Real frames from two senders, and fresh receivers that hold the
    first sender's certificate."""
    if request.param == "toy":
        world = toy_world(3)
        a, b, rx = world.vehicles
        clock = world.clock
    else:
        a, b, rx, clock = p192_pair(seed=70, n=3)
    ids = [v.hsm.identity for v in (a, b, rx)]
    a.make_pseudonym(600, random.Random(71), ring=ids)
    b.make_pseudonym(600, random.Random(72), ring=[ids[1], ids[0]])
    frames = a.send_next(b"m0") + a.send_next(b"m1")[-1:] + b.send_next(b"n0")
    now = clock.now()

    def receiver():
        state = VehicleState(rx.hsm)
        assert state.receive(a.certificate_frame, now).accepted
        return state

    return rx.hsm.group, frames, receiver, now


@st.composite
def hostile_frames(draw, frames):
    """A real frame with bytes overwritten, cut short, or spliced onto
    the tail of another."""
    frame = bytearray(draw(st.sampled_from(frames)))
    how = draw(st.sampled_from(("mutate", "truncate", "splice")))
    if how == "mutate":
        for _ in range(draw(st.integers(1, 3))):
            frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    elif how == "truncate":
        del frame[draw(st.integers(0, len(frame) - 1)):]
    else:
        other = draw(st.sampled_from(frames))
        frame[draw(st.integers(0, len(frame))):] = other[draw(st.integers(0, len(other))):]
    return bytes(frame)


@PROPERTY
@given(data=st.data())
def test_hostile_frames_parse_canonically_and_get_a_verdict(boundary, data):
    group, frames, receiver, now = boundary
    frame = data.draw(hostile_frames(frames))
    try:
        cert = PseudonymCertificate.from_bytes(frame[1:], group)
    except ParseError:
        pass
    else:  # encodings are canonical: what parses re-encodes to itself
        assert cert.to_bytes(group) == frame[1:]
    result = receiver().receive(frame, now)
    assert result.outcome in ("accept", "duplicate") or (
        result.outcome == "reject" and result.reason in REJECTION_REASONS
    )


# ---------------------------------------------------------------------------
# id buffer and ring choice
# ---------------------------------------------------------------------------


def test_id_harvest_excludes_own_id():
    world = toy_world(3, preseed=False)
    v0, v1, v2 = world.vehicles
    ring = [v0.hsm.identity, v1.hsm.identity, v2.hsm.identity]
    v0.make_pseudonym(600, random.Random(40), ring=ring)
    assert v1.receive(v0.certificate_frame, world.clock.now()).accepted
    assert set(v1.id_buf) == {v0.hsm.identity, v2.hsm.identity}


def test_a_ring_larger_than_ours_gives_at_most_ring_size_ids():
    # an unmodified module signs any ring that holds its own id once, so its
    # owner can mint over 63 ghost ids: each receiver keeps at most
    # ring_size of them, picked by a hash keyed to that receiver
    world = toy_world(3, preseed=False, ring_size=4)
    v0, v1, v2 = world.vehicles
    ghosts = [f"m:ghost-{i:02d}" for i in range(63)]
    v0.make_pseudonym(600, random.Random(42), ring=[v0.hsm.identity] + ghosts)
    for receiver in (v1, v2):
        assert receiver.receive(v0.certificate_frame, world.clock.now()).accepted
        assert 0 < len(receiver.id_buf) <= receiver.ring_size
        assert set(receiver.id_buf) <= {v0.hsm.identity, *ghosts}
    assert set(v1.id_buf) != set(v2.id_buf)


def test_id_buffer_eviction_oldest_first(monkeypatch):
    monkeypatch.setattr(VehicleState, "ID_CAPACITY", 3)
    world = toy_world(1, preseed=False)
    v = world.vehicles[0]
    for i in range(5):
        v.harvest_ids([f"m:h-{i}"])
    assert list(v.id_buf) == ["m:h-2", "m:h-3", "m:h-4"]


def test_id_capacity_zero_keeps_no_ids(monkeypatch):
    monkeypatch.setattr(VehicleState, "ID_CAPACITY", 0)
    world = toy_world(2, preseed=False)
    v0, v1 = world.vehicles
    # zero keeps no ids, and receiving still works
    v0.make_pseudonym(600, random.Random(41), ring=[v0.hsm.identity])
    assert v1.receive(v0.certificate_frame, world.clock.now()).accepted
    assert not v1.id_buf


def test_choose_ring_empty_buffer():
    world = toy_world(1, preseed=False)
    v = world.vehicles[0]
    assert v.choose_ring(random.Random(1)) == [v.hsm.identity]


def test_choose_ring_sampling_contract():
    world = toy_world(1, preseed=False, ring_size=10)
    v = world.vehicles[0]
    v.harvest_ids([f"m:c-{i}" for i in range(100)])
    ring = v.choose_ring(random.Random(2))
    assert len(ring) == 10
    assert ring.count(v.hsm.identity) == 1
    assert len(set(ring)) == 10


def test_choose_ring_position_uniform():
    world = toy_world(1, preseed=False, ring_size=4)
    v = world.vehicles[0]
    v.harvest_ids([f"m:u-{i}" for i in range(10)])
    rng = random.Random(3)
    counts = [0, 0, 0, 0]
    for _ in range(1000):
        counts[v.choose_ring(rng).index(v.hsm.identity)] += 1
    assert chi_square(counts) < 11.3449  # p > 0.01 at 3 degrees of freedom


# ---------------------------------------------------------------------------
# fleet-scale sanity
# ---------------------------------------------------------------------------


def test_no_false_sybil_across_1000_honest_modules():
    world = toy_world(1000, ring_size=1, preseed=False)
    receiver = world.vehicles[0]
    rejections = 0
    for i, v in enumerate(world.vehicles[1:], start=1):
        v.make_pseudonym(3600, random.Random(i))
        verdict = receiver.receive(v.certificate_frame, world.clock.now())
        rejections += not verdict.accepted
        assert verdict.reason != "sybil"
    assert rejections == 0


def test_second_cert_in_window_flagged_by_every_witness():
    world = toy_world(6)
    attacker, *others = world.vehicles
    attacker.make_pseudonym(600, random.Random(50))
    first = attacker.certificate_frame
    witnesses = others[:3]
    for w in witnesses:
        assert w.receive(first, world.clock.now()).accepted
    attacker.make_pseudonym(600, random.Random(51))
    second = attacker.certificate_frame
    for w in witnesses:
        assert w.receive(second, world.clock.now()).reason == "sybil"
    for w in others[3:]:
        assert w.receive(second, world.clock.now()).accepted


def test_mint_receipt_and_message_check_leave_no_cyclic_garbage():
    # perfbench times its blocks with gc disabled, so a reference cycle
    # that a call leaves behind stays in memory and peak_rss_mb grows
    *vehicles, clock = p192_pair(seed=84, n=4)
    sender, receiver = vehicles[:2]
    ring = [v.hsm.identity for v in vehicles]

    def traffic(seed):
        # a mint, an accepted r = 4 certificate, and three messages: the
        # third is checked on the key prepared at the second
        sender.make_pseudonym(600, random.Random(seed), ring=ring)
        frames = [sender.certificate_frame] + [sender.send_next(f"m{i}".encode())[-1] for i in range(3)]
        assert all(receiver.receive(frame, clock.now()).accepted for frame in frames)
        clock.advance(60.0)  # the next window, so the next pseudonym is no sybil

    traffic(85)  # tables and caches built on first use stay out of the count
    gc.collect()
    gc.disable()
    try:
        traffic(86)
        assert gc.collect() == 0
    finally:
        gc.enable()
