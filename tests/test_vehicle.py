"""Vehicle node: send scheduling, receive pipeline, buffers, revocation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcs import transient
from avcs.errors import ParseError, ProvisioningError
from avcs.groups import P192, _PreparedPoint, count_group_ops
from avcs.hardware import (
    ManualClock,
    PseudonymCertificate,
    join,
    leak_master_secret,
    pack_content,
    signed_message,
)
from avcs.ringsig import ManufactoryRegistry, ring_sign, setup
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
    # the rogue list matches R = f * h0(C), so it catches what the module
    # mints; a certificate ring-signed in software with the same module's
    # leaked identity key d, and with a random R and T, is accepted
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


def p192_pair(seed=60, n=2):
    rng = random.Random(seed)
    mk = setup(P192, rng=rng, manufactory_id="c")
    registry = ManufactoryRegistry(P192)
    registry.register_master(mk)
    clock = ManualClock(1000.0)
    vehicles = [
        VehicleState(join(mk, f"c:plate-{i}", registry, rng, clock=clock)) for i in range(n)
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


def test_resent_certificate_is_a_duplicate_without_parsing(monkeypatch):
    sender, receiver, clock = p192_pair()
    sender.make_pseudonym(10, random.Random(68))  # expires at 1010
    frame = sender.certificate_frame
    assert receiver.receive(frame, clock.now()).accepted
    decoded = []
    decode = P192.decode_element
    monkeypatch.setattr(P192, "decode_element", lambda data: decoded.append(data) or decode(data))
    for now in (1000.0, 1015.0):  # the second is the last instant within the skew
        assert receiver.receive(frame, now).outcome == "duplicate"
    assert decoded == []
    # once pruning drops the entry, the replay is parsed and judged: expired
    replay = receiver.receive(frame, 1016.0)
    assert replay.outcome == "reject" and replay.reason == "expired"
    assert decoded and not receiver.pseudonym_buf


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


def test_id_buffer_eviction_oldest_first():
    world = toy_world(1, preseed=False, id_capacity=3)
    v = world.vehicles[0]
    for i in range(5):
        v._harvest_ids([f"m:h-{i}"])
    assert list(v.id_buf) == ["m:h-2", "m:h-3", "m:h-4"]


def test_id_capacity_must_be_nonnegative():
    world = toy_world(2, preseed=False, id_capacity=0)
    v0, v1 = world.vehicles
    with pytest.raises(ValueError):
        VehicleState(v1.hsm, id_capacity=-1)
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
    v._harvest_ids([f"m:c-{i}" for i in range(100)])
    ring = v.choose_ring(random.Random(2))
    assert len(ring) == 10
    assert ring.count(v.hsm.identity) == 1
    assert len(set(ring)) == 10


def test_choose_ring_position_uniform():
    world = toy_world(1, preseed=False, ring_size=4)
    v = world.vehicles[0]
    v._harvest_ids([f"m:u-{i}" for i in range(10)])
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
