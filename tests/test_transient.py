"""Transient (per-pseudonym) signature scheme."""

import random

import pytest

from avcs.errors import ParseError
from avcs.groups import P192, P256, ToyGroup
from avcs import transient

BIG_TOY = ToyGroup(2147483647)


def test_round_trip():
    for group in (BIG_TOY, P192):
        rng = random.Random(1)
        sk, pk = transient.gen_keypair(group, rng)
        sig = transient.sign(group, sk, pk, b"road is icy")
        assert len(sig) == transient.signature_byte_len(group)
        assert transient.verify(group, pk, b"road is icy", sig)
        assert not transient.verify(group, pk, b"road is dry", sig)


def test_signatures_are_deterministic():
    rng = random.Random(2)
    sk, pk = transient.gen_keypair(BIG_TOY, rng)
    assert transient.sign(BIG_TOY, sk, pk, b"x") == transient.sign(BIG_TOY, sk, pk, b"x")
    assert transient.sign(BIG_TOY, sk, pk, b"x") != transient.sign(BIG_TOY, sk, pk, b"y")


def test_wrong_key_rejects():
    rng = random.Random(3)
    sk1, pk1 = transient.gen_keypair(BIG_TOY, rng)
    _, pk2 = transient.gen_keypair(BIG_TOY, rng)
    sig = transient.sign(BIG_TOY, sk1, pk1, b"msg")
    assert not transient.verify(BIG_TOY, pk2, b"msg", sig)


def test_challenge_is_short_and_enters_with_its_own_sign():
    # s = k - e*sk with e in [1, 2**lam - 1]: a signature made with +e,
    # or with a full-width challenge, does not verify
    for group in (BIG_TOY, P192, P256):
        sk, pk = transient.gen_keypair(group, random.Random(6))
        msg = b"lane closed"
        signature = transient.sign(group, sk, pk, msg)
        ebl = group.element_byte_len
        R, s = signature[:ebl], group.decode_scalar(signature[ebl:])
        hashed = R + group.encode_element(pk) + msg
        e = group.hash_to_short("schnorr", hashed)
        assert 1 <= e <= 2 ** -(-group.q.bit_length() // 2) - 1
        k = (s + e * sk) % group.q
        assert group.encode_element(group.scalar_mul(k, group.generator)) == R
        full = group.hash_to_scalar("schnorr", hashed)
        for forged in (k + e * sk, k - full * sk):
            assert not transient.verify(group, pk, msg, R + group.encode_scalar(forged))


def test_empty_message_is_fine():
    rng = random.Random(4)
    sk, pk = transient.gen_keypair(P192, rng)
    assert transient.verify(P192, pk, b"", transient.sign(P192, sk, pk, b""))


def test_garbage_signatures_reject_without_raising():
    rng = random.Random(5)
    sk, pk = transient.gen_keypair(P192, rng)
    good = transient.sign(P192, sk, pk, b"m")
    assert not transient.verify(P192, pk, b"m", b"")
    assert not transient.verify(P192, pk, b"m", good[:-1])
    assert not transient.verify(P192, pk, b"m", good + b"\x00")
    assert not transient.verify(P192, pk, b"m", b"\xff" * len(good))
    for i in range(0, len(good), 7):
        bad = bytearray(good)
        bad[i] ^= 0x01
        assert not transient.verify(P192, pk, b"m", bytes(bad))
    # R fields that decode to no point, next to a valid s
    off_curve = next(x for x in range(P192._p) if not on_curve_x(P192, x))
    width = P192.element_byte_len - 1
    for R in (
        b"\x04" + good[1 : 1 + width],  # unknown tag
        b"\x02" + b"\xff" * width,  # x >= p
        b"\x02" + off_curve.to_bytes(width, "big"),
        b"\x00" + b"\x00" * (width - 1) + b"\x01",  # identity tag, dented tail
    ):
        with pytest.raises(ParseError):
            P192.decode_element(R)
        assert not transient.verify(P192, pk, b"m", R + good[1 + width :])


def on_curve_x(group, x):
    try:
        group.decode_element(b"\x02" + x.to_bytes(group.element_byte_len - 1, "big"))
    except ParseError:
        return False
    return True