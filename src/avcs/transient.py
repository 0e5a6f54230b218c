"""Short-lived signing keys bound into pseudonym certificates.

Application payloads are not ring-signed; each pseudonym certificate
carries a fresh public key for a standard discrete-log signature over
the same group, and only that cheap scheme runs per message.  Nonces
are derived deterministically from the private key and message, so a
broken rng cannot leak the key through nonce reuse.
"""

from __future__ import annotations

from .errors import ParseError

__all__ = ["gen_keypair", "sign", "signature_byte_len", "verify"]


def gen_keypair(group, rng):
    """Fresh keypair (sk, pk) with pk = sk * P.  One scalar mul."""
    sk = rng.randrange(1, group.q)
    return sk, group.scalar_mul(sk, group.generator)


def _nonce(group, sk: int, msg: bytes) -> int:
    counter = 0
    while True:
        seed = counter.to_bytes(4, "big") + group.encode_scalar(sk) + msg
        k = group.hash_to_scalar("nonce", seed)
        if k != 0:
            return k
        counter += 1


def sign(group, sk: int, pk, msg: bytes) -> bytes:
    """Deterministic key-prefixed signature: enc(R) || enc(s)."""
    q = group.q
    k = _nonce(group, sk, msg)
    R = group.scalar_mul(k, group.generator)
    e = group.hash_to_scalar(
        "schnorr", group.encode_element(R) + group.encode_element(pk) + msg
    )
    s = (k + e * sk) % q
    return group.encode_element(R) + group.encode_scalar(s)


def verify(group, pk, msg: bytes, signature: bytes) -> bool:
    """Check s*P - e*pk = R in one multi-scalar multiplication.

    Hostile-input safe; two logical scalar muls.  ``pk`` may come from
    ``group.prepare``, which cuts the check's doubling chain from
    bits(q) + 1 to bits(q)/8 + 1 (25 on P-192).  R stays
    bytes: an encoding equals it iff R decodes to that point.
    """
    ebl = group.element_byte_len
    if len(signature) != signature_byte_len(group):
        return False
    R = signature[:ebl]
    try:
        s = group.decode_scalar(signature[ebl:])
    except ParseError:
        return False
    e = group.hash_to_scalar("schnorr", R + group.encode_element(pk) + msg)
    return group.encode_element(group.multi_mul([(s, group.generator), (-e, pk)])) == R


def signature_byte_len(group) -> int:
    return group.element_byte_len + group.scalar_byte_len
