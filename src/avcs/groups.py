"""Prime-order groups, hashing into them, and fixed-width encodings.

Two interchangeable backends sit behind one small interface:

* :class:`CurveGroup` -- the NIST curves P-192 and P-256, written in
  Jacobian coordinates.  No dependency-free arithmetic backend is
  packaged for this interpreter, so the point math lives here.
* :class:`ToyGroup` -- the additive group of integers modulo a small
  prime with generator 1.  Scalar multiplication is literal modular
  multiplication, so test oracles can brute-force every claim.

Group elements are plain values: an affine ``(x, y)`` tuple or ``None``
(the point at infinity) for curves, an ``int`` in ``[0, q)`` for the
toy group.  Code above this layer never looks inside an element; it
only passes them back into the owning group object.

Scalar multiplications are the unit of cost accounting for the
signature scheme.  Wrap a region in :func:`count_group_ops` to get an
exact call count; outside such a region nothing is recorded.
"""

from __future__ import annotations

import contextvars
import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import MappingError, ParseError

__all__ = [
    "CurveGroup",
    "OpCounter",
    "P192",
    "P256",
    "ToyGroup",
    "count_group_ops",
    "digest32",
    "expand_bytes",
    "get_group",
    "note_extraction",
]


# ---------------------------------------------------------------------------
# hashing helpers
# ---------------------------------------------------------------------------

def _frame(tag: str, payload: bytes) -> bytes:
    tag_bytes = tag.encode("ascii")
    if not 0 < len(tag_bytes) < 256:
        raise ValueError("domain tag must be 1..255 ASCII bytes")
    return bytes([len(tag_bytes)]) + tag_bytes + payload


def digest32(tag: str, data: bytes) -> bytes:
    """One 32-byte digest of ``data`` under an ASCII domain tag.

    The tag is length-prefixed so distinct ``(tag, data)`` pairs can
    never collide by sliding bytes between the two fields.
    """
    return hashlib.sha256(_frame(tag, data)).digest()


def expand_bytes(tag: str, data: bytes, n: int) -> bytes:
    """Derive ``n`` pseudorandom bytes from ``(tag, data)``.

    Counter-mode expansion of the same framed input; block ``i`` is
    ``SHA-256(len(tag) || tag || i || data)`` with a 4-byte counter.
    """
    if n < 0:
        raise ValueError("cannot expand to a negative length")
    out = bytearray()
    counter = 0
    while len(out) < n:
        block = _frame(tag, struct.pack(">I", counter) + data)
        out.extend(hashlib.sha256(block).digest())
        counter += 1
    return bytes(out[:n])


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

class OpCounter:
    """Mutable tally of group operations inside one counting region."""

    __slots__ = ("scalar_muls", "extractions")

    def __init__(self) -> None:
        self.scalar_muls = 0
        self.extractions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpCounter(scalar_muls={self.scalar_muls}, extractions={self.extractions})"


_counters: contextvars.ContextVar[tuple[OpCounter, ...]] = contextvars.ContextVar(
    "avcs_group_op_counters", default=()
)


@contextmanager
def count_group_ops():
    """Count scalar multiplications and key extractions in a region.

    Regions nest; an inner region's operations are also credited to
    every enclosing one.  The context variable keeps concurrent
    threads and tasks from seeing each other's counters.
    """
    counter = OpCounter()
    token = _counters.set(_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _counters.reset(token)


def _note_scalar_mul() -> None:
    for counter in _counters.get():
        counter.scalar_muls += 1


def note_extraction() -> None:
    """Record one combined-public-key extraction (cached or not)."""
    for counter in _counters.get():
        counter.extractions += 1


# ---------------------------------------------------------------------------
# primality (for validating toy moduli)
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, exact for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _ScalarCodec:
    """Fixed-width scalar encoding and hashing, shared by both groups."""

    q: int
    scalar_byte_len: int

    def encode_scalar(self, k: int) -> bytes:
        return (k % self.q).to_bytes(self.scalar_byte_len, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_byte_len:
            raise ParseError("scalar has wrong length")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise ParseError("scalar out of range")
        return value

    def hash_to_scalar(self, tag: str, data: bytes) -> int:
        # expand to twice the scalar width before reducing so the
        # result is statistically uniform even when q is not close to
        # a power of 256
        wide = expand_bytes(tag, data, 2 * self.scalar_byte_len)
        return int.from_bytes(wide, "big") % self.q


# ---------------------------------------------------------------------------
# the toy group
# ---------------------------------------------------------------------------

class ToyGroup(_ScalarCodec):
    """Integers mod a small prime under addition, generator 1.

    Discrete logs are free here (the "public key" k*1 mod q is k), so
    the group is useless for security and perfect for tests: every
    higher-level equation can be checked against plain arithmetic.
    """

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"toy modulus must be prime, got {q}")
        self.q = q
        self.group_id = f"toy:{q}"
        self.scalar_byte_len = (q.bit_length() + 7) // 8
        self.element_byte_len = self.scalar_byte_len
        self.generator = 1
        self.identity = 0

    def __repr__(self) -> str:
        return f"ToyGroup(q={self.q})"

    def is_identity(self, a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def scalar_mul(self, k: int, a: int) -> int:
        _note_scalar_mul()
        return (k % self.q) * a % self.q

    def encode_element(self, a: int) -> bytes:
        return a.to_bytes(self.element_byte_len, "big")

    def decode_element(self, data: bytes) -> int:
        if len(data) != self.element_byte_len:
            raise ParseError("toy element has wrong length")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise ParseError("toy element out of range")
        return value

    def hash_to_group(self, tag: str, data: bytes) -> int:
        # never returns the identity: honest protocol elements derived
        # by hashing must stay invertible
        value = int.from_bytes(digest32(tag, data), "big")
        return value % (self.q - 1) + 1


# ---------------------------------------------------------------------------
# short Weierstrass curves, Jacobian coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CurveParams:
    name: str
    p: int
    a: int
    b: int
    q: int          # order of the (prime-order) group of points
    gx: int
    gy: int


_P192 = _CurveParams(
    name="p192",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    q=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
)

_P256 = _CurveParams(
    name="p256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    q=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)

class CurveGroup(_ScalarCodec):
    """A NIST prime curve with cofactor 1.

    Elements are affine ``(x, y)`` tuples, identity is ``None``.
    Scalar multiplication runs double-and-add over Jacobian
    coordinates with a single field inversion at the end; on this
    interpreter that lands around a millisecond per multiplication on
    P-192, which is what the benchmark command reports against.
    """

    def __init__(self, params: _CurveParams):
        self._p = params.p
        self._a = params.a % params.p
        self._b = params.b
        self.q = params.q
        self.group_id = params.name
        self._field_byte_len = (params.p.bit_length() + 7) // 8
        self.scalar_byte_len = (params.q.bit_length() + 7) // 8
        self.element_byte_len = 1 + self._field_byte_len
        self.generator = (params.gx, params.gy)
        self.identity = None

    def __repr__(self) -> str:
        return f"CurveGroup({self.group_id})"

    # -- affine predicates --------------------------------------------------

    def is_identity(self, a) -> bool:
        return a is None

    def _on_curve(self, pt) -> bool:
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + self._a * x + self._b)) % self._p == 0

    # -- Jacobian core ------------------------------------------------------
    #
    # (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z == 0 is infinity.

    def _jac_double(self, pt):
        X, Y, Z = pt
        p = self._p
        if not Y or not Z:
            return (1, 1, 0)
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + self._a * ZZ * ZZ) % p
        X3 = (M * M - 2 * S) % p
        Y3 = (M * (S - X3) - 8 * YY * YY) % p
        Z3 = 2 * Y * Z % p
        return (X3, Y3, Z3)

    def _jac_add(self, pt1, pt2):
        p = self._p
        X1, Y1, Z1 = pt1
        X2, Y2, Z2 = pt2
        if not Z1:
            return pt2
        if not Z2:
            return pt1
        Z1Z1 = Z1 * Z1 % p
        Z2Z2 = Z2 * Z2 % p
        U1 = X1 * Z2Z2 % p
        U2 = X2 * Z1Z1 % p
        S1 = Y1 * Z2 * Z2Z2 % p
        S2 = Y2 * Z1 * Z1Z1 % p
        if U1 == U2:
            if S1 != S2:
                return (1, 1, 0)
            return self._jac_double(pt1)
        H = (U2 - U1) % p
        R = (S2 - S1) % p
        HH = H * H % p
        HHH = H * HH % p
        V = U1 * HH % p
        X3 = (R * R - HHH - 2 * V) % p
        Y3 = (R * (V - X3) - S1 * HHH) % p
        Z3 = Z1 * Z2 * H % p
        return (X3, Y3, Z3)

    def _to_jacobian(self, pt):
        if pt is None:
            return (1, 1, 0)
        return (pt[0], pt[1], 1)

    def _to_affine(self, pt):
        X, Y, Z = pt
        if not Z:
            return None
        p = self._p
        zinv = pow(Z, -1, p)
        zinv2 = zinv * zinv % p
        return (X * zinv2 % p, Y * zinv2 * zinv % p)

    # -- public group API ---------------------------------------------------

    def add(self, a, b):
        return self._to_affine(self._jac_add(self._to_jacobian(a), self._to_jacobian(b)))

    def scalar_mul(self, k: int, a):
        _note_scalar_mul()
        k %= self.q
        if k == 0 or a is None:
            return None
        acc = (1, 1, 0)
        addend = self._to_jacobian(a)
        while k:
            if k & 1:
                acc = self._jac_add(acc, addend)
            addend = self._jac_double(addend)
            k >>= 1
        return self._to_affine(acc)

    # -- encodings ------------------------------------------------------

    def encode_element(self, a) -> bytes:
        # compressed form: parity tag then the x coordinate; the
        # identity is the all-zero string, which no finite point can
        # produce because its tag byte would be 2 or 3
        if a is None:
            return b"\x00" * self.element_byte_len
        x, y = a
        tag = 3 if y & 1 else 2
        return bytes([tag]) + x.to_bytes(self._field_byte_len, "big")

    def decode_element(self, data: bytes):
        if len(data) != self.element_byte_len:
            raise ParseError("element has wrong length")
        tag = data[0]
        if tag == 0:
            if any(data[1:]):
                raise ParseError("malformed identity encoding")
            return None
        if tag not in (2, 3):
            raise ParseError("unknown point compression tag")
        x = int.from_bytes(data[1:], "big")
        p = self._p
        if x >= p:
            raise ParseError("x coordinate out of range")
        rhs = (x * x * x + self._a * x + self._b) % p
        y = pow(rhs, (p + 1) // 4, p)  # p = 3 mod 4 for both curves
        if y * y % p != rhs:
            raise ParseError("x coordinate is not on the curve")
        if (y & 1) != (tag & 1):
            y = p - y
        return (x, y)

    # -- hashing into the structures -----------------------------------

    def hash_to_group(self, tag: str, data: bytes):
        # try-and-increment: about half of all x values lie on the
        # curve, so 256 attempts fail with probability ~2^-256
        p = self._p
        for attempt in range(256):
            candidate = digest32(tag, bytes([attempt]) + data)
            x = int.from_bytes(candidate, "big") % p
            rhs = (x * x * x + self._a * x + self._b) % p
            y = pow(rhs, (p + 1) // 4, p)
            if y * y % p == rhs:
                return (x, y if y % 2 == 0 else p - y)
        raise MappingError(f"no curve point found for tag {tag!r}")


P192 = CurveGroup(_P192)
P256 = CurveGroup(_P256)


def get_group(group_id: str):
    """Look up a group by its identifier: ``p192``, ``p256``, ``toy:<q>``."""
    name = group_id.strip().lower()
    if name == "p192":
        return P192
    if name == "p256":
        return P256
    if name.startswith("toy:"):
        try:
            q = int(name[4:], 0)
        except ValueError:
            raise ParseError(f"bad toy modulus in group id {group_id!r}") from None
        return ToyGroup(q)
    raise ParseError(f"unknown group id {group_id!r}")
