"""Prime-order groups, hashing into them, and fixed-width encodings.

Two interchangeable backends sit behind one small interface:

* :class:`CurveGroup` -- the NIST curves P-192 and P-256, written in
  Jacobian coordinates.  No dependency-free arithmetic backend is
  packaged for this interpreter, so the point math lives here: one
  doubling and one mixed (Jacobian plus affine) addition formula, the
  latter incomplete.  ``scalar_mul`` makes the same point operations
  for every nonzero scalar, bar a pair or two per curve where the
  addition meets its own operand, on the generator, on a prepared
  point (the ring keys of ``ringsig.forge_tuple``) and on any other
  point (``f * h0(C)``, ``f * h1(window)``).  ``multi_mul`` is
  variable time and takes public scalars only: the verification
  equations and the rogue-list scan's leaked ``f``.
* :class:`ToyGroup` -- the additive group of integers modulo a small
  prime with generator 1.  Scalar multiplication is literal modular
  multiplication, so test oracles can brute-force every claim.

Group elements are plain values: an affine ``(x, y)`` tuple or ``None``
(the point at infinity) for curves, an ``int`` in ``[0, q)`` for the
toy group.  Code above this layer never looks inside an element; it
only passes them back into the owning group object.

Scalar multiplications are the unit of cost accounting for the
signature scheme.  Wrap a region in :func:`count_group_ops` to get an
exact count; outside such a region nothing is recorded.  ``multi_mul``
over n pairs counts n, pairs it skips or merges included; ``prepare``,
``sum_points`` and ``add`` count nothing.
"""

from __future__ import annotations

import contextvars
import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .errors import MappingError, ParseError

__all__ = [
    "CurveGroup",
    "OpCounter",
    "P192",
    "P256",
    "ToyGroup",
    "batch_inverse",
    "count_group_ops",
    "digest32",
    "expand_bytes",
    "get_group",
    "note_extraction",
    "take",
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


def _note_scalar_mul(n: int = 1) -> None:
    for counter in _counters.get():
        counter.scalar_muls += n


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


def batch_inverse(values, modulus: int) -> list[int]:
    """The inverse of each value modulo a prime, or 0 for a value of 0,
    from one ``pow`` (Montgomery's trick): invert the product of the
    nonzero values, then peel them off one multiplication at a time."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % modulus if v else prefix[-1])
    inv = pow(prefix[-1], -1, modulus)
    out = [0] * len(values)
    for i in reversed(range(len(values))):
        if values[i]:
            out[i] = inv * prefix[i] % modulus
            inv = inv * values[i] % modulus
    return out


def take(stream, n: int, what: str) -> bytes:
    """Exactly the next ``n`` bytes of a binary stream such as
    ``io.BytesIO``, or :class:`ParseError` ``"<what> truncated"``: the
    one bounds check under the certificate and signature decoders."""
    data = stream.read(n)
    if len(data) != n:
        raise ParseError(f"{what} truncated")
    return data


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

    def prepare(self, a: int) -> int:
        # multiplication is already one step here: nothing to precompute
        return a

    def multi_mul(self, pairs) -> int:
        _note_scalar_mul(len(pairs))
        return sum(k * a for k, a in pairs) % self.q

    def sum_points(self, points) -> int:
        return sum(points) % self.q

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

def _wnaf(k: int, w: int) -> list[tuple[int, int]]:
    """The nonzero width-``w`` NAF digits of ``k >= 0`` as (position,
    digit) pairs, least significant first: each digit is odd and below
    ``2**(w-1)`` in size, so a row of ``2**(w-2)`` odd multiples holds
    it, and at least ``w - 1`` zeros separate two of them."""
    terms = []
    i = 0
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & mask
        if d & half:
            d -= 1 << w
        terms.append((i, d))
        k = (k - d) >> w
        i += w
    return terms


def _regular_digits(k: int, n: int, w: int) -> list[int]:
    """Joye-Tunstall regular recoding of an odd ``0 < k < 2**(w*n)``.

    Exactly ``n`` digits, least significant first, with
    ``k = sum(d_i * 2**(w*i))``: every digit is odd and below ``2**w``
    in size, the last one positive, so none is ever zero.
    """
    digits = []
    for _ in range(n - 1):
        d = (k & ((2 << w) - 1)) - (1 << w)
        digits.append(d)
        k = (k - d) >> w
    digits.append(k)
    return digits


class _PreparedPoint(tuple):
    """An affine point carrying the split-scalar table of ``prepare``.

    It equals, hashes and encodes as the plain ``(x, y)`` point, so it
    goes wherever a point goes; ``scalar_mul`` and ``multi_mul`` also
    read its ``rows``.
    """

    rows: list


class CurveGroup(_ScalarCodec):
    """A NIST prime curve with cofactor 1.

    Elements are affine ``(x, y)`` tuples, identity is ``None``.
    A base that lives long, such as a certificate's transient key or a
    ring member's key, can be given to ``prepare`` once: with
    L = bits(q) / 8 (24 on P-192, 32 on P-256), its table holds the odd
    multiples 1, 3, 5, 7 of ``2**(L*j) * P`` for j = 0..7 (Lim-Lee split
    rows).

    ``scalar_mul`` recodes the odd one of k and q - k into odd signed
    digits (Joye-Tunstall) and adds one table entry per digit, so its
    pattern does not depend on the scalar: for the generator, bits(q)/4
    digits from row i of a table built once per curve, the odd
    multiples 1, 3, ..., 15 of ``16**i * G``, with no doubling; for a
    prepared point, bits(q)/3 width-3 digits from its split rows, one
    doubling per slice offset (L doublings, 24 on P-192 and 32 on
    P-256); for any other point, a per-call row P, 3P, ..., 15P walked
    most significant digit first, 4 doublings before each addition.
    Every addition, tables included, is one mixed Jacobian-plus-affine
    formula, and it is incomplete: for 2 and q - 2 on a plain point
    (q = 17 mod 32, so q - 2 ends in the digit -1 after a partial sum
    of -P), for the generator's ``+-(30 * 16**(n-1) - q)`` and, on
    P-192 only, for a prepared point's ``+-7 * 2**169``, one addition
    meets its own operand and doubles instead.
    ``multi_mul`` evaluates a whole public equation (a signature check,
    the rogue-list scan) in one interleaved pass (Straus), so n terms
    share a single doubling chain.  The widest scalar on a base that is
    neither prepared nor the generator sets its length: L + 1 doublings
    when those scalars fit L bits (or there is no such base, as in a
    message check on a prepared key: 25 on P-192, 33 on P-256), 2L + 1
    or 4L + 1 when they fit 2L or 4L bits, and bits(q) + 1 otherwise.
    """

    _GEN_WIDTH = 4  # generator-table digits are odd and below 2**4 in size
    _SLICES = 8     # a prepared base splits each scalar into this many slices

    def __init__(self, params: _CurveParams):
        if params.a != -3:
            raise ValueError("_jac_double assumes the curve coefficient a = -3")
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
        self._slice_bits = -(-params.q.bit_length() // self._SLICES)

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
        M = 3 * (X - ZZ) * (X + ZZ) % p  # 3X^2 + a*Z^4 with a = -3
        X3 = (M * M - 2 * S) % p
        Y3 = (M * (S - X3) - 8 * YY * YY) % p
        Z3 = 2 * Y * Z % p
        return (X3, Y3, Z3)

    def _jac_add_affine(self, pt1, pt2):
        # pt1 Jacobian, pt2 a finite affine point: Z2 = 1 saves work
        X1, Y1, Z1 = pt1
        x2, y2 = pt2
        if not Z1:
            return (x2, y2, 1)
        p = self._p
        Z1Z1 = Z1 * Z1 % p
        H = (x2 * Z1Z1 - X1) % p
        R = (y2 * Z1 * Z1Z1 - Y1) % p
        if not H:
            return (1, 1, 0) if R else self._jac_double(pt1)
        HH = H * H % p
        HHH = H * HH % p
        V = X1 * HH % p
        X3 = (R * R - HHH - 2 * V) % p
        return (X3, (R * (V - X3) - Y1 * HHH) % p, Z1 * H % p)

    def _to_affine(self, pt):
        return self._batch_to_affine([pt])[0] if pt[2] else None

    def _batch_to_affine(self, pts):
        # finite Jacobian points to affine with one shared inversion
        p = self._p
        out = []
        for (X, Y, _), zinv in zip(pts, batch_inverse([pt[2] for pt in pts], p)):
            zinv2 = zinv * zinv % p
            out.append((X * zinv2 % p, Y * zinv2 * zinv % p))
        return out

    # -- public group API ---------------------------------------------------

    def add(self, a, b):
        return self.sum_points((a, b))

    def _odd_multiples(self, points, rows: int, n: int, shift: int):
        """Affine rows: the odd multiples 1, 3, ..., 2n-1 of
        ``2**(shift*j) * a`` for j < rows, for each finite point a in turn.

        One doubling chain per point gives every row's base and its
        double; the doubles share one inversion, so each row takes
        n - 1 mixed additions, and the rows share a second inversion.
        """
        bases, twices = [], []
        for x, y in points:
            base = (x, y, 1)
            for j in range(rows):
                twice = self._jac_double(base)
                bases.append(base)
                twices.append(twice)
                if j + 1 < rows:
                    for _ in range(shift - 1):
                        twice = self._jac_double(twice)
                    base = twice
        jac = []
        for base, twice in zip(bases, self._batch_to_affine(twices)):
            jac.append(base)
            for _ in range(n - 1):
                jac.append(self._jac_add_affine(jac[-1], twice))
        flat = self._batch_to_affine(jac)
        return [flat[i : i + n] for i in range(0, len(flat), n)]

    @cached_property
    def _generator_table(self):
        """Row i: the odd multiples 1, 3, ..., 2**w - 1 of ``2**(w*i) * G``,
        affine; enough rows to recode any scalar below q."""
        w = self._GEN_WIDTH
        return self._odd_multiples([self.generator], -(-self.q.bit_length() // w), 1 << (w - 1), w)

    @cached_property
    def _generator_rows(self):
        """The generator's split table: row j is generator-table row
        ``L*j / w`` whole, i.e. 1, 3, ..., 15 times ``2**(L*j) * G``, so
        ``multi_mul`` reads the generator's slices with width-5 digits."""
        step = self._slice_bits // self._GEN_WIDTH
        return [self._generator_table[step * j] for j in range(self._SLICES)]

    @cached_property
    def _split_walk(self):
        """``scalar_mul``'s schedule over a prepared base's rows, as
        (doublings, slice j, digit i) triples, one per width-3 digit of a
        scalar below q.  Digit i sits at bit 3i, i.e. at offset 3i mod L
        of slice 3i // L (of 8); the offsets run from L - 1 down to 0 with
        one doubling each, L = 24 on P-192 and 32 on P-256, and the digits
        that share an offset follow each other with none between them."""
        L = self._slice_bits
        walk, top = [], L
        for i in sorted(range(-(-self.q.bit_length() // 3)), key=lambda i: -(3 * i % L)):
            offset = 3 * i % L
            walk.append((range(top - offset), 3 * i // L, i))
            top = offset
        return walk

    def prepare(self, a):
        """``a`` with its split-scalar table for ``scalar_mul`` and
        ``multi_mul``; counts nothing.

        Row j holds the odd multiples 1, 3, 5, 7 of ``2**(L*j) * a`` for
        j = 0..7: 32 affine points from two inversions, made with 7L + 8
        doublings and 24 mixed additions.  The identity and a prepared
        point come back as they are.
        """
        if a is None or isinstance(a, _PreparedPoint):
            return a
        prepared = _PreparedPoint(a)
        prepared.rows = self._odd_multiples([a], self._SLICES, 4, self._slice_bits)
        return prepared

    def scalar_mul(self, k: int, a):
        _note_scalar_mul()
        k %= self.q
        if k == 0 or a is None:
            return None
        # the recoding needs an odd scalar: k*a = -((q - k)*a)
        odd = k & 1
        k = k if odd else self.q - k
        w = self._GEN_WIDTH
        n = -(-self.q.bit_length() // w)
        # (doublings before, row, digit) for each addition
        if a == self.generator:
            # row i already holds 16**i * G: least significant digit first
            walk = zip(repeat(()), self._generator_table, _regular_digits(k, n, w))
        elif isinstance(a, _PreparedPoint):
            # width 3: the prepared rows hold 1, 3, 5 and 7 times their base
            split = self._split_walk
            digits = _regular_digits(k, len(split), 3)
            walk = ((doublings, a.rows[j], digits[i]) for doublings, j, i in split)
        else:
            (row,) = self._odd_multiples([a], 1, 1 << (w - 1), 0)
            walk = zip(repeat(range(w)), repeat(row), reversed(_regular_digits(k, n, w)))
        double, add, p = self._jac_double, self._jac_add_affine, self._p
        acc = (1, 1, 0)
        for doublings, row, d in walk:
            for _ in doublings:
                acc = double(acc)
            x, y = row[abs(d) >> 1]
            acc = add(acc, (x, y) if d > 0 else (x, p - y))
        x, y = self._to_affine(acc)
        return (x, y) if odd else (x, p - y)

    def multi_mul(self, pairs):
        """The sum of ``k * P`` over ``pairs``; variable time, so every
        scalar must be public.

        Equal points are merged first.  Each base that is neither
        prepared nor the generator gets its odd multiples P..7P as its
        row 0, and the widest scalar on such a fresh base picks the slice
        width: L bits, doubled while that scalar is wider, which gives 8,
        4, 2 or 1 slices for widths up to L, 2L, 4L and beyond.  Each
        scalar is cut into slices of that width, and slice j is added
        from the base's row ``j * 8 / slices`` at the nonzero digits of
        its NAF, width 4 on a 4-entry row and width 5 on the generator's
        8-entry rows, so the chain takes width + 1 doublings: L + 1 for a
        message check on a prepared key.
        """
        _note_scalar_mul(len(pairs))
        q, p, gen, L = self.q, self._p, self.generator, self._slice_bits
        merged: dict = {}
        rows: dict = {}
        for k, pt in pairs:
            if pt is not None:
                merged[pt] = (merged.get(pt, 0) + k) % q
                if isinstance(pt, _PreparedPoint):
                    rows[pt] = pt.rows
        live = {pt: k for pt, k in merged.items() if k}
        if gen in live:
            rows[gen] = self._generator_rows
        fresh = [pt for pt in live if pt not in rows]
        if fresh:
            rows.update((pt, [row]) for pt, row in zip(fresh, self._odd_multiples(fresh, 1, 4, 0)))
        widest = max((live[pt].bit_length() for pt in fresh), default=0)
        width = L
        while width < widest:
            width *= 2
        mask = (1 << width) - 1
        steps: list[list] = [[] for _ in range(width + 1)]
        for pt, k in live.items():
            w = len(rows[pt][0]).bit_length() + 1  # 4 entries: width 4; 8: width 5
            for row in rows[pt][:: width // L]:
                for i, d in _wnaf(k & mask, w):
                    if d > 0:
                        steps[i].append(row[d >> 1])
                    else:
                        x, y = row[-d >> 1]
                        steps[i].append((x, p - y))
                k >>= width
        acc = (1, 1, 0)
        for adds in reversed(steps):
            acc = self._jac_double(acc)
            for pt in adds:
                acc = self._jac_add_affine(acc, pt)
        return self._to_affine(acc)

    def sum_points(self, points):
        """The sum of ``points``: mixed additions, one inversion at the end."""
        acc = (1, 1, 0)
        for pt in points:
            if pt is not None:
                acc = self._jac_add_affine(acc, pt)
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
