"""Prime-order groups, hashing into them, and fixed-width encodings.

Two interchangeable backends sit behind one small interface:

* :class:`CurveGroup` -- the NIST curves P-192 and P-256, written in
  Jacobian coordinates.  No dependency-free arithmetic backend is
  packaged for this interpreter, so the point math lives here: one
  kernel, ``_sum``, evaluates and counts every doubling and mixed
  (Jacobian plus affine) addition, the latter incomplete, and affine
  lanes of independent additions share one inversion.  ``scalar_mul``
  makes the same point operations for every nonzero scalar, bar a pair
  per base where the addition meets its own operand, on a signed comb
  (the generator's, which the group holds prepared, and a prepared
  point's: the ring keys of ``ringsig.forge_tuple`` and the window tag
  of ``f * h1(window)``) and on any other point (``f * h0(C)``), and it
  runs one code path: the fold to the odd one of k and k - q and each
  digit's table entry and sign are integer arithmetic, never a branch.
  ``fixed_multi_muls`` does the same for several sums, each over any
  mix of bases (a forge's ``b*E + a*G``).  ``multi_mul`` is variable
  time and takes public scalars only: the verification equations and
  the rogue-list scan's leaked ``f``.  ``fixed_multi_muls`` and
  ``multi_muls`` convert their sums to affine points with one shared
  inversion (a mint's R and T, a ring's forgeries, a rogue scan).
* :class:`ToyGroup` -- the additive group of integers modulo a small
  prime with generator 1.  Scalar multiplication is literal modular
  multiplication, so test oracles can brute-force every claim.

Group elements are plain values: an affine ``(x, y)`` tuple or ``None``
(the point at infinity) for curves, an ``int`` in ``[0, q)`` for the
toy group.  Code above this layer never looks inside an element; it
only passes them back into the owning group object.  A field read off
the wire can stay the bytes ``check_encoding`` passed until arithmetic
needs its point: ``encode_element`` returns such bytes unchanged.

Scalar multiplications are the unit of cost accounting for the
signature scheme.  Wrap a region in :func:`count_group_ops` to get an
exact count; outside such a region nothing is recorded.  ``multi_mul``
over n pairs counts n, pairs it skips or merges included;
``multi_muls`` and ``fixed_multi_muls`` count the pairs of every sum;
``prepare``, ``sum_points``, ``subset_sums`` and ``add`` count no
scalar multiplication.  The same region also counts the point operations
(doublings, mixed additions, inversions, lane additions and lane steps)
and square roots that every call made, each taken from the schedule of
the code that runs it (:class:`OpCounter`).

Logical counts follow the cost model whether a result is computed or
recalled: a caller that recalls a multiple or a key it made earlier
records it with :func:`note_scalar_muls` or :func:`note_extraction`,
as a receiver does for the rogue-list T values it keeps per window and
the registry for a cached key.  The physical counts record only what
ran.
"""

from __future__ import annotations

import contextvars
import hashlib
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

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
    "note_scalar_muls",
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
    """Mutable tally of group operations inside one counting region.

    Beside the logical counts (scalar multiplications, key extractions)
    it holds the physical point operations on a curve, counted from the
    schedule of the code that runs them: Jacobian doublings, mixed
    additions (an addition onto the identity included), field inversions
    (one per conversion to affine coordinates and one per lane step),
    and the affine lane additions and lane steps of ``subset_sums`` and
    a comb's build.  It also counts square roots, one
    per ``x -> y`` lift of a point decode or a hash-to-curve attempt.

    The logical slots follow the cost model, so a multiplication or an
    extraction whose result is recalled counts as if it ran; the
    physical slots count only the work that ran.
    """

    __slots__ = ("scalar_muls", "extractions", "doublings", "additions", "inversions",
                 "roots", "lane_additions", "lane_steps")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "OpCounter(" + ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__) + ")"


_counters: contextvars.ContextVar[tuple[OpCounter, ...]] = contextvars.ContextVar(
    "avcs_group_op_counters", default=()
)


@contextmanager
def count_group_ops():
    """Count group operations, logical and physical, in a region.

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


def note_scalar_muls(n: int) -> None:
    """Record ``n`` logical scalar multiplications, computed or recalled."""
    for counter in _counters.get():
        counter.scalar_muls += n


def _note_points(doublings: int, additions: int, inversions: int = 0) -> None:
    for counter in _counters.get():
        counter.doublings += doublings
        counter.additions += additions
        counter.inversions += inversions


def _note_root() -> None:
    for counter in _counters.get():
        counter.roots += 1


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


def batch_inverse(values, modulus: int, *, public: bool = False) -> list[int]:
    """The inverse of each value modulo a prime, or 0 for a value of 0,
    from one ``pow`` (Montgomery's trick): invert the product of the
    nonzero values, then peel them off one multiplication at a time.

    The product is blinded first: times a fresh nonzero factor from
    ``secrets``, inverted, and times the factor again, so the steps of
    the one extended Euclid do not depend on the values, which may be
    Jacobian Z coordinates of secret multiples or a secret nonce.  The
    factor never comes from a caller's rng, whose draws stay as they
    are.  A call site whose values are all public passes ``public=True``
    and inverts them as they are: the variable-time sums, the tables
    ``_odd_multiples`` and ``_comb`` build on public bases (the
    generator, ring keys, window tags and transient keys), every
    ``_add_lanes`` step and ``sum_points`` (a comb's build, the
    ``subset_sums`` of a public vector, a cold extraction, ``add``) and
    a signature's published v_i.  ``fixed_multi_muls`` (a master
    set-up's multiples of its secret vector among its sums), a forgery's
    b and a signer's nonce keep the blind.  Values that are all 0, such
    as the identity an accepted signature check sums to, come back as
    zeros with no blind and no Euclid."""
    if not any(values):
        return [0] * len(values)
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % modulus if v else prefix[-1])
    blind = 1 if public else secrets.randbelow(modulus - 1) + 1
    inv = pow(prefix[-1] * blind % modulus, -1, modulus) * blind % modulus
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

    def hash_to_short(self, tag: str, data: bytes) -> int:
        """A hashed scalar in ``[1, 2**lam - 1]``, lam = bits(q)/2 rounded
        up (96 on P-192, 128 on P-256): the Schnorr challenge and
        ``ring_verify``'s randomizers, half as wide as a full scalar."""
        short = (1 << -(-self.q.bit_length() // 2)) - 1
        return self.hash_to_scalar(tag, data) % short + 1


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
        note_scalar_muls(1)
        return (k % self.q) * a % self.q

    def prepare(self, a: int, short: bool = False) -> int:
        # multiplication is already one step here: nothing to precompute
        return a

    def has_comb(self, a) -> bool:
        return False

    def multi_mul(self, pairs) -> int:
        note_scalar_muls(len(pairs))
        return sum(k * a for k, a in pairs) % self.q

    def multi_muls(self, sums) -> list[int]:
        return [self.multi_mul(pairs) for pairs in sums]

    # literal multiplication has one pattern for every scalar
    fixed_multi_muls = multi_muls

    def sum_points(self, points) -> int:
        return sum(points) % self.q

    def subset_sums(self, points, w: int) -> list[list[int]]:
        rows = [[0] for _ in range(0, len(points), w)]
        for i, pt in enumerate(points):
            rows[i // w] += [(s + pt) % self.q for s in rows[i // w]]
        return rows

    def encode_element(self, a) -> bytes:
        if isinstance(a, bytes):
            return a
        return a.to_bytes(self.element_byte_len, "big")

    def check_encoding(self, data: bytes) -> bytes:
        if len(data) != self.element_byte_len:
            raise ParseError("toy element has wrong length")
        if int.from_bytes(data, "big") >= self.q:
            raise ParseError("toy element out of range")
        return data

    def decode_element(self, data: bytes) -> int:
        return int.from_bytes(self.check_encoding(data), "big")

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
    """The nonzero width-``w`` NAF digits of ``k >= 1`` as (position,
    digit) pairs, least significant first: each digit is odd and below
    ``2**(w-1)`` in size, so a row of ``2**(w-2)`` odd multiples holds
    it, and none lies above k's top bit."""
    terms, i, top = [], 0, k.bit_length()
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
    if terms[-1][0] == top:
        # the last negative d, at bit j, carried through a run of ones to bit
        # top: 2**(top-j) + d takes positive digits of w - 1 bits, which never carry
        del terms[-1]
        j, d = terms.pop()
        v = (1 << top - j) + d
        while v:
            zeros = (v & -v).bit_length() - 1
            terms.append((j + zeros, (v >> zeros) & (half - 1)))
            v >>= zeros + w - 1
            j += zeros + w - 1
    return terms


def _regular_digits(k: int, n: int, w: int) -> list[tuple[int, int]]:
    """Joye-Tunstall regular recoding of an odd k, ``|k| < 2**(w*n)``.

    Exactly ``n`` (position, digit) pairs, digit i at bit ``w*i``, with
    ``k = sum(d_i * 2**(w*i))``: every digit is odd and below ``2**w``
    in size, the last one of k's sign, so none is ever zero.  The same
    steps recode -k into the negated digits.
    """
    digits, mask, half = [], (2 << w) - 1, 1 << w
    for i in range(0, w * (n - 1), w):
        d = (k & mask) - half
        digits.append((i, d))
        k = (k - d) >> w
    digits.append((w * (n - 1), k))
    return digits


class _PreparedPoint(tuple):
    """An affine point carrying the table of ``prepare``.

    It equals, hashes and encodes as the plain ``(x, y)`` point, so it
    goes wherever a point goes; ``scalar_mul`` and ``multi_mul`` also
    read its ``rows``.  On a signed comb they are its tables, and
    ``comb`` is (the teeth's spacing, the tables' offset): (32, 16) for a
    ring key or a window tag, two tables, and for the generator (16, 8),
    two tables, on P-192 and (24, 8), three, on P-256.  With ``comb``
    None they are a transient key's short rows of 1, 3, 5, 7 times the
    point, 16 bits apart.
    """

    rows: list
    comb: tuple[int, int] | None = None


class CurveGroup(_ScalarCodec):
    """A NIST prime curve with cofactor 1.

    Elements are affine ``(x, y)`` tuples, identity is ``None``.
    A base that lives long, such as a certificate's transient key, a
    ring member's key or a window's h1 tag, can be given to ``prepare``
    once.  A ring key or a tag gets a signed comb (Lim-Lee, in the
    regular form of Hedabou, Pinel and Beneteau) in two tables: teeth =
    bits(q) / 32 bases ``B_j = 2**(32j) * P``, the ``2**(teeth-1)`` sums
    ``B_0 +- B_1 +- ... +- B_(teeth-1)``, and the same sums times
    ``2**16``.  The generator is held on a comb of the same kind whose
    walk takes 8 steps: teeth 16 bits apart in two tables 8 bits apart
    on P-192, 24 bits apart in three on P-256.  A transient key gets
    short rows of 1, 3, 5, 7 times ``2**(16j) * P``, as many as its
    half-width challenges fill: the other of ``prepare``'s two shapes.

    Every multiplication places its digits by bit position on one
    doubling chain (``_chain``), run by ``_sum``, the one kernel that
    evaluates and counts a doubling or a mixed addition, for the tables'
    builds too; the sum stays Jacobian until the call makes all of its
    sums affine with one inversion.  ``scalar_mul`` recodes the odd one
    of k and q - k, the latter negated, picked by arithmetic
    (``_odd_fold``), into nonzero digits, and ``_sum`` takes each
    digit's entry and sign by arithmetic too, so neither its operations
    nor its code path depend on the scalar: on a comb, one column per
    bit of a tooth, one from each table per step (a ring key's 32 on 16
    steps, G's 16 or 24 on 8); on any other point, a plain point equal
    to G included, width-4 digits on a per-call row P, 3P, ..., 15P.
    What each table and each walk costs, per curve, is a row of the
    README's operation table (``avcs.bench.operation_table``):
    ``prepare generator``, ``prepare comb``, ``scalar_mul G``, ``scalar_mul
    plain`` and so on.
    Every addition of a walk or of an odd-multiple table is one mixed
    Jacobian-plus-affine formula, and it is incomplete: for 2 and q - 2
    on a plain point (q = 17 mod 32, so q - 2 ends in the digit -1 after
    a partial sum of -P), and on a comb for k = 2**(L+1) * c_L + M * q
    and q - k, c_L being k's column L added last, from the last table
    (L = 16, M = 1 on a ring key's comb; on G's, L = 8, M = 1 on P-192
    and L = 16, M = 3 on P-256), one addition meets its own operand and
    doubles instead.
    ``multi_mul`` evaluates a whole public equation (a signature check,
    the rogue-list scan) in one interleaved pass (Straus), so n terms
    share one chain: as many steps as a prepared key's rows lie apart
    (16 for a transient key or a ring key's comb, 8 for G alone), and on
    plain keys the first multiple of 8 (of 16 beside a comb) above the
    half-width scalars' top digit, where a comb reads its first table
    alone.
    """

    _ROW_WIDTH = 4  # per-call row digits are odd and below 2**4 in size
    _COMB_SPACING = 32  # a ring key's teeth lie this many bits apart: its columns
    _COMB_STEPS = 16  # its tables lie this far apart, a walk's steps, and so do a transient key's rows
    _GEN_STEPS = 8  # the generator's tables lie this far apart: its walk's steps
    _BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary string's digits as bytes 0, 1

    def __init__(self, params: _CurveParams):
        if params.a != -3:
            raise ValueError("_sum assumes the curve coefficient a = -3")
        self._p = params.p
        self._a = params.a % params.p
        self._b = params.b
        self.q = params.q
        self.group_id = params.name
        self._field_byte_len = (params.p.bit_length() + 7) // 8
        self.scalar_byte_len = (params.q.bit_length() + 7) // 8
        self.element_byte_len = 1 + self._field_byte_len
        self._g = (params.gx, params.gy)
        self.identity = None
        self._root_exp = (params.p + 1) >> 2

    def __repr__(self) -> str:
        return f"CurveGroup({self.group_id})"

    # -- affine predicates --------------------------------------------------

    def is_identity(self, a) -> bool:
        return a is None

    # -- Jacobian core ------------------------------------------------------
    #
    # (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z == 0 is infinity.

    def _add_lanes(self, acc, pts):
        """Add ``pts[i]`` to ``acc[i]`` in place for every lane, in affine
        coordinates, all lanes sharing one ``batch_inverse`` (Montgomery's
        simultaneous inversion): about 6 field multiplications per
        addition.  A lane that holds the identity, or whose points share
        an x coordinate (P + P, P + (-P)), has a zero denominator, which
        ``batch_inverse`` passes through as 0, and takes the exact
        ``sum_points`` instead.  Every caller adds public points (a comb's
        build, ``subset_sums``), so the inversion is unblinded."""
        p = self._p
        for counter in _counters.get():
            counter.lane_additions += len(pts)
            counter.lane_steps += 1
            counter.inversions += 1
        zinvs = batch_inverse([b[0] - a[0] if a and b else 0 for a, b in zip(acc, pts)], p, public=True)
        for i, (a, b, zinv) in enumerate(zip(acc, pts, zinvs)):
            if not zinv:
                acc[i] = self.sum_points((a, b))
                continue
            x1, y1 = a
            slope = (b[1] - y1) * zinv % p
            x3 = (slope * slope - x1 - b[0]) % p
            acc[i] = (x3, (slope * (x1 - x3) - y1) % p)

    def _batch_to_affine(self, pts, public: bool = False):
        # Jacobian points to affine ones, Z = 0 to None, with one inversion if any is finite
        p = self._p
        zinvs = batch_inverse([pt[2] for pt in pts], p, public=public)
        if any(zinvs):
            _note_points(0, 0, 1)
        out = []
        for (X, Y, _), zinv in zip(pts, zinvs):
            zinv2 = zinv * zinv % p
            out.append((X * zinv2 % p, Y * zinv2 * zinv % p) if zinv else None)
        return out

    # -- public group API ---------------------------------------------------

    def add(self, a, b):
        return self.sum_points((a, b))

    def _odd_multiples(self, points, rows: int, n: int, shift: int):
        """Affine rows: the odd multiples 1, 3, ..., 2n-1 of
        ``2**(shift*j) * a`` for j < rows, for each finite point a in turn.

        One doubling chain per point, run by ``_sum``, gives every row's
        base B and its double D = (X, Y, Z).  Each row is built on the
        isomorphic curve (x, y) -> (x * Z**2, y * Z**3), where D is the
        affine (X, Y), so it takes n - 1 of ``_sum``'s mixed additions and
        no inversion of its own; an entry's z there times Z is its z on
        this curve, and all rows share one inversion.  The mixed addition
        does not read a or b, so it holds on that curve too, but its
        doubling branch assumes a = -3.  It cannot fire here: it needs a
        partial sum (2m - 1)B, m < n, equal to 2B (or to -2B for the
        branch to infinity), so (2m - 3)B or (2m + 1)B would vanish, and
        a finite point of a group of large prime order has no such small
        multiple.  The rows are a function of public points alone, so the
        inversion is unblinded.
        """
        run, p = self._sum, self._p
        jac = []
        for x, y in points:
            base = (x, y, 1)
            for j in range(rows):
                X, Y, Z = twice = run([[], []], base)
                ZZ = Z * Z % p
                plus = [[([(X, Y)], 1)]]
                row = [(base[0] * ZZ % p, base[1] * ZZ * Z % p, base[2])]
                for _ in range(n - 1):
                    row.append(run(plus, row[-1]))
                jac.extend((X1, Y1, Z1 * Z % p) for X1, Y1, Z1 in row)
                if j + 1 < rows:
                    base = run([[]] * shift, twice)
        flat = self._batch_to_affine(jac, public=True)
        return [flat[i : i + n] for i in range(0, len(flat), n)]

    @cached_property
    def generator(self):
        """G on a signed comb of 8-step walks: teeth 8 * ceil(bits(q) / 96)
        bits apart, so that a table holds at most 2048 points, in tables 8
        bits apart: two of 2048 points on P-192 and three of 1024 on
        P-256, built on first use (the operation table's ``prepare
        generator`` row)."""
        return self._comb(self._g, 8 * -(-self.q.bit_length() // 96), self._GEN_STEPS)

    def prepare(self, a, short: bool = False):
        """``a`` with a table for ``scalar_mul`` and ``multi_mul``; counts
        no scalar multiplication.  By default a ring key's signed comb:
        teeth 32 bits apart, in two tables of 2**(teeth-1) points, the
        second 16 bits above the first.  ``short`` gives a transient key's
        rows of 1, 3, 5, 7 times ``2**(16j) * a``, j < ceil(lam / 16), lam
        = bits(q)/2 rounded up, for ``hash_to_short``'s scalars, which
        ``multi_mul`` alone reads: ``_COMB_STEPS`` apart, on a comb walk's
        chain.  The operation table's ``prepare comb`` and ``prepare
        transient key`` rows count each shape.  The identity, and a point
        in the same shape, come back as they are.
        """
        if a is None or isinstance(a, _PreparedPoint) and (a.comb is None) == short:
            return a
        steps = self._COMB_STEPS
        if not short:
            return self._comb(a, self._COMB_SPACING, steps)
        prepared = _PreparedPoint(a)
        prepared.rows = self._odd_multiples([a], -(-self.q.bit_length() // (2 * steps)), 4, steps)
        return prepared

    def has_comb(self, a) -> bool:
        """Whether ``a`` carries a signed comb: a ring key's, a window
        tag's or the generator's."""
        return getattr(a, "comb", None) is not None

    def _comb(self, a, spacing: int, offset: int):
        """``a`` prepared on a signed comb of teeth ``B_j = 2**(spacing*j) *
        a`` in tables T_0, ..., T_(m-1), m = spacing / offset, each the
        ``offset``-bit shift of the one before: entry e of T_0 is ``B_0 +
        sum(+-B_j)``, taking +B_j where bit j - 1 of e is set, and entry e
        of T_i is ``2**(offset*i)`` times it.  One doubling chain gives
        ``2**(offset*i) * a`` for every i below m * teeth, made affine by
        one inversion; then tooth j adds -+B_j, times each table's shift,
        to every entry of every table in one ``_add_lanes`` step, the
        entries that take - first.  Every inversion is unblinded (a is
        public).  No lane meets its own operand or the identity: it would
        need ``sum(+-2**(spacing*j))`` over j <= teeth - 1, a nonzero
        integer below q in size, to be a multiple of q."""
        m, teeth = spacing // offset, -(-self.q.bit_length() // spacing)
        pt, shifts = (*a, 1), []
        for _ in range(m * teeth - 1):
            pt = self._sum([[]] * (offset + 1), pt)
            shifts.append(pt)
        bases = [tuple(a)] + self._batch_to_affine(shifts, public=True)
        tables, p = [[base] for base in bases[:m]], self._p
        for j in range(m, len(bases), m):
            acc, pts = [], []
            for table, (x, y) in zip(tables, bases[j : j + m]):
                acc += table + table
                pts += [(x, p - y)] * len(table) + [(x, y)] * len(table)
            self._add_lanes(acc, pts)
            n = len(acc) // m
            tables = [acc[i : i + n] for i in range(0, len(acc), n)]
        prepared = _PreparedPoint(a)
        prepared.rows, prepared.comb = tables, (spacing, offset)
        return prepared

    def _odd_fold(self, k: int) -> int:
        """The odd one of ``k`` and ``k - q`` (q is odd), a scalar equal to
        k mod q: k itself, or q - k with its sign flipped.  Integer
        arithmetic alone, no branch on k's parity; the recoders take a
        negative value as it is and give it negated digits."""
        return k - (self.q & ((k & 1) - 1))

    def _comb_digits(self, k: int, spacing: int) -> list[tuple[int, int]]:
        """The columns of ``0 < k < q`` on a comb of teeth ``spacing`` bits
        apart, as (position, digit) pairs, column t at bit t.

        An odd k, ``|k| < 2**n``, is ``sum(s_i * 2**i)`` over i < n =
        spacing * teeth with every s_i = +-1, s_i = +1 where bit i of ``(k
        + 2**n - 1) / 2`` is set.  Column t is ``sum(s_(t+spacing*j) *
        2**(spacing*j))`` over the teeth j, so ``k = sum(column_t *
        2**t)``.  Its digit is ``+-(2e + 1)``: entry e of the comb, negated
        if the digit is, as s_t gives B_0's sign.  The recoding runs on
        ``_odd_fold(k)``: for a negative one, k - q, every s_i flips, so
        every digit is q - k's negated.  A column whose s_t is -1 gets its
        digit by arithmetic too, so nothing branches on k.
        """
        k = self._odd_fold(k)
        teeth = -(-self.q.bit_length() // spacing)
        n = spacing * teeth
        # each binary digit as a 16-bit word 0 or 1
        bits = format((k + (1 << n) - 1) >> 1, f"0{n}b").encode("utf-16-be").translate(self._BITS)
        # word t of v holds bit t of every tooth, tooth j at bit j (teeth <= 16)
        v = sum(int.from_bytes(bits[2 * (n - spacing * j - spacing) : 2 * (n - spacing * j)], "big") << j
                for j in range(teeth))
        columns = struct.unpack(f"<{spacing}H", v.to_bytes(2 * spacing, "little"))
        # an even column c (s_t = -1) is entry 2**(teeth-1) - 1 - c/2, negated
        flip = 1 - (1 << teeth)
        return [(t, c + ((c & 1) - 1 & flip)) for t, c in enumerate(columns)]

    def _fixed_term(self, k: int, a):
        """``k * a``, ``0 < k < q``, as a ``_chain`` term whose digits are
        all nonzero: a comb's columns, one bit apart, on its tables, or
        for any other point width-4 regular digits on a per-call row P,
        3P, ..., 15P.  Every k recodes ``_odd_fold(k)``, k or k - q, on one
        path for either parity."""
        if self.has_comb(a):
            spacing, offset = a.comb
            return a.rows, offset, self._comb_digits(k, spacing)
        w = self._ROW_WIDTH
        rows = self._odd_multiples([a], 1, 1 << (w - 1), 0)
        return rows, w, _regular_digits(self._odd_fold(k), -(-self.q.bit_length() // w), w)

    def _chain(self, terms):
        """The Jacobian sum of ``d * 2**i`` times each term's base over its
        digits (i, d), lowest first, for terms (rows, spacing, digits)
        whose row j holds the odd multiples 1, 3, ... of
        ``2**(spacing*j)`` times it; on a comb, row j is table j, and d
        names an entry and its sign.

        The chain is C steps: the largest spacing of the terms whose rows
        reach past their top digit, raised to its first multiple above the
        top digit of every other term.  Every spacing is 1, 4, 8 or 16, so
        each divides the largest.  Digit (i, d) is added at step i mod C
        from row ``(i // C) * (C / spacing)``, so rows that fall short are
        read at row 0 alone, and steps above the top digit are dropped: a
        sum with no digit takes none.
        """
        spacing, top = 1, 0
        for rows, s, digits in terms:
            if digits[-1][0] < len(rows) * s:
                spacing = max(spacing, s)
            else:
                top = max(top, digits[-1][0])
        C = (top // spacing + 1) * spacing
        steps: list[list] = [[] for _ in range(C)]
        for rows, s, digits in terms:
            rows = rows[:: C // s]
            for i, d in digits:
                steps[i % C].append((rows[i // C], d))
        while steps and not steps[-1]:
            steps.pop()
        return self._sum(steps)

    def _sum(self, steps, acc=(0, 0, 0)):
        """The Jacobian point at the end of a doubling chain that starts at
        the Jacobian sum ``acc``: from the top of ``steps``, lists of (row,
        d) lowest first, add ``d`` times each row's base onto the sum, a
        step below the top after doubling the sum: entry ``|d| >> 1`` with
        its y times d's sign.  Entry and sign come from d by integer
        arithmetic, so a digit's sign takes no branch; a y left negative
        is reduced by the next formula or by the conversion to affine.
        Empty steps make a run of doublings: ``[[]] * (n + 1)`` doubles
        ``acc`` n times.

        This is the one place where the group evaluates and counts a
        Jacobian doubling (a = -3) or a mixed addition; only the affine
        lanes of ``_add_lanes`` add apart from it.  Doublings skip a
        sum at the identity, and an addition that meets its own operand
        doubles instead.  The counts come from the schedule: every digit
        is one addition, every doubling that ran one doubling.
        """
        p = self._p
        doublings = 0
        X, Y, Z = acc
        for i, adds in enumerate(reversed(steps)):
            if i and Z:  # 2(X, Y, Z) with a = -3 below the top step
                doublings += 1
                YY = Y * Y % p
                S = 4 * X * YY % p
                ZZ = Z * Z % p
                M = 3 * (X - ZZ) * (X + ZZ) % p
                Z = 2 * Y * Z % p
                X = (M * M - 2 * S) % p
                Y = (M * (S - X) - 8 * YY * YY) % p
            for row, d in adds:
                s = d >> 31  # 0 for d > 0, -1 for d < 0: every |d| < 2**31
                x, y = row[(d ^ s) >> 1]
                y *= 1 | s
                if not Z:
                    X, Y, Z = x, y, 1
                    continue
                ZZ = Z * Z % p  # (X, Y, Z) + (x, y, 1)
                H = (x * ZZ - X) % p
                R = (y * Z * ZZ - Y) % p
                if not H:
                    if R:
                        Z = 0
                    else:  # P + P: a doubling, which counts itself
                        X, Y, Z = self._sum([[], []], (X, Y, Z))
                    continue
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - Y * HHH) % p
                Z = Z * H % p
        _note_points(doublings, sum(map(len, steps)))
        return X, Y, Z

    def scalar_mul(self, k: int, a):
        return self.fixed_multi_muls([[(k, a)]])[0]

    def fixed_multi_muls(self, sums):
        """For each list of pairs in ``sums``, the sum of ``k * P`` over
        it, any mix of bases, in an operation pattern that the bases alone
        set: one chain each, made affine together with one inversion."""
        note_scalar_muls(sum(map(len, sums)))
        q = self.q
        return self._batch_to_affine([self._chain([self._fixed_term(k % q, a) for k, a in pairs
                                                   if k % q and a is not None]) for pairs in sums])

    def multi_mul(self, pairs):
        """The sum of ``k * P`` over ``pairs``; variable time, so every
        scalar must be public.

        Equal points are merged first.  A base with a comb (the generator,
        a ring key, a window tag) is recoded into its columns, which a
        chain as long as its walk reads from every table and a longer one
        from fewer.  A transient key's short rows lie 16 bits apart, a
        base whose scalar is 1 is added as it stands, and any other base
        gets its odd multiples P..7P as one row; their scalars are
        recoded into NAFs of width 4, none of whose digits lies above its
        top bit.  Every term is placed on one ``_chain``.
        """
        return self.multi_muls([pairs])[0]

    def multi_muls(self, sums):
        """``[multi_mul(pairs) for pairs in sums]``, one chain each, made
        affine together with one inversion, unblinded: every input is
        public."""
        note_scalar_muls(sum(map(len, sums)))
        return self._batch_to_affine([self._chain(self._multi_terms(pairs)) for pairs in sums], public=True)

    def _multi_terms(self, pairs):
        q = self.q
        merged, tables = {}, {}
        for k, pt in pairs:
            if pt is not None:
                merged[pt] = (merged.get(pt, 0) + k) % q
                if isinstance(pt, _PreparedPoint):
                    tables[pt] = pt.rows, *(pt.comb or (0, self._COMB_STEPS))
        live = {pt: k for pt, k in merged.items() if k}
        fresh = [pt for pt, k in live.items() if pt not in tables and k != 1]
        if fresh:  # one row, which covers bit 0 alone
            rows = self._odd_multiples(fresh, 1, 4, 0)
            tables.update((pt, ([row], 0, 1)) for pt, row in zip(fresh, rows))
        terms = []
        for pt, k in live.items():
            # a comb's columns, or a NAF of width 4 on 4-entry rows; a unit scalar adds its base as it stands
            rows, comb, s = tables.get(pt) or ([[pt]], 0, 1)
            terms.append((rows, s, self._comb_digits(k, comb) if comb else _wnaf(k, 4)))
        return terms

    def sum_points(self, points):
        """The sum of ``points``, public points, the chain's one-step case:
        one row of them, entry e added once (digit 2e + 1 at bit 0), made
        affine by one unblinded inversion."""
        row = [pt for pt in points if pt is not None]
        return self._batch_to_affine([self._sum([[(row, 2 * e + 1) for e in range(len(row))]])], public=True)[0]

    def subset_sums(self, points, w: int):
        """Row i: the sums of the subsets of ``points[w*i : w*i + w]``,
        public points, entry s summing the points at the set bits of s
        (``None`` if that is the identity).  Built level by level: level t
        adds the t-th point of every chunk to each nonempty entry below
        ``2**t`` in one ``_add_lanes`` step, so w - 1 steps with one
        unblinded inversion each; a lane that meets its own operand or
        the identity takes ``sum_points``' exact path."""
        chunks = [points[i : i + w] for i in range(0, len(points), w)]
        rows = [[None, chunk[0]] for chunk in chunks]
        for t in range(1, w):
            live = [(row, chunk[t]) for row, chunk in zip(rows, chunks) if t < len(chunk)]
            if not live:
                break
            acc = [s for row, _ in live for s in row[1:]]
            self._add_lanes(acc, [pt for row, pt in live for _ in row[1:]])
            sums = iter(acc)
            for row, pt in live:
                row += [pt] + [next(sums) for _ in row[1:]]
        return rows

    # -- encodings ------------------------------------------------------

    def encode_element(self, a) -> bytes:
        # compressed form: parity tag then the x coordinate; the
        # identity is the all-zero string, which no finite point can
        # produce because its tag byte would be 2 or 3
        if isinstance(a, bytes):
            return a
        if a is None:
            return b"\x00" * self.element_byte_len
        x, y = a
        tag = 3 if y & 1 else 2
        return bytes([tag]) + x.to_bytes(self._field_byte_len, "big")

    def check_encoding(self, data: bytes) -> bytes:
        """``data`` if its length, tag (0, 2 or 3), all-zero identity and
        x < p are canonical, else ParseError.  No square root: an x on no
        curve point passes here and fails only ``decode_element``."""
        if len(data) != self.element_byte_len:
            raise ParseError("element has wrong length")
        tag = data[0]
        if tag == 0:
            if any(data[1:]):
                raise ParseError("malformed identity encoding")
        elif tag not in (2, 3):
            raise ParseError("unknown point compression tag")
        elif int.from_bytes(data[1:], "big") >= self._p:
            raise ParseError("x coordinate out of range")
        return data

    def decode_element(self, data: bytes):
        if self.check_encoding(data)[0] == 0:
            return None
        x = int.from_bytes(data[1:], "big")
        y = self._lift_x(x, data[0] & 1)
        if y is None:
            raise ParseError("x coordinate is not on the curve")
        return (x, y)

    def _lift_x(self, x: int, parity: int):
        # the curve's y of that parity at x, or None: p = 3 mod 4 on both curves
        p = self._p
        rhs = (x * x * x + self._a * x + self._b) % p
        y = self._root(rhs)
        if y * y % p == rhs:
            return y if y & 1 == parity else p - y
        return None

    def _root(self, a: int) -> int:
        """``a**((p + 1) / 4)`` mod p, a's square root if it has one, by one ``pow``."""
        _note_root()
        return pow(a, self._root_exp, self._p)

    # -- hashing into the structures -----------------------------------

    def hash_to_group(self, tag: str, data: bytes):
        # try-and-increment: about half of all x values lie on the
        # curve, so 256 attempts fail with probability ~2^-256
        for attempt in range(256):
            x = int.from_bytes(digest32(tag, bytes([attempt]) + data), "big") % self._p
            y = self._lift_x(x, 0)
            if y is not None:
                return (x, y)
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
