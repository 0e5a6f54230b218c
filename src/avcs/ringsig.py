"""Certificateless ring signatures from combined public keys.

A manufactory holds a master vector ``X = (x_1..x_n)`` with public
counterpart ``Y_i = x_i * P``.  An identity string hashes to an n-bit
vector; its private key is the subset sum of ``X`` over the set bits
and the matching public key ``E_id`` is the same subset sum of ``Y``,
which anyone can compute from the identity alone.  No certificates are
exchanged: possession of ``d_id`` with ``E_id = d_id * P`` is the whole
key relationship.  A registry adds ``E_id`` up from a table of the
subset sums of each 4 consecutive points of ``Y``.

A ring signature over ids ``id_1..id_r`` carries one ElGamal-style
tuple ``(m_i, U_i, v_i)`` per member.  For everyone but the signer the
tuple is a forgery sampled so that the verification equation

    m_i * P = H1(U_i) * E_i + v_i * U_i

holds by construction.  The tuples are then chained through

    w_{i+1} = h(msg, w_i xor m_i)

cyclically; the signer, holding the one private key, is the only
member able to pick their ``m`` last (gluing the cycle shut) and still
solve their tuple equation, via ``v_s = (m_s - d * H1(U_s)) / l``.

:func:`ring_verify` solves a tuple's equation for U_i and compares its
encoding with U_i's bytes when every ring key has a comb: a sum of two
terms on the comb's 16-step chain, with no square root and no weight.  A
ring with a plain key shares that key's long chain in one
small-exponent batch over every tuple, and so does a tuple with
``v_i = 0`` on any ring.

Randomness draw order inside :func:`ring_sign` is part of the tested
interface (transcript tests replay it): per-forgery ``a`` then ``b`` in
ascending ring order skipping the signer, redrawing both while
``H1(U) = 0`` (``forge_tuples`` draws every pair first and keeps that
order); then the glue ``gamma``; then the signer nonce ``l``; then the
published start index ``x``.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DegenerateKeyError, ParseError, UnknownManufactoryError
from .groups import batch_inverse, digest32, expand_bytes, note_extraction, note_scalar_muls, take

__all__ = [
    "HashSuite",
    "IdentityKey",
    "MAX_ID_BYTES",
    "MAX_RING",
    "ManufactoryRegistry",
    "MasterKeyPair",
    "N_BITS",
    "PRODUCTION",
    "RingSignature",
    "forge_tuple",
    "forge_tuples",
    "h0_bits",
    "keygen",
    "ring_sign",
    "ring_verify",
    "setup",
    "split_id",
    "verify_tuple",
]

N_BITS = 256

MAX_RING = 64  # members: anyone can close a ring's chain, and a check's work is linear in its members
MAX_ID_BYTES = 64  # an id's UTF-8 bytes: a receiver keeps the ids of every ring it accepts

# h0_bits's bytes from and to the digits of a base-2 string
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def split_id(id_str: str) -> tuple[str, str]:
    """Split ``"manufactory:identity"``; both halves must be nonempty, and
    the id at most ``MAX_ID_BYTES`` UTF-8 bytes.  Every id a key is
    derived, extracted or provisioned for passes here."""
    if len(id_str.encode("utf-8")) > MAX_ID_BYTES:
        raise ValueError(f"identity above {MAX_ID_BYTES} bytes")
    mfr, sep, rest = id_str.partition(":")
    if not sep or not mfr or not rest:
        raise ValueError(f"identity must look like 'manufactory:identity', got {id_str!r}")
    return mfr, rest


def h0_bits(id_str: str, n: int = N_BITS) -> bytes:
    """Hash an identity to its n-bit key-selection vector (MSB first),
    one byte 0 or 1 per bit."""
    raw = expand_bytes("H0", id_str.encode("utf-8"), (n + 7) // 8)
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")[:n]
    return bits.encode().translate(_BIT_BYTES)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def _tuple_hash(group, U) -> int:
    return group.hash_to_scalar("H1", group.encode_element(U))


def _chain_hash(group, msg: bytes, x: bytes) -> bytes:
    # keyed by the message, truncated to the scalar width
    return digest32("ring", struct.pack(">I", len(msg)) + msg + x)[: group.scalar_byte_len]


@dataclass(frozen=True)
class HashSuite:
    """The scheme's hash roles: H0 ``bits(id_str, n)``, the tuple hash
    ``h1(group, U)`` and the ring-equation hash ``chain(group, msg, x)``.

    Signer and verifier both read it from the registry, so they cannot
    disagree on it.  Only tests build one other than :data:`PRODUCTION`.
    """

    bits: Callable = h0_bits
    h1: Callable = _tuple_hash
    chain: Callable = _chain_hash


PRODUCTION = HashSuite()


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MasterKeyPair:
    """A manufactory's master vector: private X, public Y = X * P."""

    manufactory_id: str
    group: object
    n: int
    X: tuple[int, ...]
    Y: tuple[object, ...]


@dataclass(frozen=True)
class IdentityKey:
    """Private key for one identity string."""

    id: str
    d: int


def setup(group, n: int = N_BITS, rng=None, manufactory_id: str = "mfr") -> MasterKeyPair:
    """Draw a fresh master key vector of length ``n``.

    Production uses n = 256 (the bit length of the identity hash);
    tests may shrink it, since H0 is asked for exactly n bits.  Y is
    one ``group.fixed_multi_muls`` over X, counted as n scalar
    multiplications: on a curve, one walk of the generator's comb per
    scalar, all made affine by one blinded inversion (the operation
    table's ``setup`` row).
    """
    if rng is None:
        raise ValueError("an rng is required")
    if n < 1:
        raise ValueError("n must be positive")
    X = tuple(rng.randrange(1, group.q) for _ in range(n))
    Y = tuple(group.fixed_multi_muls([[(x, group.generator)] for x in X]))
    return MasterKeyPair(manufactory_id, group, n, X, Y)


def keygen(mk: MasterKeyPair, id_str: str, *, suite: HashSuite = PRODUCTION) -> IdentityKey:
    """Derive the private key for ``id_str`` from the master vector.

    ``suite`` must be the one held by the registry that will extract
    the matching public key.
    """
    mfr, _ = split_id(id_str)
    if mfr != mk.manufactory_id:
        raise UnknownManufactoryError(
            f"identity {id_str!r} does not belong to manufactory {mk.manufactory_id!r}"
        )
    bits = suite.bits(id_str, mk.n)
    d = sum(x for bit, x in zip(bits, mk.X, strict=True) if bit) % mk.group.q
    if d == 0:
        raise DegenerateKeyError(f"identity {id_str!r} hashes to the zero key")
    return IdentityKey(id_str, d)


class ManufactoryRegistry:
    """Extraction tables of every known manufactory, plus a key cache.

    ``register`` keeps, in place of a public vector Y, the 16 subset
    sums of each 4 consecutive points (``group.subset_sums``, after
    Brickell-Gordon-McCurley-Wilson), built in affine lanes: the
    operation table's ``register_master`` row.  A key adds one entry per
    nonzero 4-bit chunk of its id's hash instead of one point per set
    bit (the ``extract_cold`` rows).

    Extraction results are cached by identity ("can be cached" is part
    of the scheme's cost story), at most ``_CACHED_KEYS`` of them, by
    ``_keep`` alone: an accepted signature, an own ``ring_sign`` or an
    explicit ``extract_pubkey`` keeps an id, and the id kept least
    recently goes first.  A key is prepared
    (``group.prepare``, which keeps it equal) at its second use: when
    ``ring_sign`` forges against it, or ``ring_verify`` accepts a
    signature over it, while its id is already cached.  An id seen once
    keeps a plain key, and a rejected signature keeps nothing.  The
    modules and receivers that share a registry (one run's) keep their
    prepared h1 tags in ``window_tags``, by window index.  Nothing here
    locks: a registry belongs to one thread.
    """

    _CHUNK_BITS = 4  # points of Y per table row
    _CACHED_KEYS = 1024  # ids in the key cache

    def __init__(self, group, *, suite: HashSuite = PRODUCTION):
        self.group = group
        self.suite = suite
        self._tables: dict[str, tuple[int, list]] = {}
        self._cache: dict[str, object] = {}
        self.window_tags: dict[int, object] = {}

    def register(self, manufactory_id: str, Y) -> None:
        """Build the extraction table of ``Y``, replacing any earlier one,
        and clear the key cache."""
        Y = tuple(Y)
        self._tables[manufactory_id] = (len(Y), self.group.subset_sums(Y, self._CHUNK_BITS))
        self._cache.clear()

    def register_master(self, mk: MasterKeyPair) -> None:
        self.register(mk.manufactory_id, mk.Y)

    def knows(self, manufactory_id: str) -> bool:
        return manufactory_id in self._tables

    def extract_pubkey(self, id_str: str):
        """Combined public key E_id, a subset sum of the public vector.

        Pure point additions; every call is tallied as one extraction
        in the surrounding counting region whether or not it hits the
        cache.  The key is kept as it is: plain for a new id.
        """
        return self._keep({id_str: self.derive_pubkey(id_str)}, plain={id_str})[id_str]

    def derive_pubkey(self, id_str: str):
        """``extract_pubkey`` without caching: a cached key is returned as
        it is, and a new one is not kept.  ``ring_sign`` and
        ``ring_verify`` cache through ``_keep``."""
        note_extraction()
        cached = self._cache.get(id_str)
        if cached is not None:
            return cached
        mfr, _ = split_id(id_str)
        table = self._tables.get(mfr)
        if table is None:
            raise UnknownManufactoryError(f"no registered manufactory for {id_str!r}")
        n, rows = table
        # bit t of the index is bit t of the vector
        index = int(bytes(self.suite.bits(id_str, n))[::-1].translate(_BIT_DIGITS), 2)
        w = self._CHUNK_BITS
        mask = (1 << w) - 1
        E = self.group.sum_points([row[index >> w * i & mask] for i, row in enumerate(rows)])
        if self.group.is_identity(E):
            raise DegenerateKeyError(f"identity {id_str!r} extracts to the identity element")
        return E

    def _keep(self, keys: dict, *, plain=()) -> dict:
        """Cache ``keys`` (id -> key) as the ids kept last and return them
        as cached: the key of an id the cache already held is prepared,
        unless the id is in ``plain``.  Past ``_CACHED_KEYS`` ids, those
        kept least recently go (the dict's order is the order of keeping)."""
        cache = self._cache
        kept = {}
        for id_str, E in keys.items():
            if cache.pop(id_str, None) is not None and id_str not in plain:
                E = self.group.prepare(E)
            kept[id_str] = cache[id_str] = E
        while len(cache) > self._CACHED_KEYS:
            del cache[next(iter(cache))]
        return kept


# ---------------------------------------------------------------------------
# tuples
# ---------------------------------------------------------------------------

def forge_tuple(group, E, rng, *, suite: HashSuite = PRODUCTION):
    """Forge one tuple satisfying the verification equation against E:
    :func:`forge_tuples` with one key."""
    return forge_tuples(group, [E], rng, suite=suite)[0]


def forge_tuples(group, keys, rng, *, suite: HashSuite = PRODUCTION):
    """Forge one tuple against each key of ``keys``, in order.

    Draws are those of forging each key in turn: a pair ``a`` then ``b``
    from Z_q* per key, both redrawn while H1(U) = 0.  All pending keys
    get their pairs at once, and their ``U = b*E + a*P`` are one
    ``fixed_multi_muls``, two scalar multiplications each, made affine by
    one inversion.  If a U hashes to 0, its pair is spent and its key
    takes the next pair: the U of the later pairs are computed again for
    their new keys, and one more pair is drawn.  ``a`` and ``b`` can be
    recomputed from the published tuple, so a timing trace of their
    multiplications would tell the forgeries from the signer's own
    tuple: U is a fixed-pattern sum, not the variable-time
    ``multi_mul``, b's digits (on E's comb when E is prepared) and a's
    on one doubling chain.  The b of all tuples share one
    ``batch_inverse``.  The operation table's ``forge cold key`` row is
    one forgery on a plain key, and its ``ring_sign`` rows forge on
    prepared ones.
    """
    if any(group.is_identity(E) for E in keys):
        raise DegenerateKeyError("cannot forge against the identity element")
    q, G = group.q, group.generator
    pairs, done = [], []
    while len(done) < len(keys):
        pending = keys[len(done):]
        pairs += [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(len(pending) - len(pairs))]
        Us = group.fixed_multi_muls([[(b, E), (a, G)] for (a, b), E in zip(pairs, pending)])
        spent = 0
        for (a, b), U in zip(pairs, Us):
            spent += 1
            e = suite.h1(group, U)
            if not e:
                break
            done.append((a, b, U, e))
        pairs = pairs[spent:]
    tuples = []
    for (a, b, U, e), b_inv in zip(done, batch_inverse([b for _, b, _, _ in done], q)):
        v = -e * b_inv % q
        tuples.append(((a * v % q).to_bytes(group.scalar_byte_len, "big"), U, v))
    return tuples


def verify_tuple(group, m: bytes, U, v: int, E, *, suite: HashSuite = PRODUCTION) -> bool:
    """Check m*P = H1(U)*E + v*U.  Costs exactly three scalar muls."""
    lhs = group.scalar_mul(int.from_bytes(m, "big") % group.q, group.generator)
    rhs = group.add(group.scalar_mul(suite.h1(group, U), E), group.scalar_mul(v, U))
    return lhs == rhs


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingSignature:
    """``(x, w_x; id_1..id_r; (m_1,U_1,v_1)..(m_r,U_r,v_r))``.

    ``x`` is the one-based published start index of the ring equation;
    ``w`` is the chain value at that index, carried full-width.
    """

    x: int
    w: bytes
    ids: tuple[str, ...]
    tuples: tuple[tuple[bytes, object, int], ...]

    @property
    def r(self) -> int:
        return len(self.ids)

    def to_bytes(self, group) -> bytes:
        out = bytearray(struct.pack(">HH", self.r, self.x))
        out += self.w
        for id_str in self.ids:
            raw = id_str.encode("utf-8")
            if len(raw) > MAX_ID_BYTES:
                raise ValueError(f"identity above {MAX_ID_BYTES} bytes")
            out += struct.pack(">H", len(raw)) + raw
        for m, U, v in self.tuples:
            out += m + group.encode_element(U) + group.encode_scalar(v)
        return bytes(out)

    @classmethod
    def read(cls, stream, group) -> "RingSignature":
        """Read one signature from a binary stream, leaving it at the end.

        Every field comes through :func:`~avcs.groups.take` before it is
        checked (a tuple's m, U and v all three), so a short stream
        raises :class:`ParseError` naming what is truncated; bytes after
        the signature stay unread.  A ring above ``MAX_RING`` members
        fails before any id is read, and an id above ``MAX_ID_BYTES``
        before its bytes are.  Each U_i stays the bytes that
        ``group.check_encoding`` passed: :func:`ring_verify` decodes it
        only once the chain closes.
        """
        sbl = group.scalar_byte_len
        ebl = group.element_byte_len
        r, x = struct.unpack(">HH", take(stream, 4, "signature header"))
        if not 1 <= r <= MAX_RING:
            raise ParseError(f"ring of {r} members, not 1..{MAX_RING}")
        if not 1 <= x <= r:
            raise ParseError("start index out of range")
        w = take(stream, sbl, "glue value")
        ids = []
        for _ in range(r):
            (id_len,) = struct.unpack(">H", take(stream, 2, "identity length"))
            if id_len > MAX_ID_BYTES:
                raise ParseError(f"identity of {id_len} bytes, above {MAX_ID_BYTES}")
            raw = take(stream, id_len, "identity bytes")
            try:
                id_str = raw.decode("utf-8")
                split_id(id_str)
            except UnicodeDecodeError:
                raise ParseError("identity is not valid UTF-8") from None
            except ValueError:
                raise ParseError(f"malformed identity {id_str!r}") from None
            ids.append(id_str)
        tuples = []
        for _ in range(r):
            m = take(stream, sbl, "tuple bytes")
            U = take(stream, ebl, "tuple bytes")
            v = take(stream, sbl, "tuple bytes")
            tuples.append((m, group.check_encoding(U), group.decode_scalar(v)))
        return cls(x, w, tuple(ids), tuple(tuples))

    @classmethod
    def from_bytes(cls, data: bytes, group) -> "RingSignature":
        stream = io.BytesIO(data)
        sig = cls.read(stream, group)
        if stream.read(1):
            raise ParseError("trailing bytes after signature")
        return sig


def ring_sign(
    msg: bytes,
    ring: list[str],
    signer: IdentityKey,
    signer_pos: int,
    registry: ManufactoryRegistry,
    rng,
) -> RingSignature:
    """Sign ``msg`` as the anonymous member ``ring[signer_pos]``.

    ``signer_pos`` is zero-based.  Costs exactly 2(r-1)+1 = 2r-1 scalar
    multiplications (two per forgery, one for the signer's U) plus r
    public-key extractions, which are additions only.  The r - 1
    forgeries are one :func:`forge_tuples`, so their U share one
    inversion and their b one ``batch_inverse``; the signer's U, made
    after the glue is drawn, takes one more.  Every ring id
    enters the registry's cache.  A forgery against an id the cache
    held before the call runs on that key prepared, and the prepared
    key stays cached; an id seen for the first time, and the signer's
    own id, get no table.  An id above ``MAX_ID_BYTES`` is refused with
    ``ValueError`` as its key is derived (``split_id``).
    """
    group = registry.group
    suite = registry.suite
    r = len(ring)
    if not 1 <= r <= MAX_RING:
        raise ValueError(f"a ring holds 1..{MAX_RING} members")
    if not 0 <= signer_pos < r:
        raise ValueError("signer position outside the ring")
    if ring[signer_pos] != signer.id:
        raise ValueError("signer position does not hold the signer's id")

    kept = registry._keep({id_str: registry.derive_pubkey(id_str) for id_str in ring},
                          plain={signer.id})
    pubkeys = [kept[id_str] for id_str in ring]
    q = group.q
    sbl = group.scalar_byte_len

    tuples = forge_tuples(group, pubkeys[:signer_pos] + pubkeys[signer_pos + 1:], rng, suite=suite)
    tuples.insert(signer_pos, None)  # the signer's, made last

    gamma = rng.randrange(1, 256 ** sbl).to_bytes(sbl, "big")

    w = [b""] * r
    j = (signer_pos + 1) % r
    w[j] = suite.chain(group, msg, gamma)
    for _ in range(r - 1):
        nxt = (j + 1) % r
        w[nxt] = suite.chain(group, msg, _xor(w[j], tuples[j][0]))
        j = nxt

    # glue: with m_s = gamma xor w_s the next link recomputes to
    # chain(msg, gamma), which is where the walk started
    m_s = _xor(gamma, w[signer_pos])
    l = rng.randrange(1, q)
    U_s = group.scalar_mul(l, group.generator)
    # l gives d away: batch_inverse blinds it before its one Euclid
    v_s = (int.from_bytes(m_s, "big") - signer.d * suite.h1(group, U_s)) * batch_inverse([l], q)[0] % q
    tuples[signer_pos] = m_s, U_s, v_s

    x = rng.randrange(1, r + 1)
    return RingSignature(x, w[x - 1], tuple(ring), tuple(tuples))


def ring_verify(
    msg: bytes,
    sig: RingSignature,
    registry: ManufactoryRegistry,
) -> bool:
    """Accept iff the ring equation closes and every tuple verifies.

    The chain closes first, on hashes alone.  Then one ``multi_muls``
    call, made affine by one inversion, checks the tuple equations
    ``m_i*P = H1(U_i)*E_i + v_i*U_i``; the nonzero v_i, which are
    published, share one unblinded ``batch_inverse``.

    When every ring key has a comb (``group.has_comb``: a key prepared
    at its second use), a tuple with ``v_i != 0`` is a sum of its own,
    ``U_i' = (m_i/v_i)*P - (H1(U_i)/v_i)*E_i`` on the comb's 16-step
    chain, and verifies iff U_i' encodes to U_i's bytes, as
    ``transient.verify`` compares R: exact, with U_i never decoded.  Its
    term ``v_i*U_i`` is recorded with ``note_scalar_muls``.

    Every tuple of a ring with a plain key, whose long chain is best
    shared, and any tuple with ``v_i = 0`` go into one sum instead,
    ``sum s_i*(m_i*P - H1(U_i)*E_i - v_i*U_i) = 0``, tuple i scaled by
    ``s_i = -z_i / v_i`` so that U_i's coefficient is ``z_i`` itself
    (``s_i = z_i`` and a coefficient 0 where ``v_i = 0``).  The first
    tuple in the sum weighs 1 and each later one a ``z_i`` in
    ``[1, 2**lam - 1]``, lam = bits(q)/2 rounded up (96 on P-192, 128
    on P-256), hashed from the message and the signature by
    ``hash_to_short``: the Bellare-Garay-Rabin small-exponent batch
    test, in which one weight can be fixed.  A bad first tuple alone is
    always caught, and with a bad later tuple at most one value of its
    z_i cancels the rest, so the errors pass with probability at most
    1/(2**lam - 1).  The first U_i is added as it stands, and the
    others' short scalars ride on the shared chain.

    The r keys enter the registry's cache only if the signature
    verifies; the keys of ids cached before the call are then prepared.
    Hostile-input safe: unknown manufactories, degenerate ids, shape
    violations and U_i bytes that decode to no point all reject rather
    than raise.  Keys are extracted, and the shared sum's U_i decoded,
    only once the chain closes.  Costs exactly 3r logical scalar
    multiplications and r extractions once the chain closes.
    """
    group = registry.group
    suite = registry.suite
    sbl = group.scalar_byte_len
    r = sig.r
    if r < 1 or len(sig.tuples) != r or not 1 <= sig.x <= r:
        return False
    if len(sig.w) != sbl or any(len(m) != sbl for m, _, _ in sig.tuples):
        return False
    w = sig.w
    j = sig.x - 1
    for _ in range(r):
        w = suite.chain(group, msg, _xor(w, sig.tuples[j][0]))
        j = (j + 1) % r
    if w != sig.w:
        return False
    q, G = group.q, group.generator
    # the shared sum must come to the identity, each tuple's own sum to its U
    shared, seed = [], None
    sums, expected = [shared], [group.encode_element(group.identity)]
    try:
        pubkeys = [registry.derive_pubkey(id_str) for id_str in sig.ids]
        combs = all(map(group.has_comb, pubkeys))
        inverses = batch_inverse([v for _, _, v in sig.tuples], q, public=True)
        for i, ((m, U, v), E, v_inv) in enumerate(zip(sig.tuples, pubkeys, inverses)):
            m, e = int.from_bytes(m, "big"), suite.h1(group, U)
            if combs and v:
                sums.append([(m * v_inv, G), (-e * v_inv, E)])
                expected.append(group.encode_element(U))
                continue
            if shared:
                seed = seed or digest32("batch", struct.pack(">I", len(msg)) + msg + sig.to_bytes(group))
                z = group.hash_to_short("batch", struct.pack(">I", i) + seed)
            else:
                z = 1
            s, u = (-z * v_inv, z) if v else (z, 0)
            point = group.decode_element(U) if isinstance(U, bytes) else U
            shared += [(s * m, G), (-s * e, E), (u, point)]
    except (ValueError, ParseError, UnknownManufactoryError, DegenerateKeyError):
        return False
    note_scalar_muls(len(sums) - 1)  # the v_i*U_i compared by encoding
    if list(map(group.encode_element, group.multi_muls(sums))) != expected:
        return False
    registry._keep(dict(zip(sig.ids, pubkeys)))
    return True
