"""Certificateless ring signatures from combined public keys.

A manufactory holds a master vector ``X = (x_1..x_n)`` with public
counterpart ``Y_i = x_i * P``.  An identity string hashes to an n-bit
vector; its private key is the subset sum of ``X`` over the set bits
and the matching public key ``E_id`` is the same subset sum of ``Y``,
which anyone can compute from the identity alone.  No certificates are
exchanged: possession of ``d_id`` with ``E_id = d_id * P`` is the whole
key relationship.

A ring signature over ids ``id_1..id_r`` carries one ElGamal-style
tuple ``(m_i, U_i, v_i)`` per member.  For everyone but the signer the
tuple is a forgery sampled so that the verification equation

    m_i * P = H1(U_i) * E_i + v_i * U_i

holds by construction.  The tuples are then chained through

    w_{i+1} = h(msg, w_i xor m_i)

cyclically; the signer, holding the one private key, is the only
member able to pick their ``m`` last (gluing the cycle shut) and still
solve their tuple equation, via ``v_s = (m_s - d * H1(U_s)) / l``.

Randomness draw order inside :func:`ring_sign` is part of the tested
interface (transcript tests replay it): per-forgery ``a`` then ``b`` in
ascending ring order skipping the signer, redrawing both while
``H1(U) = 0``; then the glue ``gamma``; then the signer nonce ``l``;
then the published start index ``x``.
"""

from __future__ import annotations

import io
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DegenerateKeyError, ParseError, UnknownManufactoryError
from .groups import batch_inverse, digest32, expand_bytes, get_group, note_extraction, take

__all__ = [
    "HashSuite",
    "IdentityKey",
    "ManufactoryRegistry",
    "MasterKeyPair",
    "N_BITS",
    "PRODUCTION",
    "RingSignature",
    "forge_tuple",
    "h0_bits",
    "keygen",
    "ring_sign",
    "ring_verify",
    "setup",
    "split_id",
    "verify_tuple",
]

N_BITS = 256


def split_id(id_str: str) -> tuple[str, str]:
    """Split ``"manufactory:identity"``; both halves must be nonempty."""
    mfr, sep, rest = id_str.partition(":")
    if not sep or not mfr or not rest:
        raise ValueError(f"identity must look like 'manufactory:identity', got {id_str!r}")
    return mfr, rest


def h0_bits(id_str: str, n: int = N_BITS) -> tuple[int, ...]:
    """Hash an identity to its n-bit key-selection vector (MSB first)."""
    raw = expand_bytes("H0", id_str.encode("utf-8"), (n + 7) // 8)
    return tuple((raw[i // 8] >> (7 - i % 8)) & 1 for i in range(n))


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

    def to_dict(self) -> dict:
        return {
            "manufactory": self.manufactory_id,
            "group": self.group.group_id,
            "n": self.n,
            "x": [self.group.encode_scalar(x).hex() for x in self.X],
            "y": [self.group.encode_element(y).hex() for y in self.Y],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MasterKeyPair":
        group = get_group(data["group"])
        X = tuple(group.decode_scalar(bytes.fromhex(h)) for h in data["x"])
        Y = tuple(group.decode_element(bytes.fromhex(h)) for h in data["y"])
        if len(X) != data["n"] or len(Y) != data["n"]:
            raise ParseError("master key vectors disagree with n")
        return cls(data["manufactory"], group, data["n"], X, Y)


@dataclass(frozen=True)
class IdentityKey:
    """Private key for one identity string."""

    id: str
    d: int


def setup(group, n: int = N_BITS, rng=None, manufactory_id: str = "mfr") -> MasterKeyPair:
    """Draw a fresh master key vector of length ``n``.

    Production uses n = 256 (the bit length of the identity hash);
    tests may shrink it, since H0 is asked for exactly n bits.
    """
    if rng is None:
        raise ValueError("an rng is required")
    if n < 1:
        raise ValueError("n must be positive")
    X = tuple(rng.randrange(1, group.q) for _ in range(n))
    Y = tuple(group.scalar_mul(x, group.generator) for x in X)
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
    """Public master vectors of every known manufactory, plus a key cache.

    Extraction results are cached by identity ("can be cached" is part
    of the scheme's cost story); reads are lock-free, inserts take a
    lock so concurrent verifiers do not race.  A key is prepared
    (``group.prepare``, which keeps it equal) at its second use: when
    ``ring_sign`` forges against it, or ``ring_verify`` accepts a
    signature over it, while its id is already cached.  An id seen once
    keeps a plain key, and a rejected signature caches nothing.
    """

    def __init__(self, group, *, suite: HashSuite = PRODUCTION):
        self.group = group
        self.suite = suite
        self._vectors: dict[str, tuple[object, ...]] = {}
        self._cache: dict[str, object] = {}
        self._lock = threading.Lock()

    def register(self, manufactory_id: str, Y) -> None:
        with self._lock:
            self._vectors[manufactory_id] = tuple(Y)
            self._cache.clear()

    def register_master(self, mk: MasterKeyPair) -> None:
        self.register(mk.manufactory_id, mk.Y)

    def knows(self, manufactory_id: str) -> bool:
        return manufactory_id in self._vectors

    def extract_pubkey(self, id_str: str):
        """Combined public key E_id, a subset sum of the public vector.

        Pure point additions; every call is tallied as one extraction
        in the surrounding counting region whether or not it hits the
        cache.  The key is cached.
        """
        E = self._derive(id_str)
        self._remember({id_str: E})
        return E

    def _derive(self, id_str: str):
        # extract_pubkey without caching: ring_sign and ring_verify cache through _keep
        note_extraction()
        cached = self._cache.get(id_str)
        if cached is not None:
            return cached
        mfr, _ = split_id(id_str)
        Y = self._vectors.get(mfr)
        if Y is None:
            raise UnknownManufactoryError(f"no registered manufactory for {id_str!r}")
        bits = self.suite.bits(id_str, len(Y))
        E = self.group.sum_points([y for bit, y in zip(bits, Y, strict=True) if bit])
        if self.group.is_identity(E):
            raise DegenerateKeyError(f"identity {id_str!r} extracts to the identity element")
        return E

    def _remember(self, keys: dict) -> None:
        with self._lock:
            self._cache.update(keys)

    def _keep(self, keys: dict, *, plain=()) -> dict:
        """Cache ``keys`` (id -> key) and return them as cached: the key
        of an id the cache already held is prepared, unless the id is in
        ``plain``."""
        kept = {
            id_str: E if id_str in plain or id_str not in self._cache else self.group.prepare(E)
            for id_str, E in keys.items()
        }
        self._remember(kept)
        return kept

    def to_dict(self) -> dict:
        return {
            "group": self.group.group_id,
            "manufactories": {
                mfr: [self.group.encode_element(y).hex() for y in Y]
                for mfr, Y in self._vectors.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ManufactoryRegistry":
        registry = cls(get_group(data["group"]))
        for mfr, hexes in data["manufactories"].items():
            registry.register(mfr, [registry.group.decode_element(bytes.fromhex(h)) for h in hexes])
        return registry


# ---------------------------------------------------------------------------
# tuples
# ---------------------------------------------------------------------------

def forge_tuple(group, E, rng, *, suite: HashSuite = PRODUCTION):
    """Forge one tuple satisfying the verification equation against E.

    Draws ``a`` then ``b`` from Z_q*, both redrawn while H1(U) = 0.
    Costs exactly two scalar multiplications per attempt.  ``a`` and
    ``b`` can be recomputed from the published tuple, so a timing trace
    of their multiplications would tell the forgeries from the signer's
    own tuple: ``U = a*P + b*E`` takes two fixed-pattern ``scalar_mul``
    calls, not the variable-time ``multi_mul``.  On a prepared ``E`` the
    second one walks E's split rows.
    """
    if group.is_identity(E):
        raise DegenerateKeyError("cannot forge against the identity element")
    q = group.q
    while True:
        a = rng.randrange(1, q)
        b = rng.randrange(1, q)
        U = group.add(group.scalar_mul(a, group.generator), group.scalar_mul(b, E))
        e = suite.h1(group, U)
        if e != 0:
            break
    v = -e * pow(b, -1, q) % q
    m = a * v % q
    return m.to_bytes(group.scalar_byte_len, "big"), U, v


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
            if len(raw) > 0xFFFF:
                raise ValueError("identity string too long to serialize")
            out += struct.pack(">H", len(raw)) + raw
        for m, U, v in self.tuples:
            out += m + group.encode_element(U) + group.encode_scalar(v)
        return bytes(out)

    @classmethod
    def read(cls, stream, group) -> "RingSignature":
        """Read one signature from a binary stream, leaving it at the end.

        Every field comes through :func:`~avcs.groups.take` before it is
        decoded (a tuple's m, U and v all three), so a short stream
        raises :class:`ParseError` naming what is truncated; bytes after
        the signature stay unread.
        """
        sbl = group.scalar_byte_len
        ebl = group.element_byte_len
        r, x = struct.unpack(">HH", take(stream, 4, "signature header"))
        if r < 1:
            raise ParseError("empty ring")
        if not 1 <= x <= r:
            raise ParseError("start index out of range")
        w = take(stream, sbl, "glue value")
        ids = []
        for _ in range(r):
            (id_len,) = struct.unpack(">H", take(stream, 2, "identity length"))
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
            tuples.append((m, group.decode_element(U), group.decode_scalar(v)))
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
    public-key extractions, which are additions only.  Every ring id
    enters the registry's cache.  A forgery against an id the cache
    held before the call runs on that key prepared, and the prepared
    key stays cached; an id seen for the first time, and the signer's
    own id, get no table.
    """
    group = registry.group
    suite = registry.suite
    r = len(ring)
    if r < 1:
        raise ValueError("ring must not be empty")
    if not 0 <= signer_pos < r:
        raise ValueError("signer position outside the ring")
    if ring[signer_pos] != signer.id:
        raise ValueError("signer position does not hold the signer's id")

    kept = registry._keep({id_str: registry._derive(id_str) for id_str in ring},
                          plain={signer.id})
    pubkeys = [kept[id_str] for id_str in ring]
    q = group.q
    sbl = group.scalar_byte_len

    m_list: list[bytes] = [b""] * r
    U_list: list[object] = [None] * r
    v_list: list[int] = [0] * r
    for i in range(r):
        if i == signer_pos:
            continue
        m_list[i], U_list[i], v_list[i] = forge_tuple(group, pubkeys[i], rng, suite=suite)

    gamma = rng.randrange(1, 256 ** sbl).to_bytes(sbl, "big")

    w = [b""] * r
    j = (signer_pos + 1) % r
    w[j] = suite.chain(group, msg, gamma)
    for _ in range(r - 1):
        nxt = (j + 1) % r
        w[nxt] = suite.chain(group, msg, _xor(w[j], m_list[j]))
        j = nxt

    # glue: with m_s = gamma xor w_s the next link recomputes to
    # chain(msg, gamma), which is where the walk started
    m_s = _xor(gamma, w[signer_pos])
    l = rng.randrange(1, q)
    U_s = group.scalar_mul(l, group.generator)
    v_s = (int.from_bytes(m_s, "big") - signer.d * suite.h1(group, U_s)) * pow(l, -1, q) % q
    m_list[signer_pos], U_list[signer_pos], v_list[signer_pos] = m_s, U_s, v_s

    x = rng.randrange(1, r + 1)
    return RingSignature(x, w[x - 1], tuple(ring), tuple(zip(m_list, U_list, v_list)))


def ring_verify(
    msg: bytes,
    sig: RingSignature,
    registry: ManufactoryRegistry,
) -> bool:
    """Accept iff the ring equation closes and every tuple verifies.

    The chain closes first, on hashes alone.  Then one multi-scalar
    multiplication over 3r pairs (2r+1 distinct bases) checks
    ``sum s_i*(m_i*P - H1(U_i)*E_i - v_i*U_i) = 0``, with tuple i scaled
    by ``s_i = -z_i / v_i`` so that U_i's coefficient is ``z_i`` itself;
    the nonzero v_i share one batch inversion.  The randomizers ``z_i``
    lie in ``[1, 2**lam - 1]``, lam = bits(q)/2 rounded up (96 on P-192,
    128 on P-256), and are hashed from the message and the signature
    (the Bellare-Garay-Rabin small-exponent batch test): one bad tuple
    is always caught, several pass with probability at most
    1/(2**lam - 1).  Every U_i is a fresh point, so its short scalar
    halves ``multi_mul``'s doubling chain when the keys are prepared.
    A tuple with ``v_i = 0`` keeps ``s_i = z_i``, and U_i's coefficient
    is 0.  The r keys enter the registry's cache only if the signature
    verifies; the keys of ids cached before the call are then prepared.

    Hostile-input safe: unknown manufactories, degenerate ids and shape
    violations all reject rather than raise.  Costs exactly 3r logical
    scalar multiplications and r extractions once the chain closes.
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
    try:
        pubkeys = [registry._derive(id_str) for id_str in sig.ids]
        seed = digest32("batch", struct.pack(">I", len(msg)) + msg + sig.to_bytes(group))
    except (ValueError, UnknownManufactoryError, DegenerateKeyError):
        return False
    q = group.q
    short = (1 << -(-q.bit_length() // 2)) - 1
    pairs = []
    inverses = batch_inverse([v for _, _, v in sig.tuples], q)
    for i, ((m, U, v), E, v_inv) in enumerate(zip(sig.tuples, pubkeys, inverses)):
        z = group.hash_to_scalar("batch", struct.pack(">I", i) + seed) % short + 1
        s, u = (-z * v_inv, z) if v else (z, 0)
        pairs += [(s * int.from_bytes(m, "big"), group.generator),
                  (-s * suite.h1(group, U), E), (u, U)]
    if not group.is_identity(group.multi_mul(pairs)):
        return False
    registry._keep(dict(zip(sig.ids, pubkeys)))
    return True
