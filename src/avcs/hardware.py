"""Emulated secure hardware: master secret, identity key, trusted clock.

Each vehicle owns one :class:`HardwareModule`, provisioned once at
Join time with a manufactory-derived identity key ``d`` and a random
master secret ``f`` that never leaves the module.  The module mints
pseudonym certificates

    sigma = (C, R, T, S)

where ``C`` packs a fresh transient public key with issue/expiration
times, ``R = f * h0(C)`` binds the certificate content to ``f``
(recomputable only by this module, which is what audits rely on),
``T = f * h1(window)`` is constant across one ``min_span_time`` window
(two certificates in one window share T -- the Sybil tell), and ``S``
ring-signs ``h2(C || R || T)`` under a ring of the module's choosing.
The tag h1(window) is public, so it is hashed and prepared once per
window index for every module in the process, on the signed comb of a
ring key; T itself is computed at every mint, on the tag's comb, and
receivers test leaked f on it at C's issue second (``min_span_time`` is
thus a protocol constant), on a comb that nobody keeps if the window is
not the receiver's current one and no tag of it is cached.  A receiver
keeps the leaked f's multiples of its current windows' tags itself
(``VehicleState``).

The clock is injected: tests turn it by hand, the simulator feeds it
the event-loop time, and the CLI uses the system clock.  The module
only insists it never runs backwards.
"""

from __future__ import annotations

import hmac
import io
import math
import struct
import time
from dataclasses import dataclass

from . import transient
from .errors import (
    ClockError,
    ParseError,
    ProvisioningError,
    SupervisorAuthError,
)
from .groups import take
from .ringsig import ManufactoryRegistry, RingSignature, keygen, ring_sign, split_id

__all__ = [
    "ApplicationMessage",
    "HardwareModule",
    "MAX_VALIDITY",
    "ManualClock",
    "PseudonymCertificate",
    "SystemClock",
    "TRANSIENT_SCHEME_ID",
    "join",
    "leak_master_secret",
    "pack_content",
    "signed_message",
]

TRANSIENT_SCHEME_ID = 1
WINDOW_TAGS = 4  # windows whose prepared tag stays cached, process-wide
# seconds from a certificate's issue to its expiration, at most: twice
# the longest validity in use (an hour), so a module can mint up to one
# second less, the second that rounding C's times down and up can add
MAX_VALIDITY = 7200


def pack_content(group, pk, now: float, validity: float) -> bytes:
    """C = scheme-id || enc(pk) || floor(now) || ceil(now + validity).

    The inverse of :meth:`PseudonymCertificate.parse_c`.
    """
    return (
        bytes([TRANSIENT_SCHEME_ID])
        + group.encode_element(pk)
        + struct.pack(">QQ", math.floor(now), math.ceil(now + validity))
    )


_tags: dict = {}  # (group, window) -> prepared tag, least recently used first


def _window_tag(group, window: int, keep: bool = True):
    """h1(window) on the signed comb of ``prepare``, as a ring key is, so
    ``f * h1(window)`` and a rogue entry's ``multi_mul`` each walk one
    16-step chain; shared by modules and receivers.  A miss costs one
    hash-to-curve and the operation table's ``prepare comb``.  With
    ``keep`` the WINDOW_TAGS most recently used stay cached; with
    ``keep`` False the cache is left as it is, its order included, and
    a tag that a miss builds is used once."""
    key = (group, window)
    tag = _tags.get(key)
    if tag is None:
        tag = group.prepare(group.hash_to_group("h1", struct.pack(">Q", window)))
    elif keep:
        del _tags[key]
    if keep:
        if len(_tags) == WINDOW_TAGS:
            del _tags[next(iter(_tags))]
        _tags[key] = tag
    return tag


def signed_message(group, C: bytes, R, T) -> bytes:
    """enc(h2(C || R || T)): the message a certificate's ring signature signs."""
    L = group.hash_to_scalar("h2", C + group.encode_element(R) + group.encode_element(T))
    return group.encode_scalar(L)


class ManualClock:
    """Hand-driven time source for tests and the simulator."""

    def __init__(self, start: float = 0.0):
        self._t = float(start)

    def now(self) -> float:
        return self._t

    def set(self, t: float) -> None:
        self._t = float(t)

    def advance(self, dt: float) -> None:
        self._t += dt


class SystemClock:
    def now(self) -> float:
        return time.time()


@dataclass(frozen=True)
class ParsedC:
    scheme_id: int
    pk: object
    issue: int
    expiration: int


@dataclass(frozen=True)
class PseudonymCertificate:
    """sigma = (C, R, T, S); see the module docstring for the roles.
    R and T are points when minted and checked encodings when parsed:
    no receiver check reads their points."""

    C: bytes
    R: object
    T: object
    S: RingSignature

    def to_bytes(self, group) -> bytes:
        if len(self.C) > 0xFFFF:
            raise ValueError("C too long to serialize")
        return (
            struct.pack(">H", len(self.C))
            + self.C
            + group.encode_element(self.R)
            + group.encode_element(self.T)
            + self.S.to_bytes(group)
        )

    @classmethod
    def from_bytes(cls, data: bytes, group) -> "PseudonymCertificate":
        stream = io.BytesIO(data)
        (c_len,) = struct.unpack(">H", take(stream, 2, "certificate header"))
        ebl = group.element_byte_len
        # C, R and T are all there before R and T are checked
        C = take(stream, c_len, "certificate body")
        R = take(stream, ebl, "certificate body")
        T = take(stream, ebl, "certificate body")
        R, T = group.check_encoding(R), group.check_encoding(T)
        cert = cls(C, R, T, RingSignature.read(stream, group))
        if stream.read(1):
            raise ParseError("trailing bytes after certificate")
        return cert

    def parse_c(self, group) -> ParsedC:
        """Unpack C = scheme-id || pk || issue || expiration."""
        ebl = group.element_byte_len
        if len(self.C) != 1 + ebl + 16:
            raise ParseError("C has the wrong length")
        scheme_id = self.C[0]
        if scheme_id != TRANSIENT_SCHEME_ID:
            raise ParseError(f"unknown transient scheme id {scheme_id}")
        pk = group.decode_element(self.C[1 : 1 + ebl])
        if group.is_identity(pk):
            raise ParseError("transient key is the identity element")
        issue, expiration = struct.unpack_from(">QQ", self.C, 1 + ebl)
        return ParsedC(scheme_id, pk, issue, expiration)


@dataclass(frozen=True)
class ApplicationMessage:
    M: bytes
    N: bytes


class HardwareModule:
    """One vehicle's secure element, provisioned as it is constructed.

    Construction is Join (``join`` is another name for this class): it
    derives the identity key's ``d`` for ``id_str`` and draws the master
    secret ``f`` from ``rng``.  Both live in name-mangled private attributes and no
    method returns them; only ``f * h0(C)`` / ``f * h1(window)`` bindings
    and ring signatures escape, and :meth:`window_tag` serves receivers too.
    ``supervisor_token``, a str or bytes, authorises :meth:`reveal_respond`.
    """

    def __init__(self, mk, id_str: str, registry: ManufactoryRegistry, rng, *, clock=None,
                 min_span_time: float = 60.0, supervisor_token=None):
        if min_span_time <= 0:
            raise ValueError("min_span_time must be positive")
        mfr, _ = split_id(id_str)
        if not registry.knows(mfr):
            raise ProvisioningError(f"manufactory {mfr!r} is not registered")
        self.registry = registry
        self.clock = clock if clock is not None else SystemClock()
        self.min_span_time = float(min_span_time)
        self._supervisor_token = supervisor_token
        self.__identity_key = keygen(mk, id_str, suite=registry.suite)
        self.__f = rng.randrange(1, registry.group.q)
        self._transient = None
        self._last_time = None

    @property
    def identity(self) -> str:
        return self.__identity_key.id

    @property
    def group(self):
        return self.registry.group

    # -- internals ----------------------------------------------------------

    def _read_clock(self) -> float:
        t = self.clock.now()
        if self._last_time is not None and t < self._last_time:
            raise ClockError(f"trusted clock went backwards: {self._last_time} -> {t}")
        self._last_time = t
        return t

    def _bind_and_sign(self, C: bytes, ring: list[str], pos: int, now: float, rng):
        """Bind C to f and the window at ``now``, ring-sign it as ring[pos].

        R = f * h0(C) and T = f * tag are one ``fixed_multi_muls`` call,
        two scalar multiplications made affine by one shared inversion."""
        group = self.group
        R, T = group.fixed_multi_muls([[(self.__f, group.hash_to_group("h0", C))],
                                       [(self.__f, self.window_tag(now, now))]])
        message = signed_message(group, C, R, T)
        S = ring_sign(message, ring, self.__identity_key, pos, self.registry, rng)
        return PseudonymCertificate(C, R, T, S)

    # -- protocol operations --------------------------------------------

    def window_tag(self, t: float, now: float):
        """The prepared h1 tag of the window that holds second floor(t),
        looked up at time ``now``.  A window other than now's whose tag is
        not cached gets a comb that is used once, so an issue time that a
        received frame picks neither keeps a tag nor evicts one."""
        window = self.window(t)
        return _window_tag(self.group, window, window == self.window(now))

    def window(self, t: float) -> int:
        """The index of the ``min_span_time`` window that holds second floor(t)."""
        return math.floor(math.floor(t) / self.min_span_time)

    def gen_pseudonym(self, ring: list[str], validity: float, rng) -> PseudonymCertificate:
        """Mint a certificate for a fresh transient key, ring-signed.

        ``ring`` must contain this module's id exactly once and no
        id twice; ``validity`` is in seconds, above 0 and at most
        ``MAX_VALIDITY - 1``, so that C spans at most ``MAX_VALIDITY``.
        """
        if not 0 < validity <= MAX_VALIDITY - 1:
            raise ValueError(f"validity must lie in (0, {MAX_VALIDITY - 1}] seconds")
        own = self.identity
        if ring.count(own) != 1:
            raise ValueError("ring must contain this module's id exactly once")
        if len(set(ring)) != len(ring):
            raise ValueError("ring contains duplicate ids")
        group = self.group
        now = self._read_clock()

        sk, pk = transient.gen_keypair(group, rng)
        C = pack_content(group, pk, now, validity)
        cert = self._bind_and_sign(C, list(ring), ring.index(own), now, rng)
        self._transient = (sk, pk)
        return cert

    def gen_message(self, M: bytes) -> ApplicationMessage:
        """Sign a payload under the current transient key."""
        if self._transient is None:
            raise ProvisioningError("no transient key: generate a pseudonym first")
        sk, pk = self._transient
        return ApplicationMessage(M, transient.sign(self.group, sk, pk, M))

    def reveal_respond(self, C: bytes, token, rng) -> PseudonymCertificate:
        """Supervisor audit: recompute R' = f*h0(C) for a supplied C.

        The returned certificate reuses the questioned C; T' and S'
        are fresh (S' is a single-member ring, since the response is
        attributable by design).  Only R' participates in the match
        decision downstream.
        """
        expected = self._supervisor_token
        # a constant-time comparison of the UTF-8 or raw bytes; a token of
        # another type than the configured one never matches
        if expected is None or type(token) is not type(expected) or not hmac.compare_digest(
                *(t.encode() if isinstance(t, str) else t for t in (token, expected))):
            raise SupervisorAuthError("reveal requires the supervisor capability")
        now = self._read_clock()
        return self._bind_and_sign(C, [self.identity], 0, now, rng)


# Join provisions a module for an id: the constructor, under the paper's name
join = HardwareModule


def leak_master_secret(module: HardwareModule) -> int:
    """Model a physically compromised module by pulling out its f.

    No protocol operation returns f; this hook exists so the simulator
    can stage the compromised-module attack and so tests can populate
    rogue lists.  Nothing in the package calls it on the honest path.
    """
    return module._HardwareModule__f
