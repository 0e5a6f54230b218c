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

The clock is injected: tests turn it by hand, the simulator feeds it
the event-loop time, and the CLI uses the system clock.  The module
only insists it never runs backwards.
"""

from __future__ import annotations

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
from .ringsig import ManufactoryRegistry, RingSignature, keygen, ring_sign, split_id

__all__ = [
    "ApplicationMessage",
    "HardwareModule",
    "ManualClock",
    "PseudonymCertificate",
    "SystemClock",
    "TRANSIENT_SCHEME_ID",
    "content_tag",
    "join",
    "leak_master_secret",
    "signed_message",
]

TRANSIENT_SCHEME_ID = 1


def content_tag(group, C: bytes):
    """h0(C): the group element a certificate's ``R = f * h0(C)`` binds."""
    return group.hash_to_group("h0", C)


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
    """sigma = (C, R, T, S); see the module docstring for the roles."""

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
    def read_from(cls, data: bytes, offset: int, group) -> tuple["PseudonymCertificate", int]:
        try:
            (c_len,) = struct.unpack_from(">H", data, offset)
        except struct.error:
            raise ParseError("certificate header truncated") from None
        offset += 2
        ebl = group.element_byte_len
        if offset + c_len + 2 * ebl > len(data):
            raise ParseError("certificate body truncated")
        C = data[offset : offset + c_len]
        offset += c_len
        R = group.decode_element(data[offset : offset + ebl])
        T = group.decode_element(data[offset + ebl : offset + 2 * ebl])
        offset += 2 * ebl
        S, offset = RingSignature.read_from(data, offset, group)
        return cls(C, R, T, S), offset

    @classmethod
    def from_bytes(cls, data: bytes, group) -> "PseudonymCertificate":
        cert, end = cls.read_from(data, 0, group)
        if end != len(data):
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
    """One vehicle's secure element.

    Construct unprovisioned, then call :meth:`provision` exactly once
    (or use the :func:`join` convenience).  ``f`` and the identity
    key's ``d`` live in name-mangled private attributes and no method
    returns them; only ``f * h0(C)`` / ``f * h1(window)`` bindings and
    ring signatures escape.
    """

    def __init__(self, registry: ManufactoryRegistry, clock=None, *,
                 min_span_time: float = 60.0, supervisor_token=None):
        if min_span_time <= 0:
            raise ValueError("min_span_time must be positive")
        self.registry = registry
        self.clock = clock if clock is not None else SystemClock()
        self.min_span_time = float(min_span_time)
        self._supervisor_token = supervisor_token
        self.__f = None
        self.__identity_key = None
        self._transient = None
        self._last_time = None

    # -- provisioning -----------------------------------------------------

    @property
    def provisioned(self) -> bool:
        return self.__f is not None

    @property
    def identity(self) -> str:
        if self.__identity_key is None:
            raise ProvisioningError("module has not joined")
        return self.__identity_key.id

    @property
    def group(self):
        return self.registry.group

    def provision(self, mk, id_str: str, rng) -> "HardwareModule":
        """Join: derive d for ``id_str``, draw the master secret f."""
        if self.provisioned:
            raise ProvisioningError("module is already provisioned")
        mfr, _ = split_id(id_str)
        if not self.registry.knows(mfr):
            raise ProvisioningError(f"manufactory {mfr!r} is not registered")
        self.__identity_key = keygen(mk, id_str, suite=self.registry.suite)
        self.__f = rng.randrange(1, self.group.q)
        return self

    # -- internals ----------------------------------------------------------

    def _read_clock(self) -> float:
        t = self.clock.now()
        if self._last_time is not None and t < self._last_time:
            raise ClockError(f"trusted clock went backwards: {self._last_time} -> {t}")
        self._last_time = t
        return t

    def _require_key(self):
        if not self.provisioned:
            raise ProvisioningError("module has not joined")

    def _window_tag(self, now: float):
        window = math.floor(now / self.min_span_time)
        return self.group.hash_to_group("h1", struct.pack(">Q", window))

    def _bind_and_sign(self, C: bytes, ring: list[str], pos: int, now: float, rng):
        """Bind C to f and the window at ``now``, ring-sign it as ring[pos]."""
        group = self.group
        R = group.scalar_mul(self.__f, content_tag(group, C))
        T = group.scalar_mul(self.__f, self._window_tag(now))
        message = signed_message(group, C, R, T)
        S = ring_sign(message, ring, self.__identity_key, pos, self.registry, rng)
        return PseudonymCertificate(C, R, T, S)

    # -- protocol operations --------------------------------------------

    def gen_pseudonym(self, ring: list[str], validity: float, rng) -> PseudonymCertificate:
        """Mint a certificate for a fresh transient key, ring-signed.

        ``ring`` must contain this module's id exactly once and no
        id twice; ``validity`` is in seconds.
        """
        self._require_key()
        if validity <= 0:
            raise ValueError("validity must be positive")
        own = self.identity
        if ring.count(own) != 1:
            raise ValueError("ring must contain this module's id exactly once")
        if len(set(ring)) != len(ring):
            raise ValueError("ring contains duplicate ids")
        group = self.group
        now = self._read_clock()

        sk, pk = transient.gen_keypair(group, rng)
        C = (
            bytes([TRANSIENT_SCHEME_ID])
            + group.encode_element(pk)
            + struct.pack(">QQ", math.floor(now), math.ceil(now + validity))
        )
        cert = self._bind_and_sign(C, list(ring), ring.index(own), now, rng)
        self._transient = (sk, pk)
        return cert

    def gen_message(self, M: bytes) -> ApplicationMessage:
        """Sign a payload under the current transient key."""
        self._require_key()
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
        self._require_key()
        if self._supervisor_token is None or token != self._supervisor_token:
            raise SupervisorAuthError("reveal requires the supervisor capability")
        now = self._read_clock()
        return self._bind_and_sign(C, [self.identity], 0, now, rng)


def join(mk, id_str: str, registry: ManufactoryRegistry, rng, *, clock=None,
         min_span_time: float = 60.0, supervisor_token=None) -> HardwareModule:
    """Construct and provision a module in one step."""
    module = HardwareModule(
        registry, clock, min_span_time=min_span_time, supervisor_token=supervisor_token
    )
    return module.provision(mk, id_str, rng)


def leak_master_secret(module: HardwareModule) -> int:
    """Model a physically compromised module by pulling out its f.

    No protocol operation returns f; this hook exists so the simulator
    can stage the compromised-module attack and so tests can populate
    rogue lists.  Nothing in the package calls it on the honest path.
    """
    return module._HardwareModule__f
