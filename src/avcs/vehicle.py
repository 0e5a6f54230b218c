"""On-road node logic: send scheduling and the receive pipeline.

A vehicle broadcasts two frame kinds.  A certificate frame carries its
current pseudonym certificate; a message frame carries a signed
payload plus an 8-byte fingerprint of the certificate frame it was
signed under, so receivers can find the right transient key in O(1).

The receive pipeline runs the checks in a fixed order and the first
failing check names the rejection:

    certificate: duplicate -> sybil (equal T in the buffer) ->
                 expired / not yet valid / valid for longer than
                 MAX_VALIDITY -> revoked (a rogue f times the issue
                 window's tag is T) -> ring signature
    message:     certificate lookup (no-cert) -> payload signature

Buffered certificates are pruned lazily by expiration before the
checks run, so a replayed stale certificate is reported as expired
rather than duplicate.

A receiver keeps the encoded rogue T values of each window that was its
current window when it first scanned it, for the last WINDOW_TAGS such
windows, and checks a later certificate from one of them by set
membership; ``revoke`` drops them all.  A certificate from any other
window is scanned and leaves nothing behind, so an issue time that a
frame picks neither builds a set nor evicts one.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass

from . import transient
from .errors import ParseError, ProtocolError, ProvisioningError
from .groups import digest32, note_scalar_muls
from .hardware import MAX_VALIDITY, WINDOW_TAGS, HardwareModule, PseudonymCertificate, signed_message
from .ringsig import MAX_RING, ring_verify

__all__ = [
    "CLOCK_SKEW",
    "FRAME_CERT",
    "FRAME_MSG",
    "REJECTION_REASONS",
    "ReceiveResult",
    "VehicleState",
    "cert_fingerprint",
    "decode_message_frame",
    "encode_cert_frame",
    "encode_message_frame",
    "reveal_check",
]

FRAME_CERT = 0x01
FRAME_MSG = 0x02

# seconds a receiver tolerates between its clock and a certificate's times
CLOCK_SKEW = 5.0

REJECTION_REASONS = (
    "duplicate",
    "sybil",
    "expired",
    "revoked",
    "bad-signature",
    "no-cert",
    "malformed",
)


def cert_fingerprint(cert_frame: bytes) -> bytes:
    """8-byte handle receivers use to link messages to certificates."""
    return digest32("fpr", cert_frame)[:8]


def encode_cert_frame(cert: PseudonymCertificate, group) -> bytes:
    return bytes([FRAME_CERT]) + cert.to_bytes(group)


def encode_message_frame(fingerprint: bytes, M: bytes, N: bytes) -> bytes:
    if len(fingerprint) != 8:
        raise ValueError("fingerprint must be 8 bytes")
    return bytes([FRAME_MSG]) + fingerprint + struct.pack(">I", len(M)) + M + N


def decode_message_frame(frame: bytes, group) -> tuple[bytes, bytes, bytes]:
    """Split a message frame into (fingerprint, M, N)."""
    if len(frame) < 13 or frame[0] != FRAME_MSG:
        raise ParseError("not a message frame")
    fingerprint = frame[1:9]
    (m_len,) = struct.unpack_from(">I", frame, 9)
    sig_len = transient.signature_byte_len(group)
    if len(frame) != 13 + m_len + sig_len:
        raise ParseError("message frame length mismatch")
    return fingerprint, frame[13 : 13 + m_len], frame[13 + m_len :]


@dataclass(frozen=True)
class ReceiveResult:
    """Outcome of one frame: accept, duplicate, or reject(reason)."""

    outcome: str  # "accept" | "duplicate" | "reject"
    reason: str | None = None
    payload: bytes | None = None

    @property
    def accepted(self) -> bool:
        return self.outcome == "accept"


def _reject(reason: str) -> ReceiveResult:
    assert reason in REJECTION_REASONS
    return ReceiveResult("reject", reason)


@dataclass
class _BufferedCert:
    frame: bytes
    t_enc: bytes
    pk: object  # prepared short (a transient key's rows) at the second message that verifies
    expiration: int
    carried_message: bool = False


class VehicleState:
    """Mutable per-vehicle protocol state around one hardware module."""

    ID_CAPACITY = 64  # harvested ring ids kept, oldest out first

    def __init__(self, hsm: HardwareModule, *, k: int = 10, ring_size: int = 4):
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 1 <= ring_size <= MAX_RING:
            raise ValueError(f"ring_size must lie in 1..{MAX_RING}")
        self.hsm = hsm
        self.k = k
        self.ring_size = ring_size
        self.pseudonym_buf: OrderedDict[bytes, _BufferedCert] = OrderedDict()
        # kept in step with pseudonym_buf: the fingerprint buffered under
        # each encoded T, and the earliest buffered expiration
        self._fingerprint_by_t: dict[bytes, bytes] = {}
        self._earliest_expiration = math.inf
        self.id_buf: OrderedDict[str, None] = OrderedDict()
        self.rogue_list: frozenset[int] = frozenset()  # replaced by revoke alone
        # window -> encoded f * tag over rogue_list, oldest window first
        self._rogue_ts: dict[int, frozenset[bytes]] = {}
        self.current_certificate: PseudonymCertificate | None = None
        self.certificate_frame: bytes | None = None
        self._stream_sent = 0

    # -- sending ------------------------------------------------------------

    def make_pseudonym(self, validity: float, rng, ring: list[str] | None = None):
        """Mint and adopt a new certificate; resets the send stream."""
        if ring is None:
            ring = self.choose_ring(rng)
        cert = self.hsm.gen_pseudonym(ring, validity, rng)
        self.current_certificate = cert
        self.certificate_frame = encode_cert_frame(cert, self.hsm.group)
        self._stream_sent = 0
        return cert

    def send_next(self, payload: bytes) -> list[bytes]:
        """Frame one payload: the certificate before the first message of
        a stream and again before every k-th message, then the message.
        """
        if self.certificate_frame is None:
            raise ProvisioningError("no pseudonym certificate to send under")
        frames = []
        if self._stream_sent == 0:
            frames.append(self.certificate_frame)
        self._stream_sent += 1
        if self._stream_sent % self.k == 0:
            frames.append(self.certificate_frame)
        app = self.hsm.gen_message(payload)
        frames.append(encode_message_frame(cert_fingerprint(self.certificate_frame), app.M, app.N))
        return frames

    # -- ring construction ----------------------------------------------

    def choose_ring(self, rng) -> list[str]:
        """Sample ring_size-1 buffered ids, insert own id uniformly."""
        own = self.hsm.identity
        candidates = list(self.id_buf)
        take = min(self.ring_size - 1, len(candidates))
        chosen = rng.sample(candidates, take)
        pos = rng.randrange(take + 1)
        return chosen[:pos] + [own] + chosen[pos:]

    # -- receiving ------------------------------------------------------

    def _prune(self, now: float) -> None:
        if now <= self._earliest_expiration + CLOCK_SKEW:
            return
        dead = [
            fp
            for fp, entry in self.pseudonym_buf.items()
            if now > entry.expiration + CLOCK_SKEW
        ]
        for fp in dead:
            del self._fingerprint_by_t[self.pseudonym_buf.pop(fp).t_enc]
        self._earliest_expiration = min(
            (entry.expiration for entry in self.pseudonym_buf.values()), default=math.inf
        )

    def harvest_ids(self, ids) -> None:
        """Keep ``ids``, all but this vehicle's own, as the most recently
        seen ring ids; past ``ID_CAPACITY`` the oldest go."""
        own = self.hsm.identity
        for id_str in ids:
            if id_str != own:
                self.id_buf[id_str] = None
                self.id_buf.move_to_end(id_str)
        while len(self.id_buf) > self.ID_CAPACITY:
            self.id_buf.popitem(last=False)

    def receive(self, frame: bytes, now: float) -> ReceiveResult:
        """Run one hostile frame through the pipeline."""
        if not frame:
            return _reject("malformed")
        if frame[0] == FRAME_CERT:
            return self._receive_cert(frame, now)
        if frame[0] == FRAME_MSG:
            return self._receive_message(frame, now)
        return _reject("malformed")

    def _receive_cert(self, frame: bytes, now: float) -> ReceiveResult:
        group = self.hsm.group
        fingerprint = cert_fingerprint(frame)
        self._prune(now)
        entry = self.pseudonym_buf.get(fingerprint)
        if entry is not None and entry.frame == frame:
            # a re-send of an unexpired buffered frame, which parsed when it was accepted
            return ReceiveResult("duplicate", "duplicate")
        try:
            cert = PseudonymCertificate.from_bytes(frame[1:], group)
            parsed = cert.parse_c(group)
        except ParseError:
            return _reject("malformed")

        # R and T stay the bytes that parsed: no equation reads their points
        if cert.T in self._fingerprint_by_t:
            return _reject("sybil")

        # a validity above the cap is no time at which the certificate holds,
        # so it is expired too, before any multiplication
        if (not parsed.issue - CLOCK_SKEW <= now <= parsed.expiration + CLOCK_SKEW
                or parsed.expiration - parsed.issue > MAX_VALIDITY):
            return _reject("expired")

        # leaked f values are public; the expiry checks bound the issue second
        if self.rogue_list and cert.T in self._rogue_ts_at(parsed.issue, now):
            return _reject("revoked")

        if not ring_verify(signed_message(group, cert.C, cert.R, cert.T), cert.S, self.hsm.registry):
            return _reject("bad-signature")

        if entry is not None:  # another frame with this fingerprint: replace it
            del self._fingerprint_by_t[entry.t_enc]
        self.pseudonym_buf[fingerprint] = _BufferedCert(frame, cert.T, parsed.pk, parsed.expiration)
        self._fingerprint_by_t[cert.T] = fingerprint
        self._earliest_expiration = min(self._earliest_expiration, parsed.expiration)
        ids = cert.S.ids
        if len(ids) > self.ring_size:  # ring_size ids, by a hash keyed to us: the sender cannot choose
            key = fingerprint + self.hsm.identity.encode()
            ids = sorted(ids, key=lambda id_str: digest32("harvest", key + id_str.encode()))[: self.ring_size]
        self.harvest_ids(ids)
        return ReceiveResult("accept")

    def _rogue_ts_at(self, issue: int, now: float) -> frozenset[bytes]:
        """The encoded f * tag over every rogue f, for the window of second
        ``issue``: recalled if it is kept, else one multi_muls, made affine
        with one inversion, and kept if the window is now's.  A recall
        counts the multiplications it stands for."""
        hsm, group = self.hsm, self.hsm.group
        window = hsm.window(issue)
        ts = self._rogue_ts.get(window)
        if ts is not None:
            note_scalar_muls(len(self.rogue_list))
            return ts
        tag = hsm.window_tag(issue, now)
        ts = frozenset(map(group.encode_element, group.multi_muls([[(f, tag)] for f in self.rogue_list])))
        if window == hsm.window(now):
            if len(self._rogue_ts) == WINDOW_TAGS:
                del self._rogue_ts[next(iter(self._rogue_ts))]
            self._rogue_ts[window] = ts
        return ts

    def _receive_message(self, frame: bytes, now: float) -> ReceiveResult:
        group = self.hsm.group
        try:
            fingerprint, M, N = decode_message_frame(frame, group)
        except ParseError:
            return _reject("malformed")
        self._prune(now)
        entry = self.pseudonym_buf.get(fingerprint)
        if entry is None:
            return _reject("no-cert")
        # a certificate that has carried one valid message likely carries
        # more: from the second on, its key is checked on short rows
        pk = group.prepare(entry.pk, short=True) if entry.carried_message else entry.pk
        if not transient.verify(group, pk, M, N):
            return _reject("bad-signature")
        entry.pk, entry.carried_message = pk, True
        return ReceiveResult("accept", payload=M)

    # -- supervision ------------------------------------------------------

    def revoke(self, f: int) -> None:
        """Add a leaked master secret to the rogue list (idempotent) and
        drop every kept set of rogue T values."""
        self.rogue_list |= {f}
        self._rogue_ts.clear()


def reveal_check(sigma: PseudonymCertificate, sigma_prime: PseudonymCertificate,
                 group) -> bool:
    """Supervisor-side audit decision: True iff R matches.

    R is compared by its encoding, so either certificate may be minted
    or parsed.  ``sigma_prime`` must be a reveal response for the same
    questioned C; anything else is a protocol error, not a no-match.
    """
    if sigma_prime.C != sigma.C:
        raise ProtocolError("reveal response answers a different C")
    return group.encode_element(sigma.R) == group.encode_element(sigma_prime.R)
