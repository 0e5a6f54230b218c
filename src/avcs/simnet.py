"""Deterministic fleet simulation over a lossy broadcast medium.

A scenario file (INI syntax, see :func:`parse_scenario`) describes a
fleet of honest vehicles plus scripted adversaries.  The run is a
single-threaded discrete-event loop: one logical clock drives every
hardware module, every random draw comes from a generator seeded from
``(scenario seed, entity name)``, and frames propagate with per-receiver
Bernoulli loss and bounded uniform latency.  Two runs of the same
scenario therefore produce byte-identical event logs.

Adversaries see only what a radio eavesdropper would (every broadcast
frame) plus, for the ``compromised`` kind, one module's leaked master
secret.  They never touch honest vehicle state except through frames.
"""

from __future__ import annotations

import configparser
import heapq
import itertools
import json
import math
import random
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from functools import partial

from . import transient
from .errors import AvcsError, ScenarioError
from .groups import get_group
from .hardware import MAX_VALIDITY, ManualClock, PseudonymCertificate, join, leak_master_secret, pack_content
from .ringsig import MAX_RING, ManufactoryRegistry, RingSignature, forge_tuple, setup
from .vehicle import CLOCK_SKEW, FRAME_CERT, FRAME_MSG, REJECTION_REASONS, VehicleState, cert_fingerprint, encode_cert_frame, encode_message_frame

ADVERSARY_KINDS = ("sybil", "replay", "forger", "masquerade", "compromised")

# column order for counters_csv and the per-vehicle tallies
COUNTER_KEYS = ("accept",) + REJECTION_REASONS

MANUFACTORY = "fleet"


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarySpec:
    name: str
    kind: str
    start: float = 0.0
    # kind-specific knobs, already type-checked by parse_scenario
    certs: int = 5          # sybil: certificates minted in one window
    repeats: int = 2        # replay: rebroadcast count
    period: float = 3.0     # forger/masquerade: seconds between attempts
    ring: int = 3           # forger: ring size of the fabricated signature
    victim: str = ""        # masquerade: id to impersonate ("" = default)
    vehicle: int = 0        # compromised: index of the leaking module


@dataclass(frozen=True)
class Scenario:
    """One fleet run, checked as it is built.

    Every value, the curve and any non-finite float included, is checked
    at construction, from a file, from code or from ``dataclasses.replace``,
    and a bad one raises ``ScenarioError``.  ``parse_scenario`` adds only
    the file's own errors: unknown sections or keys, and unconvertible values.
    """

    seed: int
    n_vehicles: int
    duration: float
    curve: str = "p192"
    k: int = 10
    ring_size: int = 3
    min_span_time: float = 5.0
    cert_validity: float = 60.0
    msg_rate: float = 1.0
    loss_rate: float = 0.0
    latency_min_ms: float = 1.0
    latency_max_ms: float = 5.0
    preseed_ids: bool = True
    adversaries: tuple[AdversarySpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in (self, *self.adversaries):
            where = "" if spec is self else f"adversary {spec.name!r}: "
            for name, value in vars(spec).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioError(f"{where}{name} must be finite")
        if self.n_vehicles < 1:
            raise ScenarioError("n_vehicles must be at least 1")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.k < 1 or not 1 <= self.ring_size <= MAX_RING:
            raise ScenarioError(f"k must be at least 1 and ring_size lie in 1..{MAX_RING}")
        if self.min_span_time <= 0:
            raise ScenarioError("min_span_time must be positive")
        if self.cert_validity < self.min_span_time:
            # an honest vehicle renews at expiry; the new certificate must
            # land in a fresh window or its own T would look like a Sybil
            raise ScenarioError("cert_validity must be >= min_span_time")
        if self.cert_validity > MAX_VALIDITY - 1:
            raise ScenarioError(f"cert_validity must be at most {MAX_VALIDITY - 1} s")
        if self.msg_rate <= 0:
            raise ScenarioError("msg_rate must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ScenarioError("loss_rate must lie in [0, 1]")
        if self.latency_min_ms < 0 or self.latency_max_ms < self.latency_min_ms:
            raise ScenarioError("latency bounds must satisfy 0 <= min <= max")
        seen = set()
        for adv in self.adversaries:
            if adv.name in seen:
                raise ScenarioError(f"duplicate adversary name {adv.name!r}")
            seen.add(adv.name)
            if adv.kind not in ADVERSARY_KINDS:
                raise ScenarioError(f"unknown adversary kind {adv.kind!r}")
            if adv.start < 0:
                raise ScenarioError(f"adversary {adv.name!r}: start must be >= 0")
            if adv.kind == "sybil" and adv.certs < 2:
                raise ScenarioError(f"adversary {adv.name!r}: certs must be >= 2")
            if adv.kind == "replay" and adv.repeats < 1:
                raise ScenarioError(f"adversary {adv.name!r}: repeats must be >= 1")
            if adv.kind in ("forger", "masquerade") and adv.period <= 0:
                raise ScenarioError(f"adversary {adv.name!r}: period must be positive")
            if adv.kind == "forger" and not 1 <= adv.ring <= MAX_RING:
                raise ScenarioError(f"adversary {adv.name!r}: ring must lie in 1..{MAX_RING}")
            if adv.kind == "compromised" and not 0 <= adv.vehicle < self.n_vehicles:
                raise ScenarioError(f"adversary {adv.name!r}: vehicle index out of range")
        try:
            get_group(self.curve)
        except (ValueError, AvcsError) as exc:
            raise ScenarioError(str(exc)) from exc


def _field_types(cls) -> dict:
    """Field name -> (type, required) for a scenario dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING) for f in fields(cls)}


# resolved once: get_type_hints is slow next to a whole parse
_SCENARIO_FIELDS = _field_types(Scenario)
_ADVERSARY_FIELDS = _field_types(AdversarySpec)

# INI section -> the Scenario fields it holds, in reading order
_SECTIONS = {
    "scenario": ("seed", "n_vehicles", "duration", "curve"),
    "protocol": ("k", "ring_size", "min_span_time", "cert_validity", "msg_rate", "preseed_ids"),
    "medium": ("loss_rate", "latency_min_ms", "latency_max_ms"),
}
_ADVERSARY_KEYS = tuple(name for name in _ADVERSARY_FIELDS if name != "name")


def _read_section(section: str, items, types: dict, keys) -> dict:
    """The present ``keys`` of one INI section, each converted to the type
    in ``types``, as dataclass keyword arguments; an absent key keeps the
    field default, and a missing required key or a leftover is an error."""
    items = dict(items)
    values = {}
    for key in keys:
        conv, required = types[key]
        if key not in items:
            if required:
                raise ScenarioError(f"[{section}] is missing required key {key!r}")
            continue
        raw = items.pop(key)
        try:
            if conv is bool:
                values[key] = configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
            else:
                values[key] = conv(raw)
        except (KeyError, TypeError, ValueError):
            raise ScenarioError(
                f"[{section}] {key} = {raw!r} is not a valid {conv.__name__}"
            ) from None
    if items:
        stray = ", ".join(sorted(items))
        raise ScenarioError(f"[{section}] has unknown keys: {stray}")
    return values


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from INI text; absent keys keep the field defaults.

    Only the file's own errors are raised here; ``Scenario`` checks the
    values."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc
    if "scenario" not in cp:
        raise ScenarioError("scenario file needs a [scenario] section")

    values = {}
    for section, keys in _SECTIONS.items():
        items = cp[section] if section in cp else {}
        values.update(_read_section(section, items, _SCENARIO_FIELDS, keys))

    adversaries = []
    for section in cp.sections():
        if section in _SECTIONS:
            continue
        if not section.startswith("adversary."):
            raise ScenarioError(f"unknown section [{section}]")
        name = section[len("adversary."):]
        if not name:
            raise ScenarioError("adversary section needs a name after the dot")
        spec = _read_section(section, cp[section], _ADVERSARY_FIELDS, _ADVERSARY_KEYS)
        adversaries.append(AdversarySpec(name=name, **spec))

    return Scenario(**values, adversaries=tuple(adversaries))


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    seed: int
    curve: str
    duration: float
    vehicles: tuple[str, ...]
    counters: dict                 # receiver -> {outcome/reason: count}
    frames_delivered: int
    frames_dropped: int
    sent: dict                     # source -> {"cert": n, "msg": n}
    delivery_ratio: dict           # honest source -> accepted msg / possible msg
    throughput: float              # accepted message frames per simulated second
    sybil_detection_latency: dict  # sybil adversary -> seconds (None if never)
    adversary_accepted: dict       # adversary -> accepted deliveries
    revocations: tuple             # (time, vehicle name) pairs
    cert_size: tuple | None        # (min, mean, max) bytes over honest certs
    msg_size: tuple | None
    events: tuple                  # JSONL lines, in delivery order


def counters_csv(report: RunReport) -> str:
    lines = ["vehicle," + ",".join(COUNTER_KEYS)]
    for name in report.vehicles:
        row = report.counters[name]
        lines.append(name + "," + ",".join(str(row.get(key, 0)) for key in COUNTER_KEYS))
    return "\n".join(lines) + "\n"


def render_text(report: RunReport) -> str:
    out = [
        f"seed {report.seed}  curve {report.curve}  duration {report.duration:g}s  "
        f"vehicles {len(report.vehicles)}",
        f"frames delivered {report.frames_delivered}, dropped {report.frames_dropped}",
        f"throughput {report.throughput:.2f} accepted msgs/s",
        "",
        "per-vehicle outcomes:",
    ]
    for name in report.vehicles:
        row = report.counters[name]
        cells = "  ".join(f"{key}={row.get(key, 0)}" for key in COUNTER_KEYS)
        out.append(f"  {name}: {cells}")
    if report.delivery_ratio:
        out.append("")
        out.append("message delivery (accepted / possible):")
        for name, ratio in report.delivery_ratio.items():
            out.append(f"  {name}: {ratio:.3f}")
    for adv, latency in report.sybil_detection_latency.items():
        shown = "never" if latency is None else f"{latency * 1000:.1f} ms"
        out.append(f"sybil detection for {adv}: {shown}")
    for adv, count in report.adversary_accepted.items():
        out.append(f"adversary {adv}: {count} accepted frames")
    for when, name in report.revocations:
        out.append(f"revocation of {name} distributed at t={when:g}s")
    if report.cert_size:
        lo, mean, hi = report.cert_size
        out.append(f"cert frame bytes: min {lo}, mean {mean:.1f}, max {hi}")
    if report.msg_size:
        lo, mean, hi = report.msg_size
        out.append(f"msg frame bytes: min {lo}, mean {mean:.1f}, max {hi}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the event loop and medium
# ---------------------------------------------------------------------------


class _Sim:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.group = get_group(scenario.curve)
        self.clock = ManualClock(0.0)
        self.registry = ManufactoryRegistry(self.group)
        self.mk = setup(
            self.group,
            rng=random.Random(f"{scenario.seed}/setup"),
            manufactory_id=MANUFACTORY,
        )
        self.registry.register_master(self.mk)
        self.medium_rng = random.Random(f"{scenario.seed}/medium")

        self._heap = []
        self._seq = itertools.count()
        self.now = 0.0

        self.vehicles: list[tuple[str, VehicleState]] = []
        self._cert_expiry: dict[str, float] = {}
        self._taps = []            # called as tap(src, frame, time) on every broadcast
        self._last_arrival: dict[tuple[str, str], float] = {}
        self.adversary_names = frozenset(spec.name for spec in scenario.adversaries)

        # what happened, once; report() derives every figure from these
        self.deliveries: list[tuple] = []  # (time, src, dst, kind, outcome, reason)
        self.broadcasts: list[tuple] = []  # (src, kind, size)
        self.revocations: list[tuple[float, str]] = []

    # -- scheduling -------------------------------------------------------

    def schedule(self, time: float, fn) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), fn))

    def run_loop(self) -> None:
        while self._heap:
            time, _, fn = heapq.heappop(self._heap)
            self.now = time
            self.clock.set(time)
            fn()

    # -- construction -------------------------------------------------------

    def build(self) -> None:
        sc = self.scenario
        identities = [f"{MANUFACTORY}:veh-{i:03d}" for i in range(sc.n_vehicles)]
        for i, identity in enumerate(identities):
            name = identity.split(":", 1)[1]
            rng = random.Random(f"{sc.seed}/vehicle/{name}")
            hsm = join(
                self.mk, identity, self.registry, rng,
                clock=self.clock, min_span_time=sc.min_span_time,
            )
            veh = VehicleState(hsm, k=sc.k, ring_size=sc.ring_size)
            if sc.preseed_ids:
                veh.harvest_ids(identities)
            self.vehicles.append((name, veh))
            # stagger stream starts so same-tick broadcasts stay distinguishable
            start = 0.01 * (i + 1)
            j = 0
            while (t := start + j / sc.msg_rate) < sc.duration:
                self.schedule(t, partial(self._tick, name, veh, rng, j))
                j += 1

        for spec in sc.adversaries:
            # the kind was checked against ADVERSARY_KINDS when sc was built
            getattr(self, f"_build_{spec.kind}")(spec)

    def _tick(self, name: str, veh: VehicleState, rng: random.Random, j: int) -> None:
        """Vehicle ``name``'s ``j``-th message, after a new certificate if it has none live."""
        if veh.current_certificate is None or self.now >= self._cert_expiry[name]:
            cert = veh.make_pseudonym(self.scenario.cert_validity, rng)
            self._cert_expiry[name] = cert.parse_c(self.group).expiration
        payload = f"{name}/status/{j}".encode()
        for frame in veh.send_next(payload):
            self.broadcast(name, frame)

    # -- medium -------------------------------------------------------------

    def broadcast(self, src: str, frame: bytes) -> None:
        kind = _frame_kind(frame)
        self.broadcasts.append((src, kind, len(frame)))
        for tap in self._taps:
            tap(src, frame, self.now)
        sc = self.scenario
        for dst, veh in self.vehicles:
            if dst == src:
                continue
            if self.medium_rng.random() < sc.loss_rate:
                self.deliveries.append((self.now, src, dst, kind, "drop", None))
                continue
            latency = self.medium_rng.uniform(sc.latency_min_ms, sc.latency_max_ms) / 1000.0
            # frames on one src->dst path never overtake each other
            arrival = max(self.now + latency, self._last_arrival.get((src, dst), 0.0) + 1e-9)
            self._last_arrival[(src, dst)] = arrival
            self.schedule(arrival, partial(self._deliver, src, dst, veh, frame, kind))

    def _deliver(self, src: str, dst: str, veh: VehicleState, frame: bytes, kind: str) -> None:
        result = veh.receive(frame, self.now)
        self.deliveries.append((self.now, src, dst, kind, result.outcome, result.reason))

    # -- adversaries ----------------------------------------------------

    def _adv_rng(self, name: str) -> random.Random:
        return random.Random(f"{self.scenario.seed}/adversary/{name}")

    def _every(self, spec: AdversarySpec, attempt) -> None:
        """Run ``attempt``, then again every ``spec.period`` seconds while inside the run."""
        attempt()
        nxt = self.now + spec.period
        if nxt < self.scenario.duration:
            self.schedule(nxt, partial(self._every, spec, attempt))

    def _build_sybil(self, spec: AdversarySpec) -> None:
        """One module minting several certificates inside one window."""
        rng = self._adv_rng(spec.name)
        identity = f"{MANUFACTORY}:adv-{spec.name}"
        module = join(
            self.mk, identity, self.registry, rng,
            clock=self.clock, min_span_time=self.scenario.min_span_time,
        )

        def activate():
            for _ in range(spec.certs):
                cert = module.gen_pseudonym([identity], self.scenario.cert_validity, rng)
                self.broadcast(spec.name, encode_cert_frame(cert, self.group))

        self.schedule(spec.start, activate)

    def _build_replay(self, spec: AdversarySpec) -> None:
        """Record the first honest certificate heard, replay it once stale."""
        state = {"recorded": False}

        def tap(src, frame, time):
            if state["recorded"] or time < spec.start:
                return
            if src in self.adversary_names or frame[0] != FRAME_CERT:
                return
            state["recorded"] = True
            cert = PseudonymCertificate.from_bytes(frame[1:], self.group)
            expiration = cert.parse_c(self.group).expiration
            # past expiration plus any receiver's skew allowance
            when = expiration + CLOCK_SKEW + 1.0
            for i in range(spec.repeats):
                self.schedule(when + i, lambda frame=frame: self.broadcast(spec.name, frame))

        self._taps.append(tap)

    def _forged_envelope(self, rng):
        """A fresh transient key pair and a made-up C, R and T around it."""
        group = self.group
        sk, pk = transient.gen_keypair(group, rng)
        C = pack_content(group, pk, self.now, 30.0)
        R = group.scalar_mul(rng.randrange(1, group.q), group.generator)
        T = group.scalar_mul(rng.randrange(1, group.q), group.generator)
        return sk, pk, C, R, T

    def _build_forger(self, spec: AdversarySpec) -> None:
        """Fabricate certificates out of thin air: random tuples, random tags."""
        rng = self._adv_rng(spec.name)
        group = self.group
        q = group.q
        sbl = group.scalar_byte_len

        def attempt():
            sk, pk, C, R, T = self._forged_envelope(rng)
            ids = tuple(
                f"{MANUFACTORY}:ghost-{n}" for n in rng.sample(range(10 ** 6), spec.ring)
            )
            tuples = tuple(
                (rng.randbytes(sbl),
                 group.scalar_mul(rng.randrange(1, q), group.generator),
                 rng.randrange(1, q))
                for _ in range(spec.ring)
            )
            S = RingSignature(rng.randrange(1, spec.ring + 1), rng.randbytes(sbl), ids, tuples)
            cert_frame = encode_cert_frame(PseudonymCertificate(C, R, T, S), group)
            self.broadcast(spec.name, cert_frame)
            # a message under the never-accepted certificate: lands as no-cert
            msg = b"forged payload"
            sig = transient.sign(group, sk, pk, msg)
            self.broadcast(spec.name, encode_message_frame(cert_fingerprint(cert_frame), msg, sig))

        self.schedule(spec.start, partial(self._every, spec, attempt))

    def _build_masquerade(self, spec: AdversarySpec) -> None:
        """One genuinely forged tuple under someone else's id, glued wrong.

        The tuple itself passes verification, but with r=1 the chain
        must fix-point through the hash, which needs the victim's d.
        """
        rng = self._adv_rng(spec.name)
        group = self.group
        victim = spec.victim or f"{MANUFACTORY}:special-001"
        try:
            # uncached: the fleet's key cache stays untouched
            E = self.registry.derive_pubkey(victim)
        except AvcsError as exc:
            raise ScenarioError(f"masquerade victim {victim!r}: {exc}") from exc

        def attempt():
            _, _, C, R, T = self._forged_envelope(rng)
            m, U, v = forge_tuple(group, E, rng)
            S = RingSignature(1, rng.randbytes(group.scalar_byte_len), (victim,), ((m, U, v),))
            self.broadcast(spec.name, encode_cert_frame(PseudonymCertificate(C, R, T, S), group))

        self.schedule(spec.start, partial(self._every, spec, attempt))

    def _build_compromised(self, spec: AdversarySpec) -> None:
        """A module's f leaks; the supervisor broadcasts it to rogue lists."""

        def activate():
            victim_name, victim = self.vehicles[spec.vehicle]
            f = leak_master_secret(victim.hsm)
            for name, veh in self.vehicles:
                if name != victim_name:
                    veh.revoke(f)
            self.revocations.append((self.now, victim_name))

        self.schedule(spec.start, activate)

    # -- reporting ------------------------------------------------------

    def report(self) -> RunReport:
        sc = self.scenario
        names = [name for name, _ in self.vehicles]
        counters = {name: {key: 0 for key in COUNTER_KEYS} for name in names}
        accepted = Counter()        # source -> accepted deliveries
        msg_accepted = Counter()    # source -> accepted message deliveries
        first_sybil = {}            # source -> time of its first sybil verdict
        dropped = 0
        for time, src, dst, kind, outcome, reason in self.deliveries:
            if outcome == "drop":
                dropped += 1
                continue
            counters[dst]["accept" if outcome == "accept" else reason] += 1
            if outcome == "accept":
                accepted[src] += 1
                if kind == "msg":
                    msg_accepted[src] += 1
            if reason == "sybil":
                first_sybil.setdefault(src, time)

        sent = {}
        for src, kind, _ in self.broadcasts:
            tally = sent.setdefault(src, {"cert": 0, "msg": 0})
            tally[kind] = tally.get(kind, 0) + 1
        n_receivers = len(names) - 1
        delivery_ratio = {
            name: msg_accepted[name] / (sent[name]["msg"] * n_receivers)
            for name in names
            if name in sent and sent[name]["msg"] * n_receivers
        }
        sybils = sorted((spec.name, spec.start) for spec in sc.adversaries if spec.kind == "sybil")
        honest = [(kind, size) for src, kind, size in self.broadcasts
                  if src not in self.adversary_names]
        return RunReport(
            seed=sc.seed,
            curve=sc.curve,
            duration=sc.duration,
            vehicles=tuple(names),
            counters=counters,
            frames_delivered=len(self.deliveries) - dropped,
            frames_dropped=dropped,
            sent=sent,
            delivery_ratio=delivery_ratio,
            throughput=sum(msg_accepted.values()) / sc.duration,
            sybil_detection_latency={
                name: first_sybil[name] - start if name in first_sybil else None
                for name, start in sybils
            },
            adversary_accepted={spec.name: accepted[spec.name] for spec in sc.adversaries},
            revocations=tuple(self.revocations),
            cert_size=_size_stats([size for kind, size in honest if kind == "cert"]),
            msg_size=_size_stats([size for kind, size in honest if kind != "cert"]),
            events=tuple(
                json.dumps({"time": round(time, 6), "src": src, "dst": dst, "frame": kind,
                            "outcome": outcome, "reason": reason}, sort_keys=True)
                for time, src, dst, kind, outcome, reason in self.deliveries
            ),
        )


def _frame_kind(frame: bytes) -> str:
    if frame and frame[0] == FRAME_CERT:
        return "cert"
    if frame and frame[0] == FRAME_MSG:
        return "msg"
    return "raw"


def _size_stats(sizes: list[int]) -> tuple | None:
    if not sizes:
        return None
    return (min(sizes), sum(sizes) / len(sizes), max(sizes))


def run(scenario: Scenario) -> RunReport:
    """Execute one scenario to completion and summarize it."""
    sim = _Sim(scenario)
    sim.build()
    sim.run_loop()
    return sim.report()
