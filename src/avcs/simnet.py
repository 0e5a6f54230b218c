"""Deterministic fleet simulation over a lossy broadcast medium.

A scenario file (INI syntax, see :func:`load_scenario`) describes a
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
import struct
from dataclasses import dataclass

from . import transient
from .errors import AvcsError, ScenarioError
from .groups import get_group
from .hardware import TRANSIENT_SCHEME_ID, ManualClock, PseudonymCertificate, join, leak_master_secret
from .ringsig import ManufactoryRegistry, RingSignature, forge_tuple, setup
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
    start: float
    # kind-specific knobs, already type-checked by load_scenario
    certs: int = 5          # sybil: certificates minted in one window
    repeats: int = 2        # replay: rebroadcast count
    period: float = 3.0     # forger/masquerade: seconds between attempts
    ring: int = 3           # forger: ring size of the fabricated signature
    victim: str = ""        # masquerade: id to impersonate ("" = default)
    vehicle: int = 0        # compromised: index of the leaking module


@dataclass(frozen=True)
class Scenario:
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

    def validate(self) -> None:
        if self.n_vehicles < 1:
            raise ScenarioError("n_vehicles must be at least 1")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.k < 1 or self.ring_size < 1:
            raise ScenarioError("k and ring_size must be at least 1")
        if self.min_span_time <= 0:
            raise ScenarioError("min_span_time must be positive")
        if self.cert_validity < self.min_span_time:
            # an honest vehicle renews at expiry; the new certificate must
            # land in a fresh window or its own T would look like a Sybil
            raise ScenarioError("cert_validity must be >= min_span_time")
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
            if adv.kind == "forger" and adv.ring < 1:
                raise ScenarioError(f"adversary {adv.name!r}: ring must be >= 1")
            if adv.kind == "compromised" and not 0 <= adv.vehicle < self.n_vehicles:
                raise ScenarioError(f"adversary {adv.name!r}: vehicle index out of range")


class _SectionReader:
    """Pop typed values out of one INI section, complaining about leftovers."""

    def __init__(self, section: str, items: dict):
        self.section = section
        self.items = dict(items)

    def take(self, key, conv, default=None, required=False):
        if key not in self.items:
            if required:
                raise ScenarioError(f"[{self.section}] is missing required key {key!r}")
            return default
        raw = self.items.pop(key)
        try:
            if conv is bool:
                lowered = raw.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(raw)
            return conv(raw)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"[{self.section}] {key} = {raw!r} is not a valid {conv.__name__}"
            ) from None

    def finish(self) -> None:
        if self.items:
            stray = ", ".join(sorted(self.items))
            raise ScenarioError(f"[{self.section}] has unknown keys: {stray}")


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc
    if "scenario" not in cp:
        raise ScenarioError("scenario file needs a [scenario] section")

    sc = _SectionReader("scenario", cp["scenario"])
    seed = sc.take("seed", int, required=True)
    n_vehicles = sc.take("n_vehicles", int, required=True)
    duration = sc.take("duration", float, required=True)
    curve = sc.take("curve", str, default="p192")
    sc.finish()

    pr = _SectionReader("protocol", cp["protocol"] if "protocol" in cp else {})
    k = pr.take("k", int, default=10)
    ring_size = pr.take("ring_size", int, default=3)
    min_span_time = pr.take("min_span_time", float, default=5.0)
    cert_validity = pr.take("cert_validity", float, default=60.0)
    msg_rate = pr.take("msg_rate", float, default=1.0)
    preseed_ids = pr.take("preseed_ids", bool, default=True)
    pr.finish()

    md = _SectionReader("medium", cp["medium"] if "medium" in cp else {})
    loss_rate = md.take("loss_rate", float, default=0.0)
    latency_min_ms = md.take("latency_min_ms", float, default=1.0)
    latency_max_ms = md.take("latency_max_ms", float, default=5.0)
    md.finish()

    adversaries = []
    for section in cp.sections():
        if section in ("scenario", "protocol", "medium"):
            continue
        if not section.startswith("adversary."):
            raise ScenarioError(f"unknown section [{section}]")
        name = section[len("adversary."):]
        if not name:
            raise ScenarioError("adversary section needs a name after the dot")
        ad = _SectionReader(section, cp[section])
        kind = ad.take("kind", str, required=True)
        spec = AdversarySpec(
            name=name,
            kind=kind,
            start=ad.take("start", float, default=0.0),
            certs=ad.take("certs", int, default=5),
            repeats=ad.take("repeats", int, default=2),
            period=ad.take("period", float, default=3.0),
            ring=ad.take("ring", int, default=3),
            victim=ad.take("victim", str, default=""),
            vehicle=ad.take("vehicle", int, default=0),
        )
        ad.finish()
        adversaries.append(spec)

    scenario = Scenario(
        seed=seed, n_vehicles=n_vehicles, duration=duration, curve=curve,
        k=k, ring_size=ring_size, min_span_time=min_span_time,
        cert_validity=cert_validity, msg_rate=msg_rate, loss_rate=loss_rate,
        latency_min_ms=latency_min_ms, latency_max_ms=latency_max_ms,
        preseed_ids=preseed_ids, adversaries=tuple(adversaries),
    )
    scenario.validate()
    try:
        get_group(curve)
    except (ValueError, AvcsError) as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario


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
    accepted_by_src: dict          # source -> accepted deliveries
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
        scenario.validate()
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
        self._vehicle_rng: dict[str, random.Random] = {}
        self._cert_expiry: dict[str, float] = {}
        self._taps = []            # called as tap(src, frame, time) on every broadcast
        self._last_arrival: dict[tuple[str, str], float] = {}

        self.events: list[str] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.sent: dict[str, dict[str, int]] = {}
        self.accepted_by_src: dict[str, int] = {}
        self.msg_accepts_by_src: dict[str, int] = {}
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.adversary_names: list[str] = []
        self.sybil_names: set[str] = set()
        self.sybil_start: dict[str, float] = {}
        self.sybil_first_reject: dict[str, float] = {}
        self.revocations: list[tuple[float, str]] = []
        self.cert_sizes: list[int] = []
        self.msg_sizes: list[int] = []

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
                veh._harvest_ids(identities)
            self.vehicles.append((name, veh))
            self._vehicle_rng[name] = rng
            self.counters[name] = {key: 0 for key in COUNTER_KEYS}
            # stagger stream starts so same-tick broadcasts stay distinguishable
            start = 0.01 * (i + 1)
            j = 0
            while (t := start + j / sc.msg_rate) < sc.duration:
                self.schedule(t, self._make_tick(name, veh, j))
                j += 1

        for spec in sc.adversaries:
            self.adversary_names.append(spec.name)
            self.accepted_by_src.setdefault(spec.name, 0)
            builder = {
                "sybil": self._build_sybil,
                "replay": self._build_replay,
                "forger": self._build_forger,
                "masquerade": self._build_masquerade,
                "compromised": self._build_compromised,
            }[spec.kind]
            builder(spec)

    def _make_tick(self, name: str, veh: VehicleState, j: int):
        def tick():
            rng = self._vehicle_rng[name]
            if veh.current_certificate is None or self.now >= self._cert_expiry[name]:
                cert = veh.make_pseudonym(self.scenario.cert_validity, rng)
                self._cert_expiry[name] = cert.parse_c(self.group).expiration
            payload = f"{name}/status/{j}".encode()
            for frame in veh.send_next(payload):
                self.broadcast(name, frame)
        return tick

    # -- medium -------------------------------------------------------------

    def broadcast(self, src: str, frame: bytes) -> None:
        kind = _frame_kind(frame)
        tally = self.sent.setdefault(src, {"cert": 0, "msg": 0})
        tally[kind] = tally.get(kind, 0) + 1
        if src not in self.adversary_names:
            (self.cert_sizes if kind == "cert" else self.msg_sizes).append(len(frame))
        for tap in self._taps:
            tap(src, frame, self.now)
        sc = self.scenario
        for dst, veh in self.vehicles:
            if dst == src:
                continue
            if self.medium_rng.random() < sc.loss_rate:
                self.frames_dropped += 1
                self._log(self.now, src, dst, kind, "drop", None)
                continue
            latency = self.medium_rng.uniform(sc.latency_min_ms, sc.latency_max_ms) / 1000.0
            # frames on one src->dst path never overtake each other
            arrival = max(self.now + latency, self._last_arrival.get((src, dst), 0.0) + 1e-9)
            self._last_arrival[(src, dst)] = arrival
            self.schedule(arrival, self._make_delivery(src, dst, veh, frame, kind))

    def _make_delivery(self, src: str, dst: str, veh: VehicleState, frame: bytes, kind: str):
        def deliver():
            result = veh.receive(frame, self.now)
            key = "accept" if result.accepted else result.reason
            self.counters[dst][key] += 1
            self.frames_delivered += 1
            if result.accepted:
                self.accepted_by_src[src] = self.accepted_by_src.get(src, 0) + 1
                if kind == "msg":
                    self.msg_accepts_by_src[src] = self.msg_accepts_by_src.get(src, 0) + 1
            if result.reason == "sybil" and src in self.sybil_names:
                self.sybil_first_reject.setdefault(src, self.now)
            self._log(self.now, src, dst, kind, result.outcome, result.reason)
        return deliver

    def _log(self, time, src, dst, kind, outcome, reason) -> None:
        self.events.append(json.dumps(
            {"time": round(time, 6), "src": src, "dst": dst,
             "frame": kind, "outcome": outcome, "reason": reason},
            sort_keys=True,
        ))

    # -- adversaries ----------------------------------------------------

    def _adv_rng(self, name: str) -> random.Random:
        return random.Random(f"{self.scenario.seed}/adversary/{name}")

    def _build_sybil(self, spec: AdversarySpec) -> None:
        """One module minting several certificates inside one window."""
        rng = self._adv_rng(spec.name)
        identity = f"{MANUFACTORY}:adv-{spec.name}"
        module = join(
            self.mk, identity, self.registry, rng,
            clock=self.clock, min_span_time=self.scenario.min_span_time,
        )
        self.sybil_names.add(spec.name)
        self.sybil_start[spec.name] = spec.start

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
        times = struct.pack(">QQ", math.floor(self.now), math.ceil(self.now + 30.0))
        C = bytes([TRANSIENT_SCHEME_ID]) + group.encode_element(pk) + times
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
            nxt = self.now + spec.period
            if nxt < self.scenario.duration:
                self.schedule(nxt, attempt)

        self.schedule(spec.start, attempt)

    def _build_masquerade(self, spec: AdversarySpec) -> None:
        """One genuinely forged tuple under someone else's id, glued wrong.

        The tuple itself passes verification, but with r=1 the chain
        must fix-point through the hash, which needs the victim's d.
        """
        rng = self._adv_rng(spec.name)
        group = self.group
        victim = spec.victim or f"{MANUFACTORY}:special-001"
        try:
            E = self.registry.extract_pubkey(victim)
        except AvcsError as exc:
            raise ScenarioError(f"masquerade victim {victim!r}: {exc}") from exc

        def attempt():
            _, _, C, R, T = self._forged_envelope(rng)
            m, U, v = forge_tuple(group, E, rng)
            S = RingSignature(1, rng.randbytes(group.scalar_byte_len), (victim,), ((m, U, v),))
            self.broadcast(spec.name, encode_cert_frame(PseudonymCertificate(C, R, T, S), group))
            nxt = self.now + spec.period
            if nxt < self.scenario.duration:
                self.schedule(nxt, attempt)

        self.schedule(spec.start, attempt)

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
        total = sum(sum(row.values()) for row in self.counters.values())
        if total != self.frames_delivered:
            raise AssertionError(
                f"outcome counters ({total}) disagree with deliveries ({self.frames_delivered})"
            )
        n_receivers = len(self.vehicles) - 1
        delivery_ratio = {}
        for name, _ in self.vehicles:
            sent_msgs = self.sent.get(name, {}).get("msg", 0)
            possible = sent_msgs * n_receivers
            if possible:
                delivery_ratio[name] = self.msg_accepts_by_src.get(name, 0) / possible
        accepted_msgs = sum(self.msg_accepts_by_src.values())
        latency = {
            name: (self.sybil_first_reject[name] - self.sybil_start[name]
                   if name in self.sybil_first_reject else None)
            for name in sorted(self.sybil_names)
        }
        return RunReport(
            seed=sc.seed,
            curve=sc.curve,
            duration=sc.duration,
            vehicles=tuple(name for name, _ in self.vehicles),
            counters=self.counters,
            frames_delivered=self.frames_delivered,
            frames_dropped=self.frames_dropped,
            sent=self.sent,
            accepted_by_src=self.accepted_by_src,
            delivery_ratio=delivery_ratio,
            throughput=accepted_msgs / sc.duration,
            sybil_detection_latency=latency,
            adversary_accepted={
                name: self.accepted_by_src.get(name, 0) for name in self.adversary_names
            },
            revocations=tuple(self.revocations),
            cert_size=_size_stats(self.cert_sizes),
            msg_size=_size_stats(self.msg_sizes),
            events=tuple(self.events),
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
