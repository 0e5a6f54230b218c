"""The four seeded workloads.

Three are closed loops with one client: a block of frames is generated
through the public sender API (timed), then replayed to one receiving
``VehicleState``, each frame sent only after the previous verdict
returned.  Blocks have a fixed composition and differ only in the
seeded draws, and every block holds at least five samples of each
latency class the end-to-end metrics report.  The fourth workload runs
a generated ``Scenario`` through ``simnet.run``.

All protocol time is virtual (one ``ManualClock``), so every verdict is
a function of the seed alone, never of machine speed.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from contextlib import contextmanager

from avcs import hardware, ringsig, simnet, transient
from avcs.groups import get_group
from avcs.hardware import TRANSIENT_SCHEME_ID, ManualClock, PseudonymCertificate
from avcs.ringsig import ManufactoryRegistry, RingSignature
from avcs.vehicle import FRAME_CERT, VehicleState, encode_cert_frame, encode_message_frame

from harness import ANY_REJECTION

CURVE = "p192"
MFR = "fleet"
T0 = 1_000_000.0
MIN_SPAN = 60.0
K = 10
ACCEPT = frozenset({"accept"})
DUPLICATE = frozenset({"duplicate"})


class ClosedLoop:
    """Shared world building and the generate-then-replay block."""

    name = ""
    block_s = 1.0       # nominal wall seconds of one block; sets the block count
    min_blocks = 1      # enough blocks for a message-latency tail

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.group = get_group(CURVE)
        self.clock = ManualClock(T0)
        self._announced: set[bytes] = set()
        self._seq = 0

    # -- world building (set-up) ------------------------------------------

    def _master(self) -> None:
        self.mk = ringsig.setup(self.group, rng=self.rng, manufactory_id=MFR)

    def _registry(self, warm_ids) -> ManufactoryRegistry:
        registry = ManufactoryRegistry(self.group)
        registry.register_master(self.mk)
        for id_str in warm_ids:
            registry.extract_pubkey(id_str)
        return registry

    def _vehicle(self, id_str: str, registry, ring_size: int = 4, rng=None) -> VehicleState:
        hsm = hardware.join(self.mk, id_str, registry, rng or self.rng,
                            clock=self.clock, min_span_time=MIN_SPAN)
        return VehicleState(hsm, k=K, ring_size=ring_size)

    def _ring(self, vs: VehicleState, others, rng=None) -> list[str]:
        rng = rng or self.rng
        ring = list(others)
        ring.insert(rng.randrange(len(ring) + 1), vs.hsm.identity)
        return ring

    def _fleet_ring(self, vs, fleet, r: int, rng=None) -> list[str]:
        rng = rng or self.rng
        others = [i for i in fleet if i != vs.hsm.identity]
        return self._ring(vs, rng.sample(others, r - 1), rng)

    def _payload(self, vs) -> bytes:
        self._seq += 1
        return f"{vs.hsm.identity}|{self._seq}|".encode() + self.rng.randbytes(32)

    def _expect(self, frame: bytes) -> frozenset:
        """Honest sender frames: fresh certificates accept, re-sends are duplicates."""
        if frame[0] != FRAME_CERT:
            return ACCEPT
        if frame in self._announced:
            return DUPLICATE
        self._announced.add(frame)
        return ACCEPT

    def _send(self, rec, vs, items) -> None:
        for frame in rec.send(vs, self._payload(vs)):
            items.append((frame, self.clock.now(), self._expect(frame)))

    def _warm_up(self, rec, senders, ring_for) -> list[bytes]:
        """Give every sender a certificate and deliver its first message."""
        items = []
        for vs in senders:
            rec.mint(vs, self.validity, self.rng, ring_for(vs))
        for vs in senders:
            self.clock.advance(1.0)
            self._send(rec, vs, items)
        rec.replay(self.rx, items)
        # later certificates from these modules land in another window
        self.clock.advance(MIN_SPAN)
        return [frame for frame, _, _ in items]

    def details(self) -> dict:
        return {}

    # -- the measured block -----------------------------------------------

    def run_block(self, j: int, rec, quiet) -> None:
        """One block; ``quiet`` wraps crafting that is neither timed nor traced."""
        rec.begin_block()
        items = self.generate(j, rec, quiet)
        for frame, now, expect in items:
            rec.note_frame(frame, now, expect)
        rec.replay(self.rx, items)
        rec.end_block(len(items))


class Beacon(ClosedLoop):
    """Steady state: long pseudonym streams from a small, warm fleet."""

    name = "beacon"
    senders = 10
    fleet_size = 20
    ring_size = 4
    rounds = 50         # messages per sender per block
    renew_every = 10    # rounds between renewals: 5 per block, each sender every 2nd block
    step = 0.1          # virtual seconds between message frames
    validity = 300.0
    block_s = 3.0

    def setup(self, rec) -> None:
        self._master()
        self.fleet = [f"{MFR}:veh-{i:03d}" for i in range(self.fleet_size)]
        sender_registry = self._registry(self.fleet)
        self.rx = VehicleState(hardware.join(
            self.mk, f"{MFR}:rx-000", self._registry(self.fleet), self.rng, clock=self.clock))
        self.vehicles = [self._vehicle(i, sender_registry) for i in self.fleet[: self.senders]]
        self._warm_up(rec, self.vehicles, self._ring_for)

    def _ring_for(self, vs):
        return self._fleet_ring(vs, self.fleet, self.ring_size)

    def generate(self, j: int, rec, quiet) -> list:
        items = []
        renewals = self.rounds // self.renew_every
        for n in range(self.rounds):
            if n % self.renew_every == 0:
                renewing = self.vehicles[(j * renewals + n // self.renew_every) % self.senders]
                rec.mint(renewing, self.validity, self.rng, self._ring_for(renewing))
            for vs in self.vehicles:
                self.clock.advance(self.step)
                self._send(rec, vs, items)
        return items


class Churn(ClosedLoop):
    """Certificate-heavy: many short-lived pseudonyms, ring sizes 1..10."""

    name = "churn"
    modules = 32        # signer reuse every 32 certificates = 64 virtual seconds
    pool_size = 120     # warm non-signer ids
    ring_sizes = tuple(range(1, 11))   # each once per block, in seeded order
    cold_per_block = 11                # of the 45 non-signer ring slots per block
    step = 2.0
    validity = 3600.0   # nothing expires: the pseudonym buffer keeps growing
    block_s = 0.7
    min_blocks = 10

    def setup(self, rec) -> None:
        self._master()
        signer_ids = [f"{MFR}:mod-{i:03d}" for i in range(self.modules)]
        self.pool = [f"{MFR}:peer-{i:03d}" for i in range(self.pool_size)]
        warm = signer_ids + self.pool
        sender_registry = self._registry(warm)
        self.rx = VehicleState(hardware.join(
            self.mk, f"{MFR}:rx-000", self._registry(warm), self.rng, clock=self.clock))
        self.vehicles = [self._vehicle(i, sender_registry) for i in signer_ids]
        self._next = 0

    def generate(self, j: int, rec, quiet) -> list:
        rng = self.rng
        sizes = list(self.ring_sizes)
        rng.shuffle(sizes)
        cold = set(rng.sample(range(sum(sizes) - len(sizes)), self.cold_per_block))
        slot = 0
        items = []
        for r in sizes:
            vs = self.vehicles[self._next % self.modules]
            self._next += 1
            fresh = [f"{MFR}:new-{j:05d}-{s:02d}" for s in range(slot, slot + r - 1) if s in cold]
            slot += r - 1
            others = fresh + rng.sample(self.pool, r - 1 - len(fresh))
            rng.shuffle(others)
            self.clock.advance(self.step)
            rec.mint(vs, self.validity, rng, self._ring(vs, others))
            self._send(rec, vs, items)
        return items


class Hostile(ClosedLoop):
    """Attacker-chosen frames interleaved with an honest beacon stream."""

    name = "hostile"
    senders = 5         # every one renews in every block
    fleet_size = 12
    ring_size = 4
    rounds = 10
    step = 1.5          # a block spans 75 virtual seconds, more than MIN_SPAN
    validity = 200.0
    rogues = 4
    ghost_rings = (8, 64)
    # one block's attack frames besides the ghost forgeries and the replays
    attacks = ("masquerade",) * 2 + ("sybil", "revoked") + ("no-cert",) * 4 \
        + ("mutate", "truncate", "splice") * 2
    block_s = 1.2
    min_blocks = 2

    def setup(self, rec) -> None:
        self._master()
        self.arng = random.Random(f"{self.name}/{self.seed}/attacker")
        self.fleet = [f"{MFR}:veh-{i:03d}" for i in range(self.fleet_size)]
        self.sender_registry = self._registry(self.fleet)
        self.rx = VehicleState(hardware.join(
            self.mk, f"{MFR}:rx-000", self._registry(self.fleet), self.rng, clock=self.clock))
        self.vehicles = [self._vehicle(i, self.sender_registry) for i in self.fleet[: self.senders]]
        self.victim = self._vehicle(f"{MFR}:rec-000", self.sender_registry, rng=self.arng)
        self.rogue_vehicles = [
            self._vehicle(f"{MFR}:rogue-{i:02d}", self.sender_registry, rng=self.arng)
            for i in range(self.rogues)
        ]
        for vs in self.rogue_vehicles:
            self.rx.revoke(hardware.leak_master_secret(vs.hsm))
        self.nocert_key = transient.gen_keypair(self.group, self.arng)
        self.recent = self._warm_up(rec, self.vehicles, self._ring_for)

    def _ring_for(self, vs, rng=None):
        return self._fleet_ring(vs, self.fleet, self.ring_size, rng)

    def generate(self, j: int, rec, quiet) -> list:
        arng = self.arng
        items = []
        # the replay target: an honest short-lived certificate, heard once
        rec.mint(self.victim, 5.0, arng, self._ring_for(self.victim, arng))
        recorded = self.victim.certificate_frame
        items.append((recorded, self.clock.now(), ACCEPT))
        for vs in self.vehicles:
            rec.mint(vs, self.validity, self.rng, self._ring_for(vs))

        steps = self.rounds * self.senders
        kinds = [f"ghost-{r}" for r in self.ghost_rings] + list(self.attacks)
        schedule = sorted((arng.randrange(steps), n, kind) for n, kind in enumerate(kinds))
        step = 0
        for _ in range(self.rounds):
            for vs in self.vehicles:
                self.clock.advance(self.step)
                first = len(items)
                self._send(rec, vs, items)
                self.recent = (self.recent + [f for f, _, _ in items[first:]])[-32:]
                while schedule and schedule[0][0] == step:
                    _, n, kind = schedule.pop(0)
                    with quiet():
                        for frame, expect in self._attack(kind, j, n):
                            items.append((frame, self.clock.now(), expect))
                step += 1
        # replays of the recorded certificate, long after it expired
        self.clock.advance(self.step)
        items += [(recorded, self.clock.now(), frozenset({"expired"}))] * 2
        return items

    # -- attack frames --------------------------------------------------

    def _attack(self, kind: str, j: int, n: int):
        arng = self.arng
        group = self.group
        if kind.startswith("ghost-"):
            r = int(kind[6:])
            ids = [f"{MFR}:ghost-{j:05d}-{n:02d}-{i:02d}" for i in range(r)]
            tuples = [(arng.randbytes(group.scalar_byte_len), self._point(), arng.randrange(1, group.q))
                      for _ in range(r)]
            return [(self._forged_cert(ids, tuples), frozenset({"bad-signature"}))]
        if kind == "masquerade":
            victim = arng.choice(self.fleet[: self.senders])
            E = self.sender_registry.extract_pubkey(victim)
            return [(self._forged_cert([victim], [ringsig.forge_tuple(group, E, arng)]),
                     frozenset({"bad-signature"}))]
        if kind == "sybil":
            vs = self._vehicle(f"{MFR}:syb-{j:05d}", self.sender_registry, rng=arng)
            ring = self._ring_for(vs, arng)
            out = []
            for i in range(3):
                vs.make_pseudonym(self.validity, arng, ring)
                out.append((vs.certificate_frame, ACCEPT if i == 0 else frozenset({"sybil"})))
            return out
        if kind == "revoked":
            vs = self.rogue_vehicles[j % self.rogues]
            vs.make_pseudonym(self.validity, arng, self._ring_for(vs, arng))
            return [(vs.certificate_frame, frozenset({"revoked"}))]
        if kind == "no-cert":
            sk, pk = self.nocert_key
            M = b"unknown sender|" + arng.randbytes(24)
            frame = encode_message_frame(arng.randbytes(8), M, transient.sign(group, sk, pk, M))
            return [(frame, frozenset({"no-cert"}))]
        if kind == "mutate":
            frame = bytearray(arng.choice(self.recent))
            frame[arng.randrange(len(frame))] ^= arng.randrange(1, 256)
            return [(bytes(frame), ANY_REJECTION)]
        if kind == "truncate":
            src = arng.choice(self.recent)
            return [(src[: arng.randrange(len(src))], ANY_REJECTION)]
        if kind == "splice":
            while True:
                a, b = arng.sample(self.recent, 2)
                frame = a[: arng.randrange(1, len(a))] + b[arng.randrange(len(b)):]
                if frame != a and frame != b:
                    return [(frame, ANY_REJECTION)]
        raise ValueError(f"unknown attack {kind!r}")

    def _point(self):
        return self.group.hash_to_group("perfbench", self.arng.randbytes(16))

    def _forged_cert(self, ids, tuples) -> bytes:
        group = self.group
        now = self.clock.now()
        C = (bytes([TRANSIENT_SCHEME_ID]) + group.encode_element(self._point())
             + struct.pack(">QQ", math.floor(now), math.ceil(now + 30.0)))
        S = RingSignature(self.arng.randrange(1, len(ids) + 1),
                          self.arng.randbytes(group.scalar_byte_len), tuple(ids), tuple(tuples))
        return encode_cert_frame(PseudonymCertificate(C, self._point(), self._point(), S), group)


SCENARIO = """\
[scenario]
seed = {seed}
n_vehicles = 4
duration = 10.0
curve = {curve}

[protocol]
k = {k}
ring_size = 3
min_span_time = 5.0
cert_validity = 8.0
msg_rate = 1.0

[medium]
loss_rate = 0.05
latency_min_ms = 1.0
latency_max_ms = 4.0

[adversary.twin]
kind = sybil
start = 3.5
certs = 4

[adversary.echo]
kind = replay
start = 1.0
repeats = 2

[adversary.ghost]
kind = forger
start = 2.0
period = 4.0
ring = 3

[adversary.impostor]
kind = masquerade
start = 4.0
period = 4.0

[adversary.mole]
kind = compromised
vehicle = {mole}
start = 6.0
"""


class FleetSim:
    """Generated scenarios with every adversary kind, one per block.

    One scenario of 4 vehicles and 10 s is small enough that a single
    lost certificate changes its frame mix by a fifth, so each block
    runs another scenario and a run averages over ``scenarios`` of them.
    Block 0's scenario is run a second time, untimed, to check that the
    simulator is deterministic.
    """

    name = "fleet-sim"
    scenarios = 8
    block_s = 2.5
    min_blocks = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.group = get_group(CURVE)
        self.event_digests: list[str] = []
        self.deterministic = True

    def setup(self, rec) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        self.scenario_list = [
            simnet.parse_scenario(SCENARIO.format(
                seed=rng.randrange(1, 2 ** 31), curve=CURVE, k=K, mole=rng.randrange(4)))
            for _ in range(self.scenarios)
        ]

    def details(self) -> dict:
        return {"event_log_sha256": self.event_digests, "event_logs_identical": self.deterministic}

    def run_block(self, j: int, rec, quiet) -> None:
        scenario = self.scenario_list[j % self.scenarios]
        with _timed_vehicles(rec):
            rec.begin_block()
            report = simnet.run(scenario)
            rec.end_block(report.frames_delivered)
        digest = _event_digest(report)
        if j < self.scenarios:
            self.event_digests.append(digest)
        if j == 0:
            with quiet():
                again = _event_digest(simnet.run(scenario))
        else:
            again = self.event_digests[j % self.scenarios]
        if again != digest:
            rec.errors.append(f"run {j}: event log differs from another run of its scenario")
            self.deterministic = False
        for spec in scenario.adversaries:
            accepted = report.adversary_accepted.get(spec.name, 0)
            if spec.kind in ("replay", "forger", "masquerade") and accepted:
                rec.errors.append(f"run {j}: {spec.kind} adversary {spec.name} got {accepted} frames accepted")
            if spec.kind == "sybil" and report.sybil_detection_latency.get(spec.name) is None:
                rec.errors.append(f"run {j}: sybil adversary {spec.name} went undetected")


def _event_digest(report) -> str:
    return hashlib.sha256("\n".join(report.events).encode()).hexdigest()


@contextmanager
def _timed_vehicles(rec):
    """Route the simulator's vehicle calls through the recorder's timers.

    These are the same two clock reads and operation counts the closed
    loops take around each call, applied where the simulator makes it.
    """
    receive = VehicleState.receive
    make_pseudonym = VehicleState.make_pseudonym
    send_next = VehicleState.send_next

    def timed_receive(vs, frame, now):
        rec.note_frame(frame, now)
        result, exc = rec.receive(vs, frame, now, call=receive)
        if exc is not None:
            raise exc
        return result

    def timed_make_pseudonym(vs, validity, rng, ring=None):
        return rec.mint(vs, validity, rng, ring, call=make_pseudonym)

    def timed_send_next(vs, payload):
        return rec.send(vs, payload, call=send_next)

    VehicleState.receive = timed_receive
    VehicleState.make_pseudonym = timed_make_pseudonym
    VehicleState.send_next = timed_send_next
    try:
        yield
    finally:
        VehicleState.receive = receive
        VehicleState.make_pseudonym = make_pseudonym
        VehicleState.send_next = send_next


WORKLOADS = {cls.name: cls for cls in (Beacon, Churn, Hostile, FleetSim)}
