"""Timed calls into the protocol, the verdict oracle and the cost checks.

Every call the benchmark times goes through a :class:`Recorder`.  It
times the call, scales the time to reference speed (``speed.py``),
counts its group operations with ``count_group_ops``, checks the
paper's cost model on accepting paths, compares each verdict with the
set the workload expected, and folds every frame into a digest of the
input trace.
"""

from __future__ import annotations

import hashlib
import struct
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from statistics import median

from avcs.groups import count_group_ops
from avcs.hardware import PseudonymCertificate
from avcs.vehicle import (
    FRAME_CERT,
    REJECTION_REASONS,
    cert_fingerprint,
    decode_message_frame,
    encode_cert_frame,
    encode_message_frame,
)

from speed import NoGauge

VERDICTS = ("accept",) + REJECTION_REASONS
ANY_REJECTION = frozenset(REJECTION_REASONS)

# tail percentiles in tenths of a percent, lowest first
TAIL_LADDER = (900, 990, 999)
# samples a class needs for a reported median, and a group of blocks for a tail
MEDIAN_SAMPLES = 5
TAIL_SAMPLES = 100
RECEIVE_KEYS = ("cert_accept", "msg_accept", "duplicate", "reject")
SAMPLE_KEYS = RECEIVE_KEYS + ("mint", "msg_sign", "frame_cert", "frame_msg")


def tail_permille(n: int) -> int | None:
    """Highest ladder percentile (in tenths) with >= 10 of n samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def _rank(permille: int, n: int) -> int:
    # nearest-rank position (1-based) of a percentile, in exact integers
    return max(1, -(-permille * n // 1000))


def percentile(values, permille: int) -> float:
    ordered = sorted(values)
    return ordered[_rank(permille, len(ordered)) - 1]


class Recorder:
    """Samples, verdict counts, failures and digests of one measured pass.

    Every time is measured raw, with the gauge reading it follows, and
    scaled to reference speed by ``finish`` (see ``speed.py``).  The
    gauge's own readings are kept out of every wall.  Without a gauge,
    times stay raw.
    """

    def __init__(self, group, gauge=None):
        self.group = group
        self.gauge = gauge or NoGauge()
        # (raw ms, gauge readings before it) per sample; scaled into samples
        self._raw: dict[str, list[tuple[float, int]]] = {key: [] for key in SAMPLE_KEYS}
        self.samples: dict[str, list[float]] = {key: [] for key in SAMPLE_KEYS}
        # (raw s, readings at start, readings at end) per replay and block
        self._walls: dict[str, list[tuple[float, int, int]]] = {"replay": [], "block": []}
        self.received = 0          # receive calls
        self.replayed = 0          # frames replayed in closed loops
        self.delivered = 0         # frames delivered in the blocks
        self.rx_seconds = 0.0      # set by finish: time inside receive,
        self.replay_seconds = 0.0  # wall time of the replays,
        self.loop_seconds = 0.0    # and of the blocks' send-and-receive loops
        self._block = None
        self._block_ends: list[dict[str, int]] = []   # sample counts at each block's end
        self.verdicts: Counter = Counter()
        self.attempted = 0
        self.errors: list[str] = []
        self.violations: list[str] = []
        self.reject_muls = 0
        self.scalar_muls = 0       # group operations inside the timed calls
        self.extractions = 0
        self.untimed_s = 0.0       # time spent crafting attack frames or gauging speed
        self.pseudonym_buf_max = 0
        self.id_buf_max = 0
        self._digest = hashlib.sha256()

    # -- the receive side -------------------------------------------------

    def receive(self, vs, frame: bytes, now: float, expect=None, call=None):
        """Classify one frame; returns (result, exception)."""
        fn = call or type(vs).receive
        reading = self._read()
        with count_group_ops() as ops:
            start = time.perf_counter()
            try:
                result, exc = fn(vs, frame, now), None
            except Exception as caught:  # the trust boundary must not raise
                result, exc = None, caught
            sample = ((time.perf_counter() - start) * 1000.0, reading)
        self.received += 1
        self._count(ops)
        index = self.attempted
        self.attempted += 1
        self.pseudonym_buf_max = max(self.pseudonym_buf_max, len(vs.pseudonym_buf))
        self.id_buf_max = max(self.id_buf_max, len(vs.id_buf))
        if exc is not None:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.errors.append(f"frame {index}: receive raised {detail}")
            return None, exc
        verdict = "accept" if result.accepted else result.reason
        self.verdicts[verdict] += 1
        if expect is not None and verdict not in expect:
            self.errors.append(f"frame {index}: verdict {verdict}, expected one of {sorted(expect)}")
        if verdict == "accept" and frame[0] == FRAME_CERT:
            self._raw["cert_accept"].append(sample)
            r = PseudonymCertificate.from_bytes(frame[1:], self.group).S.r
            want = 3 * r + len(vs.rogue_list)
            self._check(f"frame {index}: accepted certificate (r={r})", ops, want, r)
        elif verdict == "accept":
            self._raw["msg_accept"].append(sample)
            self._check(f"frame {index}: accepted message", ops, 2, 0)
        elif verdict == "duplicate":
            self._raw["duplicate"].append(sample)
        else:
            self._raw["reject"].append(sample)
            self.reject_muls += ops.scalar_muls
        return result, None

    def replay(self, vs, items) -> None:
        """Closed loop with one client: each frame waits for the last verdict."""
        mark = self._mark()
        for frame, now, expect in items:
            self.receive(vs, frame, now, expect)
        self._wall("replay", mark)
        self.replayed += len(items)

    @property
    def rx_frames_per_s(self) -> float:
        """Frames ÷ replay wall in closed loops; ÷ time inside receive otherwise."""
        if self.replayed:
            return self.replayed / self.replay_seconds
        return self.received / self.rx_seconds

    # -- the send side ------------------------------------------------------

    def mint(self, vs, validity: float, rng, ring=None, call=None):
        fn = call or type(vs).make_pseudonym
        reading = self._read()
        with count_group_ops() as ops:
            start = time.perf_counter()
            cert = fn(vs, validity, rng, ring)
            self._sample("mint", start, reading)
        self._count(ops)
        r = cert.S.r
        self._check(f"make_pseudonym #{len(self._raw['mint'])} (r={r})", ops, 2 * r - 1 + 3, r)
        start = time.perf_counter()
        encode_cert_frame(cert, self.group)
        self._sample("frame_cert", start, reading)
        return cert

    def send(self, vs, payload: bytes, call=None) -> list[bytes]:
        fn = call or type(vs).send_next
        reading = self._read()
        with count_group_ops() as ops:
            start = time.perf_counter()
            frames = fn(vs, payload)
            self._sample("msg_sign", start, reading)
        self._count(ops)
        self._check(f"send_next #{len(self._raw['msg_sign'])}", ops, 1, 0)
        _, M, N = decode_message_frame(frames[-1], self.group)
        start = time.perf_counter()
        encode_message_frame(cert_fingerprint(vs.certificate_frame), M, N)
        self._sample("frame_msg", start, reading)
        return frames

    # -- times ----------------------------------------------------------------

    def _read(self) -> int:
        """Let the gauge read; returns the readings so far."""
        self.untimed_s += self.gauge.read()
        return self.gauge.readings

    def _sample(self, key: str, start: float, reading: int) -> None:
        self._raw[key].append(((time.perf_counter() - start) * 1000.0, reading))

    def _mark(self) -> tuple:
        return time.perf_counter(), self.untimed_s, self._read()

    def _wall(self, key: str, mark) -> None:
        """Wall time since ``mark``, less untimed work."""
        start, untimed, first = mark
        wall = time.perf_counter() - start - (self.untimed_s - untimed)
        self._walls[key].append((wall, first, self.gauge.readings))

    def begin_block(self) -> None:
        self._block = self._mark()

    def end_block(self, delivered: int) -> None:
        self._wall("block", self._block)
        self.delivered += delivered
        self._block_ends.append({key: len(raw) for key, raw in self._raw.items()})

    def finish(self) -> None:
        """Scale every time to reference speed; the gauge must have read past the last."""
        g = self.gauge
        self.samples = {key: [ms * g.factor_at(k) for ms, k in raw] for key, raw in self._raw.items()}
        walls = {key: sum(s * g.mean_factor(a, b) for s, a, b in raw) for key, raw in self._walls.items()}
        self.replay_seconds, self.loop_seconds = walls["replay"], walls["block"]
        self.rx_seconds = sum(sum(self.samples[key]) for key in RECEIVE_KEYS) / 1000.0

    def p50(self, key: str) -> float:
        return median(self.samples[key])

    def block_groups(self, key: str, min_samples: int) -> list[list[float]]:
        """``key`` samples in runs of whole consecutive blocks, each run the
        shortest that holds ``min_samples``; a short remainder joins the last run."""
        groups, current, start = [], [], 0
        for ends in self._block_ends:
            current += self.samples[key][start : ends[key]]
            start = ends[key]
            if len(current) >= min_samples:
                groups.append(current)
                current = []
        if current and groups:
            groups[-1] += current
        return groups

    def tail(self, key: str) -> tuple[float, int] | None:
        """The median over groups of blocks of each group's tail, and the
        percentile in tenths; None if the run holds no group.

        A tail over the whole run counts every burst of outside load the
        gauge cannot see; the median group is the typical stretch of the run.
        """
        groups = self.block_groups(key, TAIL_SAMPLES)
        if not groups:
            return None
        permille = tail_permille(min(len(g) for g in groups))
        return median(percentile(g, permille) for g in groups), permille

    # -- bookkeeping --------------------------------------------------------

    def _count(self, ops) -> None:
        self.scalar_muls += ops.scalar_muls
        self.extractions += ops.extractions

    def _check(self, what: str, ops, scalar_muls: int, extractions: int) -> None:
        if ops.scalar_muls != scalar_muls or ops.extractions != extractions:
            self.violations.append(
                f"{what}: {ops.scalar_muls} scalar muls and {ops.extractions} extractions, "
                f"cost model says {scalar_muls} and {extractions}"
            )

    def note_frame(self, frame: bytes, now: float, expect=()) -> None:
        """Fold one input frame and its expected verdicts into the trace digest."""
        self._digest.update(struct.pack(">Id", len(frame), now) + frame)
        self._digest.update(",".join(sorted(expect)).encode() + b";")

    @contextmanager
    def untimed(self):
        """Work of the benchmark itself, such as attack crafting: kept out of block walls."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def reject_count(self) -> int:
        return len(self.samples["reject"])


def tau_ms(rec: Recorder) -> float:
    """The paper's per-message cost at n=100, k=10 from this run's medians."""
    from avcs.bench import avg_cost

    m = rec.p50
    return avg_cost(
        100, 10,
        t_gm=m("msg_sign"), t_gp=m("mint"), t_sm=m("frame_msg"), t_sp=m("frame_cert"),
        t_vm=m("msg_accept"), t_vp=m("cert_accept"),
    )
