"""Latency, operation-count, and size measurement for the whole stack.

Every record times one operation at one ring size and carries the exact
scalar-multiplication count for that shape, so the cost model can be
checked against the measurements: signing is 2r-1 multiplications,
verifying 3r, and a pseudonym certificate adds the two tag bindings
plus one transient keypair on top of the ring signature.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .groups import count_group_ops, get_group
from .hardware import ManualClock, join
from .ringsig import ManufactoryRegistry, keygen, ring_sign, ring_verify, setup
from .transient import verify as verify_transient
from .vehicle import VehicleState, cert_fingerprint, encode_cert_frame, encode_message_frame

OPS = (
    "ring_sign",
    "ring_verify",
    "gen_pseudonym",
    "gen_message",
    "verify_message",
    "receive_cert",
)

CSV_HEADER = "curve,ring_size,op,mean_ms,median_ms,p95_ms,scalar_muls,size_bytes"

# 10-char identities: one-letter manufactory, zero-padded unit number
_BENCH_MFR = "b"
_PAYLOAD = b"position=47.3769,8.5417 speed=13.4 heading=284"


@dataclass(frozen=True)
class BenchRecord:
    curve: str
    ring_size: int
    op: str
    mean_ms: float
    median_ms: float
    p95_ms: float
    scalar_muls: int
    size_bytes: int


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.curve},{rec.ring_size},{rec.op},{rec.mean_ms:.6f},"
            f"{rec.median_ms:.6f},{rec.p95_ms:.6f},{rec.scalar_muls},{rec.size_bytes}"
        )
    return "\n".join(lines) + "\n"


def avg_cost(n: int, k: int, t_gm: float, t_gp: float, t_sm: float,
             t_sp: float, t_vm: float, t_vp: float) -> float:
    """Per-message cost of an n-message stream with a certificate every k.

    The certificate is generated once and re-sent every k messages;
    signing, sending, and verifying the messages themselves happen n
    times each.  Returned in the same unit as the inputs.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    times = (t_gm, t_gp, t_sm, t_sp, t_vm, t_vp)
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    return (n * t_gm + t_gp + n * t_sm + (n / k) * t_sp + n * t_vm + t_vp) / n


def linearity_r2(records, op: str, *, r_min: int = 2) -> float:
    """R-squared of a straight-line fit of median latency against ring size.

    The median, not the mean: a single descheduled trial would otherwise
    drag a whole point off the line.
    """
    pts = sorted(
        (rec.ring_size, rec.median_ms)
        for rec in records
        if rec.op == op and rec.ring_size >= r_min
    )
    if len(pts) < 3:
        raise ValueError(f"need at least 3 ring sizes >= {r_min} for op {op!r}")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = ys - (slope * xs + intercept)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _count_muls(fn) -> int:
    with count_group_ops() as ops:
        fn()
    return ops.scalar_muls


def _interleaved_trials(fns: dict, trials: int) -> dict:
    """Time each fn ``trials`` times, one round-robin pass per trial.

    Consecutive trials of a single shape share whatever scheduler noise
    hits that moment; spreading the passes keeps every shape sampling
    the same noise distribution, which the linearity fit depends on.
    """
    samples = {key: [] for key in fns}
    # collector pauses mid-trial would land on whichever op is unlucky
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            for key, fn in fns.items():
                start = time.perf_counter()
                fn()
                samples[key].append((time.perf_counter() - start) * 1000.0)
    finally:
        if was_enabled:
            gc.enable()
    return samples


def _record(curve: str, r: int, op: str, samples: list[float],
            muls: int, size: int) -> BenchRecord:
    return BenchRecord(
        curve=curve,
        ring_size=r,
        op=op,
        mean_ms=statistics.fmean(samples),
        median_ms=statistics.median(samples),
        p95_ms=float(np.percentile(samples, 95)),
        scalar_muls=muls,
        size_bytes=size,
    )


def run_benchmarks(curve: str, r_max: int = 10, trials: int = 30, *,
                   seed: int = 2024) -> list[BenchRecord]:
    """Measure every operation at every ring size 1..r_max.

    The pubkey-extraction cache is warmed before any timing, so the
    scalar-multiplication counts are pure per-call protocol cost.
    """
    if not 1 <= r_max <= 32:
        raise ValueError("r_max must lie in 1..32")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    group = get_group(curve)
    rng = random.Random(f"bench/{curve}/{seed}")
    mk = setup(group, rng=rng, manufactory_id=_BENCH_MFR)
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)

    ids = [f"{_BENCH_MFR}:veh-{i:04d}" for i in range(r_max)]
    for id_str in ids:
        registry.extract_pubkey(id_str)
    registry.extract_pubkey(f"{_BENCH_MFR}:recv-0000")
    signer = keygen(mk, ids[0])

    clock = ManualClock(1_000_000.0)
    sender_hsm = join(mk, ids[0], registry, rng, clock=clock)
    recv_hsm = join(mk, f"{_BENCH_MFR}:recv-0000", registry, rng, clock=clock)
    now = clock.now()

    rings = {r: ids[:r] for r in range(1, r_max + 1)}
    sigs = {}
    for r, ring in rings.items():
        sigs[r] = ring_sign(_PAYLOAD, ring, signer, 0, registry, rng)  # warm-up
        assert ring_verify(_PAYLOAD, sigs[r], registry)
    sign_samples = _interleaved_trials(
        {r: (lambda ring=ring: ring_sign(_PAYLOAD, ring, signer, 0, registry, rng))
         for r, ring in rings.items()},
        trials,
    )
    verify_samples = _interleaved_trials(
        {r: (lambda sig=sig: ring_verify(_PAYLOAD, sig, registry))
         for r, sig in sigs.items()},
        trials,
    )

    records = []
    for r, ring in rings.items():
        sig_size = len(sigs[r].to_bytes(group))
        muls = _count_muls(lambda: ring_sign(_PAYLOAD, ring, signer, 0, registry, rng))
        records.append(_record(curve, r, "ring_sign", sign_samples[r], muls, sig_size))
        muls = _count_muls(lambda: ring_verify(_PAYLOAD, sigs[r], registry))
        records.append(_record(curve, r, "ring_verify", verify_samples[r], muls, sig_size))

    for r, ring in rings.items():
        sender_hsm.gen_pseudonym(ring, 600.0, rng)  # warm-up
        samples = _interleaved_trials(
            {"gen_pseudonym": lambda: sender_hsm.gen_pseudonym(ring, 600.0, rng)}, trials
        )["gen_pseudonym"]
        muls = _count_muls(lambda: sender_hsm.gen_pseudonym(ring, 600.0, rng))
        # mint last so the transient key below matches this certificate
        cert = sender_hsm.gen_pseudonym(ring, 600.0, rng)
        cert_frame = encode_cert_frame(cert, group)
        records.append(_record(curve, r, "gen_pseudonym", samples, muls, len(cert_frame)))

        app = sender_hsm.gen_message(_PAYLOAD)  # warm-up
        msg_frame = encode_message_frame(cert_fingerprint(cert_frame), app.M, app.N)
        samples = _interleaved_trials(
            {"gen_message": lambda: sender_hsm.gen_message(_PAYLOAD)}, trials
        )["gen_message"]
        muls = _count_muls(lambda: sender_hsm.gen_message(_PAYLOAD))
        records.append(_record(curve, r, "gen_message", samples, muls, len(msg_frame)))

        pk = cert.parse_c(group).pk
        assert verify_transient(group, pk, app.M, app.N)
        samples = _interleaved_trials(
            {"verify_message": lambda: verify_transient(group, pk, app.M, app.N)}, trials
        )["verify_message"]
        muls = _count_muls(lambda: verify_transient(group, pk, app.M, app.N))
        records.append(_record(curve, r, "verify_message", samples, muls, len(msg_frame)))

        # a fresh receiver per trial: the pipeline short-circuits duplicates
        receivers = [VehicleState(recv_hsm) for _ in range(trials + 1)]
        probe = receivers.pop()
        assert probe.receive(cert_frame, now).accepted
        it = iter(receivers)
        samples = _interleaved_trials(
            {"receive_cert": lambda: next(it).receive(cert_frame, now)}, trials
        )["receive_cert"]
        muls = _count_muls(lambda: VehicleState(recv_hsm).receive(cert_frame, now))
        records.append(_record(curve, r, "receive_cert", samples, muls, len(cert_frame)))

    return records
