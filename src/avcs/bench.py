"""Latency, operation-count, and size measurement for the whole stack.

Every record times one operation at one ring size and carries the exact
scalar-multiplication count of the timed calls, so the cost model can be
checked against the measurements: signing is 2r-1 multiplications,
verifying 3r, and a pseudonym certificate adds the two tag bindings
plus one transient keypair on top of the ring signature.  Beside it
every other ``OpCounter`` slot that ``count_group_ops`` tallied, per
call and averaged over the trials, in slot order: the extractions, then
the doublings, mixed additions, inversions, square roots and lane work
that say where the physical work went.  The operation table counts
through the same loop, so both reports carry the same operations.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace

from .groups import OpCounter, count_group_ops, get_group
from .hardware import ManualClock, join
from .ringsig import ManufactoryRegistry, RingSignature, forge_tuple, keygen, ring_sign, ring_verify, setup
from .transient import verify as verify_transient
from .vehicle import VehicleState, cert_fingerprint, encode_cert_frame, encode_message_frame

OPS = (
    "ring_sign",
    "ring_verify",
    "gen_pseudonym",
    "gen_message",
    "verify_message",
    "receive_cert",
    "extract_cold",
)

# every counted operation but scalar_muls, which has a column of its own
_COUNTS = tuple(name for name in OpCounter.__slots__ if name != "scalar_muls")

CSV_HEADER = "curve,ring_size,op,mean_ms,median_ms,p95_ms,scalar_muls,size_bytes," + ",".join(_COUNTS)

# 10-char identities: one-letter manufactory, zero-padded unit number
_BENCH_MFR = "b"
_PAYLOAD = b"position=47.3769,8.5417 speed=13.4 heading=284"
# ring rows feed the linearity fit: spanning seconds, they outlast bursts of outside load
_RING_PASS_SECONDS = 6.0


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
    # per call, mean over the trials: every OpCounter slot but scalar_muls, in slot order
    counts: tuple[float, ...] = (0.0,) * len(_COUNTS)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.curve},{rec.ring_size},{rec.op},{rec.mean_ms:.6f},"
            f"{rec.median_ms:.6f},{rec.p95_ms:.6f},{rec.scalar_muls},{rec.size_bytes},"
            + ",".join(f"{n:.6g}" for n in rec.counts)
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


def linearity_r2(records, op: str) -> float:
    """R-squared of a straight-line fit of median latency against ring
    size, over the ring sizes from 2 up.

    The median, not the mean: a single descheduled trial would otherwise
    drag a whole point off the line.
    """
    pts = sorted(
        (rec.ring_size, rec.median_ms)
        for rec in records
        if rec.op == op and rec.ring_size >= 2
    )
    if len(pts) < 3:
        raise ValueError(f"need at least 3 ring sizes >= 2 for op {op!r}")
    xs, ys = zip(*pts)
    slope, intercept = statistics.linear_regression(xs, ys)
    mean = statistics.fmean(ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _interleaved_trials(fns: dict, trials: int, min_seconds: float = 0.0) -> dict:
    """Time and count each fn in round-robin passes: ``trials`` passes,
    and more until the passes have run for ``min_seconds`` or made
    ``10 * trials``.

    Consecutive trials of a single shape share whatever scheduler noise
    hits that moment; spreading the passes keeps every shape sampling
    the same noise distribution, which the linearity fit depends on.
    Every call runs in its own ``count_group_ops`` region with the clock
    read inside it, so the count comes from the timed calls and entering
    the region is not timed.  Returns ``{key: (samples_ms, ops)}``, ops
    an ``OpCounter`` summed over the key's trials, and raises
    ``RuntimeError`` if a key's logical counts, scalar multiplications
    and extractions, differ between trials.
    """
    samples = {key: [] for key in fns}
    totals = {key: OpCounter() for key in fns}
    logical = {}
    # collector pauses mid-trial would land on whichever op is unlucky
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        deadline = time.perf_counter() + min_seconds
        passes = 0
        while passes < trials or (passes < 10 * trials and time.perf_counter() < deadline):
            passes += 1
            for key, fn in fns.items():
                with count_group_ops() as ops:
                    start = time.perf_counter()
                    fn()
                    elapsed = time.perf_counter() - start
                got = (ops.scalar_muls, ops.extractions)
                if logical.setdefault(key, got) != got:
                    raise RuntimeError(
                        f"{key!r}: {got} scalar multiplications and extractions, "
                        f"{logical[key]} on an earlier trial"
                    )
                samples[key].append(elapsed * 1000.0)
                total = totals[key]
                for name in OpCounter.__slots__:
                    setattr(total, name, getattr(total, name) + getattr(ops, name))
    finally:
        if was_enabled:
            gc.enable()
    return {key: (samples[key], totals[key]) for key in fns}


def _record(curve: str, r: int, op: str, measured: tuple[list[float], OpCounter], size: int) -> BenchRecord:
    samples, ops = measured
    n = len(samples)
    p95 = samples[0]  # one sample has no quantiles
    if n > 1:
        # linear interpolation between order statistics, as numpy's percentile
        p95 = statistics.quantiles(samples, n=20, method="inclusive")[-1]
    return BenchRecord(
        curve=curve,
        ring_size=r,
        op=op,
        mean_ms=statistics.fmean(samples),
        median_ms=statistics.median(samples),
        p95_ms=p95,
        scalar_muls=ops.scalar_muls // n,
        size_bytes=size,
        counts=tuple(getattr(ops, name) / n for name in _COUNTS),
    )


def _fixtures(curve: str, ring_sizes):
    """The benchmark's fixtures on ``curve``, each checked once, and the
    operations that read them: ``(world, ring_fns, stream_fns, sizes)``,
    the functions and encoded sizes keyed by (op, r) for each r in
    ``ring_sizes``, or by op alone for ``gen_message``,
    ``verify_message`` and ``extract_cold``, whose work does not depend
    on r: they sign and check under the last certificate's transient key.

    Every draw comes from one rng seeded by the curve's name, so every
    process builds the same fixtures.  The pubkey-extraction cache is
    warmed first, so cold extraction stays out of the other operations'
    point counts (the logical counts do not depend on it); ``extract_cold``
    makes one uncached extraction of a fresh id per call.  ``world``
    holds the group, the rng, the master key, the shared registry, the
    sender's module and its last certificate and message.
    """
    group = get_group(curve)
    rng = random.Random(f"bench/{curve}/2024")
    mk = setup(group, rng=rng, manufactory_id=_BENCH_MFR)
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)

    ids = [f"{_BENCH_MFR}:veh-{i:04d}" for i in range(max(ring_sizes))]
    for id_str in ids:
        registry.extract_pubkey(id_str)
    registry.extract_pubkey(f"{_BENCH_MFR}:recv-0000")
    signer = keygen(mk, ids[0])

    clock = ManualClock(1_000_000.0)
    sender_hsm = join(mk, ids[0], registry, rng, clock=clock)
    recv_hsm = join(mk, f"{_BENCH_MFR}:recv-0000", registry, rng, clock=clock)
    now = clock.now()
    cold_ids = (f"{_BENCH_MFR}:cold-{i:06d}" for i in itertools.count())

    ring_fns, stream_fns, sizes = {}, {}, {}
    for r in ring_sizes:
        ring = ids[:r]
        # as a verifier reads it off the wire: each U_i decoded by the check
        sig = RingSignature.from_bytes(ring_sign(_PAYLOAD, ring, signer, 0, registry, rng).to_bytes(group), group)
        assert ring_verify(_PAYLOAD, sig, registry)
        cert = sender_hsm.gen_pseudonym(ring, 600.0, rng)
        cert_frame = encode_cert_frame(cert, group)
        assert VehicleState(recv_hsm).receive(cert_frame, now).accepted

        ring_fns["ring_sign", r] = lambda ring=ring: ring_sign(_PAYLOAD, ring, signer, 0, registry, rng)
        ring_fns["ring_verify", r] = lambda sig=sig: ring_verify(_PAYLOAD, sig, registry)
        stream_fns["gen_pseudonym", r] = lambda ring=ring: sender_hsm.gen_pseudonym(ring, 600.0, rng)
        # a fresh receiver per call: the pipeline short-circuits duplicates
        stream_fns["receive_cert", r] = lambda frame=cert_frame: VehicleState(recv_hsm).receive(frame, now)
        sizes["ring_sign", r] = sizes["ring_verify", r] = len(sig.to_bytes(group))
        sizes["gen_pseudonym", r] = sizes["receive_cert", r] = len(cert_frame)

    app = sender_hsm.gen_message(_PAYLOAD)
    msg_frame = encode_message_frame(cert_fingerprint(cert_frame), app.M, app.N)
    # a receiver's steady state from a certificate's third message on
    pk = group.prepare(cert.parse_c(group).pk, short=True)
    assert verify_transient(group, pk, app.M, app.N)
    stream_fns["gen_message"] = lambda: sender_hsm.gen_message(_PAYLOAD)
    stream_fns["verify_message"] = lambda: verify_transient(group, pk, app.M, app.N)
    stream_fns["extract_cold"] = lambda: registry.derive_pubkey(next(cold_ids))
    sizes["gen_message"] = sizes["verify_message"] = len(msg_frame)
    sizes["extract_cold"] = group.element_byte_len

    world = SimpleNamespace(group=group, rng=rng, mk=mk, registry=registry, sender=sender_hsm,
                            now=now, cert=cert, app=app)
    return world, ring_fns, stream_fns, sizes


def run_benchmarks(curve: str, r_max: int = 10, trials: int = 30) -> list[BenchRecord]:
    """Measure every operation at every ring size 1..r_max.

    Each row is timed and counted on the same calls, logical and
    physical operations both, in one of two interleaved passes over
    ``_fixtures``' operations: the ring rows with a time floor, the
    stream rows for ``trials`` passes.  ``gen_message``,
    ``verify_message`` and ``extract_cold`` do the same work at every r,
    so the stream pass times each of them once and that one measurement
    is reported at every r: the records still hold one row per (op, r),
    r by r in ``OPS`` order.  Every trial of a row must make the same
    numbers of scalar multiplications and extractions.
    """
    if not 1 <= r_max <= 32:
        raise ValueError("r_max must lie in 1..32")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ring_sizes = range(1, r_max + 1)
    _, ring_fns, stream_fns, sizes = _fixtures(curve, ring_sizes)
    rows = _interleaved_trials(ring_fns, trials, _RING_PASS_SECONDS)
    rows.update(_interleaved_trials(stream_fns, trials))
    return [_record(curve, r, op, rows.get((op, r)) or rows[op], sizes.get((op, r)) or sizes[op])
            for r in ring_sizes for op in OPS]


def operation_table(curve: str) -> dict[str, OpCounter]:
    """Each named operation run once on the benchmark's fixtures, in one
    pass of ``run_benchmarks``' timing loop, as ``count_group_ops``
    tallies it: ``{name: counter}`` in table order.

    The rows: every ``OPS`` entry at r = 1 and r = 4, warm as
    ``run_benchmarks`` times them, and named without an r where its work
    does not depend on r; ``prepare`` for each table shape (a
    ring key's or a window tag's comb, a transient key's rows, the
    generator's comb, built afresh by the generator property's own
    function); ``scalar_mul`` on G, on a comb and on a plain point; a
    message check on a plain key; a forgery on a key met for the first
    time; a 4-entry rogue scan; ``register_master``; and a master
    ``setup``.  Scalars come from the fixtures' seeded rng, so every
    count, those of the variable-time sums included, is the same in
    every process.  The README's cost model carries this table for each
    curve.
    """
    world, ring_fns, stream_fns, _ = _fixtures(curve, (1, 4))
    group, rng, q = world.group, world.rng, world.group.q
    fns = {**ring_fns, **stream_fns}
    pk = world.cert.parse_c(group).pk
    tag = world.sender.window_tag(world.now, world.now)
    ks = [rng.randrange(1, q) for _ in range(4)]
    comb = group.prepare(pk)
    cold = world.registry.extract_pubkey(f"{_BENCH_MFR}:forge-0000")
    named = {}
    for op in OPS:
        named.update({op: fns[op]} if op in fns else {f"{op} r={r}": fns[op, r] for r in (1, 4)})
    named.update({
        "prepare comb": lambda: group.prepare(pk),
        "prepare transient key": lambda: group.prepare(pk, short=True),
        "prepare generator": lambda: type(group).generator.func(group),
        "scalar_mul G": lambda: group.scalar_mul(ks[0], group.generator),
        "scalar_mul comb": lambda: group.scalar_mul(ks[0], comb),
        "scalar_mul plain": lambda: group.scalar_mul(ks[0], pk),
        "verify_message plain key": lambda: verify_transient(group, pk, world.app.M, world.app.N),
        "forge cold key": lambda: forge_tuple(group, cold, rng),
        "rogue scan 4 entries": lambda: group.multi_muls([[(f, tag)] for f in ks]),
        "register_master": lambda: ManufactoryRegistry(group).register_master(world.mk),
        "setup": lambda: setup(group, rng=random.Random(f"bench/{curve}/setup"), manufactory_id=_BENCH_MFR),
    })
    return {name: ops for name, (_, ops) in _interleaved_trials(named, 1).items()}
