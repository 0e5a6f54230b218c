"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload churn --seed 7 --seconds 10 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass.  The
line before it holds the details: provenance, sample counts, tail
percentiles, input digests, per-class latencies and any failures.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("beacon", "churn", "hostile", "fleet-sim")

# set-up is repeated at least this often and this long before the blocks,
# and at least this often and this long after them
SETUP_REPS = 2
SETUP_MIN_S = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "avcs" / "__init__.py").is_file():
        print(f"avcs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import CURVE, WORKLOADS

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else plain_run
    rec, metrics, extra = run(workload, args.seed, args.seconds)

    correct = not rec.errors and not rec.violations
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(CURVE),
        "verdict_error_share": rec.failed / rec.attempted,
        "verdicts": dict(sorted(rec.verdicts.items())),
        "errors": rec.errors[:20],
        "cost_model_violations": rec.violations[:20],
        **extra,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def new_recorder():
    from avcs.groups import get_group
    from harness import Recorder
    from workloads import CURVE

    return Recorder(get_group(CURVE))


def set_up(workload, seed: int, rec):
    """Build a fresh workload; set-up problems count as failures in ``rec``."""
    wl = workload(seed)
    setup_rec = new_recorder()
    wl.setup(setup_rec)
    rec.attempted += setup_rec.attempted
    rec.errors += [f"set-up {e}" for e in setup_rec.errors]
    rec.violations += [f"set-up {v}" for v in setup_rec.violations]
    return wl


def block_count(workload, seconds: float) -> int:
    """Blocks of one run: as many as fill ``seconds`` at the workload's nominal pace.

    The count depends on the arguments only, never on how fast the
    program runs, so two commits measure identical inputs and take
    every statistic over the same number of blocks.
    """
    return max(workload.min_blocks, round(seconds / workload.block_s))


def run_blocks(blocks: int, step) -> float:
    """Call ``step(j)`` for j in 0..blocks-1; returns the wall time."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for j in range(blocks):
            step(j)
        return time.perf_counter() - start
    finally:
        gc.enable()


def plain_run(workload, seed: int, seconds: float):
    from harness import MEDIAN_SAMPLES, tau_ms
    from speed import HALF, REF_NOMINAL_S, SpeedGauge

    gauge = SpeedGauge()
    setup_raw = []   # (seconds, gauge readings before)

    def set_up_timed(reps: int):
        spent = 0.0
        while reps > 0 or spent < SETUP_MIN_S:
            gauge.read()
            rec = new_recorder()
            start = time.perf_counter()
            wl = set_up(workload, seed, rec)
            elapsed = time.perf_counter() - start
            setup_raw.append((elapsed, gauge.readings))
            spent += elapsed
            reps -= 1
        return rec, wl

    gauge.read(HALF)
    rec, wl = set_up_timed(SETUP_REPS)
    rec.gauge = gauge
    blocks = block_count(workload, seconds)
    wall = run_blocks(blocks, lambda j: wl.run_block(j, rec, rec.untimed))
    # as many repetitions after the blocks, so the median does not hang
    # on the load of one moment
    set_up_timed(SETUP_REPS)
    gauge.read(HALF)
    rec.finish()
    setup_times = [elapsed * gauge.factor_at(k) for elapsed, k in setup_raw]

    s = rec.samples
    counts = {key: len(values) for key, values in s.items()}
    for key in ("cert_accept", "msg_accept", "mint", "msg_sign", "frame_cert", "frame_msg"):
        if counts[key] < MEDIAN_SAMPLES:
            raise RuntimeError(f"workload {wl.name} produced {counts[key]} {key} samples")
    msg_tail = rec.tail("msg_accept")
    if msg_tail is None:
        raise RuntimeError(f"workload {wl.name}: too few message samples for a tail")

    metrics = {
        "setup_s": (median(setup_times), "s"),
        "rx_frames_per_s": (rec.rx_frames_per_s, "frames/s"),
        "sim_deliveries_per_s": (rec.delivered / rec.loop_seconds, "deliveries/s"),
        "cert_accept_ms_p50": (rec.p50("cert_accept"), "ms"),
        "msg_accept_ms_p50": (rec.p50("msg_accept"), "ms"),
        "msg_accept_ms_tail": (msg_tail[0], "ms"),
        "mint_ms_p50": (rec.p50("mint"), "ms"),
        "msg_sign_ms_p50": (rec.p50("msg_sign"), "ms"),
        "tau_ms": (tau_ms(rec), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # per-workload latencies: reported wherever the samples exist
    by_class = {}
    for key in ("cert_accept", "msg_accept", "reject", "duplicate"):
        if counts[key] >= MEDIAN_SAMPLES:
            by_class[f"{key}_ms_p50"] = rec.p50(key)
        tail = rec.tail(key)
        if tail is not None:
            by_class[f"{key}_ms_tail"] = tail[0]
            by_class[f"{key}_ms_tail_percentile"] = tail[1] / 10
    extra = {
        "blocks": blocks,
        "measured_s": wall,
        "setup_reps": len(setup_times),
        "speed": {
            "reference_nominal_s": REF_NOMINAL_S,
            "readings": gauge.readings,
            "reference_s": gauge.spent_s,
            "chunk_ms_median": median(gauge.chunks) * 1000.0,
            "chunk_ms_min": min(gauge.chunks) * 1000.0,
            "chunk_ms_max": max(gauge.chunks) * 1000.0,
        },
        "samples": counts,
        "per_class": by_class,
        "input_digest": {"blocks": blocks, "sha256": rec.digest},
        "pseudonym_buf_max": rec.pseudonym_buf_max,
        **wl.details(),
    }
    return rec, metrics, extra


def traced_run(workload, seed: int, seconds: float):
    """Untraced and traced copies of the workload, block by block in turn.

    Both copies see the same inputs; alternating them cancels the drift
    of machine speed out of ``trace.overhead_ratio``.  The tracer is
    installed only around the traced copy's set-up and blocks.
    """
    from layers import per_layer_metrics
    from tracing import Tracer

    rec_plain = new_recorder()
    plain = set_up(workload, seed, rec_plain)
    tracer = Tracer()
    rec = new_recorder()
    with tracer:
        traced = set_up(workload, seed, rec)

    @contextmanager
    def quiet():
        tracer.recording = False
        try:
            with rec.untimed():
                yield
        finally:
            tracer.recording = True

    walls = [0.0, 0.0]

    def step(j):
        start, untimed = time.perf_counter(), rec_plain.untimed_s
        plain.run_block(j, rec_plain, rec_plain.untimed)
        walls[0] += time.perf_counter() - start - (rec_plain.untimed_s - untimed)
        with tracer:
            tracer.recording = True
            start, untimed = time.perf_counter(), rec.untimed_s
            traced.run_block(j, rec, quiet)
            walls[1] += time.perf_counter() - start - (rec.untimed_s - untimed)
            tracer.recording = False

    blocks = block_count(workload, seconds)
    run_blocks(blocks, step)
    rec.errors += [f"untraced copy {e}" for e in rec_plain.errors]
    rec.violations += [f"untraced copy {v}" for v in rec_plain.violations]
    if rec.digest != rec_plain.digest:
        rec.errors.append("the traced copy saw other inputs than the untraced copy")
    metrics, layer_table = per_layer_metrics(tracer, rec, walls[1] / walls[0], walls[1])
    extra = {
        "blocks": blocks,
        "untraced_s": walls[0],
        "traced_s": walls[1],
        "spans": len(tracer.spans),
        "spans_file": write_spans(tracer.spans, workload.name, seed),
        "layers": layer_table,
        "input_digest": {"blocks": blocks, "sha256": rec.digest},
        **traced.details(),
    }
    return rec, metrics, extra


# ---------------------------------------------------------------------------
# provenance and output files
# ---------------------------------------------------------------------------

def provenance(curve: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "curve": curve,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """One digest over every file of src/avcs, so runs can name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "avcs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def write_spans(spans, workload: str, seed: int) -> str:
    """Spans as gzipped TSV: name, start_s, end_s, parent, request."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name\tstart_s\tend_s\tparent\trequest\n")
        for name, start, end, parent, request in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")
    return path.relative_to(ROOT).as_posix()


if __name__ == "__main__":
    sys.exit(main())
