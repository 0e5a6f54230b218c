"""Per-layer metrics of a traced pass, named after the modules of avcs."""

from __future__ import annotations

from harness import VERDICTS
from tracing import layer_times, useful_share

# layers reported with their call count and self time
TIMED_LAYERS = (
    "groups.scalar_mul",
    "groups.add",
    "groups.decode_element",
    "groups.hash_to_group",
    "ringsig.extract_pubkey",
    "ringsig.verify_tuple",
    "ringsig.ring_verify",
    "ringsig.forge_tuple",
    "ringsig.ring_sign",
    "hardware.gen_pseudonym",
    "transient.sign",
    "hardware.gen_message",
    "transient.verify",
    "vehicle.receive",
)


def per_layer_metrics(tracer, rec, overhead_ratio: float, traced_wall: float):
    """(metrics, table): the per-layer metrics and every span name's totals."""
    times = layer_times(tracer.spans)

    def row(name):
        return times.get(name, (0, 0.0, 0.0))

    m = {}
    for name in TIMED_LAYERS:
        calls, _, self_s = row(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_ms"] = (self_s * 1000.0, "ms")
    m["groups.scalar_muls"] = (rec.scalar_muls, "count")
    m["ringsig.extractions"] = (rec.extractions, "count")
    m["ringsig.extract_pubkey.cold_share"] = (
        tracer.extract_cold / tracer.extract_calls if tracer.extract_calls else 0.0, "ratio")
    m["ringsig.ring_verify.useful_share"] = (
        useful_share(tracer.spans, "ringsig.ring_verify", tracer.accepted_requests), "ratio")
    m["vehicle.pseudonym_buf.max_len"] = (rec.pseudonym_buf_max, "count")
    m["vehicle.id_buf.max_len"] = (rec.id_buf_max, "count")
    for verdict in VERDICTS:
        m[f"vehicle.verdict.{verdict}"] = (rec.verdicts[verdict], "count")
    m["vehicle.scalar_muls_per_reject"] = (
        rec.reject_muls / rec.reject_count if rec.reject_count else 0.0, "count")
    calls, _, self_s = row("simnet.run")
    m["simnet.run.calls"] = (calls, "count")
    m["simnet.run.self_share"] = (self_s / traced_wall, "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    for root in ("vehicle.receive", "vehicle.make_pseudonym"):
        _, total, self_s = row(root)
        m[f"trace.coverage.{root.split('.')[1]}"] = ((total - self_s) / total if total else 0.0, "ratio")
    table = {name: {"calls": c, "total_ms": t * 1000.0, "self_ms": s * 1000.0}
             for name, (c, t, s) in sorted(times.items())}
    return m, table
