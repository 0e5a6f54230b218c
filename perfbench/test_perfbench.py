"""Checks of the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from harness import percentile, tail_permille  # noqa: E402
from tracing import PARENT, Tracer, covered_length, layer_times, useful_share  # noqa: E402


def span(name, start, end, parent, request=0):
    return [name, start, end, parent, request]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("receive", 0.0, 10.0, -1, 1),
        span("verify", 1.0, 4.0, 0, 1),
        span("verify", 3.0, 6.0, 0, 1),     # overlaps its sibling: counted once
        span("scalar_mul", 1.5, 2.5, 1, 1),
        span("scalar_mul", 9.0, 12.0, 0, 1),  # sticks out of its parent: clipped
        span("receive", 20.0, 21.0, -1, 2),
    ]
    times = layer_times(spans)
    calls, total, self_s = times["receive"]
    assert calls == 2
    assert total == pytest.approx(11.0)
    assert self_s == pytest.approx((10.0 - 5.0 - 1.0) + 1.0)
    assert times["verify"] == pytest.approx([2, 6.0, 5.0])
    assert times["scalar_mul"] == pytest.approx([2, 4.0, 4.0])


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(-1.0, 0.5), (0.25, 0.75), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.85)


def test_useful_share_counts_time_of_accepted_requests():
    spans = [span("ring_verify", 0.0, 3.0, -1, 1), span("ring_verify", 5.0, 6.0, -1, 2)]
    assert useful_share(spans, "ring_verify", {1}) == pytest.approx(0.75)
    assert useful_share(spans, "other", {1}) == 0.0


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999), (10 ** 6, 999),
])
def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond(n, expected):
    assert tail_permille(n) == expected
    if expected is not None:
        values = list(range(n))
        tail = percentile(values, expected)
        assert sum(1 for v in values if v > tail) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 900) == 90
    assert percentile(values, 990) == 99
    assert percentile(values[::-1], 500) == 50


def test_tracer_records_nested_spans_and_restores_everything():
    import random

    from avcs import ringsig, vehicle
    from avcs.groups import CurveGroup, get_group

    group = get_group("p192")
    originals = (CurveGroup.scalar_mul, ringsig.verify_tuple, ringsig.ring_verify, vehicle.ring_verify)
    E = group.scalar_mul(7, group.generator)
    m, U, v = ringsig.forge_tuple(group, E, random.Random(1))
    tracer = Tracer()
    with tracer:
        assert vehicle.ring_verify is ringsig.ring_verify is not originals[2]
        tracer.recording = True
        assert ringsig.verify_tuple(group, m, U, v, E)
        tracer.recording = False
    assert (CurveGroup.scalar_mul, ringsig.verify_tuple, ringsig.ring_verify, vehicle.ring_verify) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "ringsig.verify_tuple"
    assert names.count("groups.scalar_mul") == 3
    assert all(s[PARENT] == 0 for s in tracer.spans[1:])


def recorder_with_blocks(key, blocks):
    from avcs.groups import get_group
    from harness import Recorder

    rec = Recorder(get_group("p192"))
    for block in blocks:
        rec.begin_block()
        rec._raw[key] += [(ms, 0) for ms in block]
        rec.end_block(0)
    rec.finish()
    return rec


def test_blocks_group_until_they_hold_enough_samples():
    rec = recorder_with_blocks("mint", ([5.0, 1.0, 3.0], [], [2.0], [9.0, 4.0, 8.0], [7.0]))
    # [5, 1, 3] holds three; [2] and [9, 4, 8] make the next; [7] is too short and joins it
    assert rec.block_groups("mint", 3) == [[5.0, 1.0, 3.0], [2.0, 9.0, 4.0, 8.0, 7.0]]
    assert rec.block_groups("mint", 10) == []
    assert rec.p50("mint") == 4.5       # over the whole run
    assert rec.tail("mint") is None     # no group of 100


def test_tail_is_the_median_of_the_group_tails():
    blocks = [[offset + v for v in range(1, 101)] for offset in (1000.0, 0.0, 50.0)]
    rec = recorder_with_blocks("msg_accept", blocks)
    # p90 of each block: 1090, 90 and 140
    assert rec.tail("msg_accept") == (140.0, 900)


class FixedChunks:
    """Stand-in reference: returns the given chunk times in turn."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_gauge_scales_each_time_by_the_chunks_around_it():
    from speed import HALF, REF_NOMINAL_S, SpeedGauge

    assert HALF == 2
    gauge = SpeedGauge(FixedChunks(*[REF_NOMINAL_S * x for x in (1.0, 1.0, 2.0, 2.0, 9.0, 2.0)]))
    assert gauge.read() > 0.0
    gauge.read(5)
    assert gauge.readings == 6
    # a time after the 2nd reading sits between chunks 1.0 and 2.0: median of 1, 1, 2, 2
    assert gauge.factor_at(2) == pytest.approx(1 / 1.5)
    # the one slow chunk does not move its neighbours: median of 2, 2, 9, 2
    assert gauge.factor_at(4) == pytest.approx(0.5)
    # windows are clipped at both ends
    assert gauge.factor_at(0) == pytest.approx(1.0)
    assert gauge.factor_at(6) == pytest.approx(1 / 5.5)
    assert gauge.mean_factor(2, 4) == pytest.approx((1 / 1.5 + 0.5 + 0.5) / 3)


def test_recorder_scales_times_and_keeps_gauge_work_out_of_walls():
    from avcs.groups import get_group
    from harness import Recorder
    from speed import REF_NOMINAL_S, SpeedGauge

    gauge = SpeedGauge(FixedChunks(*[REF_NOMINAL_S * 2.0] * 4))
    rec = Recorder(get_group("p192"), gauge)
    start = time.perf_counter()
    rec.begin_block()
    rec._sample("mint", time.perf_counter() - 0.004, rec._read())
    rec.end_block(4)
    wall = time.perf_counter() - start
    gauge.read(2)
    rec.finish()
    assert 0.0 < rec.untimed_s <= gauge.spent_s   # the reads in the block, not those after
    assert rec.samples["mint"] == [pytest.approx(2.0, rel=0.05)]   # 4 ms at half speed
    assert rec.delivered == 4
    # the block's wall, less the gauge's own time, at half speed
    assert 0.0 <= rec.loop_seconds <= 0.5 * (wall - rec.untimed_s)


def test_reference_is_p192_scalar_multiplication():
    from avcs.groups import get_group
    from speed import reference_mul

    group = get_group("p192")
    for k in (1, 2, 3, 0xDEADBEEF, group.q - 1):
        assert reference_mul(k) == group.scalar_mul(k, group.generator)[0]


def test_block_count_depends_on_the_arguments_only():
    from run import block_count
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        assert block_count(workload, 20) == round(20 / workload.block_s) >= workload.min_blocks
        assert block_count(workload, 0.01) == workload.min_blocks >= 1
