"""Cost model, benchmark records, and the command-line surface."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from avcs.bench import (
    CSV_HEADER,
    OPS,
    BenchRecord,
    _interleaved_trials,
    avg_cost,
    linearity_r2,
    operation_table,
    records_to_csv,
    run_benchmarks,
)
from avcs.cli import _COMMANDS, _build_parser, main
from avcs.groups import OpCounter, get_group, note_extraction

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

TOY = "toy:2147483647"


# ---------------------------------------------------------------------------
# avg_cost
# ---------------------------------------------------------------------------


def test_avg_cost_worked_example():
    tau = avg_cost(100, 10, 2.1, 52.6, 0.5, 9.7, 6.7, 67.4)
    assert tau == pytest.approx(11.47, abs=1e-9)


def test_avg_cost_collapses_at_n1_k1():
    assert avg_cost(1, 1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0) == pytest.approx(21.0)


def test_avg_cost_all_zero():
    assert avg_cost(7, 3, 0, 0, 0, 0, 0, 0) == 0.0


def test_avg_cost_scales_linearly_in_times():
    base = avg_cost(50, 5, 1.1, 2.2, 3.3, 4.4, 5.5, 6.6)
    scaled = avg_cost(50, 5, 3.3, 6.6, 9.9, 13.2, 16.5, 19.8)
    assert scaled == pytest.approx(3 * base)


def test_avg_cost_amortizes_certificate_cost():
    # with more messages per certificate, the per-message share shrinks
    costs = [avg_cost(n, 10, 0.1, 50.0, 0.0, 5.0, 0.2, 60.0) for n in (1, 10, 100, 1000)]
    assert costs == sorted(costs, reverse=True)


@pytest.mark.parametrize("bad", [
    dict(n=0, k=1), dict(n=1, k=0), dict(n=-5, k=2),
])
def test_avg_cost_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        avg_cost(bad["n"], bad["k"], 1, 1, 1, 1, 1, 1)


def test_avg_cost_rejects_negative_times():
    with pytest.raises(ValueError):
        avg_cost(1, 1, -0.1, 1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# benchmark records
# ---------------------------------------------------------------------------


def test_run_benchmarks_counts_and_shape():
    records = run_benchmarks(TOY, r_max=6, trials=3)
    assert len(records) == 6 * len(OPS)
    by_key = {(rec.op, rec.ring_size): rec for rec in records}
    for r in range(1, 7):
        assert by_key[("ring_sign", r)].scalar_muls == 2 * r - 1
        assert by_key[("ring_verify", r)].scalar_muls == 3 * r
        assert by_key[("receive_cert", r)].scalar_muls == 3 * r
        # certificate = transient keypair + R + T + ring signature
        assert by_key[("gen_pseudonym", r)].scalar_muls == 2 * r + 2
        assert by_key[("gen_message", r)].scalar_muls == 1
        assert by_key[("verify_message", r)].scalar_muls == 2
        assert by_key[("extract_cold", r)].scalar_muls == 0
    for rec in records:
        assert rec.mean_ms > 0
        assert rec.size_bytes > 0
        assert rec.p95_ms >= rec.median_ms > 0


def toy_scalar_mul():
    group = get_group(TOY)
    group.scalar_mul(3, group.generator)


def test_interleaved_trials_count_every_timed_call():
    def steady():
        toy_scalar_mul()
        note_extraction()

    samples, ops = _interleaved_trials({"steady": steady}, 4)["steady"]
    assert len(samples) == 4
    # summed over the trials; the toy group makes no point operations
    assert [getattr(ops, name) for name in OpCounter.__slots__] == [4, 4, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("count", [toy_scalar_mul, note_extraction], ids=["scalar_muls", "extractions"])
def test_interleaved_trials_reject_a_logical_count_that_varies(count):
    calls = []

    def alternating():
        calls.append(None)
        if len(calls) % 2 == 0:
            count()

    with pytest.raises(RuntimeError, match="alternating"):
        _interleaved_trials({"alternating": alternating}, 4)


def test_signature_grows_linearly_with_ring():
    records = run_benchmarks(TOY, r_max=4, trials=1)
    sizes = [rec.size_bytes for rec in records if rec.op == "ring_sign"]
    deltas = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(deltas) == 1  # constant per-member increment


def test_run_benchmarks_validates_bounds():
    with pytest.raises(ValueError):
        run_benchmarks(TOY, r_max=0)
    with pytest.raises(ValueError):
        run_benchmarks(TOY, r_max=33)
    with pytest.raises(ValueError):
        run_benchmarks(TOY, r_max=2, trials=0)


def test_csv_header_golden():
    assert CSV_HEADER == ("curve,ring_size,op,mean_ms,median_ms,p95_ms,scalar_muls,size_bytes,"
                          "extractions,doublings,additions,inversions,roots,lane_additions,lane_steps")
    records = run_benchmarks(TOY, r_max=2, trials=2)
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == TOY and first[1] == "1" and first[2] == "ring_sign"
    assert len(first) == len(CSV_HEADER.split(","))


# ---------------------------------------------------------------------------
# the README's operation tables
# ---------------------------------------------------------------------------


def operation_table_markdown(curve):
    """``operation_table(curve)`` as the README carries it, markers included."""
    columns = OpCounter.__slots__
    lines = [f"<!-- operation-table {curve} -->",
             "| operation | " + " | ".join(columns) + " |",
             "|---|" + "---:|" * len(columns)]
    for name, ops in operation_table(curve).items():
        lines.append(f"| `{name}` | " + " | ".join(str(getattr(ops, c)) for c in columns) + " |")
    return "\n".join(lines + ["<!-- /operation-table -->"])


def test_readme_operation_tables_match_operation_table():
    # the cost model's counts live in these tables alone; when one differs,
    # the message is the regenerated Markdown to paste over both
    text = (REPO / "README.md").read_text(encoding="utf-8")
    found = {m[1]: m[0] for m in re.finditer(
        r"^<!-- operation-table (\w+) -->\n.*?^<!-- /operation-table -->$", text, flags=re.M | re.S)}
    expected = {curve: operation_table_markdown(curve) for curve in ("p192", "p256")}
    assert found == expected, "\n\n".join(expected.values())


def test_linearity_r2_on_synthetic_data():
    perfect = [
        BenchRecord(TOY, r, "ring_sign", 0.1, 3.0 * r + 1.0, 0.1, 0, 1)
        for r in range(1, 9)
    ]
    assert linearity_r2(perfect, "ring_sign") == pytest.approx(1.0)
    # r = 2..5 against 1, 3, 2, 4 ms: Sxy = 4, Sxx = Syy = 5, so R^2 = 16/25
    noisy = [
        BenchRecord(TOY, r, "ring_sign", 0.1, ms, 0.1, 0, 1)
        for r, ms in zip(range(2, 6), (1.0, 3.0, 2.0, 4.0))
    ]
    assert linearity_r2(noisy, "ring_sign") == pytest.approx(0.64)
    with pytest.raises(ValueError):
        linearity_r2(perfect[:3], "ring_sign")  # only r=2,3 survive the r >= 2 cut
    with pytest.raises(ValueError):
        linearity_r2(perfect, "ring_verify")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_avgcost_prints_value(capsys):
    rc = main(["avgcost", "--n", "100", "--k", "10", "--tgm", "2.1", "--tgp", "52.6",
               "--tsm", "0.5", "--tsp", "9.7", "--tvm", "6.7", "--tvp", "67.4"])
    assert rc == 0
    assert "11.47" in capsys.readouterr().out


def test_cli_avgcost_runtime_error(capsys):
    rc = main(["avgcost", "--n", "0", "--k", "1", "--tgm", "1", "--tgp", "1",
               "--tsm", "1", "--tsp", "1", "--tvm", "1", "--tvp", "1"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["avgcost", "--n", "10"],  # missing required flags
    ["bogus"],
    ["demo"],  # not a subcommand: the walkthrough is demos/02_pseudonym_protocol.py
], ids=lambda argv: argv[0])
def test_cli_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_shows_the_csv_header():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    (line,) = re.findall(r"^```\n(curve,ring_size,.*)\n```$", text, flags=re.M)
    assert line == CSV_HEADER


def test_readme_cli_block_parses():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", text, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "avcs"]
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a subcommand or flag the CLI lacks
    assert {argv[0] for argv in commands} == set(_COMMANDS)


def test_cli_bench_writes_pinned_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--curve", "p192", "--rmax", "3", "--trials", "2",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.split("\n", 1)[0] == CSV_HEADER
    records = list(csv.DictReader(io.StringIO(text)))
    assert len(records) == 3 * len(OPS)
    rows = {(row["op"], row["ring_size"]): row for row in records}
    assert rows["ring_sign", "3"]["scalar_muls"] == "5"  # 2r-1 multiplications at r=3
    extract = rows["extract_cold", "3"]
    # one uncached extraction of a compressed p192 point: additions only, one
    # inversion for the extracted key, and no square root
    assert (extract["scalar_muls"], extract["size_bytes"], extract["extractions"]) == ("0", "25", "1")
    assert (extract["doublings"], extract["inversions"], extract["roots"]) == ("0", "1", "0")
    # the r = 3 certificate on warm comb keys decodes its pk alone: each
    # U_i is compared by its encoding
    assert rows["receive_cert", "3"]["roots"] == "1"


def test_cli_sim_on_bundled_sybil_scenario(tmp_path, capsys):
    rc = main(["sim", "--scenario", str(SCENARIO_DIR / "sybil.ini"),
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sybil detection for twin" in out
    counters = (tmp_path / "counters.csv").read_text().strip().split("\n")
    assert counters[0].startswith("vehicle,accept,")
    total_sybil = sum(int(line.split(",")[3]) for line in counters[1:])
    assert total_sybil == 12  # 4 rejections at each of 3 receivers
    events = (tmp_path / "events.jsonl").read_text().strip().split("\n")
    assert all(json.loads(line) for line in events)
    assert (tmp_path / "report.txt").read_text().startswith("seed 11")


def test_cli_sim_missing_scenario_exits_3(tmp_path, capsys):
    rc = main(["sim", "--scenario", str(tmp_path / "none.ini"), "--out", str(tmp_path)])
    assert rc == 3
    assert "cannot read" in capsys.readouterr().err
