"""Cost model, benchmark records, and the command-line surface."""

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
    records_to_csv,
    run_benchmarks,
)
from avcs.cli import _COMMANDS, _build_parser, main
from avcs.groups import get_group
from avcs.ringsig import ManufactoryRegistry, MasterKeyPair

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
    for rec in records:
        assert rec.mean_ms > 0
        assert rec.size_bytes > 0
        assert rec.p95_ms >= rec.median_ms > 0


def test_interleaved_trials_count_every_timed_call():
    group = get_group(TOY)
    calls = []

    def steady():
        group.scalar_mul(3, group.generator)

    def alternating():
        calls.append(None)
        if len(calls) % 2 == 0:
            steady()

    samples, muls = _interleaved_trials({"steady": steady}, 4)["steady"]
    assert len(samples) == 4 and muls == 1
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
    assert CSV_HEADER == "curve,ring_size,op,mean_ms,median_ms,p95_ms,scalar_muls,size_bytes"
    records = run_benchmarks(TOY, r_max=2, trials=2)
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == TOY and first[1] == "1" and first[2] == "ring_sign"
    assert len(first) == len(CSV_HEADER.split(","))


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
        linearity_r2(perfect[:3], "ring_sign")  # only r=2,3 survive the r_min cut
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
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * len(OPS)
    sign_r3 = next(l for l in lines if ",3,ring_sign," in l)
    assert sign_r3.split(",")[6] == "5"  # 2r-1 multiplications at r=3


def test_cli_keygen_round_trip(tmp_path, capsys):
    rc = main(["keygen", "--curve", TOY, "--out", str(tmp_path)])
    assert rc == 0
    mk = MasterKeyPair.from_dict(json.loads((tmp_path / "master.json").read_text()))
    registry = ManufactoryRegistry.from_dict(
        json.loads((tmp_path / "registry.json").read_text())
    )
    assert mk.n == 256
    assert registry.knows("mfr")
    # the public file alone supports extraction; both agree on the group
    E = registry.extract_pubkey("mfr:unit-7")
    assert not mk.group.is_identity(E)


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
