"""Command-line entry point.

Subcommands: ``bench`` (latency/size CSV), ``avgcost`` (per-message
cost of a certificate-every-k stream), and ``sim`` (scenario runner).
The end-to-end walkthrough is ``demos/02_pseudonym_protocol.py``.
Exit codes: 0 on success, 2 on usage errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import avg_cost, linearity_r2, records_to_csv, run_benchmarks
from .errors import AvcsError
from .simnet import counters_csv, load_scenario, render_text
from .simnet import run as run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcs",
        description="anonymous vehicular communication: benchmarks, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time every operation across ring sizes")
    p.add_argument("--curve", choices=("p192", "p256"), default="p192")
    p.add_argument("--rmax", type=int, default=10, metavar="N")
    p.add_argument("--trials", type=int, default=30, metavar="N")
    p.add_argument("--out", metavar="FILE", help="write the CSV here instead of stdout")

    p = sub.add_parser("avgcost", help="per-message cost of an n-message stream")
    p.add_argument("--n", type=int, required=True, help="messages per batch")
    p.add_argument("--k", type=int, required=True, help="certificate re-send interval")
    for flag, text in (
        ("--tgm", "generate one message"), ("--tgp", "generate the certificate"),
        ("--tsm", "send one message"), ("--tsp", "send the certificate"),
        ("--tvm", "verify one message"), ("--tvp", "verify the certificate"),
    ):
        p.add_argument(flag, type=float, required=True, metavar="MS",
                       help=f"milliseconds to {text}")

    p = sub.add_parser("sim", help="run a scenario file and write its report")
    p.add_argument("--scenario", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    records = run_benchmarks(args.curve, args.rmax, args.trials)
    csv = records_to_csv(records)
    fits = []
    if args.rmax >= 4:
        for op in ("ring_sign", "ring_verify"):
            fits.append(f"linearity {op}: R2 = {linearity_r2(records, op):.4f}")
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
        print(f"wrote {len(records)} records to {args.out}")
        for line in fits:
            print(line)
    else:
        sys.stdout.write(csv)
        for line in fits:
            print(line, file=sys.stderr)
    return 0


def cmd_avgcost(args) -> int:
    tau = avg_cost(args.n, args.k, args.tgm, args.tgp, args.tsm,
                   args.tsp, args.tvm, args.tvp)
    print(f"average per-message cost: {tau:g} ms")
    return 0


def cmd_sim(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "events.jsonl").write_text("\n".join(report.events) + "\n", encoding="utf-8")
    (out / "report.txt").write_text(render_text(report), encoding="utf-8")
    (out / "counters.csv").write_text(counters_csv(report), encoding="utf-8")
    sys.stdout.write(render_text(report))
    print(f"wrote events.jsonl, report.txt, counters.csv to {out}")
    return 0


_COMMANDS = {
    "bench": cmd_bench,
    "avgcost": cmd_avgcost,
    "sim": cmd_sim,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AvcsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
