"""Command-line entry point.

Subcommands: ``keygen`` (parameter files), ``demo`` (annotated
end-to-end transcript), ``bench`` (latency/size CSV), ``avgcost``
(per-message cost of a certificate-every-k stream), and ``sim``
(scenario runner).  Exit codes: 0 on success, 2 on usage errors,
3 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .bench import avg_cost, linearity_r2, records_to_csv, run_benchmarks
from .errors import AvcsError
from .groups import get_group
from .hardware import ManualClock, join
from .ringsig import ManufactoryRegistry, MasterKeyPair, setup
from .simnet import counters_csv, load_scenario, render_text
from .simnet import run as run_scenario
from .vehicle import VehicleState, reveal_check

_DEMO_NAMES = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcs",
        description="anonymous vehicular communication: keys, demo, benchmarks, simulation",
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

    p = sub.add_parser("demo", help="annotated sign/send/receive/reveal walkthrough")
    p.add_argument("--ring", type=int, default=3, metavar="N")
    p.add_argument("--curve", default="p192", metavar="ID")

    p = sub.add_parser("keygen", help="generate master key and registry files")
    p.add_argument("--curve", default="p256", metavar="ID")
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


def cmd_demo(args) -> int:
    if args.ring < 1:
        raise AvcsError("--ring must be at least 1")
    if args.ring > 64:
        raise AvcsError("--ring larger than 64 makes for a dull demo")
    group = get_group(args.curve)
    rng = random.Random("demo")
    print(f"group: {group.group_id}, scalars are {group.scalar_byte_len * 8} bits")

    mk = setup(group, rng=rng, manufactory_id="demo")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    print(f"manufactory 'demo': master vector of {mk.n} pairs published")

    names = [_DEMO_NAMES[i] if i < len(_DEMO_NAMES) else f"veh-{i:03d}"
             for i in range(max(args.ring, 2))]
    ids = [f"demo:{name}" for name in names]
    clock = ManualClock(1_700_000_000.0)
    modules = {
        id_str: join(mk, id_str, registry, rng, clock=clock, supervisor_token="audit")
        for id_str in ids
    }
    print(f"joined: {', '.join(ids)} (each derives its key from its id alone)")

    sender = VehicleState(modules[ids[0]], k=3, ring_size=args.ring)
    ring = ids[: args.ring]
    cert = sender.make_pseudonym(600.0, rng, ring=ring)
    frame_len = len(sender.certificate_frame)
    print(f"\n{ids[0]} mints a pseudonym certificate:")
    print(f"  ring of {args.ring}: {', '.join(ring)}")
    print("  C committing to a fresh transient key, valid 600 s")
    print(f"  ring signature glue position x = {cert.S.x}, frame {frame_len} bytes")

    receiver = VehicleState(modules[ids[1]])
    payloads = [b"road clear ahead", b"braking hard", b"lane change left"]
    print(f"\n{ids[0]} streams {len(payloads)} messages (certificate first, again every k=3):")
    now = clock.now()
    for frame in [f for p in payloads for f in sender.send_next(p)]:
        kind = "cert" if frame[0] == 1 else "msg "
        result = receiver.receive(frame, now)
        body = result.payload.decode() if result.payload else ""
        note = f" {body!r}" if body else ""
        print(f"  {kind} {len(frame):4d} B -> {ids[1]}: {result.outcome}{note}")
    print(f"verifier learned only that one of {args.ring} ring members signed")

    print("\nsupervisor audits the certificate (who minted this?):")
    verdict = False
    for id_str in ids[: args.ring][::-1]:  # query the actual issuer last
        response = modules[id_str].reveal_respond(cert.C, "audit", rng)
        match = reveal_check(cert, response, group)
        print(f"  {id_str}: {'match' if match else 'no match'}")
        verdict = match
    if not verdict:
        raise AvcsError("reveal failed to identify the issuer")
    print("reveal: match")
    return 0


def cmd_keygen(args) -> int:
    group = get_group(args.curve)
    rng = random.SystemRandom()
    mk = setup(group, rng=rng, manufactory_id="mfr")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    master_path = out / "master.json"
    registry_path = out / "registry.json"
    master_path.write_text(json.dumps(mk.to_dict(), indent=1), encoding="utf-8")
    registry_path.write_text(json.dumps(registry.to_dict(), indent=1), encoding="utf-8")
    print(f"wrote {master_path} (KEEP SECRET: contains the private vector)")
    print(f"wrote {registry_path} (public: ship to every vehicle)")
    return 0


_COMMANDS = {
    "bench": cmd_bench,
    "avgcost": cmd_avgcost,
    "sim": cmd_sim,
    "demo": cmd_demo,
    "keygen": cmd_keygen,
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
