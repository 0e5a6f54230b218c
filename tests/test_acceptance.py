"""Acceptance gate: eleven system-level criteria, one test each.

Each test prints a single verdict line (shown under ``pytest -s``; the
test result itself is the machine-readable record).  Tolerances are
stated inline next to each assertion.
"""

import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from avcs.bench import avg_cost, linearity_r2, run_benchmarks
from avcs.cli import main as cli_main
from avcs.errors import ParseError
from avcs.groups import P192, P256, count_group_ops, get_group
from avcs.hardware import ManualClock, join, leak_master_secret
from avcs.ringsig import (
    ManufactoryRegistry,
    RingSignature,
    keygen,
    ring_sign,
    ring_verify,
    setup,
)
from avcs.simnet import load_scenario
from avcs.simnet import run as run_scenario
from avcs.vehicle import VehicleState, cert_fingerprint, encode_cert_frame, encode_message_frame, reveal_check

from helpers import stub_chain, stub_h1
from ring_oracle import oracle_pack, oracle_ring_sign
from test_ring_transcript import TOY as TOY23
from test_ring_transcript import transcript_case

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BIG_TOY = get_group("toy:2147483647")


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {title}: FAIL")
        raise
    print(f"[criterion {num:2d}] {title}: PASS")


def _curve_world(group, tag: str):
    rng = random.Random(f"acceptance/{tag}")
    mk = setup(group, rng=rng, manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    pool = [f"m:car-{i:02d}" for i in range(12)]
    keys = {id_str: keygen(mk, id_str) for id_str in pool}
    for id_str in pool:
        registry.extract_pubkey(id_str)
    return rng, registry, pool, keys


# -- 1 ---------------------------------------------------------------------


def test_criterion_01_round_trip_and_mutation_rejection():
    start = time.monotonic()
    with criterion(1, "round-trip 100%, 1000 byte mutations rejected, < 60 s"):
        mutation_budget = {"toy": 600, "p192": 200, "p256": 200}
        for tag, group in (("toy", BIG_TOY), ("p192", P192), ("p256", P256)):
            rng, registry, pool, keys = _curve_world(group, tag)
            cases = []
            for r in range(1, 11):
                for _ in range(5):
                    ring = rng.sample(pool, r)
                    pos = rng.randrange(r)
                    msg = rng.randbytes(rng.randrange(0, 65))
                    sig = ring_sign(msg, ring, keys[ring[pos]], pos, registry, rng)
                    wire = sig.to_bytes(group)
                    assert ring_verify(msg, RingSignature.from_bytes(wire, group), registry)
                    cases.append((msg, wire))
            assert len(cases) == 50

            rejected = 0
            budget = mutation_budget[tag]
            for _ in range(budget):
                msg, wire = cases[rng.randrange(len(cases))]
                i = rng.randrange(len(wire))
                mutated = wire[:i] + bytes([wire[i] ^ rng.randrange(1, 256)]) + wire[i + 1:]
                try:
                    bad = RingSignature.from_bytes(mutated, group)
                except ParseError:
                    rejected += 1
                    continue
                if not ring_verify(msg, bad, registry):
                    rejected += 1
            assert rejected == budget, f"{tag}: {budget - rejected} mutations slipped through"
        assert time.monotonic() - start < 60.0


# -- 2 ---------------------------------------------------------------------


def test_criterion_02_transcript_oracle_bit_identical():
    with criterion(2, "100 toy transcripts bit-identical to the oracle"):
        mismatches = 0
        for seed in range(100):
            registry, mk, msg, ring, pos, signer, pubkeys = transcript_case(seed)
            sig = ring_sign(msg, ring, signer, pos, registry, random.Random(seed))
            ox, ow, oids, otuples = oracle_ring_sign(
                TOY23, msg, ring, signer.d, pos, pubkeys, random.Random(seed),
                stub_h1, stub_chain,
            )
            if (sig.x, sig.w, sig.ids, sig.tuples) != (ox, ow, oids, tuple(otuples)):
                mismatches += 1
            elif sig.to_bytes(TOY23) != oracle_pack(TOY23, ox, ow, oids, otuples):
                mismatches += 1
        assert mismatches == 0


# -- 3 ---------------------------------------------------------------------


def test_criterion_03_operation_counts_exact():
    with criterion(3, "sign 2r-1 and verify 3r multiplications, r extractions"):
        rng, registry, pool, keys = _curve_world(BIG_TOY, "counts")
        report_rows = []
        for r in range(1, 11):
            ring = pool[:r]
            pos = r // 2
            msg = f"counting at r={r}".encode()
            with count_group_ops() as sign_ops:
                sig = ring_sign(msg, ring, keys[ring[pos]], pos, registry, rng)
            with count_group_ops() as verify_ops:
                assert ring_verify(msg, sig, registry)
            assert sign_ops.scalar_muls == 2 * r - 1
            assert verify_ops.scalar_muls == 3 * r
            assert verify_ops.extractions == r
            assert sign_ops.extractions == r  # addition-only, not scalar muls
            report_rows.append(
                f"r={r}: sign {sign_ops.scalar_muls}M/{sign_ops.extractions}E "
                f"verify {verify_ops.scalar_muls}M/{verify_ops.extractions}E"
            )
        print("; ".join(report_rows))


# -- 4, 5, 6 ----------------------------------------------------------------


@pytest.fixture(scope="module")
def p192_bench():
    start = time.monotonic()
    records = run_benchmarks("p192", r_max=10, trials=10)
    return records, time.monotonic() - start


def test_criterion_04_latency_linear_in_ring_size(p192_bench):
    records, elapsed = p192_bench
    with criterion(4, "sign/verify latency linear in r (R^2 >= 0.95), < 2 min"):
        sign_r2 = linearity_r2(records, "ring_sign")
        verify_r2 = linearity_r2(records, "ring_verify")
        print(f"R^2 sign={sign_r2:.4f} verify={verify_r2:.4f} ({elapsed:.1f}s)")
        assert sign_r2 >= 0.95
        assert verify_r2 >= 0.95
        assert elapsed < 120.0


def test_criterion_05_signature_size_near_1kb(p192_bench):
    records, _ = p192_bench
    with criterion(5, "r=10 signature on the 192-bit curve in [800, 1500] B"):
        # benchmark identities are exactly 10 characters long
        size = next(
            rec.size_bytes for rec in records
            if rec.op == "ring_sign" and rec.ring_size == 10
        )
        print(f"serialized size at r=10: {size} bytes")
        assert 800 <= size <= 1500


def test_criterion_06_amortized_cost(p192_bench, capsys):
    records, _ = p192_bench
    with criterion(6, "amortized cost beats 0.3 x certificate cost; reference 10.9 +/- 20%"):
        at = {rec.op: rec for rec in records if rec.ring_size == 10}

        # send cost on this host is frame serialization
        rng = random.Random("acceptance/send")
        mk = setup(P192, rng=rng, manufactory_id="m")
        registry = ManufactoryRegistry(P192)
        registry.register_master(mk)
        ids = [f"m:car-{i:02d}" for i in range(10)]
        hsm = join(mk, ids[0], registry, rng, clock=ManualClock(1000.0))
        cert = hsm.gen_pseudonym(ids, 600.0, rng)
        app = hsm.gen_message(b"payload for send timing")
        fingerprint = cert_fingerprint(encode_cert_frame(cert, P192))

        def mean_ms(fn, n=200):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            return (time.perf_counter() - t0) / n * 1000.0

        t_sp = mean_ms(lambda: encode_cert_frame(cert, P192))
        t_sm = mean_ms(lambda: encode_message_frame(fingerprint, app.M, app.N))

        tau = avg_cost(
            100, 10,
            at["gen_message"].mean_ms, at["gen_pseudonym"].mean_ms,
            t_sm, t_sp,
            at["verify_message"].mean_ms, at["receive_cert"].mean_ms,
        )
        bound = 0.3 * (at["gen_pseudonym"].mean_ms + at["receive_cert"].mean_ms)
        print(f"measured tau={tau:.3f} ms, bound={bound:.3f} ms")
        assert tau < bound

        # recomputation from the documented reference-hardware row
        rc = cli_main([
            "avgcost", "--n", "100", "--k", "10", "--tgm", "2.1", "--tgp", "52.6",
            "--tsm", "0.5", "--tsp", "9.7", "--tvm", "6.7", "--tvp", "67.4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(re.search(r"average per-message cost: ([0-9.]+) ms", out).group(1))
        assert abs(value - 10.9) <= 0.20 * 10.9  # 11.47 vs 10.9: within 20%


# -- 7 ---------------------------------------------------------------------


def test_criterion_07_sybil_detection_complete():
    with criterion(7, "5 same-window certificates: 4 sybil rejections everywhere"):
        report = run_scenario(load_scenario(SCENARIO_DIR / "sybil.ini"))
        for name in report.vehicles:
            assert report.counters[name]["sybil"] == 4
        # the first certificate is valid on its own: accepted once per receiver
        assert report.adversary_accepted["twin"] == len(report.vehicles)
        assert report.sybil_detection_latency["twin"] is not None


# -- 8 ---------------------------------------------------------------------


def test_criterion_08_reveal_matrix_exact():
    with criterion(8, "50 modules x 5 certificates: reveal matches issuer only"):
        group = BIG_TOY
        rng = random.Random("acceptance/reveal")
        mk = setup(group, rng=rng, manufactory_id="m")
        registry = ManufactoryRegistry(group)
        registry.register_master(mk)
        clock = ManualClock(50_000.0)
        modules = [
            join(mk, f"m:fleet-{i:02d}", registry, rng,
                 clock=clock, supervisor_token="audit")
            for i in range(50)
        ]
        certs = []
        for idx, module in enumerate(modules):
            for _ in range(5):
                certs.append((idx, module.gen_pseudonym([module.identity], 600.0, rng)))
        false_matches = false_misses = 0
        for idx, cert in certs:
            for j, module in enumerate(modules):
                response = module.reveal_respond(cert.C, "audit", rng)
                match = reveal_check(cert, response, group)
                if match and j != idx:
                    false_matches += 1
                if not match and j == idx:
                    false_misses += 1
        print(f"12500 reveal checks: {false_matches} false matches, {false_misses} false misses")
        assert false_matches == 0
        assert false_misses == 0


# -- 9 ---------------------------------------------------------------------


def test_criterion_09_revocation_complete_and_precise():
    with criterion(9, "revoked module 100% rejected; 0/1000 honest false hits"):
        group = BIG_TOY
        rng = random.Random("acceptance/revoke")
        mk = setup(group, rng=rng, manufactory_id="m")
        registry = ManufactoryRegistry(group)
        registry.register_master(mk)
        clock = ManualClock(100_000.0)
        receiver = VehicleState(
            join(mk, "m:receiver", registry, rng, clock=clock, min_span_time=60.0)
        )
        stolen = join(mk, "m:stolen", registry, rng, clock=clock, min_span_time=60.0)
        receiver.revoke(leak_master_secret(stolen))

        for _ in range(100):
            clock.advance(60.0)
            cert = stolen.gen_pseudonym(["m:stolen"], 30.0, rng)
            result = receiver.receive(encode_cert_frame(cert, group), clock.now())
            assert result.reason == "revoked"

        honest = [
            join(mk, f"m:clean-{i}", registry, rng, clock=clock, min_span_time=60.0)
            for i in range(10)
        ]
        accepted = 0
        for _ in range(100):
            clock.advance(60.0)
            for module in honest:
                cert = module.gen_pseudonym([module.identity], 30.0, rng)
                result = receiver.receive(encode_cert_frame(cert, group), clock.now())
                assert result.accepted, f"honest certificate rejected: {result.reason}"
                accepted += 1
        assert accepted == 1000


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_attack_suite_and_lossy_delivery():
    with criterion(10, "forger/replayer/masquerader 0 accepts; lossy delivery >= 45%"):
        attacks = run_scenario(load_scenario(SCENARIO_DIR / "attacks.ini"))
        assert attacks.adversary_accepted["echo"] == 0
        assert attacks.adversary_accepted["ghost"] == 0
        assert attacks.adversary_accepted["impostor"] == 0

        lossy = run_scenario(load_scenario(SCENARIO_DIR / "lossy.ini"))
        print("lossy delivery:",
              {name: round(ratio, 3) for name, ratio in lossy.delivery_ratio.items()})
        for name, ratio in lossy.delivery_ratio.items():
            assert ratio >= 0.45, f"{name} delivered only {ratio:.1%}"


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_simulation_determinism(tmp_path):
    with criterion(11, "same scenario twice yields byte-identical logs"):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = cli_main(["sim", "--scenario", str(SCENARIO_DIR / "sybil.ini"),
                           "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()
        assert (a / "counters.csv").read_bytes() == (b / "counters.csv").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
