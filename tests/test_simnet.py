"""Scenario loading, event-loop determinism, adversary outcomes."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from avcs.cli import main as cli_main
from avcs.errors import ScenarioError
from avcs.simnet import (
    COUNTER_KEYS,
    AdversarySpec,
    Scenario,
    _Sim,
    counters_csv,
    load_scenario,
    parse_scenario,
    render_text,
    run,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

TOY = "toy:2147483647"


def toy_scenario(**overrides) -> Scenario:
    base = dict(
        seed=1, n_vehicles=2, duration=8.0, curve=TOY,
        k=3, ring_size=2, min_span_time=5.0, cert_validity=60.0,
        msg_rate=1.0, loss_rate=0.0, latency_min_ms=1.0, latency_max_ms=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------


MINIMAL = """
[scenario]
seed = 1
n_vehicles = 2
duration = 4.0
curve = toy:2147483647
"""


def test_parse_minimal_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.seed == 1
    assert sc.n_vehicles == 2
    assert sc.k == 10 and sc.ring_size == 3
    assert sc.loss_rate == 0.0
    assert sc.adversaries == ()


def test_parse_adversary_sections():
    sc = parse_scenario(MINIMAL + """
[adversary.twin]
kind = sybil
start = 2.0
certs = 4

[adversary.ghost]
kind = forger
""")
    assert [a.name for a in sc.adversaries] == ["twin", "ghost"]
    assert sc.adversaries[0].certs == 4
    assert sc.adversaries[1].kind == "forger"


@pytest.mark.parametrize("text, fragment", [
    ("[protocol]\nk = 2\n", "needs a"),                      # no [scenario]
    (MINIMAL + "color = red\n", "unknown keys"),
    (MINIMAL + "[weather]\nrain = yes\n", "unknown section"),
    (MINIMAL + "[adversary.x]\nkind = eavesdrop\n", "unknown adversary kind"),
    (MINIMAL + "[adversary.x]\nstart = 1\n", "missing required key"),
    (MINIMAL + "[medium]\nloss_rate = 1.5\n", "loss_rate"),
    (MINIMAL + "[medium]\nlatency_min_ms = 9\nlatency_max_ms = 2\n", "latency"),
    (MINIMAL + "[protocol]\ncert_validity = 1\nmin_span_time = 5\n", "cert_validity"),
    (MINIMAL + "[protocol]\nmsg_rate = 0\n", "msg_rate"),
    (MINIMAL + "[adversary.x]\nkind = sybil\ncerts = 1\n", "certs"),
    (MINIMAL + "[adversary.x]\nkind = compromised\nvehicle = 7\n", "vehicle index"),
    (MINIMAL.replace("seed = 1", "seed = soon"), "not a valid int"),
    (MINIMAL + "[protocol]\npreseed_ids = maybe\n", "not a valid bool"),
    (MINIMAL.replace("toy:2147483647", "p512"), "unknown group"),
])
def test_parse_rejects_bad_scenarios(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


@pytest.mark.parametrize("word, value", [(" On ", True), (" Off ", False), ("no", False), ("1", True)])
def test_parse_bool_words(word, value):
    assert parse_scenario(MINIMAL + f"[protocol]\npreseed_ids ={word}\n").preseed_ids is value


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.ini")


def test_bundled_scenarios_parse():
    for path in sorted(SCENARIO_DIR.glob("*.ini")):
        sc = load_scenario(path)
        sc.validate()
    assert len(list(SCENARIO_DIR.glob("*.ini"))) == 4


def test_readme_scenarios_parse():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        parse_scenario(block)


# ---------------------------------------------------------------------------
# clean and lossy runs
# ---------------------------------------------------------------------------


def test_clean_run_all_messages_accepted():
    report = run(load_scenario(SCENARIO_DIR / "clean.ini"))
    # ten messages per vehicle, no loss: everything lands
    for name in report.vehicles:
        row = report.counters[name]
        assert row["accept"] == 11  # 1 cert + 10 messages
        assert row["duplicate"] == 1  # the k=10 re-send
        for reason in ("sybil", "expired", "revoked", "bad-signature", "no-cert", "malformed"):
            assert row[reason] == 0
        assert report.delivery_ratio[name] == 1.0
    assert report.frames_dropped == 0
    assert report.throughput * report.duration == 20


def test_rings_grow_from_overheard_ids_without_preseeding():
    # no road-side help: each vehicle's first ring is itself alone, and
    # later rings fill up from the ids of certificates it has accepted
    sc = toy_scenario(n_vehicles=4, ring_size=3, cert_validity=10.0,
                      duration=30.0, preseed_ids=False)
    report = run(sc)
    for name in report.vehicles:
        row = report.counters[name]
        assert row["accept"] > 0
        for reason in COUNTER_KEYS:
            if reason not in ("accept", "duplicate"):
                assert row[reason] == 0, (name, reason)
    assert report.cert_size[0] < report.cert_size[2]


def test_loss_recovery_trace():
    sc = toy_scenario(seed=3, duration=12.0, loss_rate=0.5)
    report = run(sc)
    events = [json.loads(line) for line in report.events]
    recovered = False
    for dst in report.vehicles:
        seq = [e for e in events if e["dst"] == dst and e["src"] in report.vehicles]
        start = next((i for i, e in enumerate(seq) if e["reason"] == "no-cert"), None)
        if start is None:
            continue
        after = seq[start:]
        cert_ok = next(
            (i for i, e in enumerate(after)
             if e["frame"] == "cert" and e["outcome"] == "accept"),
            None,
        )
        if cert_ok is not None and any(
            e["frame"] == "msg" and e["outcome"] == "accept" for e in after[cert_ok:]
        ):
            recovered = True
    assert recovered, "expected a no-cert gap closed by a certificate re-broadcast"


def test_counters_sum_matches_deliveries():
    report = run(toy_scenario(seed=5, loss_rate=0.4, n_vehicles=3, duration=10.0))
    total = sum(sum(row.values()) for row in report.counters.values())
    assert total == report.frames_delivered
    n = len(report.vehicles)
    scheduled = sum(
        sum(kinds.values()) * (n - 1 if src in report.vehicles else n)
        for src, kinds in report.sent.items()
    )
    assert report.frames_delivered + report.frames_dropped == scheduled


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_identical_logs():
    sc = toy_scenario(
        seed=9, n_vehicles=3, duration=10.0, loss_rate=0.2,
        adversaries=(
            AdversarySpec(name="twin", kind="sybil", start=3.0, certs=3),
            AdversarySpec(name="ghost", kind="forger", start=2.0, period=4.0),
        ),
    )
    first = run(sc)
    second = run(sc)
    assert first.events == second.events
    assert first.counters == second.counters
    assert first.delivery_ratio == second.delivery_ratio


def test_different_seed_different_log():
    a = run(toy_scenario(seed=1, loss_rate=0.3))
    b = run(toy_scenario(seed=2, loss_rate=0.3))
    assert a.events != b.events


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


def test_sybil_scenario_every_witness_rejects():
    report = run(load_scenario(SCENARIO_DIR / "sybil.ini"))
    for name in report.vehicles:
        assert report.counters[name]["sybil"] == 4  # 5 certs, first accepted
    # the first certificate is valid on its own and is accepted everywhere
    assert report.adversary_accepted["twin"] == len(report.vehicles)
    latency = report.sybil_detection_latency["twin"]
    assert latency is not None and 0 < latency < 0.1


def test_sybil_on_toy_group():
    sc = toy_scenario(
        seed=4, n_vehicles=3, duration=8.0,
        adversaries=(AdversarySpec(name="twin", kind="sybil", start=2.0, certs=5),),
    )
    report = run(sc)
    for name in report.vehicles:
        assert report.counters[name]["sybil"] == 4


def test_attack_corpus_outcomes():
    report = run(load_scenario(SCENARIO_DIR / "attacks.ini"))
    assert report.adversary_accepted["echo"] == 0
    assert report.adversary_accepted["ghost"] == 0
    assert report.adversary_accepted["impostor"] == 0
    totals = {key: sum(report.counters[v][key] for v in report.vehicles)
              for key in COUNTER_KEYS}
    assert totals["expired"] > 0        # replayed stale certificate
    assert totals["bad-signature"] > 0  # fabricated and masqueraded certificates
    assert totals["revoked"] > 0        # post-leak certificates of vehicle 0
    assert totals["no-cert"] > 0        # messages under never-accepted certs
    assert report.revocations == ((10.0, "veh-000"),)
    # the compromised vehicle is cut off; honest peers keep talking
    assert report.delivery_ratio["veh-000"] < report.delivery_ratio["veh-001"]


def test_attacks_leave_no_forged_id_in_the_key_cache():
    sim = _Sim(load_scenario(SCENARIO_DIR / "attacks.ini"))
    sim.build()
    sim.run_loop()
    cached = list(sim.registry._cache)
    assert cached
    # insert-after-verify: only rings that verified leave keys, and those name fleet vehicles
    assert all(id_str.startswith("fleet:veh-") for id_str in cached), cached


def test_replay_rejected_as_expired_only():
    sc = toy_scenario(
        seed=6, n_vehicles=2, duration=8.0, cert_validity=5.0,
        adversaries=(AdversarySpec(name="echo", kind="replay", start=0.0, repeats=2),),
    )
    report = run(sc)
    events = [json.loads(line) for line in report.events]
    echoed = [e for e in events if e["src"] == "echo" and e["outcome"] != "drop"]
    assert echoed, "replayer never got a frame through"
    assert all(e["reason"] == "expired" for e in echoed)


def test_masquerade_rejected_as_bad_signature():
    sc = toy_scenario(
        seed=7, n_vehicles=2, duration=6.0,
        adversaries=(AdversarySpec(name="imp", kind="masquerade", start=1.0,
                                   period=2.0, victim="fleet:veh-000"),),
    )
    report = run(sc)
    events = [json.loads(line) for line in report.events]
    attempts = [e for e in events if e["src"] == "imp" and e["outcome"] != "drop"]
    assert attempts
    assert all(e["reason"] == "bad-signature" for e in attempts)
    assert report.adversary_accepted["imp"] == 0


def test_masquerade_unknown_manufactory_is_scenario_error():
    sc = toy_scenario(
        adversaries=(AdversarySpec(name="imp", kind="masquerade", start=1.0,
                                   victim="rogue-mfr:boss"),),
    )
    with pytest.raises(ScenarioError, match="victim"):
        run(sc)


def test_compromised_vehicle_cut_off_after_leak():
    sc = toy_scenario(
        seed=8, n_vehicles=3, duration=20.0, cert_validity=5.0,
        adversaries=(AdversarySpec(name="mole", kind="compromised",
                                   start=6.0, vehicle=1),),
    )
    report = run(sc)
    victim = report.vehicles[1]
    revoked = sum(report.counters[v]["revoked"] for v in report.vehicles if v != victim)
    assert revoked > 0
    events = [json.loads(line) for line in report.events]
    # once a certificate from the victim is rejected as revoked, no later
    # certificate of theirs is ever accepted
    first_revoked = next(e["time"] for e in events
                         if e["src"] == victim and e["reason"] == "revoked")
    late_cert_accepts = [
        e for e in events
        if e["src"] == victim and e["frame"] == "cert"
        and e["outcome"] == "accept" and e["time"] > first_revoked
    ]
    assert late_cert_accepts == []


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_counters_csv_shape():
    report = run(toy_scenario(seed=10, duration=4.0))
    csv = counters_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "vehicle,accept,duplicate,sybil,expired,revoked,bad-signature,no-cert,malformed"
    assert len(lines) == 1 + len(report.vehicles)
    assert lines[1].startswith("veh-000,")


def test_render_text_mentions_key_figures():
    report = run(toy_scenario(seed=11, duration=4.0))
    text = render_text(report)
    assert "throughput" in text
    assert "veh-000" in text and "veh-001" in text
    assert "accept=" in text


def test_event_log_schema():
    report = run(toy_scenario(seed=12, duration=4.0, loss_rate=0.2))
    for line in report.events:
        record = json.loads(line)
        assert set(record) == {"time", "src", "dst", "frame", "outcome", "reason"}
        assert record["frame"] in ("cert", "msg")
        assert record["outcome"] in ("accept", "duplicate", "reject", "drop")


# ---------------------------------------------------------------------------
# golden outputs: the bytes `avcs sim` writes for each bundled scenario
# ---------------------------------------------------------------------------


GOLDEN = {
    "attacks": {
        "events.jsonl": "9b8ba965179e613989511fe842c69e52e3ac9af11cce668244b60785b06e49b3",
        "report.txt": "4aa3920d3efdac44a87dd743a367f52084a4c33f84d263b2973bca759000f86e",
        "counters.csv": "23280a66797dc7f0d9bf690f4f8a8db5e27a959139c26efebe60ba377120d2c6",
    },
    "clean": {
        "events.jsonl": "6abf71f5864f72a66689bc242b0472d1439d12b7ef3f7e3cd21df7e72b613c8e",
        "report.txt": "9dfee4e8dbd2443ec32bf4bea02e4fc30eaacb961144d8d0835a4d0bbb721b2e",
        "counters.csv": "72cf6a4b5a96ad0c66141867e79e31ecf19549e052af835877b368c05dcb58a2",
    },
    "lossy": {
        "events.jsonl": "5de64acbe2de7f4e5ab77217126bb37c315013b6585be7d2fdfb23717ca80db3",
        "report.txt": "2601a351046bf7e4e31f0914e8a01c83468c99d6084482aee16291e98878ccf7",
        "counters.csv": "351fda55325beb72a94e43753d379501b7841fc8450175a19ae6c716a26197e2",
    },
    "sybil": {
        "events.jsonl": "cbcf1a0d6330994d6b1d99611b17ec3d1e12131a622e2d5bf0559195b0daaacd",
        "report.txt": "2df5ba3674524aeef6d10542900f640efd8fc13513bf05c50e83b340e68d29a0",
        "counters.csv": "25a6a8e624fb98c24da3a7ede7215b3191583eb4fe7eb5db7a8de10c63dfd014",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_are_golden(name, tmp_path):
    assert cli_main(["sim", "--scenario", str(SCENARIO_DIR / f"{name}.ini"),
                     "--out", str(tmp_path)]) == 0
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
