"""The walkthroughs in demos/ run end to end and print the right verdicts.

Each script runs in-process as ``__main__``; the assertions read its
stdout.  ``demos/04`` is left out: ``test_cli_bench_writes_pinned_csv``
already runs ``run_benchmarks`` under the same CLI surface.
"""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return [line.strip() for line in capsys.readouterr().out.splitlines()]


def test_ring_signature_demo_verdicts(capsys):
    lines = run_demo("01_ring_signatures.py", capsys)
    assert "verdict: True, cost 12 multiplications (3r = 12)" in lines
    assert "flip one payload byte: False" in lines
    assert "flip one signature byte: False" in lines
    slots = [line for line in lines if line.startswith("author at slot")]
    assert len(slots) == 4
    assert all(line.endswith("verifies=True") for line in slots)


def test_pseudonym_protocol_demo_verdicts(capsys):
    lines = run_demo("02_pseudonym_protocol.py", capsys)
    for viewer in ("acme:bob", "acme:carol"):
        stream = [line.split(": ", 1)[1] for line in lines
                  if line.startswith(f"{viewer} <- ")]
        # certificate, two messages, the k=3 re-send, two messages
        assert stream == ["accept"] * 3 + ["duplicate"] + ["accept"] * 2
    assert "certificate replayed to bob: duplicate (harmless, not an attack)" in lines
    assert ("second certificate in the same 60s window: sybil "
            "(one pseudonym per window is the rule)") in lines
    assert "original certificate 300s later: expired" in lines
    assert "carol's fresh certificate at bob: revoked" in lines
    assert "...and at alice, who has no rogue entry yet: accept" in lines
    reveal = lines[lines.index("== supervised reveal ==") + 2:]
    assert reveal == ["acme:alice: issuer", "acme:bob: not mine", "acme:carol: not mine"]


def test_simulation_demo_stops_every_adversary(capsys):
    lines = run_demo("03_simulation.py", capsys)
    assert "sybil detection for twin: never" not in lines
    # render_text prints the latency; the script does not repeat it
    assert sum(line.startswith("sybil detection for twin: ") for line in lines) == 1
    # render_text reports each adversary's accepted frames, once each
    attacks = lines[lines.index("== attacks.ini: replay, forgery, masquerade, compromise =="):]
    accepted = [line for line in attacks if line.startswith("adversary ")]
    assert accepted == [f"adversary {name}: 0 accepted frames"
                        for name in ("echo", "ghost", "impostor", "mole")]
    assert lines.count("revocation of veh-000 distributed at t=10s") == 1
