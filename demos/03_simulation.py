"""Run the bundled simulation scenarios and print their reports.

    python3 demos/03_simulation.py
"""

from pathlib import Path

from avcs import load_scenario, run
from avcs.simnet import render_text

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

print("== sybil.ini: one module, five certificates, one time window ==")
report = run(load_scenario(SCENARIOS / "sybil.ini"))
print(render_text(report))

print()
print("== attacks.ini: replay, forgery, masquerade, compromise ==")
report = run(load_scenario(SCENARIOS / "attacks.ini"))
print(render_text(report))
