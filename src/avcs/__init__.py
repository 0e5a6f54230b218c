"""Anonymous vehicular communication on certificateless ring signatures.

The layers, bottom up:

- :mod:`avcs.groups` -- prime-order group arithmetic (two NIST curves
  plus a toy group for tests) and operation counting.
- :mod:`avcs.ringsig` -- master key setup, per-identity key extraction,
  ring signing and verification.
- :mod:`avcs.transient` -- short-lived per-pseudonym message keys.
- :mod:`avcs.hardware` -- the tamper-resistant module a vehicle ships
  with: mints pseudonym certificates, signs application messages,
  answers supervised reveal queries.
- :mod:`avcs.vehicle` -- the receive pipeline: parse, prune, duplicate
  and same-window checks, expiry, revocation, signature verification.
- :mod:`avcs.simnet` -- deterministic multi-vehicle simulation with
  scripted adversaries.
- :mod:`avcs.bench` -- latency/size/operation-count measurement, the
  operation table behind the README's cost model, and the amortized
  cost model.
"""

from .bench import BenchRecord, avg_cost, linearity_r2, operation_table, run_benchmarks
from .errors import (
    AvcsError,
    ClockError,
    DegenerateKeyError,
    MappingError,
    ParseError,
    ProtocolError,
    ProvisioningError,
    ScenarioError,
    SupervisorAuthError,
    UnknownManufactoryError,
)
from .groups import CurveGroup, OpCounter, ToyGroup, count_group_ops, get_group
from .hardware import (
    ApplicationMessage,
    HardwareModule,
    ManualClock,
    PseudonymCertificate,
    SystemClock,
    join,
)
from .ringsig import (
    IdentityKey,
    ManufactoryRegistry,
    MasterKeyPair,
    RingSignature,
    forge_tuple,
    keygen,
    ring_sign,
    ring_verify,
    setup,
    verify_tuple,
)
from .simnet import (
    AdversarySpec,
    RunReport,
    Scenario,
    load_scenario,
    parse_scenario,
    run,
)
from .vehicle import (
    REJECTION_REASONS,
    ReceiveResult,
    VehicleState,
    decode_message_frame,
    encode_cert_frame,
    encode_message_frame,
    reveal_check,
)

__version__ = "1.0.0"

__all__ = [
    "AdversarySpec",
    "ApplicationMessage",
    "AvcsError",
    "BenchRecord",
    "ClockError",
    "CurveGroup",
    "DegenerateKeyError",
    "HardwareModule",
    "IdentityKey",
    "ManualClock",
    "ManufactoryRegistry",
    "MappingError",
    "MasterKeyPair",
    "OpCounter",
    "ParseError",
    "ProtocolError",
    "ProvisioningError",
    "PseudonymCertificate",
    "REJECTION_REASONS",
    "ReceiveResult",
    "RingSignature",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SupervisorAuthError",
    "SystemClock",
    "ToyGroup",
    "UnknownManufactoryError",
    "VehicleState",
    "avg_cost",
    "count_group_ops",
    "decode_message_frame",
    "encode_cert_frame",
    "encode_message_frame",
    "forge_tuple",
    "get_group",
    "join",
    "keygen",
    "linearity_r2",
    "load_scenario",
    "operation_table",
    "parse_scenario",
    "reveal_check",
    "ring_sign",
    "ring_verify",
    "run",
    "run_benchmarks",
    "setup",
    "verify_tuple",
]
