"""Shared test fixtures: scripted randomness, stub hashes, toy worlds.

The stubs replace the three hash roles of the signature scheme with
tiny affine maps so transcripts stay hand-computable on the q=23 toy
group.  They are test-only: production code never sees them unless a
test passes them in explicitly.
"""

import random
import sys
from types import SimpleNamespace

from hypothesis import settings

from avcs.groups import ToyGroup
from avcs.hardware import ManualClock, join
from avcs.ringsig import ManufactoryRegistry, setup
from avcs.vehicle import VehicleState

SUPERVISOR_TOKEN = "supervisor-token"

# property tests replay the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def toy_world(n=3, *, q=2147483647, n_bits=256, k=10, ring_size=3, min_span=60.0,
              seed=1, start_time=1000.0, preseed=True):
    """A ready fleet on a toy group sharing one manual clock."""
    group = ToyGroup(q)
    rng = random.Random(seed)
    mk = setup(group, n=n_bits, rng=rng, manufactory_id="m")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)
    clock = ManualClock(start_time)
    vehicles = []
    for i in range(n):
        hsm = join(
            mk, f"m:plate-{i:03d}", registry, rng,
            clock=clock, min_span_time=min_span, supervisor_token=SUPERVISOR_TOKEN,
        )
        vehicles.append(VehicleState(hsm, k=k, ring_size=ring_size))
    if preseed:
        for v in vehicles:
            for other in vehicles:
                if other is not v:
                    v.id_buf[other.hsm.identity] = None
    return SimpleNamespace(
        group=group, mk=mk, registry=registry, clock=clock,
        vehicles=vehicles, rng=rng,
    )


def opcode_trace(module, fn):
    """Run ``fn()`` and return the (function, bytecode offset) of every
    opcode it ran in frames whose code lives in ``module``'s file.

    Opcodes, not lines: a conditional expression or an ``and`` within one
    line shows as the offsets it jumps between.  Frames of other files
    are not traced, so a callee such as ``secrets.randbelow``, whose
    rejection loop varies from run to run, shows as the one call.
    """
    path, trace = module.__file__, []

    def opcodes(frame, event, arg):
        if event == "opcode":
            trace.append((frame.f_code.co_name, frame.f_lasti))
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return opcodes

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return trace


class ScriptedRng:
    """Replays a fixed list of draws, checking each requested range.

    Script entries are ``(value, (start, stop))``; a mismatch between
    the requested ``randrange(start, stop)`` and the scripted bounds
    means the implementation's draw order drifted from the documented
    contract, which is itself a bug.
    """

    def __init__(self, script):
        self._script = list(script)
        self._pos = 0

    def randrange(self, start, stop=None):
        if stop is None:
            start, stop = 0, start
        assert self._pos < len(self._script), "rng script exhausted"
        value, bounds = self._script[self._pos]
        assert bounds == (start, stop), (
            f"draw {self._pos}: expected randrange{bounds}, got randrange({start}, {stop})"
        )
        assert start <= value < stop
        self._pos += 1
        return value

    @property
    def exhausted(self):
        return self._pos == len(self._script)


def stub_h1(group, U):
    """Toy-group stand-in for the tuple hash: U -> (5U + 11) mod q."""
    return (5 * U + 11) % group.q


def stub_chain(group, msg, x):
    """Toy-group stand-in for the ring-equation hash, one byte wide ok."""
    width = 8 * group.scalar_byte_len
    acc = (sum(msg) * 31 + int.from_bytes(x, "big") * 13 + len(msg)) % (2 ** width)
    return acc.to_bytes(group.scalar_byte_len, "big")


def bits_from_map(bits_map):
    """H0 stub: explicit per-id bit vectors (test-only)."""

    def bits_fn(id_str, n):
        bits = bits_map[id_str]
        assert len(bits) == n
        return tuple(bits)

    return bits_fn


def random_bits_fn(seed, n_default=4):
    """H0 stub deriving a stable nonzero bit vector from the id text."""

    def bits_fn(id_str, n):
        rng = random.Random(f"{seed}/{id_str}")
        while True:
            bits = tuple(rng.randrange(2) for _ in range(n))
            if any(bits):
                return bits

    return bits_fn


def chi_square(counts):
    """Pearson's statistic of ``counts`` against the uniform expectation."""
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)
