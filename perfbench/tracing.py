"""Span tracing from outside the program, and the arithmetic on spans.

The tracer replaces public functions and methods of the ``avcs``
modules with wrappers that record one span per call: name, start,
end, parent span and request id.  A request is one call of a
``vehicle`` entry point (receive, make_pseudonym, send_next); every
span opened inside it carries its id.  Nothing inside ``src/avcs``
changes, and uninstalling restores every patched attribute.
"""

from __future__ import annotations

import sys
import time
import weakref

# (module, attribute path): every span name is "<module>.<last part>"
TARGETS = (
    ("groups", "CurveGroup.scalar_mul"),
    ("groups", "CurveGroup.add"),
    ("groups", "CurveGroup.decode_element"),
    ("groups", "CurveGroup.hash_to_group"),
    ("ringsig", "ManufactoryRegistry.extract_pubkey"),
    ("ringsig", "forge_tuple"),
    ("ringsig", "verify_tuple"),
    ("ringsig", "ring_sign"),
    ("ringsig", "ring_verify"),
    ("ringsig", "setup"),
    ("transient", "gen_keypair"),
    ("transient", "sign"),
    ("transient", "verify"),
    ("hardware", "HardwareModule.gen_pseudonym"),
    ("hardware", "HardwareModule.gen_message"),
    ("hardware", "join"),
    ("vehicle", "VehicleState.receive"),
    ("vehicle", "VehicleState.make_pseudonym"),
    ("vehicle", "VehicleState.send_next"),
    ("simnet", "run"),
)

REQUEST_ROOTS = frozenset({"vehicle.receive", "vehicle.make_pseudonym", "vehicle.send_next"})

# span fields
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records spans while ``recording`` is true; see the module docstring.

    Extraction sightings are tracked even while not recording, so ids a
    registry extracted during set-up do not count as first sightings.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.accepted_requests: set[int] = set()
        self.extract_calls = 0
        self.extract_cold = 0
        self._stack: list[int] = []
        self._next_request = 0
        self._seen = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import avcs

        for module_name, path in TARGETS:
            module = sys.modules[f"avcs.{module_name}"]
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            self._patch(owner, attr, wrapper)
            if not owner_path:
                # names bound by ``from .x import f`` elsewhere in the package
                for other in _avcs_modules(avcs):
                    if other is not module and other.__dict__.get(attr) is original:
                        self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- the wrappers ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_root = name in REQUEST_ROOTS
        is_receive = name == "vehicle.receive"
        is_extract = name == "ringsig.extract_pubkey"
        tracer = self

        def wrapper(*args, **kwargs):
            if is_extract:
                tracer._sight(args[0], args[1])
            if not tracer.recording:
                return fn(*args, **kwargs)
            if is_root:
                tracer._next_request += 1
                request = tracer._next_request
            else:
                request = spans[stack[-1]][REQUEST] if stack else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, request]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if is_receive and result.accepted:
                tracer.accepted_requests.add(request)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sight(self, registry, id_str) -> None:
        seen = self._seen.setdefault(registry, set())
        if id_str not in seen:
            seen.add(id_str)
            if self.recording:
                self.extract_cold += 1
        if self.recording:
            self.extract_calls += 1


def _avcs_modules(package):
    prefix = package.__name__ + "."
    yield package
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix) and module is not None:
            yield module


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out: dict[str, list] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        inner = children.get(index)
        covered = covered_length(inner, span[START], span[END]) if inner else 0.0
        row = out.setdefault(span[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
    return out


def useful_share(spans, name: str, accepted_requests) -> float:
    """Share of ``name`` time spent in requests that ended accepted."""
    total = useful = 0.0
    for span in spans:
        if span[NAME] == name:
            duration = span[END] - span[START]
            total += duration
            if span[REQUEST] in accepted_requests:
                useful += duration
    return useful / total if total else 0.0
