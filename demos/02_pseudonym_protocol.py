"""The full vehicle protocol: certificates, messages, misbehavior.

Three cars on the 192-bit curve.  Alice mints a pseudonym certificate,
streams messages under it, and the receivers' pipelines judge every
frame: accept, duplicate, sybil, expired, revoked, bad-signature or
no-cert.  A manual clock makes the time-dependent verdicts exact.

    python3 demos/02_pseudonym_protocol.py
"""

import random

from avcs import ManufactoryRegistry, ManualClock, VehicleState, join, setup
from avcs.hardware import leak_master_secret
from avcs.vehicle import reveal_check

rng = random.Random(7)
group_id = "p192"


def main():
    from avcs import get_group

    group = get_group(group_id)
    mk = setup(group, rng=rng, manufactory_id="acme")
    registry = ManufactoryRegistry(group)
    registry.register_master(mk)

    clock = ManualClock(1_000.0)
    names = ["acme:alice", "acme:bob", "acme:carol"]
    modules = {
        n: join(mk, n, registry, rng, clock=clock,
                min_span_time=60.0, supervisor_token="warrant")
        for n in names
    }
    alice = VehicleState(modules["acme:alice"], k=3, ring_size=3)
    bob = VehicleState(modules["acme:bob"])
    carol = VehicleState(modules["acme:carol"])
    # ring members come from overheard ids; seed the buffers directly here
    for veh in (alice, bob, carol):
        for n in names:
            if n != veh.hsm.identity:
                veh.id_buf[n] = None

    print("== alice broadcasts under a pseudonym ==")
    alice.make_pseudonym(validity=120.0, rng=rng)
    payloads = [f"position report {i}".encode() for i in range(4)]
    frames = [f for p in payloads for f in alice.send_next(p)]
    print(f"{len(payloads)} payloads became {len(frames)} frames "
          f"(certificate first, resent every k=3 messages)")
    for frame in frames:
        for viewer in (bob, carol):
            res = viewer.receive(frame, clock.now())
            kind = "cert" if frame[0] == 1 else "msg "
            print(f"  {viewer.hsm.identity} <- {kind}: "
                  f"{'accept' if res.accepted else res.reason}")
        clock.advance(0.5)

    print()
    print("== replays and same-window certificates ==")
    res = bob.receive(frames[0], clock.now())
    print(f"certificate replayed to bob: {res.reason} (harmless, not an attack)")
    alice.make_pseudonym(validity=120.0, rng=rng)
    res = bob.receive(alice.certificate_frame, clock.now())
    print(f"second certificate in the same {modules['acme:alice'].min_span_time:.0f}s "
          f"window: {res.reason} (one pseudonym per window is the rule)")

    print()
    print("== expiry ==")
    clock.advance(300.0)
    res = carol.receive(frames[0], clock.now())
    print(f"original certificate 300s later: {res.reason}")

    print()
    print("== a compromised module ==")
    f = leak_master_secret(modules["acme:carol"])
    print("carol's module is opened up; the extracted secret goes on the rogue list")
    bob.revoke(f)
    carol.make_pseudonym(validity=120.0, rng=rng)
    res = bob.receive(carol.certificate_frame, clock.now())
    print(f"carol's fresh certificate at bob: {res.reason}")
    res = alice.receive(carol.certificate_frame, clock.now())
    print(f"...and at alice, who has no rogue entry yet: "
          f"{'accept' if res.accepted else res.reason}")

    print()
    print("== supervised reveal ==")
    alice.make_pseudonym(validity=120.0, rng=rng)
    cert = alice.current_certificate
    print("a supervisor with the right token asks every module about alice's cert:")
    for n in names:
        answer = modules[n].reveal_respond(cert.C, "warrant", rng)
        print(f"  {n}: {'issuer' if reveal_check(cert, answer, group) else 'not mine'}")


if __name__ == "__main__":
    main()
