"""Render differential: the library's trace lines against `oracles.format_lines`.

The library caches two line prefixes, one per instant object and one per
(local-time object, participant), and reads each id's stored string. The
reference formats every line from its entry's fields alone. Both must agree
byte for byte on simulated traces, under seeded and identity clocks, and on
hand-built entries of every record kind whose time objects are shared or
duplicated in every way a cache keyed by object could get wrong.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from conftest import CONFIG_DIR, strong_scenario, weak_scenario
from xpay.cli import load_config, parse_scenario_config
from xpay.core import Certificate, Envelope, Money, SigningKey, customer, escrow, manager, sign
from xpay.explore import battery_assignments
from xpay.simnet import run_simulation
from xpay.trace import Rec, TraceEntry, format_lines

F = Fraction


def _assert_same_lines(entries) -> None:
    want = oracles.format_lines(entries)
    assert format_lines(entries) == want
    assert [e.line() for e in entries] == want


def _shipped_scenarios():
    """Every shipped scenario config as `xpay run` parses it; the battery
    config once per Byzantine assignment `xpay explore` gives it."""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        raw = load_config(str(path))
        battery = raw.get("byzantine") == "battery"
        if battery:
            raw["byzantine"] = {}
        scenario, _ = parse_scenario_config(raw)
        if not battery:
            yield path.stem, scenario
            continue
        for k, assignment in enumerate(battery_assignments(scenario)):
            yield f"{path.stem}-{k}", replace(scenario, byzantine=assignment)


def test_shipped_configs_render_as_the_reference():
    names = []
    for name, scenario in _shipped_scenarios():
        _assert_same_lines(run_simulation(scenario).entries)
        names.append(name)
    assert len(names) > 100  # six configs, the battery's one per assignment


@pytest.mark.parametrize("clock_mode", ["seeded", "identity"])
@pytest.mark.parametrize("variant", ["strong", "weak"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_runs_render_as_the_reference(variant, n, clock_mode):
    build = strong_scenario if variant == "strong" else weak_scenario
    for seed in range(3):
        trace = run_simulation(build(n=n, seed=seed, rho=F(1, 10), clock_mode=clock_mode))
        # an identity clock's local time is the instant's own object
        same = [e.local is e.t for e in trace.entries]
        assert all(same) if clock_mode == "identity" else not any(same)
        _assert_same_lines(trace.entries)


def _every_kind(t, local, other_local):
    """One entry of every record kind at instant `t`: e0 and c1 at `local`,
    m0 at `other_local`."""
    e0, c0, c1, m0 = escrow(0), customer(0), customer(1), manager()
    chi = sign(Certificate("pay0"), c1, SigningKey(c1))
    money = sign(Money("pay0", 1), e0, SigningKey(e0))
    rows = [
        dict(participant=e0, rec=Rec.STATE_ENTERED, state="await_chi"),
        dict(participant=c1, rec=Rec.SENT, env=Envelope(c1, e0, chi)),
        dict(participant=e0, rec=Rec.DELIVERED, env=Envelope(c1, e0, chi), delay=F(1, 2)),
        dict(participant=e0, rec=Rec.REJECTED, env=Envelope(c0, e0, chi), reason="bad_signature"),
        dict(participant=e0, rec=Rec.TRANSFERRED, frm=e0, to=c1, amount=1, phase="sent"),
        dict(participant=m0, rec=Rec.TIMEOUT_FIRED, state="collect", deadline=F(7, 3)),
        dict(participant=c1, rec=Rec.TERMINAL_REACHED, state="paid", discarded=2),
        dict(participant=m0, rec=Rec.IMPOSSIBLE_STEP, reason="insufficient_funds"),
        dict(participant=c1, rec=Rec.SENT, env=Envelope(c1, c0, money)),
    ]
    return [TraceEntry(t=t, seq=k, local=other_local if row["participant"] == m0 else local,
                       **row) for k, row in enumerate(rows)]


def test_hand_built_entries_of_every_kind_render_as_the_reference():
    """Entries of every kind where participants share one local-time object
    (an identity clock's instant, and a drifting one), and where equal times,
    local times, delays and deadlines are distinct objects."""
    t = F(5, 2)
    drifted = F(11, 4)
    identity = _every_kind(t, t, t)
    shared = _every_kind(t, drifted, t)
    fresh = [replace(e, t=F(5, 2), local=F(e.local.numerator, e.local.denominator),
                     delay=e.delay and F(1, 2), deadline=e.deadline and F(7, 3))
             for e in shared]
    later = _every_kind(F(3), drifted, drifted)  # a local time shared across instants
    entries = [replace(e, seq=k) for k, e in enumerate(identity + shared + fresh + later)]
    assert {e.rec for e in entries} == set(Rec)
    _assert_same_lines(entries)
    lines = format_lines(entries)
    assert lines[:2] == [
        "t=5/2 seq=0 p=e0 lt=5/2 ev=STATE_ENTERED state=await_chi",
        "t=5/2 seq=1 p=c1 lt=5/2 ev=SENT dst=e0 msg=X[pay0]@c1/0",
    ]
    assert lines[5] == "t=5/2 seq=5 p=m0 lt=5/2 ev=TIMEOUT_FIRED state=collect deadline=7/3"
    assert lines[len(identity)] == "t=5/2 seq=9 p=e0 lt=11/4 ev=STATE_ENTERED state=await_chi"
    assert lines[-1] == "t=3/1 seq=35 p=c1 lt=11/4 ev=SENT dst=c0 msg=$[pay0,1]@e0/0"
