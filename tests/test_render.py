"""Render differential: the library's trace lines against `oracles.format_lines`.

The library formats an entry's times from its tick and time base, makes the
instant's prefix when the instant changes, reuses the previous line's
participant prefix while the participant and its time base object stay the
same, and otherwise keeps each participant's prefix in a dict that each
instant starts afresh, keyed by participant and checked against the time base
object. The reference reads every time as a Fraction
and formats every line from its entry's fields alone. Both must agree byte for
byte on simulated traces, under seeded and identity clocks and at time scales
of about 10^21, and on hand-built entries of every record kind whose times are
shared or repeated in every way such caches could get wrong.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from conftest import CONFIG_DIR, entry_at, strong_scenario, weak_scenario
from xpay.cli import load_config, parse_scenario_config
from xpay.core import (
    Certificate, Envelope, Money, SignedMessage, SigningKey, customer, escrow, fmt_fraction,
    manager, sign)
from xpay.explore import battery_assignments
from xpay.simnet import run_simulation
from xpay.trace import Rec, TimeBase, TraceEntry, format_lines

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


# (n, variant, clock mode, seeds); the strong n=32 seeded runs have time
# scales of about 10^21, so their ticks and gcds are multi-limb ints
RENDERED_RUNS = [(n, variant, clock_mode, range(3))
                 for clock_mode in ("seeded", "identity")
                 for variant in ("strong", "weak")
                 for n in (1, 2, 3, 4)] + [(32, "strong", "seeded", range(2))]


@pytest.mark.parametrize("n, variant, clock_mode, seeds", RENDERED_RUNS,
                         ids=[f"{n}-{variant}-{mode}" for n, variant, mode, _ in RENDERED_RUNS])
def test_runs_render_as_the_reference(n, variant, clock_mode, seeds):
    build = strong_scenario if variant == "strong" else weak_scenario
    for seed in seeds:
        trace = run_simulation(build(n=n, seed=seed, rho=F(1, 10), clock_mode=clock_mode))
        if n == 32:
            assert trace.entries[0].base.scale > 10**20
        _assert_same_lines(trace.entries)


def _every_kind(t, local, other_local, scale=None):
    """One entry of every record kind at instant `t`: e0 and c1 at `local`,
    m0 at `other_local`, each with a time base of its own at `scale` ticks
    per unit (see `conftest.entry_at`)."""
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
    return [entry_at(t, other_local if row["participant"] == m0 else local, scale, seq=k, **row)
            for k, row in enumerate(rows)]


def test_hand_built_entries_of_every_kind_render_as_the_reference():
    """Entries of every kind where participants share one local time (an
    identity clock's instant, and a drifting one) under equal time bases,
    where equal times sit at another scale, one tick names two instants at
    two scales, equal delays and deadlines are distinct objects (each call of
    `_every_kind` makes its own), and one local time is shared across
    instants."""
    t = F(5, 2)
    drifted = F(11, 4)
    identity = _every_kind(t, t, t)
    shared = _every_kind(t, drifted, t)
    rescaled = _every_kind(t, drifted, t, scale=12)  # tick 30
    other = _every_kind(F(5, 4), F(3, 2), F(1), scale=24)  # tick 30 again
    later = _every_kind(F(3), drifted, drifted)  # a local time shared across instants
    entries = [replace(e, seq=k)
               for k, e in enumerate(identity + shared + rescaled + other + later)]
    assert {e.rec for e in entries} == set(Rec)
    _assert_same_lines(entries)
    lines = format_lines(entries)
    assert lines[:2] == [
        "t=5/2 seq=0 p=e0 lt=5/2 ev=STATE_ENTERED state=await_chi",
        "t=5/2 seq=1 p=c1 lt=5/2 ev=SENT dst=e0 msg=X[pay0]@c1/0",
    ]
    assert lines[5] == "t=5/2 seq=5 p=m0 lt=5/2 ev=TIMEOUT_FIRED state=collect deadline=7/3"
    assert lines[len(identity)] == "t=5/2 seq=9 p=e0 lt=11/4 ev=STATE_ENTERED state=await_chi"
    assert lines[3 * len(identity)] == (
        "t=5/4 seq=27 p=e0 lt=3/2 ev=STATE_ENTERED state=await_chi")
    assert lines[-1] == "t=3/1 seq=44 p=c1 lt=11/4 ev=SENT dst=c0 msg=$[pay0,1]@e0/0"


def test_participants_sharing_one_time_base_object_keep_their_own_prefixes():
    """A prefix is reused for the next line only while both its participant
    and its time base object stay the same. Here e0 and c1 hold one and the
    same `TimeBase` object and alternate within an instant (e0, c1, e0), e0's
    time base object changes within the instant (to another rate and back),
    and so does c1's (to an equal but distinct object); the next instant
    starts afresh."""
    e0, c1 = escrow(0), customer(1)
    shared = TimeBase(10, 1, 1)
    drifted = TimeBase(10, 11, 10)
    rows = [(25, e0, shared), (25, c1, shared), (25, e0, shared), (25, e0, drifted),
            (25, e0, drifted), (25, e0, shared), (25, c1, TimeBase(10, 1, 1)), (25, c1, shared),
            (26, c1, shared), (26, e0, shared)]
    entries = [TraceEntry(tick, k, p, base, Rec.STATE_ENTERED, state="s")
               for k, (tick, p, base) in enumerate(rows)]
    _assert_same_lines(entries)
    assert [line.split(" ev=")[0] for line in format_lines(entries)] == [
        "t=5/2 seq=0 p=e0 lt=5/2",
        "t=5/2 seq=1 p=c1 lt=5/2",
        "t=5/2 seq=2 p=e0 lt=5/2",
        "t=5/2 seq=3 p=e0 lt=11/4",
        "t=5/2 seq=4 p=e0 lt=11/4",
        "t=5/2 seq=5 p=e0 lt=5/2",
        "t=5/2 seq=6 p=c1 lt=5/2",
        "t=5/2 seq=7 p=c1 lt=5/2",
        "t=13/5 seq=8 p=c1 lt=13/5",
        "t=13/5 seq=9 p=e0 lt=13/5",
    ]


def test_each_message_token_and_time_is_formatted_once_per_object():
    """Over a strong n=8 render, `format_lines` calls `SignedMessage.token`
    once per distinct message object and `fmt_fraction` once per distinct
    delay or deadline object, counted with a profile hook on the calls it
    makes itself."""
    trace = run_simulation(strong_scenario(n=8, seed=0, rho=F(1, 10), clock_mode="seeded"))
    watched = {SignedMessage.token.__code__: "token", fmt_fraction.__code__: "fmt"}
    caller = format_lines.__code__
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched and frame.f_back.f_code is caller:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        text = trace.render()
    finally:
        sys.setprofile(None)
    entries = trace.entries
    messages = {id(e.env.msg) for e in entries if e.env is not None}
    times = {id(x) for e in entries for x in (e.delay, e.deadline) if x is not None}
    assert text.count("\n") > len(entries) > len(messages) > 20
    assert calls == {"token": len(messages), "fmt": len(times)}
