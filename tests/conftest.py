from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xpay import Scenario, Synchronous, derive_timeouts, evaluate_all, properties
from xpay.automata import Fresh, Machine, State, StateKind, Transition
from xpay.core import Certificate, Money, customer, escrow
from xpay.protocol import make_strong_participants
from xpay.trace import TimeBase, TraceEntry

CONFIG_DIR = Path(__file__).parent.parent / "configs"


@pytest.fixture
def configs() -> Path:
    return CONFIG_DIR


def strong_scenario(n=1, seed=0, rho=Fraction(0), **kw) -> Scenario:
    defaults = dict(
        variant="strong",
        n=n,
        delay=Synchronous(Fraction(1)),
        pi=Fraction(1, 10),
        rho=rho,
        seed=seed,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def weak_scenario(n=1, seed=0, patience=None, **kw) -> Scenario:
    defaults = dict(
        variant="weak",
        n=n,
        delay=Synchronous(Fraction(1)),
        pi=Fraction(1, 10),
        patience=patience,
        seed=seed,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def verdicts_by_name(trace) -> dict:
    """The trace's `evaluate_all` verdicts, keyed by property name."""
    return {v.name: v for v in evaluate_all(trace)}


def shared_verdicts() -> list:
    """The verdicts `xpay.properties` shares between traces: one object for
    each verdict without a witness."""
    found = [v for v in vars(properties).values() if isinstance(v, properties.Verdict)]
    return found + [v for table in (properties._HOLDS, properties._VACUOUS)
                    for v in table.values()]


def derived(n=1, delta=Fraction(1), pi=Fraction(1, 10), rho=Fraction(0), **kw):
    return derive_timeouts(n, delta, pi, rho, **kw)


def entry_at(t, local, scale=None, **fields) -> TraceEntry:
    """A hand-built trace entry at real time `t` whose participant's clock
    reads `local` there. Its tick and time base are chosen to match: `scale`
    ticks per unit (by default the denominator of `t`) and the clock rate
    local/t (1 at t = 0, where local must be 0). `fields` are the entry's
    other fields, `seq`, `participant` and `rec` among them."""
    t, local = Fraction(t), Fraction(local)
    scale = t.denominator if scale is None else scale
    tick = t * scale
    rate = local / t if t else Fraction(1)
    assert tick.denominator == 1 and (t or not local), (t, local, scale)
    entry = TraceEntry(tick=int(tick), base=TimeBase(scale, rate.numerator, rate.denominator),
                       **fields)
    assert (entry.t, entry.local) == (t, local)
    return entry


def broken_roster(params, pay):
    """The strong n=1 roster with three compliant participants that break the
    protocol: Alice goes terminal right after paying, Bob right after issuing
    his certificate, and the escrow refunds twice."""
    roster = dict(make_strong_participants(params, pay))
    money = Fresh(Money(pay.instance, pay.amount))
    alice, bob, e0 = customer(0), customer(1), escrow(0)

    def rewire(pid, **states):
        machine = roster[pid]
        roster[pid] = Machine(machine.id, {**machine.states, **states}, machine.initial)

    rewire(alice, pay_escrow=State("pay_escrow", StateKind.OUTPUT, (
        Transition("refunded", emits=((e0, money),)),)))
    rewire(bob, issue_certificate=State("issue_certificate", StateKind.OUTPUT, (
        Transition("paid", emits=((e0, Fresh(Certificate(pay.instance))),)),)))
    rewire(e0, resolve_refund=State("resolve_refund", StateKind.OUTPUT, (
        Transition("refund_again", emits=((alice, money),)),)),
        refund_again=State("refund_again", StateKind.OUTPUT, (
            Transition("refunded", emits=((alice, money),)),)))
    return roster
