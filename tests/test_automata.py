from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from xpay.automata import (
    Automaton,
    Fresh,
    LocalClock,
    Machine,
    ProtocolComplete,
    Receive,
    State,
    StateKind,
    Timeout,
    Transition,
)
from xpay.core import Certificate, ConfigError, Envelope, Money, SigningKey, customer, escrow, sign

rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(1000))
rates = st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3))


def test_identity_clock():
    clock = LocalClock()
    assert clock.local_time(Fraction(5)) == 5


def test_fast_clock_arithmetic():
    clock = LocalClock(rate=Fraction(11, 10))
    assert clock.local_time(Fraction(10)) == 11
    assert clock.real_time_of_deadline(Fraction(11)) == 10


@given(rates, rationals)
def test_clock_round_trip_is_exact(rate, t):
    """Oracle: exact rational inversion, local -> real -> local."""
    clock = LocalClock(rate=rate)
    local = clock.local_time(t)
    assert local == rate * t
    assert clock.real_time_of_deadline(local) == t
    assert clock.local_time(clock.real_time_of_deadline(t)) == t


def test_clock_rejects_nonpositive_rate():
    with pytest.raises(ConfigError):
        LocalClock(rate=Fraction(0))


def _await_automaton():
    """Input state awaiting a certificate from c1, with a timeout over var u."""
    bob = customer(1)
    states = {
        "await": State("await", StateKind.INPUT, (
            Transition("paid", guard=Receive(bob, Certificate), capture="chi"),
            Transition("refunded", guard=Timeout(Fraction(2), var="u")),
        )),
        "paid": State("paid", StateKind.TERMINAL),
        "refunded": State("refunded", StateKind.TERMINAL),
    }
    aut = Automaton(Machine(escrow(0), states, "await"))
    aut.clock_vars["u"] = Fraction(1)
    return aut


def _chi_envelope(instance="pay0"):
    bob = customer(1)
    msg = sign(Certificate(instance), bob, SigningKey(bob))
    return Envelope(bob, escrow(0), msg)


def test_enabled_receive_on_buffered_message():
    aut = _await_automaton()
    aut.inbox.append(_chi_envelope())
    enabled = aut.enabled_transitions(Fraction(1))
    assert len(enabled) == 1
    assert enabled[0][1] is not None


def test_empty_inbox_before_deadline_nothing_enabled():
    aut = _await_automaton()
    assert aut.enabled_transitions(Fraction(2)) == []  # deadline is u+2 = 3


def test_receive_and_timeout_both_listed_at_tie():
    aut = _await_automaton()
    aut.inbox.append(_chi_envelope())
    enabled = aut.enabled_transitions(Fraction(3))
    kinds = {type(tr.guard).__name__ for tr, _ in enabled}
    assert kinds == {"Receive", "Timeout"}


def test_step_consumes_message_and_captures():
    aut = _await_automaton()
    env = _chi_envelope()
    aut.inbox.append(env)
    (tr, matched), = [c for c in aut.enabled_transitions(Fraction(1)) if c[1] is not None]
    emitted = aut.step(tr, Fraction(1), matched)
    assert emitted == []
    assert aut.current == "paid"
    assert aut.inbox == []
    assert aut.captured["chi"] == env.msg


def test_step_assigns_clock_variables_at_local_now():
    e0 = escrow(0)
    states = {
        "out": State("out", StateKind.OUTPUT, (
            Transition("done", assign=("u",), emits=((customer(1), Fresh(Money("pay0", 1))),)),
        )),
        "done": State("done", StateKind.TERMINAL),
    }
    aut = Automaton(Machine(e0, states, "out"), clock=LocalClock(rate=Fraction(2)))
    emitted = aut.step(states["out"].transitions[0], Fraction(3), None)
    assert aut.clock_vars["u"] == 6  # 2 * 3 on the local clock
    assert len(emitted) == 1
    assert emitted[0].dst == customer(1)
    assert emitted[0].msg.signer == e0


def test_stepping_terminal_state_signals_completion():
    aut = _await_automaton()
    aut.current = "paid"
    with pytest.raises(ProtocolComplete):
        aut.step(Transition("paid"), Fraction(0), None)


def test_guard_rejects_wrong_signer_and_wrong_source():
    bob, c1 = customer(1), customer(0)
    guard = Receive(bob, Certificate, signed_by=bob)
    ok = _chi_envelope()
    assert guard.matches(ok)
    impostor = sign(Certificate("pay0"), c1, SigningKey(c1))
    assert not guard.matches(Envelope(bob, escrow(0), impostor))  # wrong payload signer
    assert not guard.matches(Envelope(c1, escrow(0), ok.msg))     # wrong network source


def test_state_validation_catches_malformed_machines():
    with pytest.raises(ConfigError):
        Machine(escrow(0), {"a": State("a", StateKind.OUTPUT, ())}, "a")
    with pytest.raises(ConfigError):
        Machine(escrow(0), {
            "a": State("a", StateKind.INPUT, (Transition("missing", guard=Timeout(Fraction(1))),)),
        }, "a")
    with pytest.raises(ConfigError):
        Machine(escrow(0), {
            "a": State("a", StateKind.TERMINAL, (Transition("a"),)),
        }, "a")


def test_automaton_refuses_foreign_key():
    states = {"a": State("a", StateKind.TERMINAL)}
    with pytest.raises(ConfigError):
        Automaton(Machine(escrow(0), states, "a"), key=SigningKey(customer(0)))
