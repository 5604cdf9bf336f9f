from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from xpay.automata import (
    Automaton,
    Fresh,
    Machine,
    ProtocolComplete,
    Receive,
    State,
    StateKind,
    Timeout,
    Transition,
)
from xpay.core import (
    Certificate, ConfigError, Envelope, Money, SigningKey, customer, escrow, manager, sign)
from xpay.simnet import _Sim

from conftest import strong_scenario, weak_scenario

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
    return Automaton(Machine(escrow(0), states, "await"), clock_vars={"u": Fraction(1)})


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
    aut = Automaton(Machine(e0, states, "out"))
    emitted = aut.step(states["out"].transitions[0], Fraction(3), None)
    assert aut.clock_vars["u"] == 3  # the instant it was set
    assert len(emitted) == 1
    assert emitted[0].dst == customer(1)
    assert emitted[0].msg.signer == e0


def test_a_deadline_is_the_set_instant_plus_the_timeout_length_on_the_axis():
    """Without `lengths` a timeout lasts its delay: set at 3, a delay of 2
    falls due at 5. Handed a length of 10 ticks for it (a clock of rate 2 on
    an axis of 10 ticks per unit), set at tick 30 it falls due at tick 40, an
    int. `due` is worked out on entering each state."""
    delay = Fraction(2)
    states = {
        "out": State("out", StateKind.OUTPUT, (Transition("wait", assign=("u",)),)),
        "wait": State("wait", StateKind.INPUT, (
            Transition("done", guard=Timeout(delay, var="u")),)),
        "done": State("done", StateKind.TERMINAL),
    }
    due = []
    for lengths, now in ((None, Fraction(3)), ({id(delay): 10}, 30)):
        aut = Automaton(Machine(escrow(0), states, "out"), lengths=lengths)
        assert aut.due is None
        aut.step(states["out"].transitions[0], now, None)
        assert aut.clock_vars["u"] == now
        due.append(aut.due)
        assert aut.enabled_transitions(due[-1] - 1) == []
        (tr, _), = aut.enabled_transitions(due[-1])
        aut.step(tr, due[-1], None)
        assert aut.current == "done" and aut.due is None
    assert due == [5, 40] and type(due[1]) is int


def test_an_automaton_holds_its_state_object():
    """`state` is a plain attribute holding the current `State` of the
    machine's table, the initial one unless another is given; `current` reads
    its name."""
    assert not isinstance(inspect.getattr_static(Automaton, "state"), property)
    aut = _await_automaton()
    states = aut.machine.states
    assert aut.state is states[aut.machine.initial]
    aut = Automaton(aut.machine, state=states["paid"])
    assert aut.state is states["paid"] and aut.current == "paid"


@pytest.mark.parametrize("variant, n", [("strong", n) for n in (1, 2, 3, 4)]
                         + [("weak", n) for n in (1, 2, 3)])
def test_each_state_holds_the_receive_table_and_timeout_of_a_scan(variant, n):
    """`State.receives` and `State.timeout`, worked out when a state is
    defined, are what a scan of its transitions finds, for every state of the
    shipped rosters; the weak manager's collect states are looked at after a
    run has built the ones it entered. Weak customers get a finite patience,
    so that their states have timeouts too."""
    if variant == "strong":
        scenario = strong_scenario(n=n, rho=Fraction(1, 10), clock_mode="seeded")
    else:
        scenario = weak_scenario(n=n, patience=(Fraction(10),) * (n + 1))
    sim = _Sim(scenario)
    sim.run()
    states = [st for aut in sim.automata.values() for st in aut.machine.states.values()]
    for st in states:
        assert st.receives == tuple(tr for tr in st.transitions
                                    if isinstance(tr.guard, Receive)), st.name
        timeouts = [tr for tr in st.transitions if isinstance(tr.guard, Timeout)]
        assert st.timeout is (timeouts[0] if timeouts else None), st.name
    assert any(st.receives for st in states) and any(st.timeout for st in states)
    if variant == "weak":
        assert any(name.startswith("collect_")
                   for name in sim.automata[manager()].machine.states)


def test_stepping_terminal_state_signals_completion():
    machine = _await_automaton().machine
    aut = Automaton(machine, state=machine.states["paid"])
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
    with pytest.raises(ConfigError, match="input state 'a' sends: only output states send"):
        Machine(escrow(0), {
            "a": State("a", StateKind.INPUT, (
                Transition("b", guard=Timeout(Fraction(1)),
                           emits=((customer(0), Fresh(Money("pay0", 1))),)),)),
            "b": State("b", StateKind.TERMINAL),
        }, "a")


def test_automaton_refuses_foreign_key():
    states = {"a": State("a", StateKind.TERMINAL)}
    with pytest.raises(ConfigError):
        Automaton(Machine(escrow(0), states, "a"), key=SigningKey(customer(0)))
