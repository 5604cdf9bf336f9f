from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from xpay.automata import (
    Automaton,
    Forward,
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
    """Input state awaiting a certificate from c1, entered at 1 from an output
    state, with a timeout of 2 counted from its entry."""
    bob = customer(1)
    states = {
        "open": State("open", StateKind.OUTPUT, (Transition("await"),)),
        "await": State("await", StateKind.INPUT, (
            Transition("paid", guard=Receive(bob, Certificate), capture=True),
            Transition("refunded", guard=Timeout(Fraction(2), from_entry=True)),
        )),
        "paid": State("paid", StateKind.TERMINAL),
        "refunded": State("refunded", StateKind.TERMINAL),
    }
    aut = Automaton(Machine(escrow(0), states, "open"))
    assert aut.step(states["open"].transitions[0], Fraction(1), None) == []
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
    assert aut.captured == env.msg


def test_step_signs_fresh_emissions_and_forwards_the_captured_message():
    """A Fresh emission is signed with the automaton's own key; a Forward
    relays the message the last capturing transition consumed, verbatim."""
    e0, c0, c1 = escrow(0), customer(0), customer(1)
    states = {
        "await": State("await", StateKind.INPUT, (
            Transition("out", guard=Receive(c1, Certificate), capture=True),)),
        "out": State("out", StateKind.OUTPUT, (
            Transition("done", emits=((c1, Fresh(Money("pay0", 1))), (c0, Forward()))),
        )),
        "done": State("done", StateKind.TERMINAL),
    }
    aut = Automaton(Machine(e0, states, "await"))
    assert aut.captured is None
    env = _chi_envelope()
    aut.inbox.append(env)
    aut.step(states["await"].transitions[0], Fraction(1), env)
    fresh, relayed = aut.step(states["out"].transitions[0], Fraction(3), None)
    assert (fresh.src, fresh.dst, fresh.msg.signer) == (e0, c1, e0)
    assert (relayed.src, relayed.dst, relayed.msg) == (e0, c0, env.msg)


def test_a_deadline_is_its_length_past_entry_or_past_time_zero_on_the_axis():
    """Without `lengths` a timeout lasts its delay: counted from entry, a
    delay of 2 entered at 3 falls due at 5. Handed a length of 10 ticks for
    it (a clock of rate 2 on an axis of 10 ticks per unit), entered at tick
    30 it falls due at tick 40, an int. A timeout counted from time zero
    falls due at its length wherever its state is entered. `due` is worked
    out on entering each state."""
    delay = Fraction(2)
    due = []
    for from_entry in (True, False):
        states = {
            "out": State("out", StateKind.OUTPUT, (Transition("wait"),)),
            "wait": State("wait", StateKind.INPUT, (
                Transition("done", guard=Timeout(delay, from_entry=from_entry)),)),
            "done": State("done", StateKind.TERMINAL),
        }
        for lengths, now in ((None, Fraction(3)), ({"wait": 10}, 30)):
            aut = Automaton(Machine(escrow(0), states, "out"), lengths=lengths)
            assert aut.due is None
            aut.step(states["out"].transitions[0], now, None)
            due.append(aut.due)
            if due[-1] > now:
                assert aut.enabled_transitions(due[-1] - 1) == []
            fire = max(due[-1], now)  # counted from time zero, it is due on entry
            (tr, _), = aut.enabled_transitions(fire)
            aut.step(tr, fire, None)
            assert aut.current == "done" and aut.due is None
    assert due == [5, 40, 2, 10] and type(due[1]) is int


def test_an_automaton_holds_its_state_object():
    """`state` is a plain attribute holding the current `State` of the
    machine's table, the initial one unless another is given; `current` reads
    its name."""
    assert not isinstance(inspect.getattr_static(Automaton, "state"), property)
    machine = _await_automaton().machine
    states = machine.states
    assert Automaton(machine).state is states[machine.initial]
    aut = Automaton(machine, state=states["paid"])
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


FAST_FIRE_ROSTERS = ([("strong", n, None) for n in (1, 2, 3)]
                     + [("weak", n, patience) for n in (1, 2)
                        for patience in (None, Fraction(0), Fraction(3))])


@pytest.mark.parametrize("variant, n, patience", FAST_FIRE_ROSTERS,
                         ids=[f"{v}-{n}-{p}" for v, n, p in FAST_FIRE_ROSTERS])
def test_an_empty_inbox_enables_nothing_before_the_deadline(variant, n, patience):
    """`enabled_transitions` returns at once when the inbox is empty and no
    deadline is due. For every state of the shipped definitions (the weak
    manager's after a run has built its collect states), entered at tick 0
    and, if its timeout counts from entry, at tick 7: with an empty inbox
    nothing is enabled before `due`, and nothing at all when `due` is None.
    At `due` the timeout alone is enabled."""
    if variant == "strong":
        scenario = strong_scenario(n=n, rho=Fraction(1, 10), clock_mode="seeded")
    else:
        scenario = weak_scenario(n=n, rho=Fraction(1, 10), clock_mode="seeded",
                                 patience=(patience,) * (n + 1))
    sim = _Sim(scenario)
    sim.run()
    dues = []
    for aut in sim.automata.values():
        for st in aut.machine.states.values():
            from_entry = st.timeout is not None and st.timeout.guard.from_entry
            for entered in (0, 7) if from_entry else (0,):
                probe = Automaton(aut.machine, lengths=aut.lengths, state=st)
                probe._arm(entered)
                due = probe.due
                dues.append(due)
                if due is None:
                    for now in (0, 1, 7, 10**30):
                        assert probe.enabled_transitions(now) == [], st.name
                    continue
                for now in (0, 1, due // 2, due - 1):
                    if 0 <= now < due:
                        assert probe.enabled_transitions(now) == [], (st.name, now)
                assert probe.enabled_transitions(due) == [(st.timeout, None)], st.name
    assert None in dues
    # only a weak roster of unbounded patience has no timeout at all
    assert any(due is not None for due in dues) is (variant == "strong" or patience is not None)
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


_END = State("b", StateKind.TERMINAL)
_TIMEOUT = Transition("b", guard=Timeout(Fraction(1)))


@pytest.mark.parametrize("states, initial, message", [
    ({"a": State("a", StateKind.INPUT, ()), "b": _END}, "a",
     "input state 'a' needs guarded transitions only"),
    ({"a": State("a", StateKind.INPUT, (_TIMEOUT, Transition("b"))), "b": _END}, "a",
     "input state 'a' needs guarded transitions only"),
    ({"a": State("a", StateKind.INPUT, (_TIMEOUT, _TIMEOUT)), "b": _END}, "a",
     "input state 'a' has more than one timeout guard"),
    ({"b": _END}, "a", "initial state 'a' is not defined"),
], ids=["input-without-transitions", "input-unguarded", "two-timeouts", "initial-undefined"])
def test_each_malformed_definition_is_refused_naming_its_rule(states, initial, message):
    with pytest.raises(ConfigError) as refused:
        Machine(escrow(0), states, initial)
    assert str(refused.value) == message


def test_automaton_refuses_foreign_key():
    states = {"a": State("a", StateKind.TERMINAL)}
    with pytest.raises(ConfigError):
        Automaton(Machine(escrow(0), states, "a"), key=SigningKey(customer(0)))
