from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import xpay
from conftest import derived, strong_scenario, weak_scenario
from oracles import eager_manager_states
from xpay.simnet import StrategySpec
from xpay.automata import Automaton, State, StateKind, Timeout, Transition
from xpay.core import (
    AbortReq,
    Certificate,
    CommitReq,
    ConfigError,
    Envelope,
    LockNotice,
    Promise,
    SigningKey,
    customer,
    escrow,
    manager,
    sign,
)
from xpay.protocol import (
    PaymentInstance,
    TimingParams,
    make_alice,
    make_bob,
    make_connector,
    make_escrow,
    make_strong_participants,
    make_transaction_manager,
    make_weak_participants,
    _CollectStates,
)
from xpay.properties import evaluate_all
from xpay.simnet import Scripted, _Sim, run_simulation
from xpay.trace import Rec


PAY1 = PaymentInstance("pay0", 1, 1)


def test_timing_params_invariants():
    with pytest.raises(ConfigError):
        TimingParams(1, (Fraction(2),), (Fraction(1),), Fraction(0), Fraction(0),
                     Fraction(1), Fraction(0))  # d < a
    with pytest.raises(ConfigError):
        TimingParams(2, (Fraction(2),), (Fraction(2),), Fraction(0), Fraction(0),
                     Fraction(1), Fraction(0))  # wrong arity


@pytest.mark.parametrize("args, message", [
    (("pay0", True, 1), "hop count must be an integer"),
    (("pay0", 1.0, 1), "hop count must be an integer"),
    (("pay0", 0, 1), "hop count must be at least 1"),
    (("pay0", 1, True), "amount must be an integer"),
    (("pay0", 1, 0), "amount must be at least 1"),
], ids=["hops-bool", "hops-float", "hops-zero", "amount-bool", "amount-zero"])
def test_a_payment_instance_takes_counts_only(args, message):
    with pytest.raises(ConfigError) as refused:
        PaymentInstance(*args)
    assert str(refused.value) == message


# Asks for strong rosters with a bool hop count (refused), then prints the
# render of a strong n=1 run. It runs in a process of its own, so that the
# memos start empty, as in any fresh process.
_RENDER_AFTER_BOOL_HOPS = """
import sys
from fractions import Fraction as F
from xpay.core import ConfigError
from xpay.protocol import PaymentInstance, make_strong_participants
from xpay.simnet import Scenario, Synchronous, run_simulation
from xpay.timing import derive_timeouts
builds = (lambda: make_strong_participants(derive_timeouts(True, 1, F(1, 10), 0),
                                           PaymentInstance("pay0", True, 1)),
          lambda: make_strong_participants(derive_timeouts(1, 1, F(1, 10), 0),
                                           PaymentInstance("pay0", True, 1)))
for build in builds if sys.argv[1] == "bool" else ():
    try:
        build()
    except ConfigError:
        pass
sys.stdout.write(run_simulation(Scenario("strong", 1, Synchronous(F(1)), F(1, 10))).render())
"""


def test_a_bool_hop_count_leaves_no_entry_a_later_run_reads():
    """`True` equals 1 and hashes like it, so an entry made for it would be
    found by every later n=1 call: Bob would render as cTrue."""
    env = {**os.environ, "PYTHONPATH": str(Path(xpay.__file__).parent.parent)}

    def render(*argv):
        return subprocess.run([sys.executable, "-c", _RENDER_AFTER_BOOL_HOPS, *argv],
                              check=True, capture_output=True, text=True, env=env).stdout

    after = render("bool")
    assert "cTrue" not in after
    assert after == render("fresh")


def test_escrow_has_exactly_two_terminal_states():
    aut = make_escrow(0, derived(1), PAY1)
    terminals = [s for s in aut.states.values() if s.kind is StateKind.TERMINAL]
    assert sorted(s.name for s in terminals) == ["paid_out", "refunded"]


def test_escrow_index_out_of_range():
    with pytest.raises(ConfigError):
        make_escrow(1, derived(1), PAY1)
    with pytest.raises(ConfigError):
        make_connector(1, derived(1), PAY1)  # n=1 has no connectors


def test_smallest_topology_escrow_talks_only_to_alice_and_bob():
    aut = make_escrow(0, derived(1), PAY1)
    peers = set()
    for st in aut.states.values():
        for tr in st.transitions:
            if tr.guard is not None and hasattr(tr.guard, "sender"):
                peers.add(tr.guard.sender)
            for recipient, _ in tr.emits:
                peers.add(recipient)
    assert peers == {customer(0), customer(1)}


def test_alice_cannot_pay_before_guarantee():
    """Structural: the only path to the paying state goes through the guarantee receive."""
    aut = make_alice(derived(1), PAY1)
    assert aut.initial == "await_guarantee"
    first = aut.states["await_guarantee"]
    assert first.kind is StateKind.INPUT
    assert all(tr.target == "pay_escrow" for tr in first.transitions)
    # no transition anywhere else reaches pay_escrow
    other_sources = [
        st.name for st in aut.states.values()
        for tr in st.transitions
        if tr.target == "pay_escrow" and st.name != "await_guarantee"
    ]
    assert other_sources == []


def test_bob_issues_certificate_at_most_once():
    """Structural: one send state, not re-enterable."""
    aut = make_bob(derived(1), PAY1)
    issue_sources = [
        st.name for st in aut.states.values()
        for tr in st.transitions if tr.target == "issue_certificate"
    ]
    assert issue_sources == ["await_promise"]
    re_entries = [
        st.name for st in aut.states.values()
        for tr in st.transitions if tr.target == "await_promise"
    ]
    assert re_entries == []


def test_escrow_timeout_guard_references_promise_issue_time():
    """The window counts from the entry to await_certificate, and the one way
    in is the send of the promise: so it counts from the promise's issue."""
    aut = make_escrow(0, derived(1), PAY1)
    guards = [tr.guard for tr in aut.states["await_certificate"].transitions
              if isinstance(tr.guard, Timeout)]
    assert len(guards) == 1
    assert guards[0].from_entry
    assert guards[0].delay == derived(1).a[0]
    ways_in = [(st.name, [type(spec.payload) for _, spec in tr.emits])
               for st in aut.states.values() for tr in st.transitions
               if tr.target == "await_certificate"]
    assert ways_in == [("send_promise", [Promise])]


def test_roster_covers_topology():
    params = derived(3)
    pay = PaymentInstance("pay0", 3, 1)
    roster = make_strong_participants(params, pay)
    assert set(roster) == {escrow(0), escrow(1), escrow(2),
                           customer(0), customer(1), customer(2), customer(3)}


def test_connector_buffers_out_of_order_promises():
    """Promises arriving in the opposite wire order change nothing. Oracle:
    scripted runs forcing each arrival order end in identical terminals."""
    outcomes = []
    for promise_delay in (Fraction(1, 4), Fraction(1)):
        sc = strong_scenario(
            n=2,
            delay=Scripted(default=Fraction(1, 2), delta=Fraction(1), rules=(
                # vary only the arrival of P(a_0) at the connector
                _promise_rule(promise_delay),
            )),
            timing=derived(2),
        )
        trace = run_simulation(sc)
        outcomes.append({
            str(p): trace.terminal_entry(p)[1].state
            for p in trace.participants() if trace.terminal_entry(p)
        })
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["c1"] == "paid"


def _promise_rule(delay):
    from xpay.simnet import ScriptRule
    return ScriptRule(delay=delay, src=escrow(0), dst=customer(1), payload="promise")


# ---------------------------------------------------------------- weak roster

def test_weak_roster_patience_validation():
    params = derived(1)
    with pytest.raises(ConfigError):
        make_weak_participants(params, PAY1, patience=[None])  # needs n+1 entries
    with pytest.raises(ConfigError):
        make_weak_participants(params, PAY1, patience=[Fraction(-1), None])


def test_weak_roster_shape():
    params = derived(2)
    pay = PaymentInstance("pay0", 2, 1)
    roster = make_weak_participants(params, pay, patience=[None, None, None])
    assert set(roster) == {escrow(0), escrow(1), customer(0), customer(1), customer(2)}
    # depositors pay their own escrow; the last escrow also notifies Bob
    e1 = roster[escrow(1)]
    lock_emits = e1.states["notify_lock"].transitions[0].emits
    assert {r for r, _ in lock_emits} == {manager(), customer(2)}
    e0 = roster[escrow(0)]
    lock_emits0 = e0.states["notify_lock"].transitions[0].emits
    assert {r for r, _ in lock_emits0} == {manager()}


def test_weak_rosters_share_the_escrows_across_patience_vectors():
    params = derived(2)
    pay = PaymentInstance("pay0", 2, 1)
    patient = make_weak_participants(params, pay, patience=[None, None, None])
    hasty = make_weak_participants(params, pay, patience=[Fraction(1), Fraction(2), Fraction(3)])
    assert patient is not hasty
    for i in range(2):
        assert hasty[escrow(i)] is patient[escrow(i)]
    assert hasty[customer(0)] is not patient[customer(0)]


@pytest.mark.parametrize("variant", ["strong", "weak"])
def test_a_roster_refuses_timing_for_another_hop_count(variant):
    """Timing for n = 2 with a payment instance for n = 1 or 3 is refused,
    not built into a roster with Bob over a connector or a customer missing."""
    params = derived(2)
    for hops in (1, 3):
        pay = PaymentInstance("pay0", hops, 1)
        with pytest.raises(ConfigError, match=f"timing is for n=2, the payment instance for n={hops}"):
            if variant == "strong":
                make_strong_participants(params, pay)
            else:
                make_weak_participants(params, pay, [None] * 3)


SINGLE_ROLES = {
    "escrow": lambda params, pay: make_escrow(0, params, pay),
    "alice": make_alice,
    "connector": lambda params, pay: make_connector(1, params, pay),
    "bob": make_bob,
}


@pytest.mark.parametrize("role", SINGLE_ROLES)
def test_a_single_role_refuses_timing_for_another_hop_count(role):
    """Each public single-role factory refuses timing for n = 2 with a
    payment instance for n = 1 or 3, as the roster builders do: no Bob keyed
    c2 whose guards expect the signer c1, no escrow for a hop the payment
    does not have."""
    params = derived(2)
    assert SINGLE_ROLES[role](params, PaymentInstance("pay0", 2, 1)).states
    for hops in (1, 3):
        pay = PaymentInstance("pay0", hops, 1)
        with pytest.raises(ConfigError, match=f"timing is for n=2, the payment instance for n={hops}"):
            SINGLE_ROLES[role](params, pay)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_state_of_every_definition_is_reachable(n):
    """Each state of each strong and weak definition, the manager's included,
    is reached from its initial state by following transitions, with every
    patience unbounded and with every patience finite: a shared step adds no
    state its role never enters."""
    params = derived(n)
    pay = PaymentInstance("pay0", n, 1)
    rosters = {"strong": make_strong_participants(params, pay)}
    for patience in (None, Fraction(3)):
        rosters[f"weak patience={patience}"] = {
            **make_weak_participants(params, pay, [patience] * (n + 1)),
            manager(): make_transaction_manager(pay)}
    for label, roster in rosters.items():
        for pid, machine in roster.items():
            seen, frontier = set(), [machine.initial]
            while frontier:
                name = frontier.pop()
                if name not in seen:
                    seen.add(name)
                    frontier.extend(tr.target for tr in machine.states[name].transitions)
            assert seen == set(machine.states), (label, pid, set(machine.states) - seen)


def test_weak_customer_without_patience_has_no_timeout():
    params = derived(1)
    roster = make_weak_participants(params, PAY1, patience=[None, None])
    alice = roster[customer(0)]
    for st in alice.states.values():
        assert not any(isinstance(tr.guard, Timeout) for tr in st.transitions)
    roster2 = make_weak_participants(params, PAY1, patience=[Fraction(3), None])
    alice2 = roster2[customer(0)]
    assert any(isinstance(tr.guard, Timeout)
               for st in alice2.states.values() for tr in st.transitions)


# ------------------------------------------------------------ transaction manager

def _tm_feed(n=1):
    pay = PaymentInstance("pay0", n, 1)
    tm = Automaton(make_transaction_manager(pay))
    ids = [escrow(i) for i in range(n)] + [customer(i) for i in range(n + 1)] + [manager()]
    keys = {p: SigningKey(p) for p in ids}
    return pay, tm, keys


def _deliver_and_fire(aut, env, t=Fraction(0)):
    aut.inbox.append(env)
    fired = []
    while aut.state.kind is StateKind.INPUT:
        enabled = aut.enabled_transitions(t)
        if not enabled:
            break
        tr, matched = enabled[0]
        fired.extend(aut.step(tr, t, matched))
        # drive through output states immediately (no dwell in this desk test)
        while aut.state.kind is StateKind.OUTPUT:
            fired.extend(aut.step(aut.state.transitions[0], t, None))
    return fired


def test_tm_commits_once_locks_and_certificate_present():
    pay, tm, keys = _tm_feed(1)
    bob = customer(1)
    lock = sign(LockNotice("pay0", 0), escrow(0), keys[escrow(0)])
    chi = sign(Certificate("pay0"), bob, keys[bob])
    creq = sign(CommitReq("pay0", chi), bob, keys[bob])
    _deliver_and_fire(tm, Envelope(escrow(0), manager(), lock))
    emitted = _deliver_and_fire(tm, Envelope(bob, manager(), creq))
    kinds = {type(e.msg.payload).__name__ for e in emitted}
    assert kinds == {"CommitCert"}
    assert {e.dst for e in emitted} == {escrow(0), customer(0), customer(1)}
    assert tm.current == "decided_commit"


def test_tm_aborts_before_last_lock_and_answers_late_commit():
    pay, tm, keys = _tm_feed(1)
    bob = customer(1)
    abort = sign(AbortReq("pay0"), customer(0), keys[customer(0)])
    emitted = _deliver_and_fire(tm, Envelope(customer(0), manager(), abort))
    assert {type(e.msg.payload).__name__ for e in emitted} == {"AbortCert"}
    assert tm.current == "decided_abort"
    # a commit request arriving after the decision gets the recorded decision
    chi = sign(Certificate("pay0"), bob, keys[bob])
    creq = sign(CommitReq("pay0", chi), bob, keys[bob])
    late = _deliver_and_fire(tm, Envelope(bob, manager(), creq))
    assert [type(e.msg.payload).__name__ for e in late] == ["AbortCert"]
    assert late[0].dst == bob
    assert tm.current == "decided_abort"


def test_tm_reanswers_abort_after_commit():
    pay, tm, keys = _tm_feed(1)
    bob = customer(1)
    lock = sign(LockNotice("pay0", 0), escrow(0), keys[escrow(0)])
    chi = sign(Certificate("pay0"), bob, keys[bob])
    creq = sign(CommitReq("pay0", chi), bob, keys[bob])
    _deliver_and_fire(tm, Envelope(escrow(0), manager(), lock))
    _deliver_and_fire(tm, Envelope(bob, manager(), creq))
    abort = sign(AbortReq("pay0"), customer(0), keys[customer(0)])
    answered = _deliver_and_fire(tm, Envelope(customer(0), manager(), abort))
    assert [type(e.msg.payload).__name__ for e in answered] == ["CommitCert"]
    assert answered[0].dst == customer(0)


def test_tm_simultaneous_commit_and_abort_both_orders():
    """Both requests buffered at the same instant: the scheduler's order picks
    the decision, and either order yields exactly one certificate kind."""
    decisions = {}
    for flip in (False, True):
        pay, tm, keys = _tm_feed(1)
        bob = customer(1)
        lock = sign(LockNotice("pay0", 0), escrow(0), keys[escrow(0)])
        _deliver_and_fire(tm, Envelope(escrow(0), manager(), lock))
        chi = sign(Certificate("pay0"), bob, keys[bob])
        creq = sign(CommitReq("pay0", chi), bob, keys[bob])
        abort = sign(AbortReq("pay0"), customer(0), keys[customer(0)])
        tm.inbox.append(Envelope(bob, manager(), creq))
        tm.inbox.append(Envelope(customer(0), manager(), abort))
        enabled = tm.enabled_transitions(Fraction(0))
        assert len(enabled) == 2  # a real scheduler choice
        tr, matched = enabled[-1] if flip else enabled[0]
        emitted = tm.step(tr, Fraction(0), matched)
        while tm.state.kind is StateKind.OUTPUT:
            emitted = tm.step(tm.state.transitions[0], Fraction(0), None)
        kinds = {type(e.msg.payload).__name__ for e in emitted}
        assert len(kinds) == 1
        decisions[flip] = kinds.pop()
    assert decisions == {False: "CommitCert", True: "AbortCert"}


def _same_guard(got, want, probes) -> bool:
    """Receive guards agree field by field; a `where` hook is a closure, so it
    is compared by its answers on `probes` instead."""
    if (got.where is None) != (want.where is None):
        return False
    if got.where is not None and any(got.where(p) != want.where(p) for p in probes):
        return False
    return replace(got, where=None) == replace(want, where=None)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tm_matches_the_eager_reference_state_by_state(n):
    pay = PaymentInstance("pay0", n, 1)
    tm = make_transaction_manager(pay)
    reference = eager_manager_states(n, pay)
    bob, c0 = customer(n), customer(0)
    probes = [CommitReq("pay0", sign(Certificate("pay0"), bob, SigningKey(bob))),
              CommitReq("pay0", sign(Certificate("pay0"), c0, SigningKey(c0))),
              CommitReq("pay0", sign(Certificate("other"), bob, SigningKey(bob)))]
    seen = set()
    frontier = [tm.initial]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        got, want = tm.states[name], reference[name]
        assert (got.name, got.kind) == (want.name, want.kind)
        assert len(got.transitions) == len(want.transitions), name
        for g, w in zip(got.transitions, want.transitions):
            assert (g.target, g.capture, g.emits) == (w.target, w.capture, w.emits)
            assert (g.guard is None) == (w.guard is None)
            assert g.guard is None or _same_guard(g.guard, w.guard, probes), (name, g.target)
        frontier.extend(tr.target for tr in got.transitions)
    assert seen == set(reference) == set(tm.states)


def test_tm_builds_collect_states_on_demand_and_validates_them():
    def build(mask, chi):
        return (Transition("nowhere", guard=Timeout(Fraction(1))),)

    states = _CollectStates(2, build)
    name = states.name(1, True)
    assert name == "collect_01_x" and name in states and len(states) == 0
    assert "collect_10_x" not in states
    with pytest.raises(KeyError):
        states["collect_10_x"]
    with pytest.raises(ConfigError, match="undefined state 'nowhere'"):
        states[name]
    states["nowhere"] = State("nowhere", StateKind.TERMINAL)
    assert states[name].transitions == build(1, True) and len(states) == 2


def test_weak_n12_run_builds_only_the_manager_states_it_enters():
    n = 12
    make_transaction_manager.cache_clear()  # no state built by an earlier run
    start = time.perf_counter()
    sim = _Sim(weak_scenario(n=n, seed=3))
    trace = sim.run()
    elapsed = time.perf_counter() - start
    assert all(v.holds for v in evaluate_all(trace))
    tm = sim.automata[manager()].machine
    entered = {e.state for e in trace.entries
               if e.rec is Rec.STATE_ENTERED and e.participant == manager()}
    built = {name for name in tm.states if name.startswith("collect_")}
    assert built <= entered | {tm.initial}
    assert len(tm.states) <= 3 * n + 10  # 2n + 8 decision states, at most n + 2 collect states
    assert elapsed < 1.0  # building the full 2^(n+1)-state product takes seconds at n=12


def test_strong_connector_refund_path_is_net_zero():
    byz = {customer(2): StrategySpec("withhold_certificate")}
    sc = strong_scenario(n=2, byzantine=byz, seed=17, timing=derived(2))
    trace = run_simulation(sc)
    hit = trace.terminal_entry(customer(1))
    assert hit is not None and hit[1].state == "refunded"
    assert trace.final_balances[customer(1)] == 1
    assert trace.final_balances[customer(0)] == 1  # alice refunded too


def test_tm_ignores_forged_commit_request():
    pay, tm, keys = _tm_feed(1)
    bob = customer(1)
    c0 = customer(0)
    lock = sign(LockNotice("pay0", 0), escrow(0), keys[escrow(0)])
    _deliver_and_fire(tm, Envelope(escrow(0), manager(), lock))
    # certificate inside is signed by the wrong party: guard must not match
    fake_chi = sign(Certificate("pay0"), c0, keys[c0])
    creq = sign(CommitReq("pay0", fake_chi), bob, keys[bob])
    emitted = _deliver_and_fire(tm, Envelope(bob, manager(), creq))
    assert emitted == []
    assert tm.current.startswith("collect_")


# ------------------------------------------------------------ shared definitions

def test_definitions_are_shared_and_never_touched_by_a_run():
    """Interleaved strong and weak runs, twice: the builders hand back the very
    same definitions, the runs wrap exactly those, no run changes a state of
    one, and every trace renders the same the second time. The weak runs take
    Bob through a commit request then an abort request (patience 3), and
    through `premature_certificate`, both signing past his pre-signed nonce."""
    scenarios = {
        "strong": strong_scenario(n=3, seed=5),
        "weak": weak_scenario(n=2, seed=0, patience=(None, None, Fraction(3))),
        "premature": weak_scenario(n=2, seed=1, byzantine={
            customer(2): StrategySpec("premature_certificate")}),
    }
    pay3, pay2 = PaymentInstance("pay0", 3, 1), PaymentInstance("pay0", 2, 1)

    def definitions():
        weak_params = scenarios["weak"].resolved_timing()
        return {
            "strong": make_strong_participants(scenarios["strong"].resolved_timing(), pay3),
            "weak": {**make_weak_participants(weak_params, pay2, [None, None, Fraction(3)]),
                     manager(): make_transaction_manager(pay2)},
            "premature": {**make_weak_participants(weak_params, pay2, [None, None, None]),
                          manager(): make_transaction_manager(pay2)},
        }

    before = definitions()
    states = {(name, pid): dict(m.states)
              for name, roster in before.items() for pid, m in roster.items()}
    renders = []
    for _ in range(2):
        for name, sc in scenarios.items():
            sim = _Sim(sc)
            assert {pid: aut.machine for pid, aut in sim.automata.items()} == before[name]
            renders.append(sim.run().render())
    assert renders[:3] == renders[3:]
    bob_sent = [line.split(" msg=")[1] for line in renders[1].splitlines()
                if " p=c2 " in line and " ev=SENT " in line]
    assert bob_sent == ["CREQ[pay0,X[pay0]@c2/0]@c2/1", "AREQ[pay0]@c2/2"]
    assert "msg=CREQ[pay0,X[pay0]@c2/1]@c2/2" in renders[2]

    after = definitions()
    for name, roster in after.items():
        for pid, machine in roster.items():
            assert machine is before[name][pid]
            kept = states[name, pid]
            assert all(machine.states[state] is st for state, st in kept.items())
            if pid != manager():  # the manager builds collect states on first entry
                assert dict(machine.states) == kept
            with pytest.raises(TypeError):
                machine.states["await_guarantee"] = None
