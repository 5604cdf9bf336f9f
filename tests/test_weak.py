from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

from conftest import verdicts_by_name, weak_scenario
from xpay.core import AbortCert, CommitCert, customer, escrow, manager
from xpay.explore import battery_assignments
from xpay.properties import Status, evaluate_all
from xpay.simnet import PartialSync, Scripted, ScriptRule, StrategySpec, run_simulation
from xpay.trace import Rec

F = Fraction


def terminal_state(trace, pid):
    hit = trace.terminal_entry(pid)
    return hit[1].state if hit else None


def tm_cert_kinds(trace):
    kinds = set()
    for e in trace.entries:
        if e.rec is Rec.SENT and e.participant == manager():
            if isinstance(e.env.msg.payload, CommitCert):
                kinds.add("commit")
            elif isinstance(e.env.msg.payload, AbortCert):
                kinds.add("abort")
    return kinds


def test_infinite_patience_commits_and_pays_bob():
    trace = run_simulation(weak_scenario(seed=1))
    assert tm_cert_kinds(trace) == {"commit"}
    assert terminal_state(trace, customer(1)) == "paid"
    assert terminal_state(trace, customer(0)) == "committed"
    assert trace.final_balances[customer(1)] == 1
    assert all(v.holds for v in evaluate_all(trace))


def test_zero_patience_aborts_before_any_deposit():
    trace = run_simulation(weak_scenario(seed=1, patience=(F(0), None)))
    assert tm_cert_kinds(trace) == {"abort"}
    assert terminal_state(trace, customer(0)) == "aborted_unfunded"
    assert terminal_state(trace, customer(1)) == "aborted"
    assert trace.final_balances == trace.meta.initial_balances
    assert all(v.holds for v in evaluate_all(trace))


def test_abort_after_deposit_refunds_through_the_escrow():
    # patient enough to deposit, not to see the round trip through the manager
    trace = run_simulation(weak_scenario(seed=3, patience=(F(5, 2), None)))
    assert tm_cert_kinds(trace) == {"abort"}
    assert terminal_state(trace, customer(0)) == "refunded"
    assert trace.final_balances[customer(0)] == 1
    assert trace.final_balances[escrow(0)] == 0
    assert all(v.holds for v in evaluate_all(trace))


def test_abort_racing_deposit_never_strands_the_money():
    """The abort certificate can reach the escrow while the deposit is still in
    flight; the escrow must catch the stray deposit and refund it."""
    sc = weak_scenario(
        seed=0,
        patience=(F(13, 10), None),  # alice aborts right after paying
        delay=Scripted(default=F(1, 4), delta=F(1), rules=(
            # her deposit crawls; everything else is fast
            ScriptRule(delay=F(4), src=customer(0), payload="money"),
        )),
    )
    trace = run_simulation(sc)
    assert tm_cert_kinds(trace) == {"abort"}
    # the escrow saw the abort first, then the deposit, and refunded it
    states = [e.state for e in trace.entries
              if e.rec is Rec.STATE_ENTERED and e.participant == escrow(0)]
    assert "await_stray_deposit" in states
    assert terminal_state(trace, escrow(0)) == "refunded"
    assert terminal_state(trace, customer(0)) == "refunded"
    assert trace.final_balances[customer(0)] == 1
    assert all(v.holds for v in evaluate_all(trace))


def test_abort_request_after_commit_is_answered_with_the_commit():
    """A late abort never flips the decision; the requester converges to commit."""
    sc = weak_scenario(seed=2, patience=(F(4), None),
                       byzantine={})
    trace = run_simulation(sc)
    if tm_cert_kinds(trace) == {"commit"}:
        # if alice's patience lapsed after the decision her request is re-answered
        reanswers = [e for e in trace.entries
                     if e.rec is Rec.STATE_ENTERED and e.participant == manager()
                     and e.state.startswith("reanswer_commit")]
        aborts = [e for e in trace.entries
                  if e.rec is Rec.SENT and e.participant == customer(0)
                  and type(e.env.msg.payload).__name__ == "AbortReq"]
        if aborts:
            assert reanswers
    assert verdicts_by_name(trace)["CC"].status is Status.HOLDS
    assert all(v.holds for v in evaluate_all(trace))


def test_impatient_byzantine_customer_cannot_hurt_anyone():
    byz = {customer(0): StrategySpec("impatient_abort")}
    trace = run_simulation(weak_scenario(seed=5, byzantine=byz))
    assert tm_cert_kinds(trace) == {"abort"}
    # value conserved, escrow whole, bob holds the abort certificate
    got = {v.name: v.status for v in evaluate_all(trace)}
    assert got["ES"] is Status.HOLDS
    assert got["CC"] is Status.HOLDS
    assert got["CONS"] is Status.HOLDS
    assert terminal_state(trace, customer(1)) == "aborted"


def test_weak_partial_synchrony_still_commits():
    sc = weak_scenario(seed=11, delay=PartialSync(gst=F(3), delta=F(1)))
    trace = run_simulation(sc)
    assert tm_cert_kinds(trace) == {"commit"}
    assert terminal_state(trace, customer(1)) == "paid"
    assert all(v.holds for v in evaluate_all(trace))


def test_weak_two_hops_commit_pays_everyone_down_the_chain():
    trace = run_simulation(weak_scenario(n=2, seed=13))
    assert tm_cert_kinds(trace) == {"commit"}
    assert terminal_state(trace, customer(0)) == "committed"
    assert terminal_state(trace, customer(1)) == "paid"
    assert terminal_state(trace, customer(2)) == "paid"
    assert trace.final_balances[customer(1)] == 1  # connector whole
    assert trace.final_balances[customer(2)] == 1  # bob paid
    got = {v.name: v.status for v in evaluate_all(trace)}
    assert got["CS3"] is Status.HOLDS
    assert all(v.holds for v in evaluate_all(trace))


def test_weak_two_hops_abort_refunds_both_depositors():
    # the connector deposits almost immediately, then loses patience well
    # before the manager can have collected both locks and the commit request
    trace = run_simulation(weak_scenario(n=2, seed=13, patience=(None, F(1), None)))
    assert tm_cert_kinds(trace) == {"abort"}
    assert terminal_state(trace, customer(0)) == "refunded"
    assert terminal_state(trace, customer(1)) == "refunded"
    assert terminal_state(trace, customer(2)) == "aborted"
    assert trace.final_balances == trace.meta.initial_balances
    assert all(v.holds for v in evaluate_all(trace))


def test_weak_termination_vacuous_for_unbounded_patience_without_decision():
    """Byzantine Bob never requests commit; infinitely patient alice waits by
    choice, so termination is vacuous rather than violated."""
    byz = {customer(1): StrategySpec("silent")}
    trace = run_simulation(weak_scenario(seed=6, byzantine=byz))
    got = {v.name: v.status for v in evaluate_all(trace)}
    assert got["T"] is Status.VACUOUS
    assert got["ES"] is Status.HOLDS
    # with finite patience the same situation terminates via abort
    trace2 = run_simulation(weak_scenario(seed=6, byzantine=byz,
                                          patience=(F(3), None)))
    got2 = {v.name: v.status for v in evaluate_all(trace2)}
    assert got2["T"] is Status.HOLDS
    assert terminal_state(trace2, customer(0)) == "refunded"


def test_weak_battery_under_every_patience_violates_nothing():
    """Every Byzantine assignment of the n=1 battery, crossed with Alice's and
    Bob's patience in {unbounded, 0, 3, 10}: no verdict may be VIOLATED. A
    compliant Bob whose patience runs out before his funding notice must still
    terminate, through an abort request, even when a depositor stays silent."""
    base = weak_scenario(n=1)
    patiences = (None, F(0), F(3), F(10))
    violated = []
    for assignment in battery_assignments(base):
        for alice, bob in itertools.product(patiences, patiences):
            trace = run_simulation(replace(base, byzantine=assignment, patience=(alice, bob)))
            for v in evaluate_all(trace):
                if v.status is Status.VIOLATED:
                    violated.append((sorted(map(str, assignment.items())), alice, bob, v.name, v.detail))
    assert violated == []
