from __future__ import annotations

import ast
import functools
import random
import sys
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import xpay
import xpay.simnet as simnet

from conftest import derived, entry_at, strong_scenario, verdicts_by_name, weak_scenario
from xpay.automata import Automaton, Timeout
from xpay.core import (
    AbortCert,
    Certificate,
    ConfigError,
    Envelope,
    Guarantee,
    Money,
    Seal,
    SignedMessage,
    SigningKey,
    customer,
    escrow,
    manager,
    sign,
)
from xpay.explore import battery_assignments, explore
from xpay.properties import evaluate_all, fold
from xpay.protocol import PaymentInstance, TimingParams, make_weak_participants
from xpay.simnet import (
    DelayOwnSends,
    ForgeryRejected,
    PartialSync,
    Scripted,
    ScriptRule,
    StrategySpec,
    Synchronous,
    _Sim,
    assign_clocks,
    run_simulation,
    to_ticks,
)
from xpay.trace import EVERY_POLICY, Rec, STOP_ALL_TERMINAL, TraceEntry

F = Fraction


def terminal_state(trace, pid):
    hit = trace.terminal_entry(pid)
    return hit[1].state if hit else None


def test_nominal_run_pays_bob_and_hands_alice_the_certificate():
    trace = run_simulation(strong_scenario(seed=3))
    assert trace.stop_reason == STOP_ALL_TERMINAL
    assert terminal_state(trace, customer(1)) == "paid"
    assert terminal_state(trace, customer(0)) == "has_certificate"
    assert terminal_state(trace, escrow(0)) == "paid_out"
    assert trace.final_balances[customer(1)] == 1
    assert trace.final_balances[customer(0)] == 0
    assert trace.final_in_flight == 0


def test_determinism_identical_scenarios_identical_traces():
    a = run_simulation(strong_scenario(n=2, seed=99, rho=F(1, 10)))
    b = run_simulation(strong_scenario(n=2, seed=99, rho=F(1, 10)))
    assert a.render() == b.render()
    c = run_simulation(strong_scenario(n=2, seed=100, rho=F(1, 10)))
    assert a.render() != c.render()


def test_synchronous_deliveries_respect_the_bound():
    trace = run_simulation(strong_scenario(n=3, seed=5))
    delays = [e.delay for e in trace.entries if e.rec is Rec.DELIVERED]
    assert delays
    assert all(0 < d <= 1 for d in delays)


def test_scripted_late_certificate_refunds_alice():
    sc = strong_scenario(delay=Scripted(
        default=F(1, 2), delta=F(1),
        rules=(ScriptRule(delay=F(4), src=customer(1), payload="certificate"),),
    ), timing=derived(1))
    trace = run_simulation(sc)
    assert terminal_state(trace, escrow(0)) == "refunded"
    assert terminal_state(trace, customer(0)) == "refunded"
    assert terminal_state(trace, customer(1)) is None  # bob issued and waits forever
    fired = [e for e in trace.entries if e.rec is Rec.TIMEOUT_FIRED]
    assert len(fired) == 1
    # the certificate still arrives, after the escrow is terminal, and is discarded
    late = [e for e in trace.entries if e.rec is Rec.DELIVERED
            and isinstance(e.env.msg.payload, Certificate)]
    assert late and late[0].t > fired[0].t


def test_all_silent_run_moves_no_value():
    byz = {escrow(0): StrategySpec("silent"),
           customer(0): StrategySpec("silent"),
           customer(1): StrategySpec("silent")}
    trace = run_simulation(strong_scenario(byzantine=byz))
    assert [e for e in trace.entries if e.rec is Rec.TRANSFERRED] == []
    assert trace.final_balances == trace.meta.initial_balances
    from xpay.properties import Status
    verdicts = verdicts_by_name(trace)
    assert verdicts["C"].status is Status.HOLDS
    assert verdicts["CONS"].status is Status.HOLDS


@functools.lru_cache(maxsize=None)
def _battery(variant: str, n: int) -> list[dict]:
    return battery_assignments((strong_scenario if variant == "strong" else weak_scenario)(n=n))


def replay_transfers(trace) -> int:
    """Replay `trace`'s TRANSFERRED entries from its initial balances: a send
    debits its sender into the value in flight, a delivery credits its
    recipient from it. No balance and not the value in flight may go below
    zero, a send may be refused only where its sender holds less than the
    amount, and the replay must end at the trace's final balances and value in
    flight. Returns the number of refused sends."""
    balances, in_flight, refused = dict(trace.meta.initial_balances), 0, 0
    for e in trace.entries:
        if e.rec is Rec.TRANSFERRED and e.phase == "sent":
            balances[e.frm] -= e.amount
            in_flight += e.amount
        elif e.rec is Rec.TRANSFERRED:
            in_flight -= e.amount
            balances[e.to] += e.amount
        elif e.rec is Rec.IMPOSSIBLE_STEP and e.reason == "insufficient_funds":
            assert balances[e.participant] < trace.meta.amount
            refused += 1
        assert min(balances.values()) >= 0 and in_flight >= 0
    assert balances == trace.final_balances
    assert in_flight == trace.final_in_flight
    return refused


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(("strong", "weak")), st.integers(1, 3),
       st.integers(0, 10**6), st.sampled_from(simnet._CLOCK_MODES), st.sampled_from((0, F(1, 10))))
def test_the_run_balances_are_its_transfers_replayed(data, variant, n, seed, clock_mode, rho):
    """The engine's balances, checked apart from the CONS monitor: each
    example takes one Byzantine assignment of the explore battery, replayers
    and greedy escrows included, and in the weak variant a drawn patience."""
    assignments = _battery(variant, n)
    byzantine = assignments[data.draw(st.integers(0, len(assignments) - 1))]
    kw = dict(n=n, seed=seed, clock_mode=clock_mode, rho=rho, byzantine=byzantine)
    if variant == "weak":
        kw["patience"] = data.draw(st.tuples(*[st.sampled_from((None, F(1), F(4)))] * (n + 1)))
    replay_transfers(run_simulation(
        (strong_scenario if variant == "strong" else weak_scenario)(**kw)))


def test_a_send_of_money_the_sender_does_not_hold_is_refused():
    """A replayer connector echoes the payment it was sent to each of the
    other four participants out of its own balance, which holds 2 (its
    unspent deposit and the payment): the last two echoes are each an
    IMPOSSIBLE_STEP and move no value."""
    byzantine = {escrow(1): StrategySpec("replayer"), customer(1): StrategySpec("replayer"),
                 customer(2): StrategySpec("premature_certificate")}
    trace = run_simulation(strong_scenario(n=2, byzantine=byzantine))
    assert replay_transfers(trace) == 2


def test_partial_sync_delivers_after_stabilization():
    sc = weak_scenario(delay=PartialSync(gst=F(3), delta=F(1)), seed=4)
    trace = run_simulation(sc)
    sent, delivered = [], []
    for e in trace.entries:
        if e.rec is Rec.SENT:
            sent.append((str(e.env.msg.signer), e.env.msg.nonce, str(e.env.dst)))
        elif e.rec is Rec.DELIVERED:
            delivered.append((str(e.env.msg.signer), e.env.msg.nonce, str(e.participant)))
            if e.t - e.delay >= 3:
                assert e.delay <= 1  # post-stabilization deliveries meet the bound
    assert sorted(sent) == sorted(delivered)  # everything sent eventually arrives
    assert terminal_state(trace, customer(1)) == "paid"


def test_assign_clocks_modes():
    sc = strong_scenario(rho=F(1, 10))
    lo, hi = F(10, 11), F(11, 10)

    sc.clock_mode = "identity"
    assert all(rate == 1 for rate in assign_clocks(sc).values())

    sc.clock_mode = "worst_case"
    rates = assign_clocks(sc)
    assert rates[escrow(0)] == hi
    assert rates[customer(0)] == lo

    sc.clock_mode = "seeded"
    seeded = assign_clocks(sc)
    assert seeded == assign_clocks(sc)
    assert all(lo <= rate <= hi for rate in seeded.values())

    sc.rho = F(0)
    sc.clock_mode = "auto"
    assert all(rate == 1 for rate in assign_clocks(sc).values())


def test_worst_case_clocks_minimize_liveness_slack():
    """The escrow-fast assignment is the adversarial one: with a slightly
    shortened window it alone produces the refund."""
    p = derived(1, rho=F(1, 10))
    shaved = F(1, 50)
    from dataclasses import replace
    reduced = replace(p, a=(p.a[0] - shaved,), d=(p.d[0] - shaved,))
    outcomes = {}
    for mode in ("identity", "worst_case", "escrows_slow"):
        sc = strong_scenario(rho=F(1, 10), timing=reduced, clock_mode=mode,
                             delay=Scripted(default=F(1), delta=F(1)))
        outcomes[mode] = terminal_state(run_simulation(sc), customer(1))
    assert outcomes["worst_case"] is None          # premature timeout: bob unpaid
    assert outcomes["escrows_slow"] == "paid"      # slow escrow clock is forgiving
    assert outcomes["identity"] == "paid"          # shave is below the drift term


def test_a_strategy_signs_only_as_itself_and_replays_only_what_it_observed():
    """A Byzantine participant signs only as itself, with its run's key
    (`sign_own`), and sends a message another participant signed only as a
    verbatim replay of one it observed."""
    from xpay.core import Promise, verify
    bob = customer(1)
    c0 = customer(0)
    sim = _Sim(strong_scenario(byzantine={c0: StrategySpec("silent"),
                                          escrow(0): StrategySpec("silent")}))
    # a byzantine escrow may sign a bogus promise as itself; customers of that
    # escrow are exactly the ones the conditional clauses stop protecting
    for pid, payload in ((c0, Money("pay0", 1)), (escrow(0), Promise("pay0", F(1, 2)))):
        nonce = sim.keys[pid].nonce
        own = sim.ctx(pid).sign_own(payload)
        assert own.signer == pid and own.nonce == nonce and verify(own, pid)
        assert sim.keys[pid].nonce == nonce + 1

    ctx = sim.ctx(c0)
    chi = sign(Certificate("pay0"), bob, SigningKey(bob))
    sim.vaults[c0].append(chi)
    ctx.replay(escrow(0), chi)
    sent = sim.entries[-1]
    assert sent.rec is Rec.SENT and sent.env.msg is chi and sent.env.src == c0
    unobserved = sign(Certificate("pay1"), bob, SigningKey(bob))
    with pytest.raises(ForgeryRejected):
        ctx.replay(escrow(0), unobserved)
    assert sim.entries[-1] is sent


def test_withhold_certificate_forces_refund():
    byz = {customer(1): StrategySpec("withhold_certificate")}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=8))
    assert terminal_state(trace, customer(0)) == "refunded"
    assert terminal_state(trace, escrow(0)) == "refunded"
    sent_certs = [e for e in trace.entries
                  if e.rec is Rec.SENT and isinstance(e.env.msg.payload, Certificate)]
    assert sent_certs == []


def test_premature_certificate_is_consumed_when_the_escrow_is_ready():
    byz = {customer(1): StrategySpec("premature_certificate")}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=8))
    # certificate hit the wire at time zero
    first_cert = next(e for e in trace.entries
                      if e.rec is Rec.SENT and isinstance(e.env.msg.payload, Certificate))
    assert first_cert.t == 0
    # escrow still pays out: the buffered certificate matches once it reaches await_certificate
    assert terminal_state(trace, escrow(0)) == "paid_out"
    assert terminal_state(trace, customer(0)) == "has_certificate"


def test_greedy_escrow_takes_the_money_and_gives_nothing():
    byz = {escrow(0): StrategySpec("greedy_escrow")}
    trace = run_simulation(strong_scenario(n=2, byzantine=byz, seed=8))
    assert trace.final_balances[escrow(0)] == 1  # kept alice's deposit
    assert terminal_state(trace, customer(0)) is None  # alice waits forever
    # promises still flowed, so the chain below completed on its own
    assert terminal_state(trace, customer(2)) == "paid"
    assert trace.final_balances[customer(1)] == 0  # the connector's loss...
    # ...is unprotected: both of her clauses name her escrows, one is byzantine
    from xpay.properties import Status
    verdicts = verdicts_by_name(trace)
    assert verdicts["CS1"].status is Status.VACUOUS
    assert verdicts["CS3"].status is Status.VACUOUS
    assert verdicts["ES"].status is Status.HOLDS  # e1 lost nothing


def test_delay_own_sends_pushes_certificate_past_the_window():
    byz = {customer(1): StrategySpec("delay_own_sends", {"delay": F(3)})}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=8))
    assert terminal_state(trace, customer(0)) == "refunded"


def test_replayer_cannot_break_anything(tmp_path):
    byz = {customer(0): StrategySpec("replayer")}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=8))
    # replays are attributable: every sent message verifies for its signer
    from xpay.properties import Status
    verdicts = verdicts_by_name(trace)
    assert verdicts["AUTH"].status is Status.HOLDS
    assert verdicts["CONS"].status is Status.HOLDS


def test_the_replayer_echoes_each_signer_and_nonce_once():
    """The replayer echoes a delivery unless its vault already held one of the
    same signer and nonce, whatever its payload: of two certificates signed
    as Bob's nonce 0, for two instances, it echoes only the first."""
    bob = customer(1)
    first, second = (sign(Certificate(instance), bob, SigningKey(bob))
                     for instance in ("other-payment", "pay0"))
    assert (first.signer, first.nonce) == (second.signer, second.nonce) and first != second
    trace = run_simulation(strong_scenario(
        byzantine={customer(0): StrategySpec("replayer")},
        raw_injections=((F(2, 9), Envelope(bob, customer(0), first)),
                        (F(1, 3), Envelope(bob, customer(0), second)))))
    delivered = [e.env.msg for e in trace.entries
                 if e.rec is Rec.DELIVERED and e.participant == customer(0)]
    echoed = [e.env.msg for e in trace.entries
              if e.rec is Rec.SENT and isinstance(e.env.msg.payload, Certificate)]
    assert first in delivered and second in delivered
    assert echoed == [first, first]


def test_replayed_certificate_from_another_instance_is_inert():
    """A genuine Bob-signed certificate for a different payment instance passes
    signature verification but matches no guard: the run proceeds as if it had
    never arrived."""
    bob = customer(1)
    foreign = sign(Certificate("some-other-payment"), bob, SigningKey(bob))
    sc = strong_scenario(
        seed=8,
        timing=derived(1),
        delay=Scripted(default=F(1, 2), delta=F(1), rules=(
            ScriptRule(delay=F(4), src=customer(1), payload="certificate"),
        )),
        raw_injections=((F(2), Envelope(bob, escrow(0), foreign)),),
    )
    trace = run_simulation(sc)
    delivered = [e for e in trace.entries if e.rec is Rec.DELIVERED
                 and isinstance(e.env.msg.payload, Certificate)
                 and e.env.msg.payload.instance == "some-other-payment"]
    assert delivered  # verified and delivered...
    assert terminal_state(trace, escrow(0)) == "refunded"  # ...but never consumed
    assert terminal_state(trace, customer(0)) == "refunded"


def test_hand_built_seal_never_verifies():
    from xpay.core import verify
    bob = customer(1)
    crafted = SignedMessage(Certificate("pay0"), bob, 0,
                            Seal(bob, Certificate("pay0"), 0))
    assert not verify(crafted, bob)  # seals only count when struck by sign()


def test_premature_certificate_keeps_the_payment_promise():
    """The certificate racing ahead of the promise does not turn the escrow's
    pay-within-epsilon obligation into an impossible one."""
    from xpay.properties import check_promises, Status
    byz = {customer(1): StrategySpec("premature_certificate")}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=8))
    for verdict in check_promises(trace):
        assert verdict.status is not Status.VIOLATED, verdict.line()


def test_raw_injection_of_a_forged_message_is_rejected():
    bob = customer(1)
    fake_seal = Seal(customer(0), Certificate("pay0"), 0)
    forged = SignedMessage(Certificate("pay0"), bob, 0, fake_seal)
    sc = strong_scenario(raw_injections=((F(1, 2), Envelope(bob, escrow(0), forged)),))
    trace = run_simulation(sc)
    rejected = [e for e in trace.entries if e.rec is Rec.REJECTED]
    assert len(rejected) == 1
    assert rejected[0].reason == "bad_signature"
    # the forgery never matched a guard: the run still completes normally
    assert terminal_state(trace, customer(1)) == "paid"


def test_a_raw_injection_of_money_is_refused():
    """Value moves only by a send, which debits its sender. Injected money
    would be received out of nothing in flight, or out of another message's
    value, so a scenario that injects money is refused before its run."""
    money = sign(Money("pay0", 1), customer(0), SigningKey(customer(0), 50))
    with pytest.raises(ConfigError, match="money"):
        run_simulation(strong_scenario(
            raw_injections=((F(1, 10), Envelope(customer(0), escrow(0), money)),)))


def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(n=0))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={manager(): StrategySpec("silent")}))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={customer(0): StrategySpec("no_such")}))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={customer(0): StrategySpec("greedy_escrow")}))
    with pytest.raises(ConfigError, match="strategy 'delay_own_sends' takes no parameter dealy"):
        run_simulation(strong_scenario(
            byzantine={customer(1): StrategySpec("delay_own_sends", {"dealy": F(3)})}))
    with pytest.raises(ConfigError):
        run_simulation(weak_scenario(patience=(F(1),)))  # needs n+1 entries
    with pytest.raises(ConfigError):
        # scripted model without a bound cannot auto-derive timeouts
        run_simulation(strong_scenario(delay=Scripted(default=F(1))))


@pytest.mark.parametrize("field, changed", [
    ("pi", dict(pi=F(1, 5))),
    ("rho", dict(rho=F(1, 10))),
    ("mu", dict(mu=F(1, 100))),
    ("delta", dict(delay=Synchronous(F(2)))),
    ("delta", dict(delay=Scripted(default=F(1), delta=F(2)))),
    ("epsilon", dict(epsilon=F(5))),
], ids=["pi", "rho", "mu", "delta", "scripted-delta", "epsilon"])
def test_explicit_timing_must_agree_with_its_scenario(field, changed):
    """The engine reads pi and rho (dwell, time scale, clock rates) from the
    scenario, while T's bound and the horizon read the explicit timing, and
    mu, delta and epsilon are what the timing was derived for: a timing whose
    value differs from the scenario's, or from its delay model's bound, is
    refused. A delay model with no bound accepts any delta."""
    timing = derived(1)  # delta 1, pi 1/10, rho 0, mu 0: strong_scenario's own
    run_simulation(strong_scenario(timing=timing))
    run_simulation(strong_scenario(timing=timing, delay=Scripted(default=F(1))))
    with pytest.raises(ConfigError, match=f"explicit timing has {field} "):
        run_simulation(strong_scenario(timing=timing, **changed))


# Each library input that holds a time, mapped to a builder that returns the
# value it was coerced to.
EXACT_INPUTS = {
    "Scenario.pi": lambda x: strong_scenario(pi=x).pi,
    "Scenario.rho": lambda x: strong_scenario(rho=x).rho,
    "Scenario.mu": lambda x: strong_scenario(mu=x).mu,
    "Scenario.epsilon": lambda x: strong_scenario(epsilon=x).epsilon,
    "Scenario.horizon": lambda x: strong_scenario(horizon=x).horizon,
    "Scenario.patience": lambda x: weak_scenario(patience=(None, x)).patience[1],
    "Synchronous.delta": lambda x: Synchronous(x).delta,
    "Synchronous.grid": lambda x: Synchronous(F(1), grid=(x,)).grid[0],
    "PartialSync.gst": lambda x: PartialSync(x, F(1)).gst,
    "PartialSync.delta": lambda x: PartialSync(F(0), x).delta,
    "PartialSync.grid": lambda x: PartialSync(F(0), F(1), grid=(x,)).grid[0],
    "Scripted.default": lambda x: Scripted(default=x).default,
    "Scripted.delta": lambda x: Scripted(default=F(1), delta=x).delta,
    "ScriptRule.delay": lambda x: ScriptRule(delay=x).delay,
    "DelayOwnSends.delay": lambda x: DelayOwnSends(customer(0), {"delay": x}).delay,
    "TimingParams.a": lambda x: TimingParams(1, (x,), (F(5),), F(0), F(0), F(1), F(0)).a[0],
    "TimingParams.d": lambda x: TimingParams(1, (F(1, 4),), (x,), F(0), F(0), F(1), F(0)).d[0],
    "TimingParams.epsilon": lambda x: TimingParams(1, (F(1),), (F(2),), x, F(0), F(1), F(0)).epsilon,
    "TimingParams.pi": lambda x: TimingParams(1, (F(1),), (F(2),), F(0), x, F(1), F(0)).pi,
    "TimingParams.delta": lambda x: TimingParams(1, (F(1),), (F(2),), F(0), F(0), x, F(0)).delta,
    "TimingParams.rho": lambda x: TimingParams(1, (F(1),), (F(2),), F(0), F(0), F(1), x).rho,
    "TimingParams.mu": lambda x: TimingParams(1, (F(1),), (F(2),), F(0), F(0), F(1), F(0), x).mu,
    "derive_timeouts.delta": lambda x: derived(delta=x).delta,
    "derive_timeouts.pi": lambda x: derived(pi=x).pi,
    "derive_timeouts.rho": lambda x: derived(rho=x).rho,
    "derive_timeouts.margin": lambda x: derived(margin=x).mu,
    "derive_timeouts.epsilon": lambda x: derived(epsilon=x).epsilon,
    "Timeout.delay": lambda x: Timeout(x).delay,
    "make_weak_participants.patience": lambda x: make_weak_participants(
        derived(1), PaymentInstance("pay0", 1, 1), [x, None])[customer(0)].timeouts["await_guarantee"],
}


@pytest.mark.parametrize("build", EXACT_INPUTS.values(), ids=EXACT_INPUTS.keys())
def test_time_inputs_refuse_floats_and_booleans(build):
    for inexact in (0.1, 1.0, True):
        with pytest.raises(ConfigError):
            build(inexact)
    for exact in (1, F(1, 2)):
        got = build(exact)
        assert type(got) is Fraction and got == exact


GRID_MODELS = {
    "Synchronous": lambda grid: Synchronous(F(1), grid=grid),
    "PartialSync": lambda grid: PartialSync(F(0), F(1), grid=grid),
}


@pytest.mark.parametrize("build", GRID_MODELS.values(), ids=GRID_MODELS.keys())
@pytest.mark.parametrize("grid, refused", [
    ((F(1, 2), F(1, 2), F(1)), "1/2 is repeated"),
    ((F(1, 4), F(1), F(1, 4)), "1/4 is repeated"),
    ((F(0), F(1)), "0 must be strictly positive"),
    ((F(1, 2), F(2)), "2 outside"),
], ids=["repeated", "repeated-apart", "zero", "past-delta"])
def test_delay_model_grids_are_positive_distinct_and_within_delta(build, grid, refused):
    """The seeded sampler draws each grid point alike, so a repeated point
    would weight it; the explorer refuses the same grids."""
    with pytest.raises(ConfigError, match=f"grid delay {refused}"):
        build(grid)


@pytest.mark.parametrize("build", GRID_MODELS.values(), ids=GRID_MODELS.keys())
def test_delay_model_grid_is_given_or_default_never_empty(build):
    with pytest.raises(ConfigError, match="delay grid must be non-empty"):
        build(())
    assert build(None).grid == (F(1, 4), F(1, 2), F(3, 4), F(1))


# Each memoised library call that takes a time, mapped to a builder. A memo
# keyed by value would answer 0.5, 1.0 or True from the entry of the equal
# Fraction, so each builder is called with the Fraction first.
MEMOISED_INPUTS = {
    "derive_timeouts.delta": lambda x: derived(delta=x),
    "derive_timeouts.pi": lambda x: derived(pi=x),
    "derive_timeouts.rho": lambda x: derived(rho=x),
    "derive_timeouts.margin": lambda x: derived(margin=x),
    "derive_timeouts.epsilon": lambda x: derived(epsilon=x),
    "make_weak_participants.patience": lambda x: make_weak_participants(
        derived(1), PaymentInstance("pay0", 1, 1), [x, None]),
}


@pytest.mark.parametrize("build", MEMOISED_INPUTS.values(), ids=MEMOISED_INPUTS.keys())
def test_memoised_time_inputs_refuse_floats_after_the_equal_fraction(build):
    for exact, inexact in ((F(1, 2), 0.5), (F(1), 1.0), (F(1), True)):
        assert build(exact) is build(exact)  # the second call is answered by the memo
        with pytest.raises(ConfigError):
            build(inexact)


def test_exploration_grid_and_termination_bound_refuse_floats():
    base = strong_scenario()
    trace = run_simulation(base)
    for inexact in (0.1, 1.0, True):
        with pytest.raises(ConfigError):
            explore(base, grid=(inexact,))
        with pytest.raises(ConfigError):
            fold(trace).termination(trace, bound=inexact)
    want = explore(base, grid=(F(1, 2), F(1)))
    got = explore(base, grid=(F(1, 2), 1))
    assert (got.branches, got.counts, got.max_customer_terminal) == (
        want.branches, want.counts, want.max_customer_terminal)
    for bound in (20, F(41, 2)):
        monitor = fold(trace)
        verdict = monitor.termination(trace, bound=bound)
        assert verdict.line() == monitor.termination(trace, bound=F(bound)).line()


@pytest.mark.parametrize("bound", [0, -1, F(-1, 2)])
def test_a_termination_bound_must_be_strictly_positive(bound):
    """A bound of 0 or below is refused, on either variant, by the monitor
    and by `evaluate_all`, rather than read as a deadline every customer
    misses."""
    for scenario in (strong_scenario(n=2), weak_scenario(n=1)):
        trace = run_simulation(scenario)
        for check in (lambda: fold(trace).termination(trace, bound=bound),
                      lambda: evaluate_all(trace, bound=bound)):
            with pytest.raises(ConfigError) as refused:
                check()
            assert str(refused.value) == "termination bound must be strictly positive"


class _UnlistedDelay:
    """A duck-typed delay model whose delays() lists 1/2 but which returns 1/3."""

    delta = F(1)

    def delays(self):
        return (F(1, 2),)

    def delay_for(self, env, run):
        return F(1, 3)

    def to_config(self):
        return {"kind": "unlisted"}


class _ListedDelay(_UnlistedDelay):
    def delays(self):
        return (F(1, 3),)


def test_ticks_are_exact_or_refused():
    assert to_ticks(F(7, 5), 10, "delay") == 14
    assert to_ticks(F(3), 10, "delay") == 30
    with pytest.raises(ConfigError, match="delay 1/3 falls between"):
        to_ticks(F(1, 3), 10, "delay")
    with pytest.raises(ConfigError, match=f"delay {10**18 + 1}/{10**19} falls between"):
        to_ticks(F(10**18 + 1, 10**19), 10**18, "delay")  # one part in 10^18 off a tick


rates = st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=60)
delays = st.fractions(min_value=F(1, 100), max_value=F(50), max_denominator=100)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(rates, min_size=5, max_size=5), delays, delays, delays, st.integers(0, 10**6))
def test_a_timeout_lasts_its_delay_on_its_participants_clock(clock_rates, a0, a1, slack, k):
    """The engine hands each automaton its timeouts' lengths in ticks. For a
    timeout of local delay d on a clock of any rate in [1/3, 3], set at any
    tick k, the length L it was handed ends when the participant's clock has
    advanced exactly d: local(k + L) - local(k) == d."""
    timing = TimingParams(2, (a0, a1), (a0 + slack, a1 + slack), F(0), F(1, 10), F(1), F(0))
    sc = strong_scenario(n=2, timing=timing)
    with mock.patch.object(simnet, "assign_clocks",
                           lambda sc: dict(zip(sc.participant_ids(), clock_rates))):
        sim = _Sim(sc)
    checked = 0
    for pid, aut in sim.automata.items():
        base = sim.bases[pid]
        for name, delay in aut.machine.timeouts.items():
            length = aut.lengths[name]
            assert type(length) is int
            assert base.local(k + length) - base.local(k) == delay
            checked += 1
    assert checked == 2  # each escrow's window


def test_only_the_engine_turns_a_duration_into_ticks():
    """`to_ticks` is called in simnet alone, so the run's time axis has one
    owner; automata are handed their lengths in ticks."""
    callers = set()
    for path in sorted(Path(xpay.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "to_ticks":
                    callers.add(path.name)
    assert callers == {"simnet.py"}


def test_a_byzantine_participant_signs_only_in_sign_own():
    """`sign` is called in simnet only inside `StrategyContext.sign_own`, so a
    Byzantine participant has one signing path, with its own key."""
    tree = ast.parse(Path(simnet.__file__).read_text(encoding="utf-8"))
    callers = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == "sign":
                callers.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert callers == ["StrategyContext.sign_own"]


def test_a_run_is_freed_without_the_cycle_collector():
    """A run holds no reference back to itself (a strategy's context is built
    on demand, not kept), so dropping it frees it at once and no run waits
    for the cyclic garbage collector."""
    import gc
    import weakref
    scenario = strong_scenario(n=2, seed=3, rho=F(1, 10),
                               byzantine={customer(2): StrategySpec("replayer")})
    gc.disable()
    try:
        sim = _Sim(scenario)
        sim.run()
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        gc.enable()


def test_a_negative_patience_is_refused_by_the_scenario():
    with pytest.raises(ConfigError, match="patience must be non-negative"):
        weak_scenario(patience=(None, F(-1))).validate()


@pytest.mark.parametrize("horizon", [0, -1])
def test_a_horizon_that_is_not_positive_is_refused(horizon):
    with pytest.raises(ConfigError, match="horizon must be strictly positive"):
        run_simulation(strong_scenario(horizon=horizon))


@pytest.mark.parametrize("build, message", [
    (lambda: strong_scenario(variant="medium").validate(), "unknown variant 'medium'"),
    (lambda: strong_scenario(tie_break="sideways").validate(),
     f"tie_break must be one of {simnet.TIE_BREAKS}"),
    (lambda: strong_scenario(rx_order="shuffled").validate(),
     f"rx_order must be one of {simnet.RX_ORDERS}"),
    (lambda: strong_scenario(clock_mode="wobbly").validate(),
     f"clock_mode must be one of {simnet._CLOCK_MODES}"),
    (lambda: strong_scenario(n=2, timing=derived(1)).validate(),
     "explicit timing does not match n"),
    (lambda: weak_scenario(byzantine={manager(): StrategySpec("silent")}).validate(),
     "the transaction manager is trusted and cannot be Byzantine"),
    (lambda: weak_scenario(patience=(None,)).validate(), "need 2 patience entries, got 1"),
    (lambda: Scripted(1, delta=-1), "delta must be strictly positive"),
    (lambda: DelayOwnSends(customer(0), {"delay": 0}),
     "delay_own_sends delay must be strictly positive"),
], ids=["variant", "tie-break", "rx-order", "clock-mode", "timing-hops", "byzantine-manager",
        "patience-short", "scripted-delta", "delay-own-sends"])
def test_each_malformed_scenario_is_refused_naming_its_rule(build, message):
    with pytest.raises(ConfigError) as refused:
        build()
    assert str(refused.value) == message


def test_a_delay_the_model_does_not_list_is_refused_not_rounded():
    with pytest.raises(ConfigError, match="delay 1/3 falls between the run's ticks"):
        run_simulation(strong_scenario(delay=_UnlistedDelay()))
    trace = run_simulation(strong_scenario(delay=_ListedDelay()))
    delays = {e.delay for e in trace.entries if e.rec is Rec.DELIVERED}
    assert delays == {F(1, 3)}


def test_trace_header_is_self_describing():
    trace = run_simulation(strong_scenario(seed=12))
    text = trace.render()
    head = text.splitlines()[:8]
    assert head[0] == "# xpay-trace v1"
    assert head[1].startswith("# scenario sha256=")
    assert any("p=e0" in line for line in head)
    assert text.endswith("\n")
    assert not any(line != line.rstrip() for line in text.splitlines())


def _fresh_times(entry: TraceEntry) -> TraceEntry:
    """The entry at the same real and local time on a time base of its own,
    at the denominator of its instant instead of the run's scale, with new
    delay and deadline objects of the same value."""
    def fresh(x):
        return None if x is None else F(x.numerator, x.denominator)
    rebuilt = entry_at(entry.t, entry.local, seq=entry.seq, participant=entry.participant,
                       rec=entry.rec)
    return replace(entry, tick=rebuilt.tick, base=rebuilt.base,
                   delay=fresh(entry.delay), deadline=fresh(entry.deadline))


def _body(trace) -> list[str]:
    return trace.render().splitlines()[len(trace.header_lines()):]


def test_render_formats_every_entry_as_its_line():
    """`Trace.render` formats each instant, local time and message once; its
    entry lines are still exactly the entries' own `line()`s: with drifting
    clocks, with a fresh delay object per send before stabilization, with
    relayed messages, and on a trace rebuilt with other ticks and time bases
    for the same times and with distinct delay and deadline objects."""
    runs = {
        "drift": run_simulation(strong_scenario(n=2, seed=4, rho=F(1, 10), clock_mode="seeded")),
        "partial_sync": run_simulation(strong_scenario(n=2, seed=2, delay=PartialSync(F(5, 2), F(1)))),
        "replayer": run_simulation(strong_scenario(n=2, seed=1, byzantine={
            customer(1): StrategySpec("replayer")})),
    }
    sent = [e.env.msg for e in runs["replayer"].entries if e.rec is Rec.SENT]
    assert len({id(m) for m in sent}) < len(sent)  # some message went out more than once
    # PartialSync makes a new delay object for each send before stabilization
    assert sum(e.rec is Rec.SENT and e.t < F(5, 2) for e in runs["partial_sync"].entries) > 1
    drift = runs["drift"]
    assert any(e.local != e.t for e in drift.entries)
    runs["hand_built"] = replace(drift, entries=[_fresh_times(e) for e in drift.entries])
    for name, trace in runs.items():
        assert _body(trace) == [e.line() for e in trace.entries], name
    assert _body(runs["hand_built"]) == _body(drift)


def _fractions_made(call):
    """What `call()` returns, and the `Fraction.__new__` calls it makes,
    counted with a profile hook."""
    code = Fraction.__new__.__code__
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is code:
            made += 1

    sys.setprofile(count)
    try:
        return call(), made
    finally:
        sys.setprofile(None)


def test_the_event_loop_makes_a_fraction_only_for_delays_and_lapsed_deadlines():
    """Building a second run of a scenario divides no timeout delay by a
    clock rate again. Past the t=0 setup, a run makes a Fraction once per
    TIMEOUT_FIRED entry (its local deadline), and for nothing else: trace
    entries hold ticks and time bases, a delivery holds the delay object the
    delay model returned, and clock variables and deadlines are ticks. Checking the strong
    n=8 run, whose T holds, makes none: terminal times are compared with the
    bound as ticks.
    Counted with a profile hook on `Fraction.__new__` over a strong n=8
    seeded run and a seeded run whose timeouts fire."""
    for scenario in (strong_scenario(n=8, seed=0, rho=F(1, 10), clock_mode="seeded"),
                     strong_scenario(n=2, seed=3, rho=F(1, 10), clock_mode="seeded",
                                     byzantine={customer(2): StrategySpec("silent")})):
        sim = _Sim(scenario)
        # a timeout's real length is kept per delay and clock rate, and the
        # default horizon per timing, so a second run of the scenario makes none
        _, rebuilt = _fractions_made(lambda: _Sim(scenario))
        timeouts = sum(len(aut.machine.timeouts) for aut in sim.automata.values())
        assert rebuilt == 0 < timeouts, (rebuilt, timeouts)
        sim._start()
        trace, made = _fractions_made(sim.run)
        fired = sum(e.rec is Rec.TIMEOUT_FIRED for e in trace.entries)
        assert len(trace.entries) > 40
        assert made <= fired, (made, fired)
        if scenario.n == 8:
            verdicts, checked = _fractions_made(lambda: evaluate_all(trace))
            assert [v.line() for v in verdicts if v.name == "T"] == ["T: HOLDS"]
            assert checked == 0
    assert fired > 0  # with Bob silent, the escrows' windows lapse


# The engine's per-event functions: one pass each per event, none reading a
# member off an Enum class (`EnumType.__getattr__` makes that about ten times
# the cost of a global read).
PER_EVENT = (_Sim.send, _Sim._deliver, _Sim._enter_state, _Sim._try_fire, _Sim._fire_output,
             _Sim.run, Automaton.step, Automaton.enabled_transitions, Automaton.is_terminal)


def _names(code: types.CodeType):
    """The global and attribute names `code` reads, its nested code's included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


@pytest.mark.parametrize("fn", PER_EVENT, ids=[fn.__qualname__ for fn in PER_EVENT])
def test_the_per_event_paths_read_no_enum_class(fn):
    assert not {"Rec", "StateKind", "ParticipantKind"} & set(_names(fn.__code__))


def _by_policy(cands, tie_break, rx_order):
    """The enabled transitions in the order a policy takes them, as a
    reference: receives (the last declared first under `reversed`) and the
    timeout, the timeout first under `timeout_first`."""
    receives = [c for c in cands if c[1] is not None]
    timeouts = [c for c in cands if c[1] is None]
    if rx_order == "reversed":
        receives.reverse()
    return timeouts + receives if tie_break == "timeout_first" else receives + timeouts


@functools.lru_cache(maxsize=None)
def _roster_inputs():
    """Per shipped roster (strong n=1-3, weak n=1-2 with finite patience):
    the scenario, and per participant its input states and every envelope a
    few runs delivered to it (a replayer's echoes included, so that an inbox
    can hold several matches)."""
    out = []
    rosters = [strong_scenario(n=n, rho=F(1, 10), clock_mode="seeded") for n in (1, 2, 3)]
    rosters += [weak_scenario(n=n, patience=(F(3),) * (n + 1)) for n in (1, 2)]
    for scenario in rosters:
        pool = {}
        for seed in range(3):
            for byzantine in ({}, {customer(scenario.n): StrategySpec("replayer")}):
                trace = run_simulation(replace(scenario, seed=seed, byzantine=byzantine))
                for e in trace.entries:
                    if e.rec is Rec.DELIVERED:
                        pool.setdefault(e.participant, []).append(e.env)
        sim = _Sim(scenario)
        for pid, aut in sim.automata.items():
            inputs = [st for st in aut.machine.states.values() if st.receives or st.timeout]
            if inputs and pid in pool:
                out.append((scenario, pid, tuple(inputs), tuple(pool[pid])))
    return out


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(("receive_first", "timeout_first")),
       st.sampled_from(("declared", "reversed")))
def test_the_engine_fires_the_enabled_transition_its_policy_puts_first(data, tie_break, rx_order):
    """With any inbox of delivered messages, at any instant and deadline, the
    transition `_try_fire` fires is the first of `enabled_transitions`
    ordered by the policy. The run's mask keeps the policies that put the
    same transition first, and so is left whole exactly when fewer than two
    were enabled."""
    scenario, pid, inputs, pool = data.draw(st.sampled_from(_roster_inputs()))
    sim = _Sim(replace(scenario, tie_break=tie_break, rx_order=rx_order))
    aut = sim.automata[pid]
    aut.state = data.draw(st.sampled_from(inputs))
    aut.inbox = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    aut.due = None if aut.state.timeout is None else data.draw(
        st.one_of(st.none(), st.integers(0, 12)))
    sim.tick = data.draw(st.integers(0, 20))
    cands = aut.enabled_transitions(sim.tick)
    fired = []

    class Fired(Exception):
        pass

    def step(transition, now, matched=None):
        fired.append((transition, matched))
        raise Fired

    aut.step = step
    try:
        sim._try_fire(pid)
    except Fired:
        pass
    want = _by_policy(cands, tie_break, rx_order)[:1]
    assert [tuple(map(id, f)) for f in fired] == [tuple(map(id, w)) for w in want]
    agreeing = [k for k, policy in enumerate(simnet.POLICIES)
                if len(cands) < 2 or _by_policy(cands, *policy)[0] is want[0]]
    assert sim.mask == sum(1 << k for k in agreeing)
    assert (sim.mask != EVERY_POLICY) is (len(cands) >= 2)


def _fire_under_each_policy(scenario, pid, state, messages, due):
    """Per policy, the state `pid` enters when it fires from `state` with
    `messages` ((source, signer, payload) each) in its inbox and its deadline
    at `due`, and the run's mask after it."""
    out = []
    for tie_break, rx_order in simnet.POLICIES:
        sim = _Sim(replace(scenario, tie_break=tie_break, rx_order=rx_order))
        aut = sim.automata[pid]
        aut.state = aut.machine.states[state]
        aut.inbox = [Envelope(src, pid, sign(payload, signer, SigningKey(signer)))
                     for src, signer, payload in messages]
        aut.due = due
        sim._try_fire(pid)
        entered = next(e.state for e in sim.entries if e.rec is Rec.STATE_ENTERED)
        out.append((entered, sim.mask))
    return out


def test_a_tie_of_each_shape_splits_the_policies_as_they_choose():
    """A tie's mask keeps, per policy, the policies that pick what it picks,
    for each shape of tie: the escrow's certificate at its deadline (a timed
    tie, one receive), the weak Alice's guarantee and abort certificate at her
    patience deadline (timed, two receives), and the strong Alice's
    certificate and refund at once (untimed, two receives)."""
    bob = customer(1)
    assert _fire_under_each_policy(
        strong_scenario(), escrow(0), "await_certificate",
        [(bob, bob, Certificate("pay0"))], 0) == [
        ("resolve_paid", 0b0011), ("resolve_paid", 0b0011),
        ("resolve_refund", 0b1100), ("resolve_refund", 0b1100)]
    weak = weak_scenario(patience=(F(3), F(3)))
    guarantee = Guarantee("pay0", weak.resolved_timing().d[0])
    assert _fire_under_each_policy(
        weak, customer(0), "await_guarantee",
        [(escrow(0), escrow(0), guarantee), (manager(), manager(), AbortCert("pay0"))], 0) == [
        ("pay_escrow", 0b0001), ("aborted_unfunded", 0b0010),
        ("request_abort_unfunded", 0b1100), ("request_abort_unfunded", 0b1100)]
    assert _fire_under_each_policy(
        strong_scenario(), customer(0), "await_outcome",
        [(escrow(0), bob, Certificate("pay0")), (escrow(0), escrow(0), Money("pay0", 1))],
        None) == [
        ("refunded", 0b0101), ("has_certificate", 0b1010),
        ("refunded", 0b0101), ("has_certificate", 0b1010)]


def test_the_synchronous_delay_draws_are_randrange_draws():
    """`Synchronous.delay_for` draws `grid[randrange(len(grid))]` from the
    run's generator, whatever the seed and grid size."""
    for size in range(1, 10):
        model = Synchronous(F(size), grid=tuple(F(k) for k in range(1, size + 1)))
        for seed in range(100):
            run, ref = types.SimpleNamespace(rng=random.Random(seed)), random.Random(seed)
            got = [model.delay_for(None, run) for _ in range(12)]
            assert got == [model.grid[ref.randrange(size)] for _ in range(12)], (size, seed)


def test_a_run_builds_its_delay_generator_on_its_first_draw(monkeypatch):
    """A run that never draws a delay has no generator: a scripted run, and
    every run the explorer builds over the n=1 battery, whose delays are
    decided. A seeded run has one from its first draw on, in the state of a
    fresh generator seeded for the run's delays after one draw per send, and
    restoring a snapshot from before that draw drops it."""
    sim = _Sim(strong_scenario(delay=Scripted(default=F(1, 2), delta=F(1))))
    sim.run()
    assert "rng" not in vars(sim)

    built = []

    def building(scenario):
        built.append(_Sim(scenario))
        return built[-1]

    monkeypatch.setattr(sys.modules["xpay.explore"], "_Sim", building)
    base = strong_scenario(delay=Synchronous(F(1), grid=(F(1, 4), F(1, 2), F(1))))
    assert explore(base, assignments=battery_assignments(base)).branches == 1800
    assert len(built) > 1 and not any("rng" in vars(run) for run in built)

    scenario = strong_scenario(n=2, seed=3)
    sim = _Sim(scenario)
    seen, taken = [], []

    def draw():
        sent = sum(e.rec is Rec.SENT for e in sim.entries)
        seen.append(("rng" in vars(sim), sent > len(sim.outbox)))  # drawn before
        taken.append(sim.snapshot())

    sim.on_draw = draw
    trace = sim.run()
    assert all(has == drawn for has, drawn in seen), seen
    assert seen[0] == (False, False) and seen[-1] == (True, True)
    ref = random.Random(f"{scenario.seed}:delays")
    for _ in range(sum(e.rec is Rec.SENT for e in trace.entries)):
        ref.choice(scenario.delay.grid)
    assert sim.rng.getstate() == ref.getstate()
    assert taken[0].rng is None and taken[-1].rng is not None
    sim.on_draw = None
    sim.restore(taken[0])
    assert "rng" not in vars(sim)
    assert sim.run().render() == trace.render()
