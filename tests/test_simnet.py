from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import derived, strong_scenario, verdicts_by_name, weak_scenario
from xpay.automata import LocalClock, Timeout
from xpay.core import (
    Certificate,
    ConfigError,
    Envelope,
    Money,
    Seal,
    SignedMessage,
    SigningKey,
    customer,
    escrow,
    manager,
    sign,
)
from xpay.explore import explore
from xpay.properties import check_termination
from xpay.protocol import PaymentInstance, TimingParams, make_weak_participants
from xpay.simnet import (
    DelayOwnSends,
    ForgeryRejected,
    PartialSync,
    Scripted,
    ScriptRule,
    StrategySpec,
    Synchronous,
    assign_clocks,
    byzantine_emit,
    run_simulation,
    to_ticks,
)
from xpay.simnet import Silent
from xpay.trace import Rec, STOP_ALL_TERMINAL, TraceEntry

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
    assert all(c.rate == 1 for c in assign_clocks(sc).values())

    sc.clock_mode = "worst_case"
    clocks = assign_clocks(sc)
    assert clocks[escrow(0)].rate == hi
    assert clocks[customer(0)].rate == lo

    sc.clock_mode = "seeded"
    seeded = assign_clocks(sc)
    again = assign_clocks(sc)
    assert {str(p): c.rate for p, c in seeded.items()} == \
           {str(p): c.rate for p, c in again.items()}
    assert all(lo <= c.rate <= hi for c in seeded.values())

    sc.rho = F(0)
    sc.clock_mode = "auto"
    assert all(c.rate == 1 for c in assign_clocks(sc).values())


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


def test_byzantine_emit_own_signature_replay_and_forgery():
    bob = customer(1)
    c0 = customer(0)
    strategy = Silent(c0, SigningKey(c0), {})
    own = byzantine_emit(strategy, [], Money("pay0", 1), c0)
    assert own.signer == c0
    chi = sign(Certificate("pay0"), bob, SigningKey(bob))
    replayed = byzantine_emit(strategy, [chi], Certificate("pay0"), bob)
    assert replayed is chi
    with pytest.raises(ForgeryRejected):
        byzantine_emit(strategy, [], Certificate("pay0"), bob)
    # a byzantine escrow may sign a bogus promise as itself; customers of that
    # escrow are exactly the ones the conditional clauses stop protecting
    from xpay.core import Promise
    dirty = Silent(escrow(0), SigningKey(escrow(0)), {})
    fake = byzantine_emit(dirty, [], Promise("pay0", F(1, 2)), escrow(0))
    assert fake.signer == escrow(0)


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


def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(n=0))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={manager(): StrategySpec("silent")}))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={customer(0): StrategySpec("no_such")}))
    with pytest.raises(ConfigError):
        run_simulation(strong_scenario(byzantine={customer(0): StrategySpec("greedy_escrow")}))
    with pytest.raises(ConfigError):
        run_simulation(weak_scenario(patience=(F(1),)))  # needs n+1 entries
    with pytest.raises(ConfigError):
        # scripted model without a bound cannot auto-derive timeouts
        run_simulation(strong_scenario(delay=Scripted(default=F(1))))


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
    "DelayOwnSends.delay": lambda x: DelayOwnSends(
        customer(0), SigningKey(customer(0)), {"delay": x}).delay,
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
    "LocalClock.rate": lambda x: LocalClock(x).rate,
    "Timeout.delay": lambda x: Timeout(x).delay,
    "make_weak_participants.patience": lambda x: make_weak_participants(
        derived(1), PaymentInstance("pay0", 1, 1), [x, None])[customer(0)].timeouts[0],
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
    ((F(0), F(1)), "0 outside"),
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
            check_termination(trace, bound=inexact)
    want = explore(base, grid=(F(1, 2), F(1)))
    got = explore(base, grid=(F(1, 2), 1))
    assert (got.branches, got.counts, got.max_customer_terminal) == (
        want.branches, want.counts, want.max_customer_terminal)
    for bound in (20, F(41, 2)):
        verdict = check_termination(trace, bound=bound)
        assert verdict.line() == check_termination(trace, bound=F(bound)).line()


class _UnlistedDelay:
    """A duck-typed delay model whose delays() lists 1/2 but which returns 1/3."""

    def delta_bound(self):
        return F(1)

    def delays(self):
        return (F(1, 2),)

    def delay_for(self, env, t, rng):
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
    """The entry with each of its times a new Fraction object of the same value."""
    def fresh(x):
        return None if x is None else F(x.numerator, x.denominator)
    return replace(entry, t=fresh(entry.t), local=fresh(entry.local),
                   delay=fresh(entry.delay), deadline=fresh(entry.deadline))


def _body(trace) -> list[str]:
    return trace.render().splitlines()[len(trace.header_lines()):]


def test_render_formats_every_entry_as_its_line():
    """`Trace.render` formats each instant, local time and message once; its
    entry lines are still exactly the entries' own `line()`s: with drifting
    clocks, with a fresh delay object per send before stabilization, with
    relayed messages, and on a trace whose equal times are distinct objects."""
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
