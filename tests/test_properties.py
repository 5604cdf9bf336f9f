from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from conftest import derived, entry_at, strong_scenario, verdicts_by_name, weak_scenario
from oracles import brute_force_statuses
from xpay.automata import Automaton, Fresh, Machine, State, StateKind, Transition
from xpay.core import (
    AbortCert, CommitCert, Envelope, Money, SigningKey, customer, escrow, manager, sign)
from xpay.properties import (
    Monitor,
    Status,
    check_liveness,
    check_promises,
    evaluate_all,
    fold,
    safety_verdicts,
)
from xpay.simnet import Scripted, ScriptRule, StrategySpec, Synchronous, run_simulation
from xpay.timing import derive_timeouts
from xpay.trace import Rec, Trace

F = Fraction


def _statuses(verdicts):
    return {v.name: v.status.value for v in verdicts}


def test_nominal_run_all_hold():
    trace = run_simulation(strong_scenario(n=2, seed=1))
    got = _statuses(evaluate_all(trace))
    assert got == {"C": "HOLDS", "T": "HOLDS", "ES": "HOLDS", "CS1": "HOLDS",
                   "CS2": "HOLDS", "CS3": "HOLDS", "L": "HOLDS",
                   "CONS": "HOLDS", "AUTH": "HOLDS"}


def test_timeout_run_verdicts():
    """Certificate withheld: refunds all around, liveness vacuous (Bob is Byzantine)."""
    byz = {customer(1): StrategySpec("withhold_certificate")}
    trace = run_simulation(strong_scenario(byzantine=byz, seed=2))
    got = _statuses(evaluate_all(trace))
    assert got["C"] == "HOLDS"
    assert got["ES"] == "HOLDS"
    assert got["CS1"] == "HOLDS"     # alice refunded
    assert got["CS2"] == "VACUOUS"   # bob byzantine
    assert got["L"] == "VACUOUS"
    assert got["CONS"] == "HOLDS"


def test_late_certificate_violates_liveness_with_witness():
    sc = strong_scenario(delay=Scripted(
        default=F(1, 2), delta=F(1),
        rules=(ScriptRule(delay=F(4), src=customer(1), payload="certificate"),),
    ), timing=derived(1))
    trace = run_simulation(sc)
    live = check_liveness(trace)
    assert live.status is Status.VIOLATED
    assert live.witness
    assert all(trace.entries[i].participant == customer(1) for i in live.witness)
    # safety still fine
    verdicts = verdicts_by_name(trace)
    assert verdicts["ES"].status is Status.HOLDS
    assert verdicts["CS1"].status is Status.HOLDS
    assert verdicts["CONS"].status is Status.HOLDS


def test_witness_validity_replaying_witness_participants_retriggers():
    """Re-checking a trace filtered to the witness participants' entries yields
    the same violation."""
    sc = strong_scenario(delay=Scripted(
        default=F(1, 2), delta=F(1),
        rules=(ScriptRule(delay=F(4), src=customer(1), payload="certificate"),),
    ), timing=derived(1))
    trace = run_simulation(sc)
    live = check_liveness(trace)
    assert live.status is Status.VIOLATED
    witness_pids = {trace.entries[i].participant for i in live.witness}
    sub = Trace(meta=trace.meta,
                entries=[e for e in trace.entries if e.participant in witness_pids],
                stop_reason=trace.stop_reason,
                final_balances=trace.final_balances,
                final_in_flight=trace.final_in_flight)
    assert check_liveness(sub).status is Status.VIOLATED


def test_termination_exempts_customers_that_never_engage():
    """Bob starved of the promise neither pays nor certifies: exempt."""
    byz = {customer(0): StrategySpec("silent")}  # alice never pays
    trace = run_simulation(strong_scenario(byzantine=byz, seed=3))
    assert fold(trace).termination(trace).status is Status.VACUOUS


def test_termination_exempts_customers_of_byzantine_escrows():
    byz = {escrow(0): StrategySpec("greedy_escrow")}
    trace = run_simulation(strong_scenario(n=2, byzantine=byz, seed=3))
    term = fold(trace).termination(trace)
    # alice paid but her escrow is byzantine; c1 paid, e0 is one of hers; bob's
    # escrow e1 is compliant and he is paid, so T evaluates only bob and holds
    assert term.status is Status.HOLDS


def test_deliberate_double_refund_breaks_consistency():
    """A misconfigured escrow prescribed to refund twice hits insufficient funds;
    the oracle is the ledger itself."""
    sc = strong_scenario(seed=4, timing=derived(1))
    base = run_simulation(sc)
    assert verdicts_by_name(base)["C"].status is Status.HOLDS

    from xpay.protocol import make_escrow

    def broken_escrow(i, params, pay):
        machine = make_escrow(i, params, pay)
        states = dict(machine.states)
        # refund twice before going terminal
        states["resolve_refund"] = State("resolve_refund", StateKind.OUTPUT, (
            Transition("refund_again", emits=((customer(i), Fresh(Money(pay.instance, pay.amount))),)),
        ))
        states["refund_again"] = State("refund_again", StateKind.OUTPUT, (
            Transition("refunded", emits=((customer(i), Fresh(Money(pay.instance, pay.amount))),)),
        ))
        return Machine(machine.id, states, machine.initial)

    import xpay.simnet as simnet
    sc2 = strong_scenario(
        seed=4, timing=derived(1),
        byzantine={customer(1): StrategySpec("withhold_certificate")})
    sim = simnet._Sim(sc2)
    pid = escrow(0)
    # the broken definition keeps the escrow's timeouts, so it keeps their lengths
    sim.automata[pid] = Automaton(broken_escrow(0, sim.params, sim.pay), sim.keys[pid],
                                  sim.automata[pid].lengths)
    trace = sim.run()
    verdict = verdicts_by_name(trace)["C"]
    assert verdict.status is Status.VIOLATED
    assert verdict.witness
    assert any(trace.entries[i].rec is Rec.IMPOSSIBLE_STEP for i in verdict.witness)


def test_monitor_copies_share_no_state():
    """Copies of one monitor, each fed its own continuation, give each the
    verdicts of checking it whole, even after another copy took in a
    continuation that would mask its violation."""
    trace = run_simulation(strong_scenario(seed=1))
    bob_sends = next(i for i, e in enumerate(trace.entries)
                     if e.rec is Rec.SENT and e.participant == customer(1))
    e0_receives = next(i for i, e in enumerate(trace.entries)
                       if e.rec is Rec.DELIVERED and e.participant == escrow(0)
                       and e.env.msg.signer == customer(1))
    entries = trace.entries
    continuations = {
        "as run": entries,
        # e0 relays Bob's certificate to Alice without having received it
        "relay unobserved": entries[:e0_receives] + entries[e0_receives + 1:],
        # e0 receives Bob's certificate that he never sent
        "delivery unsent": entries[:bob_sends] + entries[bob_sends + 1:],
    }
    prefix = Monitor(trace.meta)
    prefix.feed(entries[:bob_sends])
    lines = {}
    for name, branch in continuations.items():
        whole = Trace(meta=trace.meta, entries=branch)
        lines[name] = [v.line() for v in safety_verdicts(whole, prefix.copy())]
        assert lines[name] == [v.line() for v in safety_verdicts(whole)], name
    assert "AUTH: HOLDS" in lines["as run"]
    assert "never observed" in lines["relay unobserved"][-1]
    assert "without a matching send" in lines["delivery unsent"][-1]


def test_certificate_consistency_inapplicable_on_strong_traces():
    trace = run_simulation(strong_scenario(seed=5))
    assert "CC" not in verdicts_by_name(trace)
    assert "CC" in verdicts_by_name(run_simulation(weak_scenario(seed=5)))


def test_conservation_on_empty_trace():
    trace = run_simulation(strong_scenario(
        byzantine={escrow(0): StrategySpec("silent"),
                   customer(0): StrategySpec("silent"),
                   customer(1): StrategySpec("silent")}))
    assert verdicts_by_name(trace)["CONS"].status is Status.HOLDS


_TRANSFER = st.tuples(st.sampled_from([escrow(0), escrow(1), customer(0), customer(1),
                                       customer(2)]),
                      st.integers(1, 3), st.sampled_from(["sent", "received"]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(_TRANSFER, max_size=12))
@example([(customer(0), 2, "sent")])  # more than Alice's balance of 1
@example([(escrow(0), 1, "received")])  # nothing in flight yet
def test_every_transfer_keeps_balances_plus_in_flight_at_zero(transfers):
    """Each transfer moves its amount between one net balance change and the
    in-flight value, so their sum stays zero after every TRANSFERRED entry,
    whatever the order, the parties and the amounts. That is why CONS checks
    only that no balance and no in-flight value goes negative; the first
    entry that drives one negative is its witness."""
    meta = run_simulation(strong_scenario(n=2)).meta
    monitor = Monitor(meta)
    entries = []
    balances, in_flight, want = dict(meta.initial_balances), 0, None
    for k, (p, amount, phase) in enumerate(transfers):
        entries.append(entry_at(k, k, seq=k, participant=p, rec=Rec.TRANSFERRED, frm=p, to=p,
                                amount=amount, phase=phase))
        monitor.feed(entries)
        assert sum(monitor.net.values()) + monitor.in_flight == 0
        if phase == "sent":
            balances[p] -= amount
            in_flight += amount
            if want is None and balances[p] < 0:
                want = (k, f"{p} went negative")
        else:
            balances[p] += amount
            in_flight -= amount
            if want is None and in_flight < 0:
                want = (k, "in-flight value went negative")
    verdict = monitor.conservation()
    if want is None:
        assert verdict.status is Status.HOLDS
    else:
        assert (verdict.status, verdict.witness, verdict.detail) == (
            Status.VIOLATED, [want[0]], want[1])


# ----------------------------------------------------- brute-force coincidence

def _battery_sample():
    """A cross-section of the strategy battery for the coincidence check
    (the acceptance suite runs the full battery)."""
    return [
        {},
        {customer(1): StrategySpec("withhold_certificate")},
        {customer(1): StrategySpec("premature_certificate")},
        {customer(1): StrategySpec("delay_own_sends", {"delay": F(2)})},
        {customer(0): StrategySpec("silent")},
        {customer(0): StrategySpec("replayer")},
        {escrow(0): StrategySpec("greedy_escrow")},
        {escrow(0): StrategySpec("silent"), customer(1): StrategySpec("replayer")},
        {customer(0): StrategySpec("delay_own_sends", {"delay": F(1, 2)}),
         customer(1): StrategySpec("withhold_certificate")},
    ]


def test_checkers_coincide_with_brute_force_on_battery_sample():
    grid = (F(1, 4), F(1, 2), F(1))
    for assignment in _battery_sample():
        for seed in range(6):
            sc = strong_scenario(seed=seed, byzantine=dict(assignment),
                                 delay=Synchronous(F(1), grid=grid))
            trace = run_simulation(sc)
            lib = _statuses(evaluate_all(trace))
            oracle = brute_force_statuses(trace)
            for name, want in oracle.items():
                assert lib[name] == want, (
                    f"{name}: checker={lib[name]} oracle={want} "
                    f"byz={assignment} seed={seed}")


def test_monotone_conditionality_vacuous_clauses_stay_vacuous():
    """Growing the Byzantine set can only keep or vacate conditional clauses."""
    chains = [
        [{},
         {customer(1): StrategySpec("withhold_certificate")},
         {customer(1): StrategySpec("withhold_certificate"),
          escrow(0): StrategySpec("greedy_escrow")}],
        [{},
         {customer(0): StrategySpec("silent")},
         {customer(0): StrategySpec("silent"),
          customer(1): StrategySpec("silent")}],
    ]
    conditional = ("T", "CS1", "CS2", "CS3", "L")
    for chain in chains:
        previous = None
        for assignment in chain:
            trace = run_simulation(strong_scenario(seed=6, byzantine=dict(assignment)))
            got = _statuses(evaluate_all(trace))
            if previous is not None:
                for name in conditional:
                    if previous[name] == "VACUOUS":
                        assert got[name] in ("VACUOUS",), (
                            f"{name} came back from vacuous when the byzantine set grew")
            previous = got


def test_weak_clause_wording():
    trace = run_simulation(weak_scenario(seed=9))
    got = _statuses(evaluate_all(trace))
    assert got["CC"] == "HOLDS"
    assert got["CS1"] == "HOLDS"
    assert got["CS2"] == "HOLDS"
    oracle = brute_force_statuses(trace)
    for name, want in oracle.items():
        assert got[name] == want


def _sends(sender, messages):
    """Hand-built SENT entries of `messages` (recipient, payload) signed by
    `sender`, one per time unit from t=1, each followed by its TRANSFERRED
    entry if it moves money."""
    key = SigningKey(sender)
    entries = []
    for t, (dst, payload) in enumerate(messages, 1):
        env = Envelope(sender, dst, sign(payload, sender, key))
        entries.append(entry_at(t, t, seq=len(entries), participant=sender, rec=Rec.SENT, env=env))
        if isinstance(payload, Money):
            entries.append(entry_at(t, t, seq=len(entries), participant=sender,
                                    rec=Rec.TRANSFERRED, frm=sender, to=dst,
                                    amount=payload.amount, phase="sent"))
    return entries


def test_a_connector_that_terminates_below_her_start_violates_cs3():
    """Connector c1 of a strong n=2 chain, both her escrows compliant, pays
    e1 and terminates with nothing back: CS3 is violated, with her entries as
    the witness, and the oracle agrees on every clause."""
    meta = run_simulation(strong_scenario(n=2)).meta
    c1 = customer(1)
    entries = _sends(c1, [(escrow(1), Money(meta.instance, meta.amount))])
    entries.append(entry_at(2, 2, seq=len(entries), participant=c1,
                            rec=Rec.TERMINAL_REACHED, state="done"))
    trace = Trace(meta=meta, entries=entries)
    got = verdicts_by_name(trace)
    assert got["CS3"].line() == (
        "CS3: VIOLATED (c1 terminated below her starting balance) witness=[0, 1, 2]")
    oracle = brute_force_statuses(trace)
    assert {name: got[name].status.value for name in oracle} == oracle


def test_a_manager_that_issues_both_certificates_violates_cc():
    """The weak manager m0 sends a commit and then an abort certificate: CC is
    violated, with both sends as the witness, and the oracle agrees on every
    clause."""
    meta = run_simulation(weak_scenario()).meta
    entries = _sends(manager(), [(escrow(0), CommitCert(meta.instance)),
                                 (customer(1), AbortCert(meta.instance))])
    trace = Trace(meta=meta, entries=entries)
    got = verdicts_by_name(trace)
    assert got["CC"].line() == "CC: VIOLATED (both certificate kinds issued) witness=[0, 1]"
    oracle = brute_force_statuses(trace)
    assert {name: got[name].status.value for name in oracle} == oracle


def test_an_escrow_without_payment_slack_breaks_the_payment_promise():
    """With epsilon = 0 an escrow cannot pay downstream in the instant the
    certificate reaches it (its output state takes pi), so P_PROMISE is
    violated; at the derived epsilon it holds."""
    derived_params = derive_timeouts(1, F(1), F(1, 10), F(0))
    statuses = {}
    for epsilon in (F(0), derived_params.epsilon):
        trace = run_simulation(strong_scenario(timing=replace(derived_params, epsilon=epsilon)))
        statuses[epsilon] = {v.name: v.status for v in check_promises(trace)}["P_PROMISE"]
    assert statuses == {F(0): Status.VIOLATED, derived_params.epsilon: Status.HOLDS}
