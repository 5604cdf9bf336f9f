from __future__ import annotations

import copy
import hashlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import strong_scenario, weak_scenario
from oracles import rerun_explore
from xpay import simnet
from xpay.automata import Fresh, Machine, State, StateKind, Transition
from xpay.core import (Certificate, ConfigError, Envelope, Money, SigningKey, customer, escrow,
                       sign)
from xpay.explore import POLICIES, _Checkpoints, battery_assignments, explore
from xpay.properties import Monitor, Status
from xpay.protocol import make_strong_participants
from xpay.simnet import StrategySpec, Synchronous, _Sim, run_simulation

F = Fraction
GRID3 = (F(1, 4), F(1, 2), F(1))
GRID2 = (F(1, 2), F(1))


def _strong_battery():
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    return base, {"assignments": battery_assignments(base)}, 1800


# (base scenario, explore arguments, branches)
DIFFERENTIAL = {
    "strong-n1-battery": _strong_battery,
    "weak-n1-patience-2-2": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(F(2), F(2))), {}, 7040),
    "weak-n1-patience-inf": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(None, None)), {}, 512),
    "strong-n2-prefix": lambda: (
        strong_scenario(n=2, delay=Synchronous(F(1), grid=GRID3)), {"budget": 5000}, 5000),
}


def branch_sequence(explorer, base, **kw):
    """Every branch `explorer` visits, in order, as (assignment, policy,
    decisions, sha256 of the rendered trace, verdict lines), and its report."""
    seen = []

    def record(outcome):
        digest = hashlib.sha256(outcome.trace.render().encode()).hexdigest()
        seen.append((outcome.assignment_label, outcome.policy, outcome.decisions, digest,
                     [v.line() for v in outcome.verdicts]))

    return seen, explorer(base, on_branch=record, **kw)


@pytest.mark.parametrize("case", DIFFERENTIAL)
def test_checkpointed_exploration_matches_the_rerun_reference(case):
    """Resuming each branch from a checkpoint visits the same branches in the
    same order as running each from t=0, with byte-identical traces."""
    base, kw, branches = DIFFERENTIAL[case]()
    want, want_report = branch_sequence(rerun_explore, base, **kw)
    got, report = branch_sequence(explore, base, **kw)
    assert len(got) == branches
    assert got == want
    assert_same_report(report, want_report)
    assert report.complete == (branches < kw.get("budget", 200_000))
    assert sum(report.leaf_depths.values()) + report.tie_reruns == report.branches
    # only suffixes were simulated, and only they were fed to the monitors
    assert 0 < report.entries_simulated < report.entries == want_report.entries_simulated
    assert report.entries_checked == report.entries_simulated


def assert_same_report(report, want_report):
    for name in ("branches", "complete", "counts", "bob_paid_everywhere",
                 "max_customer_terminal", "entries", "tie_reruns", "leaf_depths"):
        assert getattr(report, name) == getattr(want_report, name), name
    assert ([(v.assignment_label, v.policy, v.decisions) for v in report.violations]
            == [(v.assignment_label, v.policy, v.decisions) for v in want_report.violations])


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


def test_forked_violations_and_witnesses_match_the_rerun_reference(monkeypatch):
    """Branches that violate safety get the same verdict lines, witnesses
    included, from the forked monitors as from checking each whole trace. The
    broken roster and a certificate delivered with no matching send make C,
    CS1, CS2 and AUTH fail across the n=1 battery."""
    monkeypatch.setattr(simnet, "make_strong_participants", broken_roster)
    chi = sign(Certificate("pay0"), customer(1), SigningKey(customer(1)))
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3),
                           raw_injections=((F(3), Envelope(customer(1), escrow(0), chi)),))
    kw = {"assignments": battery_assignments(base)}
    want, want_report = branch_sequence(rerun_explore, base, **kw)
    got, report = branch_sequence(explore, base, **kw)
    assert got == want
    assert_same_report(report, want_report)
    assert report.entries_checked == report.entries_simulated < report.entries
    violated = Counter(v.name for outcome in report.violations for v in outcome.verdicts
                       if v.status is Status.VIOLATED)
    assert set(violated) == {"C", "CS1", "CS2", "AUTH"}, violated


@pytest.mark.parametrize("scenario", [
    strong_scenario(n=2, seed=3, rho=F(1, 10), byzantine={escrow(1): StrategySpec("replayer")}),
    weak_scenario(n=2, seed=5, patience=(None, F(3), F(3)),
                  byzantine={customer(2): StrategySpec("premature_certificate")}),
], ids=["strong-replayer", "weak-premature"])
def test_a_restored_snapshot_finishes_the_run_it_was_taken_from(scenario):
    """Snapshots taken at every instant of a seeded run, restored after the
    run ended and in no particular order, each finish into the same trace,
    and the runs leave the shared definitions as they found them."""
    want = run_simulation(scenario).render()
    sim = _Sim(scenario)
    taken = []
    sim.on_instant = lambda: taken.append(sim.snapshot())
    machines = {pid: aut.machine for pid, aut in sim.automata.items()}
    states = {pid: dict(m.states) for pid, m in machines.items()}
    assert sim.run().render() == want
    assert len(taken) > 4 and sim.rng.drawn
    sim.on_instant = None
    for snap in (taken[len(taken) // 2], taken[0], taken[-1], taken[len(taken) // 2]):
        sim.restore(snap)
        assert sim.run().render() == want
    assert {pid: aut.machine for pid, aut in sim.automata.items()} == machines
    for pid, m in machines.items():
        assert {name: m.states[name] for name in states[pid]} == states[pid]


def run_state(sim):
    """Everything a restore puts back, read from the run's own objects."""
    return (
        sim.started, list(sim.heap), sim.seq, sim.tick, sim.now, list(sim.entries), sim.had_tie, sim.pending_compliant,
        dict(sim.ledger.balances), sim.ledger.in_flight,
        [(aut.current, dict(aut.clock_vars), dict(aut.captured), list(aut.inbox), aut.stuck,
          aut.due) for aut in sim.automata.values()],
        {pid: key.nonce for pid, key in sim.keys.items()},
        {pid: strategy.snapshot() for pid, strategy in sim.strategies.items()},
        {pid: list(vault) for pid, vault in sim.vaults.items()},
    )


def snapshot_contents(snap):
    """A deep copy of what `snap` holds, its prefix of the entries included."""
    return copy.deepcopy(snap._replace(entries=snap.entries[:snap.entry_count]))


def test_a_restore_puts_back_each_armed_deadline():
    """A snapshot keeps each automaton's deadline tick, clock variables,
    captured messages, inbox and stuck flag, the ledger, the key nonces and
    the strategies' state with their vaults: after the run has moved on, a
    restore puts back each of them as it stood, and neither the later runs nor
    the restores change what any snapshot holds. Bob sending his certificate
    early gets it captured; Bob as a replayer is a strategy with a state."""
    states = []
    for strategy in ("premature_certificate", "replayer"):
        sim = _Sim(strong_scenario(n=2, seed=3, rho=F(1, 10),
                                   byzantine={customer(2): StrategySpec(strategy)}))
        taken = []
        sim.on_instant = lambda: taken.append(
            (sim.snapshot(), run_state(sim), snapshot_contents(sim.snapshot())))
        want = sim.run().render()
        sim.on_instant = None
        for snap, state, _ in reversed(taken):
            sim.restore(snap)
            assert run_state(sim) == state
            assert sim.run().render() == want
        for snap, _, contents in taken:
            assert snapshot_contents(snap) == contents
        states += [state for _, state, _ in taken]
    automata = [aut for state in states for aut in state[10]]
    assert any(isinstance(due, int) for *_, due in automata)
    assert any(clock_vars for _, clock_vars, *_ in automata)
    assert any(captured for _, _, captured, *_ in automata)
    assert any(inbox for _, _, _, inbox, *_ in automata)
    assert any(strategy for state in states for strategy in state[12].values())
    assert any(vault for state in states for vault in state[13].values())


def test_monitors_are_forked_only_where_a_branch_can_resume(monkeypatch):
    """A checkpoint gets a copy of the monitor only once it is credited with a
    decision or the first tie; every other copy is a restore's. Over the n=1
    battery such checkpoints are under a quarter of the instants the
    baseline runs pass."""
    counts = Counter()
    credited = {}

    def counted(name, fn, after=None):
        def wrapper(self, *args):
            counts[name] += 1
            out = fn(self, *args)
            if after is not None:
                after(self)
            return out
        return wrapper

    def note_credited(checkpoints):
        for cp in (*checkpoints.by_decision, checkpoints.tie):
            if cp is not None:
                assert cp.monitor is not None
                credited[id(cp)] = cp

    monkeypatch.setattr(Monitor, "copy", counted("copies", Monitor.copy))
    monkeypatch.setattr(_Checkpoints, "instant", counted("instants", _Checkpoints.instant))
    monkeypatch.setattr(_Checkpoints, "close", counted("closes", _Checkpoints.close,
                                                       note_credited))
    monkeypatch.setattr(_Checkpoints, "restore", counted("restores", _Checkpoints.restore))
    base, kw, branches = _strong_battery()
    assert explore(base, **kw).branches == branches
    assert counts["instants"] == 4201
    assert counts["restores"] == branches - len(kw["assignments"])
    assert counts["copies"] == len(credited) + counts["restores"]
    assert len(credited) < counts["instants"] / 4


@pytest.mark.parametrize("grid, point", [
    ((F(-1),), "-1"), ((F(0), F(1)), "0"), ((F(1, 2), F(1, 2)), "1/2"),
    ((F(1, 4), F(1), F(1, 4)), "1/4"),
], ids=["negative", "zero", "repeated", "repeated-apart"])
def test_grid_points_must_be_positive_and_distinct(grid, point):
    """A point <= 0 delivers before the send, and a repeated point runs every
    branch through it twice; both are refused, naming the point."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    with pytest.raises(ConfigError, match=f"grid delay {point} "):
        explore(base, grid=grid)


def test_grid_points_past_delta_are_explored():
    """A point past the synchrony bound is kept: it models lost synchrony."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    report = explore(base, grid=(F(1, 2), F(2)))
    assert report.complete and report.branches > explore(base, grid=(F(1, 2),)).branches
    assert report.max_customer_terminal > explore(base, grid=GRID2).max_customer_terminal


def test_compliant_exploration_is_safe_and_live():
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    report = explore(base)
    assert report.complete
    assert report.safe
    assert report.bob_paid_everywhere["compliant"]
    # worst leaf over the grid hits the termination bound exactly
    from xpay.timing import termination_bound
    assert report.max_customer_terminal == termination_bound(base.resolved_timing())


def test_boundary_tie_is_explored_in_both_orders():
    """The all-max-delay leaf puts the certificate at the window boundary: the
    receive-first runs pay out, the timeout-first ones refund, and safety holds
    in both."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    seen_policies = set()
    outcomes = {}

    def watch(outcome):
        seen_policies.add(outcome.policy)
        if outcome.trace is not None:
            hit = outcome.trace.terminal_entry(customer(1))
            if hit:
                outcomes.setdefault(outcome.policy[0], set()).add(hit[1].state)

    report = explore(base, on_branch=watch)
    assert report.safe
    assert len(seen_policies) == 4  # ties occurred, alternates were run
    assert "paid" in outcomes["receive_first"]
    # timeout-first runs happen exactly on tie leaves, where they refund: Bob
    # never reaches a terminal there, so no "paid" outcome can appear
    assert "paid" not in outcomes.get("timeout_first", set())
    assert report.bob_paid_everywhere["compliant"]


def test_budget_exhaustion_reports_incomplete():
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    report = explore(base, budget=10)
    assert not report.complete
    assert report.branches == 10


def test_battery_covers_roles_and_subsets():
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    assignments = battery_assignments(base)
    assert {} in assignments
    # escrow-only strategies never land on customers and vice versa
    for assignment in assignments:
        for pid, spec in assignment.items():
            if spec.name == "greedy_escrow":
                assert pid.kind.value == "e"
            if spec.name in ("withhold_certificate", "premature_certificate"):
                assert pid == customer(1)
    # 1 escrow with 4 options, alice with 3, bob with 5 -> 5*4*6 combinations
    assert len(assignments) == 5 * 4 * 6


def test_weak_battery_includes_impatient_abort():
    base = weak_scenario(delay=Synchronous(F(1), grid=(F(1, 2), F(1))))
    assignments = battery_assignments(base)
    names = {spec.name for assignment in assignments for spec in assignment.values()}
    assert "impatient_abort" in names


def test_byzantine_deliveries_are_pinned_not_branched():
    """With a silent Bob only the messages to compliant recipients branch."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    assignment = {customer(1): StrategySpec("silent")}
    report = explore(base, assignments=[assignment])
    # flow: G -> c0 (branch), $ -> e0 (branch), P -> bob (pinned),
    # refund -> c0 (branch): 27 leaves plus tie re-runs, well under 81
    assert report.complete
    assert report.branches < 81
    assert report.safe


def test_weak_interleavings_certificate_consistency():
    base = weak_scenario(delay=Synchronous(F(1), grid=(F(1, 2), F(1))),
                         patience=(F(2), F(2)))
    report = explore(base)
    assert report.complete
    assert report.safe
    cc = report.counts.get("CC")
    assert cc and cc["fail"] == 0 and cc["pass"] == report.branches


def test_runs_without_a_tie_are_the_same_under_every_policy():
    """The premise on which `explore` skips the other policies' re-runs: a run
    that never offered the scheduler a choice has the same entries under every
    tie-break and receive order. Only entry lines are compared; the header
    names the policy."""
    compared = {"strong": 0, "weak": 0}
    for make, ns in ((strong_scenario, (1, 2, 4)), (weak_scenario, (1, 2, 3))):
        for n in ns:
            for seed in range(8):
                scenario = make(n=n, seed=seed, rho=F(1, 10))
                trace = run_simulation(scenario)
                if trace.had_tie:
                    continue
                compared[scenario.variant] += 1
                lines = [e.line() for e in trace.entries]
                for tie_break, rx_order in POLICIES[1:]:
                    other = replace(scenario, tie_break=tie_break, rx_order=rx_order)
                    assert [e.line() for e in run_simulation(other).entries] == lines, (
                        scenario.variant, n, seed, tie_break, rx_order)
    assert compared["strong"] >= 20 and compared["weak"] >= 15
