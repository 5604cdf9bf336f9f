from __future__ import annotations

import copy
import hashlib
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import broken_roster, shared_verdicts, strong_scenario, weak_scenario
from oracles import rerun_explore
from xpay import simnet
from xpay.core import (Certificate, ConfigError, Envelope, Guarantee, SigningKey, customer,
                       escrow, sign)
from xpay.explore import (POLICIES, _Checkpoints, _DecidedDelays, assignment_label,
                          battery_assignments, explore)
from xpay.properties import Monitor, Status
from xpay.simnet import StrategySpec, Synchronous, _Sim, run_simulation
from xpay.trace import EVERY_POLICY, format_lines

F = Fraction
GRID3 = (F(1, 4), F(1, 2), F(1))
GRID2 = (F(1, 2), F(1))


def _strong_battery():
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    return base, {"assignments": battery_assignments(base)}, 1800


def _tie_before_any_decision():
    """Weak n=1 with a silent escrow. Alice's guarantee is injected at her
    patience deadline, a tie that comes before any draw takes a decision, so
    every tie re-run resumes from the assignment's start."""
    base = weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(F(2), F(2)))
    guarantee = sign(Guarantee("pay0", base.resolved_timing().d[0]), escrow(0),
                     SigningKey(escrow(0)))
    base = replace(base, raw_injections=((F(2), Envelope(escrow(0), customer(0), guarantee)),))
    return base, {"assignments": [{escrow(0): StrategySpec("silent")}]}, 128


# (base scenario, explore arguments, branches)
DIFFERENTIAL = {
    "strong-n1-battery": _strong_battery,
    "weak-n1-patience-2-2": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(F(2), F(2))), {}, 7040),
    "weak-n1-patience-inf": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(None, None)), {}, 512),
    "strong-n2-prefix": lambda: (
        strong_scenario(n=2, delay=Synchronous(F(1), grid=GRID3)), {"budget": 5000}, 5000),
    "weak-n1-tie-before-any-decision": _tie_before_any_decision,
}
# the cases some of whose tie re-runs resume from the assignment's start
TIE_FROM_START = {"weak-n1-tie-before-any-decision"}


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
def test_checkpointed_exploration_matches_the_rerun_reference(case, monkeypatch):
    """Resuming each branch from a checkpoint visits the same branches in the
    same order as running each from t=0, with byte-identical traces. A tie
    re-run that resumes from the start (a run not yet started) does so only
    where the first tie comes before any decision."""
    base, kw, branches = DIFFERENTIAL[case]()
    want, want_report = branch_sequence(rerun_explore, base, **kw)
    explore_module = sys.modules["xpay.explore"]
    resumed = Counter()

    def noting(scenario, sim):
        tie_rerun = (scenario.tie_break, scenario.rx_order) != POLICIES[0]
        resumed[tie_rerun, sim.started] += 1
        return run_simulation(scenario, sim)

    monkeypatch.setattr(explore_module, "run_simulation", noting)
    got, report = branch_sequence(explore, base, **kw)
    assert (resumed[True, False] > 0) == (case in TIE_FROM_START)
    # a tie re-run is simulated, or shares an earlier run of its leaf
    simulated = resumed[True, False] + resumed[True, True]
    assert simulated + report.tie_reruns_shared == report.tie_reruns
    assert len(got) == branches
    assert got == want
    assert_same_report(report, want_report)
    assert report.complete == (branches < kw.get("budget", 200_000))
    assert sum(report.leaf_depths.values()) + report.tie_reruns == report.branches
    # only suffixes were simulated, and only they were fed to the monitors
    assert 0 < report.entries_simulated < report.entries == want_report.entries_simulated
    assert report.entries_checked == report.entries_simulated


@pytest.mark.parametrize("case", DIFFERENTIAL)
def test_a_tie_mask_names_the_policies_that_make_the_same_run(case):
    """At every leaf with a tie, the four policies, each run from t=0, group
    by identical entry lines exactly as the masks of the explored branches
    say: each branch's mask holds the policies whose run has its lines. A
    leaf without a tie keeps the whole mask."""
    base, kw, _ = DIFFERENTIAL[case]()
    leaves = []  # per leaf, (assignment label, decisions, mask) of each of its branches

    def record(outcome):
        if outcome.policy == POLICIES[0]:
            leaves.append([])
        leaves[-1].append((outcome.assignment_label, outcome.decisions, outcome.trace.mask))

    report = explore(base, on_branch=record, **kw)
    by_label = {assignment_label(a): a for a in kw.get("assignments", ({},))}
    params = base.resolved_timing()
    tied = 0
    for branches in leaves:
        if len(branches) == 1:
            assert branches[0][2] == EVERY_POLICY
            continue
        if len(branches) < len(POLICIES):
            continue  # the budget ended the leaf
        label, decisions, _ = branches[-1]
        assignment = by_label[label]
        lines = [format_lines(run_simulation(replace(
            base, delay=_DecidedDelays(base.delay.grid, set(assignment), list(decisions)),
            timing=params, byzantine=dict(assignment), tie_break=tie_break,
            rx_order=rx_order)).entries) for tie_break, rx_order in POLICIES]
        for k, (_, _, mask) in enumerate(branches):
            assert mask == sum(1 << j for j, other in enumerate(lines) if other == lines[k])
        tied += 1
    assert tied == report.tie_reruns // (len(POLICIES) - 1)


def test_exploration_across_time_scales_matches_the_rerun_reference():
    """Two assignments whose runs tick at different scales: 20 ticks per unit
    for the compliant runs, 60 once Bob posts his sends 1/3 late. Both
    explorers compare terminal times across the two, and agree branch for
    branch, on the worst terminal time and on every count."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID3))
    assignments = [{}, {customer(1): StrategySpec("delay_own_sends", {"delay": F(1, 3)})}]
    scales = []
    for assignment in assignments:
        sim = _Sim(replace(base, byzantine=assignment))
        sim.run()
        scales.append(sim.scale)
    assert scales == [20, 60]
    want, want_report = branch_sequence(rerun_explore, base, assignments=assignments)
    got, report = branch_sequence(explore, base, assignments=assignments)
    assert len(got) == 1053
    assert got == want
    assert_same_report(report, want_report)
    assert report.max_customer_terminal == want_report.max_customer_terminal is not None


def assert_same_report(report, want_report):
    for name in ("branches", "complete", "counts", "bob_paid_everywhere",
                 "max_customer_terminal", "entries", "tie_reruns", "leaf_depths"):
        assert getattr(report, name) == getattr(want_report, name), name
    assert ([(v.assignment_label, v.policy, v.decisions) for v in report.violations]
            == [(v.assignment_label, v.policy, v.decisions) for v in want_report.violations])


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
    """Snapshots taken before a seeded run and just before each of its draws,
    restored after the run ended and in no particular order, each finish into
    the same trace, and the runs leave the shared definitions as they found
    them."""
    want = run_simulation(scenario).render()
    sim = _Sim(scenario)
    taken = [sim.snapshot()]
    sim.on_draw = lambda: taken.append(sim.snapshot())
    machines = {pid: aut.machine for pid, aut in sim.automata.items()}
    states = {pid: dict(m.states) for pid, m in machines.items()}
    assert sim.run().render() == want
    assert len(taken) > 4 and taken[1].rng is None and taken[-1].rng is not None
    sim.on_draw = None
    for snap in (taken[len(taken) // 2], taken[0], taken[-1], taken[len(taken) // 2]):
        sim.restore(snap)
        assert sim.run().render() == want
    assert {pid: aut.machine for pid, aut in sim.automata.items()} == machines
    for pid, m in machines.items():
        assert {name: m.states[name] for name in states[pid]} == states[pid]


@pytest.mark.parametrize("name", simnet.STRATEGIES)
def test_a_strategy_keeps_no_state_of_its_own(name):
    """A strategy, on the last participant it applies to, changes none of its
    attributes during a run: what it learns is its vault, which a snapshot
    keeps. Restoring the snapshot taken before the run and those taken just
    before its middle and last draws finishes into the same trace."""
    _, applies = simnet.STRATEGIES[name]
    for base in (strong_scenario(n=2, seed=3, rho=F(1, 10)), weak_scenario(n=2, seed=5)):
        pids = [pid for pid in base.participant_ids() if applies(pid, base)]
        if pids:
            break
    scenario = replace(base, byzantine={pids[-1]: StrategySpec(name)})
    want = run_simulation(scenario).render()
    sim = _Sim(scenario)
    (strategy,) = sim.strategies.values()
    before = copy.deepcopy(vars(strategy))
    taken = [sim.snapshot()]
    sim.on_draw = lambda: taken.append(sim.snapshot())
    assert sim.run().render() == want
    assert copy.deepcopy(vars(strategy)) == before
    sim.on_draw = None
    for snap in (taken[len(taken) // 2], taken[0], taken[-1]):
        sim.restore(snap)
        assert sim.run().render() == want


def run_state(sim):
    """Everything a restore puts back, read from the run's own objects."""
    return (
        sim.started, list(sim.heap), sim.seq, sim.tick, list(sim.entries), sim.mask,
        sim.pending_compliant,
        dict(sim.ledger.balances), sim.ledger.in_flight,
        [(aut.state, dict(aut.clock_vars), dict(aut.captured), list(aut.inbox), aut.stuck,
          aut.due) for aut in sim.automata.values()],
        {pid: key.nonce for pid, key in sim.keys.items()},
        {pid: list(vault) for pid, vault in sim.vaults.items()},
        list(sim.outbox),
    )


def snapshot_contents(snap):
    """A deep copy of what `snap` holds, its prefix of the entries included."""
    return copy.deepcopy(snap._replace(entries=snap.entries[:snap.entry_count]))


def test_a_restore_puts_back_each_armed_deadline():
    """A snapshot keeps each automaton's state, deadline tick, clock variables,
    captured messages, inbox and stuck flag, the ledger, the key nonces, the
    Byzantine participants' vaults and the sends not yet drawn: after the run
    has moved on, a restore
    puts back each of them as it stood, and neither the later runs nor the
    restores change what any snapshot holds. Clock variables hold ticks,
    ints. Bob sending his certificate early gets it captured; Bob as a
    replayer decides what to echo from his vault alone."""
    states = []
    moved_back = []  # per automaton and restore: did the restore change its state
    for strategy in ("premature_certificate", "replayer"):
        sim = _Sim(strong_scenario(n=2, seed=3, rho=F(1, 10),
                                   byzantine={customer(2): StrategySpec(strategy)}))
        taken = []
        sim.on_draw = lambda: taken.append(
            (sim.snapshot(), run_state(sim), snapshot_contents(sim.snapshot())))
        want = sim.run().render()
        sim.on_draw = None
        for snap, state, _ in reversed(taken):
            ended = [aut.state for aut in sim.automata.values()]
            sim.restore(snap)
            assert run_state(sim) == state
            moved_back += [was is not aut.state for was, aut in zip(ended, sim.automata.values())]
            assert sim.run().render() == want
        for snap, _, contents in taken:
            assert snapshot_contents(snap) == contents
        states += [state for _, state, _ in taken]
    automata = [aut for state in states for aut in state[9]]
    assert any(moved_back)
    assert any(isinstance(due, int) for *_, due in automata)
    assert any(clock_vars for _, clock_vars, *_ in automata)
    assert all(type(tick) is int for _, clock_vars, *_ in automata
               for tick in clock_vars.values())
    assert any(captured for _, _, captured, *_ in automata)
    assert any(inbox for _, _, _, inbox, *_ in automata)
    assert any(vault for state in states for vault in state[11].values())
    assert all(state[12] for state in states)  # each was taken just before a draw


def test_a_snapshot_and_a_restore_copy_the_outbox():
    """A snapshot taken just before a draw holds the sends that draw takes.
    The draw empties the run's outbox, not the snapshot's, and a restore gives
    the run its own list, so the sends of the resumed run do not reach the
    snapshot. Restored twice, it finishes into the same trace both times."""
    sim = _Sim(strong_scenario(n=2, seed=3))
    taken = []
    sim.on_draw = lambda: taken.append((sim.snapshot(), list(sim.outbox)))
    want = sim.run().render()
    sim.on_draw = None
    assert len(taken) > 4 and all(outbox for _, outbox in taken)
    assert all(list(snap.outbox) == outbox for snap, outbox in taken)
    snap, outbox = taken[len(taken) // 2]
    for _ in range(2):
        sim.restore(snap)
        assert sim.outbox == outbox and sim.outbox is not snap.outbox
        assert sim.run().render() == want
        assert list(snap.outbox) == outbox


def test_monitors_are_forked_only_where_a_branch_can_resume(monkeypatch):
    """Snapshots, and with them monitor copies, are taken only where a branch
    can resume: apart from each assignment's start, every snapshot a baseline
    run takes is a checkpoint credited with at least one decision, at most
    546 snapshots over the n=1 battery. A checkpoint gets its copy of the
    monitor when it is taken; every other copy is a restore's, one per
    branch that is simulated and does not start its assignment."""
    counts = Counter()
    taken, starts, credited = [], [], {}

    def counted(name, fn):
        def wrapper(self, *args):
            counts[name] += 1
            return fn(self, *args)
        return wrapper

    def snapshot(sim, fn=_Sim.snapshot):
        taken.append(fn(sim))
        return taken[-1]

    def init(checkpoints, sim, model, fn=_Checkpoints.__init__):
        fn(checkpoints, sim, model)
        starts.append(checkpoints.start.snapshot)

    def draw(checkpoints, fn=_Checkpoints.draw):
        fn(checkpoints)
        for cp in checkpoints.by_decision:
            assert cp.monitor.fed == cp.snapshot.entry_count
            credited[id(cp.snapshot)] = cp.snapshot

    monkeypatch.setattr(Monitor, "copy", counted("copies", Monitor.copy))
    monkeypatch.setattr(_Sim, "snapshot", snapshot)
    monkeypatch.setattr(_Checkpoints, "__init__", init)
    monkeypatch.setattr(_Checkpoints, "draw", draw)
    monkeypatch.setattr(_Checkpoints, "restore", counted("restores", _Checkpoints.restore))
    base, kw, branches = _strong_battery()
    report = explore(base, **kw)
    assert report.branches == branches
    assert len(starts) == len(kw["assignments"])
    assert {id(snap) for snap in taken} == {id(snap) for snap in (*starts, *credited.values())}
    assert len(taken) == len(starts) + len(credited) <= 546
    assert report.tie_reruns_shared == 188
    assert counts["restores"] == branches - len(starts) - report.tie_reruns_shared
    assert counts["copies"] == len(credited) + counts["restores"]


def test_a_verdict_without_a_witness_is_shared(monkeypatch):
    """Every verdict the n=1 battery's exploration gives without a witness,
    safety and liveness, is one of the objects `properties` shares, and each
    of those still has an empty witness afterwards."""
    explore_module = sys.modules["xpay.explore"]
    given = []

    def collecting(fn):
        def wrapper(*args):
            verdicts = fn(*args)
            given.extend(verdicts if isinstance(verdicts, list) else [verdicts])
            return verdicts
        return wrapper

    for name in ("safety_verdicts", "check_liveness"):
        monkeypatch.setattr(explore_module, name, collecting(getattr(explore_module, name)))
    base, kw, branches = _strong_battery()
    report = explore(base, **kw)
    assert report.branches == branches
    # seven safety verdicts and L per simulated branch
    assert len(given) == 8 * (branches - report.tie_reruns_shared)
    shared = {id(v) for v in shared_verdicts()}
    clean = [v for v in given if not v.witness]
    assert all(id(v) in shared for v in clean), {v.line() for v in clean if id(v) not in shared}
    assert {v.status for v in clean} == {Status.HOLDS, Status.VACUOUS}
    assert [v.line() for v in shared_verdicts() if v.witness] == []


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
