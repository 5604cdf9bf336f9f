from __future__ import annotations

import copy
import hashlib
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import broken_roster, derived, shared_verdicts, strong_scenario, weak_scenario
from oracles import rerun_explore
from xpay import simnet
from xpay.core import (Certificate, ConfigError, Envelope, Guarantee, Promise, SigningKey,
                       customer, escrow, sign)
from xpay.explore import (POLICIES, _Checkpoints, _DecidedDelays, _Revisit, assignment_label,
                          battery_assignments, explore)
from xpay.properties import Monitor, Status, _Terminal, safety_verdicts
from xpay.simnet import Scripted, Snapshot, StrategySpec, Synchronous, _Sim, run_simulation
from xpay.trace import EVERY_POLICY, SENT, format_lines

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


def _tie_rerun_past_the_baseline():
    """Weak n=1 with no patience, where some tie re-runs take more decisions
    than their leaf's baseline run: the odometer then changes a decision that
    no baseline draw took, and the next branch resumes at the baseline's last
    draw that took one."""
    base = weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(F(0), F(0)))
    assignments = [{escrow(0): StrategySpec("silent"),
                    customer(1): StrategySpec("withhold_certificate")},
                   {customer(1): StrategySpec("premature_certificate")}]
    return base, {"assignments": assignments}, 342


def _strong_drift_slice():
    """Strong n=2 with seeded clocks of mixed rates (rho 1/10), over the
    first 40 battery assignments: run states merge under clock rates other
    than 1."""
    base = strong_scenario(n=2, seed=3, rho=F(1, 10), clock_mode="seeded",
                           delay=Synchronous(F(1), grid=GRID2))
    return base, {"assignments": battery_assignments(base)[:40], "budget": 4000}, 4000


def _strong_battery_cut(budget):
    def case():
        base, kw, _ = _strong_battery()
        return base, dict(kw, budget=budget), budget
    return case


# (base scenario, explore arguments, branches)
DIFFERENTIAL = {
    "strong-n1-battery": _strong_battery,
    # the battery cut by a budget, just before the branch of that index
    # (from 0) would be reported: a replayed branch, the baseline run that
    # reaches an explored run state, a simulated baseline run, the first tie
    # re-run that shares a run, and the first tie re-run that is simulated
    **{f"strong-n1-battery-budget-{budget}": _strong_battery_cut(budget)
       for budget in (30, 54, 72, 73, 74)},
    "weak-n1-patience-2-2": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(F(2), F(2))), {}, 7040),
    "weak-n1-patience-inf": lambda: (
        weak_scenario(delay=Synchronous(F(1), grid=GRID2), patience=(None, None)), {}, 512),
    "strong-n2-prefix": lambda: (
        strong_scenario(n=2, delay=Synchronous(F(1), grid=GRID3)), {"budget": 5000}, 5000),
    "strong-n2-drift-battery-slice": _strong_drift_slice,
    "weak-n1-tie-before-any-decision": _tie_before_any_decision,
    "weak-n1-tie-rerun-past-the-baseline": _tie_rerun_past_the_baseline,
}
# the cases some of whose tie re-runs resume from the assignment's start
TIE_FROM_START = {"weak-n1-tie-before-any-decision"}
# the cases with no node: every baseline run ties before its first decision
# draw, and a node is a decision draw with the tie mask still whole
NO_NODE = {"weak-n1-tie-before-any-decision"}
# the cases where a tie re-run takes more decisions than its leaf's baseline run
TIE_RERUN_LONGER = {"weak-n1-tie-rerun-past-the-baseline"}


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
    simulated = 0  # the runs that reach their end; a run stopped at an explored draw raises

    def noting(scenario, sim):
        nonlocal simulated
        tie_rerun = (scenario.tie_break, scenario.rx_order) != POLICIES[0]
        resumed[tie_rerun, sim.started] += 1
        trace = run_simulation(scenario, sim)
        simulated += 1
        return trace

    monkeypatch.setattr(explore_module, "run_simulation", noting)
    got, report = branch_sequence(explore, base, **kw)
    assert (resumed[True, False] > 0) == (case in TIE_FROM_START)
    # a branch is simulated, shares an earlier run of its leaf, or is replayed
    # from a subtree explored below the same run state
    assert simulated + report.tie_reruns_shared + report.branches_replayed == report.branches
    assert (report.branches_replayed > 0 and report.states > 0) == (case not in NO_NODE)
    assert len(got) == branches
    assert got == want
    assert_same_report(report, want_report)
    assert report.complete == (branches < kw.get("budget", 200_000))
    baseline = []
    longer = False
    for _, policy, decisions, *_ in got:
        if policy == POLICIES[0]:
            baseline = decisions
        longer = longer or len(decisions) > len(baseline)
    assert longer == (case in TIE_RERUN_LONGER)
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
    # the budget may end the last leaf after any of its branches; its tie re-runs
    cut = len(leaves.pop()) - 1 if not report.complete else 0
    tied = 0
    for branches in leaves:
        if len(branches) == 1:
            assert branches[0][2] == EVERY_POLICY
            continue
        label, decisions, _ = branches[-1]
        assignment = by_label[label]
        lines = [format_lines(run_simulation(replace(
            base, delay=_DecidedDelays(base.delay.grid, set(assignment), list(decisions)),
            timing=params, byzantine=dict(assignment), tie_break=tie_break,
            rx_order=rx_order)).entries) for tie_break, rx_order in POLICIES]
        for k, (_, _, mask) in enumerate(branches):
            assert mask == sum(1 << j for j, other in enumerate(lines) if other == lines[k])
        tied += 1
    assert tied * (len(POLICIES) - 1) + cut == report.tie_reruns


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
    explore_module = sys.modules["xpay.explore"]
    last_run = [None]
    rechecked = []  # per replayed branch checked again, the entries its monitor takes in

    def running(scenario, sim):
        last_run[0] = run_simulation(scenario, sim)
        return last_run[0]

    def checking(trace, monitor):
        if trace is not last_run[0]:  # no run made it: a replayed branch
            rechecked.append(len(trace.entries) - monitor.fed)
        return safety_verdicts(trace, monitor)

    monkeypatch.setattr(explore_module, "run_simulation", running)
    monkeypatch.setattr(explore_module, "safety_verdicts", checking)
    got, report = branch_sequence(explore, base, **kw)
    assert got == want
    assert_same_report(report, want_report)
    # a replayed branch that violates is checked again, from the live monitor,
    # so that its witnesses name its own entries
    assert rechecked and report.branches_replayed > len(rechecked)
    assert report.entries_checked == report.entries_simulated + sum(rechecked) < report.entries
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
        dict(sim.balances), sim.in_flight,
        [(aut.state, aut.captured, list(aut.inbox), aut.stuck, aut.due)
         for aut in sim.automata.values()],
        {pid: key.nonce for pid, key in sim.keys.items()},
        {pid: list(vault) for pid, vault in sim.vaults.items()},
        list(sim.outbox),
    )


def snapshot_contents(snap):
    """A deep copy of what `snap` holds, its prefix of the entries included."""
    return copy.deepcopy(snap._replace(entries=snap.entries[:snap.entry_count]))


def test_a_restore_puts_back_each_armed_deadline():
    """A snapshot keeps each automaton's state, captured message, inbox,
    stuck flag and deadline tick, the balances and value in flight, the key
    nonces, the Byzantine participants' vaults and the sends not yet drawn:
    after the run has moved on, a restore puts back each of them as it stood,
    and neither the later runs nor the restores change what any snapshot
    holds. Deadlines are ticks, ints. Bob sending his certificate early gets
    it captured; Bob as a replayer decides what to echo from his vault
    alone."""
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
    assert any(due is not None for *_, due in automata)
    assert all(due is None or type(due) is int for *_, due in automata)
    assert any(captured for _, captured, *_ in automata)
    assert any(inbox for _, _, inbox, *_ in automata)
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
    run takes is a frame on the stack, at a draw that takes at least one
    decision, or the one a run stopped at because its run state was explored,
    at most 546 snapshots over the n=1 battery. A frame gets its copy of the
    monitor when it is taken, fed exactly the entries before its snapshot;
    every other copy is a restore's, one per run that does not start its
    assignment: each branch that is simulated, and each run that stopped."""
    counts = Counter()
    taken, starts, credited, stops = [], [], {}, []
    runs = 0  # the runs begun: the branches simulated, and the runs stopped

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
        try:
            fn(checkpoints)
        except _Revisit:
            stops.append(taken[-1])
            raise
        for frame in checkpoints.frames:
            assert frame.monitor.fed == frame.snapshot.entry_count
            credited[id(frame.snapshot)] = frame.snapshot

    monkeypatch.setattr(Monitor, "copy", counted("copies", Monitor.copy))
    monkeypatch.setattr(_Sim, "snapshot", snapshot)
    monkeypatch.setattr(_Checkpoints, "__init__", init)
    monkeypatch.setattr(_Checkpoints, "draw", draw)
    monkeypatch.setattr(_Checkpoints, "restore", counted("restores", _Checkpoints.restore))

    def running(scenario, sim):
        nonlocal runs
        runs += 1
        return run_simulation(scenario, sim)

    monkeypatch.setattr(sys.modules["xpay.explore"], "run_simulation", running)
    base, kw, branches = _strong_battery()
    report = explore(base, **kw)
    assert report.branches == branches
    assert len(starts) == len(kw["assignments"])
    assert {id(snap) for snap in taken} == {
        id(snap) for snap in (*starts, *credited.values(), *stops)}
    assert len(taken) == len(starts) + len(credited) + len(stops) <= 546
    assert runs - len(stops) + report.tie_reruns_shared + report.branches_replayed == branches
    assert counts["restores"] == runs - len(starts)
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
    # seven safety verdicts and L per simulated branch; no replayed branch
    # violates, so none is checked again
    assert len(given) == 8 * (branches - report.tie_reruns_shared - report.branches_replayed)
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


def test_a_model_with_neither_a_grid_nor_a_delta_is_refused():
    """Without a grid the explorer takes `(delta,)`; a model with no delivery
    bound gives it nothing to draw from."""
    base = strong_scenario(delay=Scripted(default=F(1)), timing=derived(1))
    with pytest.raises(ConfigError, match="exploration needs a delay grid"):
        explore(base)


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


@pytest.mark.parametrize("budget, message", [
    (True, "budget must be an integer"), (2.5, "budget must be an integer"),
    (F(3), "budget must be an integer"), (-3, "budget must be non-negative"),
])
def test_a_budget_is_an_integer_of_at_least_zero(budget, message):
    """The library refuses a budget the CLI would refuse, bools and floats
    included. A budget of 0 runs no branch and reports the tree incomplete:
    the CLI's one budget for every patience set can run out between two."""
    base = strong_scenario(delay=Synchronous(F(1), grid=GRID2))
    with pytest.raises(ConfigError) as refused:
        explore(base, budget=budget)
    assert str(refused.value) == message
    report = explore(base, budget=0)
    assert (report.branches, report.complete) == (0, False)


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


def _taken_snapshots(scenario):
    """The snapshots a run of `scenario` takes just before each of its draws."""
    sim = _Sim(scenario)
    taken = []
    sim.on_draw = lambda: taken.append(sim.snapshot())
    sim.run()
    return sim, taken


def _bump_automaton(snap, k, part, change):
    automata = list(snap.automata)
    fields = list(automata[k])
    fields[part] = change(fields[part])
    automata[k] = tuple(fields)
    return snap._replace(automata=tuple(automata))


def test_a_run_state_key_tells_apart_each_field_of_a_snapshot():
    """Two snapshots that differ in any one field but their entries get
    different keys, and so do two that differ in any one part of one
    automaton's state: each is run state that a later event reads. The entry
    list is left out, its count stays. A queued event's seq counts only as
    its rank among the queued events and undrawn sends, and the next seq not
    at all: a push always takes one past every queued seq."""
    scenario = strong_scenario(n=2, seed=3, rho=F(1, 10),
                               byzantine={customer(2): StrategySpec("replayer")})
    sim, taken = _taken_snapshots(scenario)
    snap = next(s for s in taken if s.rng is not None and any(s.vaults) and len(s.heap) > 1
                and any(due is not None for *_, due in s.automata))
    states = [state for aut in sim.automata.values() for state in aut.machine.states.values()]
    later = max(snap.heap)
    message = next(m for vault in snap.vaults for m in vault)
    changed = {
        "started": snap._replace(started=not snap.started),
        "heap": snap._replace(heap=tuple(ev for ev in snap.heap if ev is not later)),
        "tick": snap._replace(tick=snap.tick + 1),
        "entry_count": snap._replace(entry_count=snap.entry_count + 1),
        "mask": snap._replace(mask=snap.mask & 1),
        "pending_compliant": snap._replace(pending_compliant=snap.pending_compliant + 1),
        "outbox": snap._replace(outbox=snap.outbox[1:]),
        "balances": snap._replace(balances=((snap.balances[0][0], snap.balances[0][1] + 1),
                                            *snap.balances[1:])),
        "in_flight": snap._replace(in_flight=snap.in_flight + 1),
        "rng": snap._replace(rng=None),
        "automata": _bump_automaton(snap, 0, 0, lambda st: next(
            other for other in states if other.name != st.name)),
        "nonces": snap._replace(nonces=(snap.nonces[0] + 1, *snap.nonces[1:])),
        "vaults": snap._replace(vaults=tuple(vault + (message,) for vault in snap.vaults)),
    }
    assert set(changed) | {"entries", "seq"} == set(Snapshot._fields)
    parts = {  # each part of an automaton's state: (state, captured, inbox, stuck, due)
        "captured": (1, lambda cap: message),
        "inbox": (2, lambda inbox: (*inbox, Envelope(customer(0), escrow(0), message))),
        "stuck": (3, lambda stuck: not stuck),
        "due": (4, lambda due: 1 if due is None else due + 1),
    }
    for name, (part, change) in parts.items():
        changed[name] = _bump_automaton(snap, 0, part, change)
    key = snap.key()
    assert {name for name, other in changed.items() if other.key() == key} == set()
    assert hash(key) == hash(snap._replace(entries=[]).key())
    # seqs: the next seq and a shift of every queued seq leave the key as it
    # is. Swapping the seqs of a queued event and an undrawn send does not:
    # once drawn, the send's delivery may meet the event at one instant,
    # where the seqs decide which comes first.
    assert snap._replace(seq=snap.seq + 5).key() == key
    shifted = snap._replace(heap=tuple((t, p, s + 7, *rest) for t, p, s, *rest in snap.heap),
                            outbox=tuple((s + 7, env) for s, env in snap.outbox))
    assert shifted.key() == key
    (send_seq, env), *rest = snap.outbox
    swapped = snap._replace(
        heap=tuple((*ev[:2], send_seq, *ev[3:]) if ev is later else ev for ev in snap.heap),
        outbox=((later[2], env), *rest))
    assert swapped.key() != key


def test_an_escrow_past_its_window_keeps_no_trace_of_when_it_opened():
    """An escrow's window counts from its entry to await_certificate, and
    `due` is the one timer it keeps. Once paid out, its part of the run state
    is the same whenever its promise went out, so run states that differ
    only there share a key."""
    issued, parts = set(), set()
    for seed in range(6):
        sim = _Sim(strong_scenario(seed=seed, delay=Synchronous(F(1), grid=GRID3)))
        trace = sim.run()
        issued |= {e.tick for e in trace.entries
                   if e.rec is SENT and isinstance(e.env.msg.payload, Promise)}
        aut = sim.automata[escrow(0)]
        assert aut.current == "paid_out" and aut.due is None
        parts.add(sim.snapshot().automata[list(sim.automata).index(escrow(0))])
    assert len(issued) > 1 and len(parts) == 1


def test_a_monitor_projection_tells_apart_each_state_attribute():
    """Two monitors that differ in any one attribute of the state their
    verdicts read get different projections; two that differ only in the
    entry indices they hold (their witnesses) do not. Every attribute that
    `Monitor.__init__` sets is one or the other, or does not change during a
    run."""
    trace = run_simulation(strong_scenario())
    monitor = Monitor(trace.meta)
    monitor.feed(trace.entries)
    bob = customer(1)
    hit = monitor.terminal[bob]
    constant = {"meta", "_roles", "_weak", "_alice_certificate", "_escrows", "_guarded",
                "_connectors"}

    def changed(**attrs):
        other = monitor.copy()
        for name, value in attrs.items():
            setattr(other, name, value)
        return other

    state = {
        "net": changed(net={**monitor.net, bob: monitor.net[bob] + 1}),
        "in_flight": changed(in_flight=monitor.in_flight + 1),
        "sent": changed(sent=monitor.sent | {("a key", 0, None)}),
        "seen": changed(seen=monitor.seen | {(bob, ("a key", 0, None))}),
        "terminal": [changed(terminal={**monitor.terminal, bob: hit._replace(**{part: value})})
                     for part, value in (("tick", hit.tick + 1), ("scale", hit.scale * 2),
                                         ("net", hit.net - 1),
                                         ("certified", not hit.certified))],
        "engaged": changed(engaged=monitor.engaged - {bob}),
        "impossible": changed(impossible=(3,)),
        "dips": changed(dips=((0, 3, "e0 dipped"),)),
        "auth": changed(auth=((3, "a forged send"),)),
        "cons": changed(cons=(3, "e0 went negative")),
        "alice_certified": changed(alice_certified=not monitor.alice_certified),
        "bob_signed": changed(bob_signed=not monitor.bob_signed),
        "bob_aborted": changed(bob_aborted=not monitor.bob_aborted),
        "commit_at": changed(commit_at=3),
        "abort_at": changed(abort_at=3),
    }
    indices = {  # the same state, with other entry indices
        "fed": changed(fed=monitor.fed + 1),
        "terminal": changed(terminal={**monitor.terminal, bob: hit._replace(idx=hit.idx + 1)}),
        "impossible": (changed(impossible=(3,)), changed(impossible=(4,))),
        "dips": (changed(dips=((0, 3, "e0 dipped"),)), changed(dips=((0, 4, "e0 dipped"),))),
        "auth": (changed(auth=((3, "a forged send"),)), changed(auth=((4, "a forged send"),))),
        "cons": (changed(cons=(3, "e0 went negative")), changed(cons=(4, "e0 went negative"))),
        "commit_at": (changed(commit_at=3), changed(commit_at=4)),
        "abort_at": (changed(abort_at=3), changed(abort_at=4)),
    }
    assert set(state) | {"fed"} | constant == set(vars(monitor))
    assert set(_Terminal._fields) == {"idx", "tick", "scale", "net", "certified"}
    projection = monitor.projection()
    assert {name for name, others in state.items()
            for other in (others if isinstance(others, list) else [others])
            if other.projection() == projection} == set()
    for name, pair in indices.items():
        first, second = pair if isinstance(pair, tuple) else (monitor, pair)
        assert first.projection() == second.projection(), name
