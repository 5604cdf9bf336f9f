"""Exhaustive branch exploration: the brute-force oracle behind the safety claims.

Enumerates every assignment of grid delays to messages bound for compliant
recipients (deliveries to Byzantine participants are pinned at the grid
maximum: the adversary's reaction timing is its own to choose, and pinning it
keeps the tree finite), crossed with the scheduler's tie-break policies and
with a configurable family of Byzantine assignments. Every branch gets the
verdicts of its own complete trace.

Policies beyond the default are re-run only for leaves whose baseline run hit
a simultaneity (two enabled receives, or a receive against a due timeout):
branches without ties execute identically under every policy. A tie re-run
under a policy in the tie mask of a run of its leaf is that run again.

The search is depth first over one stack of draw frames (stateless search as
in VeriSoft, Godefroid, POPL 1997), each a snapshot taken just before a draw
that takes a decision: a branch resumes at the frame of the decision it
changes, and simulates and checks only the rest. Nor is a subtree simulated
twice: each assignment keeps a visited set of run states, as in SPIN
(Holzmann, IEEE TSE 1997). Its nodes are the frames drawn with the tie mask
whole; a tie re-run resumes at the deepest, a run that reaches a node
explored before replays the branches kept below it, and a node whose frame
leaves the stack is explored to the end (`_Checkpoints`). The set costs
memory: the kept entries of each explored subtree, until the assignment ends.

Every branch, simulated, shared or replayed, is one `_Leaf` record reported
by one emitter, with the outcome that simulating it from t=0 would give,
trace and verdicts byte for byte.

Work is done where its inputs change. Once per tree: the grid, the scenario
less its assignment, and the roster every run is built on (`simnet._Roster`:
every check but the assignment's, the timing, clocks, balances and
definitions). Once per assignment: its check, its run (`simnet._Sim`, with
the strategies, automata, time scale and compliant set), its checkpoints
and its scenarios, the tie-break ones on its first tie re-run. Once per
leaf: the run's verdicts and their tally row (`_Row`). Once per branch: the
counts the report keeps, and only where something reads them, a trace, an
outcome and the decision config, built when a rendered header asks for it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (ConfigError, Envelope, ParticipantId, ParticipantKind, as_integer,
                   as_non_negative)
from .properties import (HOLDS, VIOLATED, Monitor, Verdict, add_row, check_liveness,
                         safety_verdicts, tally_row)
from .simnet import (STRATEGIES, Scenario, Snapshot, StrategySpec, _Roster, _Sim, _check_grid,
                     run_simulation)
from .trace import EVERY_POLICY, POLICIES, Trace


class _DecidedDelays:
    """Delay model fed by an explicit decision vector over the grid.

    Each send to a compliant recipient consumes one decision; past the end of
    the vector the first grid point is chosen and the vector grows, which is
    how the driver discovers the branching degree of a prefix. It has no
    delivery bound: its grid may pass delta, and the explorer hands every run
    explicit timing.
    """
    delta = None

    def __init__(self, grid: tuple[Fraction, ...], byzantine: set[ParticipantId],
                 decisions: list[int]):
        self.grid = grid
        self.byzantine = byzantine
        self.decisions = decisions
        self.cursor = 0

    def delays(self) -> tuple[Fraction, ...]:
        return self.grid

    def delay_for(self, env: Envelope, run) -> Fraction:
        if env.dst in self.byzantine:
            return self.grid[-1]
        if self.cursor < len(self.decisions):
            choice = self.decisions[self.cursor]
        else:
            choice = 0
            self.decisions.append(0)
        self.cursor += 1
        return self.grid[choice]

    def to_config(self, decisions: Optional[Sequence[int]] = None) -> dict:
        """The model's config, with `decisions` in place of its own if given."""
        return {"kind": "explored", "grid": [str(g) for g in self.grid],
                "decisions": list(self.decisions if decisions is None else decisions)}


@dataclass
class BranchOutcome:
    assignment_label: str
    policy: tuple[str, str]
    decisions: tuple[int, ...]
    verdicts: list[Verdict]
    trace: Trace


@dataclass
class ExploreReport:
    branches: int = 0
    complete: bool = True
    violations: list[BranchOutcome] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    bob_paid_everywhere: dict[str, bool] = field(default_factory=dict)
    max_customer_terminal: Optional[Fraction] = None
    entries: int = 0  # trace entries over all branches
    entries_simulated: int = 0  # of those, the ones a run simulated past its checkpoint
    entries_checked: int = 0  # entries fed to a branch's monitor past its checkpoint
    tie_reruns: int = 0  # branches under a policy other than the first
    tie_reruns_shared: int = 0  # of those, the ones that reused a run of their leaf
    branches_replayed: int = 0  # branches replayed from a subtree explored before
    states: int = 0  # the run states explored once each (nodes), over all assignments
    leaf_depths: dict[int, int] = field(default_factory=dict)  # leaves by decisions taken

    @property
    def safe(self) -> bool:
        return not self.violations


def assignment_label(assignment: dict[ParticipantId, StrategySpec]) -> str:
    if not assignment:
        return "compliant"
    return ",".join(f"{p}={assignment[p].label()}" for p in sorted(assignment))


class _Frame(NamedTuple):
    """A draw that takes a decision in the last baseline run."""
    snapshot: Snapshot  # taken just before the draw
    cursor: int  # decisions consumed before the draw
    monitor: Monitor  # the checks, fed every entry before the draw
    node: Optional[list]  # if a node, its `_Leaf` and `_Link` items in the order explored


class _Row:
    """The tally of one verdict list: each verdict's property and count
    column (`tally_row`), whether one is violated, and how many branches
    reported it. A leaf's verdicts get their row when the leaf is made, and
    each report of the leaf, shared or replayed, adds one branch to it.

    A row holds its list, so that the ids of its verdicts name it: a verdict
    without a witness is a shared object, so the lists of clean runs share
    a few rows, and one with a witness lives as long as the row."""
    __slots__ = ("verdicts", "cells", "violated", "branches")

    def __init__(self, verdicts: list[Verdict]):
        self.verdicts = verdicts
        self.cells = tally_row(verdicts)
        self.violated = any(column == "fail" for _, column in self.cells)
        self.branches = 0


class _Leaf(NamedTuple):
    """A reported branch. A run simulated for a leaf is held from t=0; a tie
    re-run that shares it is the same record under its own policy; a node
    keeps each branch below it as the same record cut at the node's draw."""
    policy: int  # its index in `POLICIES`
    decisions: tuple[int, ...]  # its decisions from the cut on
    entries: list  # its entries from the cut on
    stop_reason: str
    final_balances: dict
    final_in_flight: int
    mask: int  # the policies that choose as it did at every tie, and so make it again
    # None in a node if one is violated: a witness names entries, so a replay checks again
    verdicts: Optional[list[Verdict]]
    row: Optional[_Row]  # the verdicts' tally row; None where they are
    paid: bool  # Bob is paid, as L and the monitor tell it


class _Link(NamedTuple):
    """A node below a node, with the decisions and entries between their draws."""
    node: list
    decisions: tuple[int, ...]
    entries: list


def _replay(node: list, decisions: tuple[int, ...], entries: list):
    """Each branch below `node`, as (leaf, decision vector, entries), for a run
    that reaches a draw with its key after `decisions` and `entries`."""
    for item in node:
        if type(item) is _Link:
            yield from _replay(item.node, decisions + item.decisions, entries + item.entries)
        else:
            yield item, decisions + item.decisions, entries + item.entries


class _Revisit(Exception):
    """Stops a baseline run at a draw whose run state was explored before."""

    def __init__(self, node: list):
        super().__init__()
        self.node = node


class _Checkpoints:
    """Where the branches of one assignment resume, and the run states
    explored in it.

    `frames` is a stack with one frame per draw that takes a decision (a draw
    with a send to a compliant recipient) in the last baseline (first-policy)
    run, each with a snapshot taken just before its draw. Until a decision
    changes, every later run agrees with the baseline up to that decision's
    draw, so a branch resumes at the last frame whose cursor is not past the
    decision it changes, and the frames above it leave the stack.

    A frame pushed with the tie mask whole is a node: a run state explored
    once, kept in `visited` under the snapshot's key and the monitor's
    projection, with each branch explored below it and a link to each node
    below it, the ones reached again included. The mask only shrinks along a
    run, so the nodes are the stack's first frames. Runs under the other
    policies agree with the baseline up to its first tie (no policy matters
    before there is a choice to make), so they resume at the deepest node, or
    at the start. Every branch of a leaf resumes at that node or below it, so
    what lies below a node depends only on its key. A baseline run that
    reaches a draw whose key is in `visited` stops there (`_Revisit`). That
    node was explored to the end, as is each node whose frame left the stack:
    a run below a node meets no draw with its key, as each such draw has more
    entries before it.

    `monitor` is the check of the run in progress; it takes in the entries
    only as far as it has to. Each frame keeps a copy of it as it stood at
    the snapshot, so a branch feeds the monitor only the entries it
    simulates: those past `origin`, the frame the run started from.
    """

    def __init__(self, sim: _Sim, model: _DecidedDelays):
        self.sim = sim
        self.model = model
        self.monitor = Monitor(sim.meta)
        self.frames: list[_Frame] = []
        self.start = self.origin = _Frame(sim.snapshot(), 0, self.monitor.copy(), None)
        self.resumed = False  # the next draw is the top frame's
        self.visited: dict[tuple, list] = {}  # every node, by key

    def draw(self) -> None:
        """The engine's `on_draw` during baseline runs."""
        if self.resumed:
            self.resumed = False
            return
        sim, byzantine = self.sim, self.model.byzantine
        for _, env in sim.outbox:
            if env.dst not in byzantine:
                break  # a send whose delay is a decision
        else:
            return
        # the live monitor catches up to the snapshot; the frame keeps a copy
        self.monitor.feed(sim.entries)
        snapshot = sim.snapshot()
        node = self._enter(snapshot) if sim.mask == EVERY_POLICY else None
        self.frames.append(_Frame(snapshot, self.model.cursor, self.monitor.copy(), node))

    def _enter(self, snapshot: Snapshot) -> list:
        """Open a node at this draw, linked from the top frame (a node, as the
        mask is whole); or, if its key was explored, link that node and stop
        the run."""
        cursor, count = self.model.cursor, snapshot.entry_count
        new: list = []
        node = self.visited.setdefault((snapshot.key(), self.monitor.projection()), new)
        if self.frames:
            up = self.frames[-1]
            up.node.append(_Link(node, tuple(self.model.decisions[up.cursor:cursor]),
                                 snapshot.entries[up.snapshot.entry_count:count]))
        if node is not new:
            raise _Revisit(node)
        return node

    def deepest(self) -> _Frame:
        """The deepest node on the stack, or the start if there is none."""
        for frame in reversed(self.frames):
            if frame.node is not None:
                return frame
        return self.start

    def keep(self, leaf: _Leaf) -> None:
        """Keep the branch just explored, held from t=0, in the deepest node."""
        frame = self.deepest()
        if frame.node is not None:
            verdicts, row = leaf.verdicts, leaf.row
            if row.violated:
                verdicts = row = None
            frame.node.append(_Leaf(leaf.policy, leaf.decisions[frame.cursor:],
                                    leaf.entries[frame.snapshot.entry_count:],
                                    leaf.stop_reason, leaf.final_balances,
                                    leaf.final_in_flight, leaf.mask, verdicts, row, leaf.paid))

    def resume(self, index: int) -> None:
        """Restore the last frame whose cursor is not past decision `index`,
        or the start; the frames above it leave the stack."""
        frames = self.frames
        while frames and frames[-1].cursor > index:
            frames.pop()
        self.resumed = bool(frames)
        self.restore(frames[-1] if frames else self.start)

    def restore(self, frame: _Frame) -> None:
        self.sim.restore(frame.snapshot)
        self.model.cursor = frame.cursor
        self.monitor = frame.monitor.copy()
        self.origin = frame


def explore(
    base: Scenario,
    assignments: Sequence[dict[ParticipantId, StrategySpec]] = ({},),
    grid: Optional[Sequence[Fraction]] = None,
    budget: int = 200_000,
    on_branch: Optional[Callable[[BranchOutcome], None]] = None,
) -> ExploreReport:
    """Simulate and check every (assignment, delay vector, needed policy) branch.

    A branch is simulated, shares a run of its leaf, or is replayed from a
    subtree explored below the same run state; each gives the outcome that
    simulating it from t=0 would. Each branch gets the safety verdict set;
    the per-assignment liveness outcome lands in report.bob_paid_everywhere
    rather than in the violations.
    The report comes back complete=False once `budget` branches were run;
    a budget is an integer of at least 0.
    `on_branch` sees every outcome (traces of clean branches are dropped after
    the callback to keep memory flat). Without it, a clean branch gets no
    outcome or trace at all: it only adds to the counts.
    """
    if grid is None:
        grid = getattr(base.delay, "grid", None)
        if grid is None and base.delay.delta is not None:
            grid = (base.delay.delta,)
    if not grid:
        raise ConfigError("exploration needs a delay grid")
    grid = _check_grid(grid, None)
    as_non_negative(as_integer(budget, "budget"), "budget")
    report = ExploreReport()
    leaf_depths, bob_paid = report.leaf_depths, report.bob_paid_everywhere
    top_tick, top_scale = -1, 1  # max_customer_terminal as a tick of a scale
    rows: dict[tuple, _Row] = {}  # the row of each verdict list, by its verdicts' ids
    # once per tree: the scenario of every assignment's baseline runs, less
    # the assignment and its delay model, and the roster their runs share
    tie_break, rx_order = POLICIES[0]
    first = replace(base, delay=_DecidedDelays(grid, set(), []), timing=base.resolved_timing(),
                    byzantine={}, tie_break=tie_break, rx_order=rx_order)
    roster = _Roster(first)

    def row_of(verdicts: list[Verdict]) -> _Row:
        key = tuple(map(id, verdicts))
        row = rows.get(key)
        if row is None:
            row = rows[key] = _Row(verdicts)
        return row

    try:
        for assignment in assignments:
            label = assignment_label(assignment)
            bob_paid.setdefault(label, True)
            decisions: list[int] = []
            model = _DecidedDelays(grid, set(assignment), decisions)
            # one scenario per policy; the others are built on the first tie re-run
            scenarios = [replace(first, delay=model, byzantine=dict(assignment))]
            sim = _Sim(scenarios[0], roster)
            checkpoints = _Checkpoints(sim, model)

            def emit(leaf: _Leaf, decided: tuple[int, ...], entries: list,
                     trace: Optional[Trace] = None) -> None:
                """Report the branch `leaf` gives after `decided` and `entries`;
                a simulated branch hands in the trace its run returned."""
                k = leaf.policy
                row = leaf.row
                if on_branch is not None or row is None or row.violated:
                    config = partial(model.to_config, decided)  # the decisions as they stand
                    if trace is None:
                        trace = Trace(sim.meta, entries, leaf.stop_reason, leaf.final_balances,
                                      leaf.final_in_flight, leaf.mask, scenarios[k], config)
                    else:
                        trace.delay_config = config
                    verdicts = leaf.verdicts
                    if verdicts is None:  # a kept violation: check this branch's own entries
                        monitor = checkpoints.monitor
                        check = monitor.copy()
                        verdicts = safety_verdicts(trace, check)
                        report.entries_checked += check.fed - monitor.fed
                        row = row_of(verdicts)
                    outcome = BranchOutcome(label, POLICIES[k], decided, verdicts, trace)
                    if on_branch is not None:
                        on_branch(outcome)
                    if row.violated:
                        report.violations.append(outcome)
                    else:
                        outcome.trace = None  # free the bulk of the memory on clean branches
                row.branches += 1
                report.branches += 1
                report.entries += len(entries)
                if k:
                    report.tie_reruns += 1
                else:
                    depth = len(decided)
                    leaf_depths[depth] = leaf_depths.get(depth, 0) + 1
                # progress is only promised under the protocol's own tie-break;
                # timeout-first runs exist to show safety is order-independent
                if not leaf.paid and POLICIES[k][0] == "receive_first":
                    bob_paid[label] = False

            try:
                while True:
                    runs: list[_Leaf] = []  # the runs simulated for this leaf
                    revisited = None  # the node whose run state the baseline run reached again
                    for k in range(len(POLICIES)):
                        if report.branches >= budget:
                            report.complete = False
                            return report
                        if k == len(scenarios):  # the first tie re-run; a kept one comes later
                            scenarios += [replace(scenarios[0], tie_break=tie_break,
                                                  rx_order=rx_order)
                                          for tie_break, rx_order in POLICIES[1:]]
                        trace = leaf = None
                        for run in runs:  # a tie re-run: some run of this leaf may be its run
                            if run.mask >> k & 1:
                                # this policy makes that run again; its decisions are
                                # those standing now, as a run ending now would show
                                leaf = _Leaf(k, tuple(decisions), *run[2:])
                                report.tie_reruns_shared += 1
                                break
                        if leaf is None:
                            if k == 0:
                                sim.on_draw = checkpoints.draw
                            else:
                                checkpoints.restore(checkpoints.deepest())
                            monitor = checkpoints.monitor
                            try:
                                trace = run_simulation(scenarios[k], sim)
                                verdicts = safety_verdicts(trace, monitor)
                                live = check_liveness(trace, monitor)
                            except _Revisit as stop:
                                revisited = stop.node
                            finally:
                                # unhooked, the run and its checkpoints form no reference
                                # cycle, so they are freed as soon as the assignment ends
                                sim.on_draw = None
                            origin = checkpoints.origin
                            report.entries_simulated += (len(sim.entries)
                                                         - origin.snapshot.entry_count)
                            report.entries_checked += monitor.fed - origin.monitor.fed
                            if revisited is not None:
                                break
                            for hit in monitor.terminal.values():
                                if hit.tick * top_scale > top_tick * hit.scale:
                                    top_tick, top_scale = hit.tick, hit.scale
                                    report.max_customer_terminal = Fraction(top_tick, top_scale)
                            leaf = _Leaf(k, tuple(decisions), trace.entries, trace.stop_reason,
                                         trace.final_balances, trace.final_in_flight, trace.mask,
                                         verdicts, row_of(verdicts), live.status is HOLDS or (
                                             live.status is not VIOLATED and monitor.bob_paid()))
                            runs.append(leaf)
                        checkpoints.keep(leaf)
                        emit(leaf, leaf.decisions, leaf.entries, trace)
                        if runs[0].mask == EVERY_POLICY:
                            break  # no tie: every policy makes the baseline run
                    if revisited is not None:
                        # the run stopped at a draw explored before: each branch
                        # below it is what simulating it would give, with this
                        # run's prefix; a terminal time below it was counted there
                        del decisions[model.cursor:]
                        for leaf, decided, entries in _replay(revisited, tuple(decisions),
                                                              sim.entries):
                            if report.branches >= budget:
                                report.complete = False
                                return report
                            report.branches_replayed += 1
                            emit(leaf, decided, entries)
                    # odometer step over however many decisions this leaf consumed
                    while decisions and decisions[-1] == len(grid) - 1:
                        decisions.pop()
                    if not decisions:
                        break
                    decisions[-1] += 1
                    checkpoints.resume(len(decisions) - 1)
            finally:
                report.states += len(checkpoints.visited)
    finally:
        # the counts, from each row and the branches that reported it, in the
        # order the rows were made: the order of the first branch of each
        for row in rows.values():
            add_row(report.counts, row.cells, row.branches)
    return report


def battery_assignments(scenario: Scenario) -> list[dict[ParticipantId, StrategySpec]]:
    """Every Byzantine subset crossed with every applicable strategy per member.

    The compliant (empty) assignment comes first. delay_own_sends posts its
    traffic 2*delta late, past any synchrony bound.
    """
    delta = scenario.delay.delta or Fraction(1)
    specs_for: dict[ParticipantId, list[StrategySpec]] = {}
    for pid in scenario.participant_ids():
        if pid.kind is ParticipantKind.MANAGER:
            continue
        options = []
        for name in sorted(STRATEGIES):
            _, role_ok = STRATEGIES[name]
            if not role_ok(pid, scenario):
                continue
            params = {"delay": 2 * delta} if name == "delay_own_sends" else {}
            options.append(StrategySpec(name, params))
        specs_for[pid] = options
    pids = sorted(specs_for)
    out: list[dict[ParticipantId, StrategySpec]] = [{}]
    for r in range(1, len(pids) + 1):
        for subset in itertools.combinations(pids, r):
            for combo in itertools.product(*(specs_for[p] for p in subset)):
                out.append(dict(zip(subset, combo)))
    return out
