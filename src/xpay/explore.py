"""Exhaustive branch exploration: the brute-force oracle behind the safety claims.

Enumerates every assignment of grid delays to messages bound for compliant
recipients (deliveries to Byzantine participants are pinned at the grid
maximum: the adversary's reaction timing is its own to choose, and pinning it
keeps the tree finite), crossed with the scheduler's tie-break policies and
with a configurable family of Byzantine assignments. Every branch gets the
verdicts of its own complete trace.

Policies beyond the default are re-run only for leaves whose baseline run hit
a simultaneity (two enabled receives, or a receive against a due timeout):
branches without ties execute identically under every policy, so skipping
them loses nothing. Nor is a tie re-run simulated under a policy in the tie
mask of a run of its leaf: with the same start and decisions, choosing alike
at every tie, it is that run again, and shares its trace and verdicts.

The search is depth first over checkpoints (stateless search as in VeriSoft,
Godefroid, POPL 1997). Each assignment builds one run. Its baseline runs take
a snapshot only just before a draw that takes a decision (the engine's
`on_draw`, where no event is under way), and credit it with each decision
the draw takes. The odometer step that changes decision i restores the
snapshot of decision i and simulates only the rest of the run, from that
draw on; a tie re-run restores, under the next policy, the last checkpoint
before the baseline's first tie, or the assignment's start. The branch
order, the decision vectors and every trace are those of running each branch
from t=0. Each checkpoint keeps a copy of the safety monitor
(`properties.Monitor`) fed the entries before it, so a branch checks only the
entries it simulates, and its verdicts are those of checking its whole trace.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .core import ConfigError, Envelope, ParticipantId, ParticipantKind
from .properties import HOLDS, VIOLATED, Monitor, Verdict, check_liveness, safety_verdicts, tally
from .simnet import (STRATEGIES, Scenario, Snapshot, StrategySpec, _Sim, _check_grid,
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
        self._grid_config = [str(g) for g in grid]
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

    def to_config(self) -> dict:
        return {"kind": "explored", "grid": list(self._grid_config),
                "decisions": list(self.decisions)}


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
    entries_simulated: int = 0  # of those, the ones a branch simulated past its checkpoint
    entries_checked: int = 0  # of those, the ones fed to a branch's monitor past its checkpoint
    tie_reruns: int = 0  # branches under a policy other than the first
    tie_reruns_shared: int = 0  # of those, the ones that reused a run of their leaf
    leaf_depths: dict[int, int] = field(default_factory=dict)  # leaves by decisions taken

    @property
    def safe(self) -> bool:
        return not self.violations

    def _record(self, outcome: BranchOutcome, bob_paid: bool) -> None:
        self.branches += 1
        self.entries += len(outcome.trace.entries)
        if outcome.policy == POLICIES[0]:
            depth = len(outcome.decisions)
            self.leaf_depths[depth] = self.leaf_depths.get(depth, 0) + 1
        else:
            self.tie_reruns += 1
        if tally(self.counts, outcome.verdicts):
            self.violations.append(outcome)
        else:
            outcome.trace = None  # free the bulk of the memory on clean branches
        label = outcome.assignment_label
        self.bob_paid_everywhere[label] = (
            self.bob_paid_everywhere.get(label, True) and bob_paid)


class _Run(NamedTuple):
    """A run simulated for a leaf, which a later tie re-run of the leaf may share."""
    mask: int  # the policies that choose as it did at every tie, and so make it again
    trace: Trace
    verdicts: list[Verdict]
    paid: bool  # Bob is paid, as L and the monitor tell it


def assignment_label(assignment: dict[ParticipantId, StrategySpec]) -> str:
    if not assignment:
        return "compliant"
    return ",".join(f"{p}={assignment[p].label()}" for p in sorted(assignment))


class _Checkpoint(NamedTuple):
    snapshot: Snapshot  # taken just before a draw that takes a decision
    cursor: int  # decisions consumed before the draw
    monitor: Monitor  # the checks, fed every entry before the draw


class _Checkpoints:
    """Where the branches of one assignment resume.

    The baseline (first-policy) run of each leaf takes a snapshot just before
    each draw that takes a decision (a draw with a send to a compliant
    recipient) and credits it with each decision the draw takes. Until a
    decision changes, every later run agrees with the baseline up to that
    decision's draw. Runs under the other policies agree with it up to its
    first tie (no policy matters before there is a choice to make), so they
    resume from the last checkpoint before that tie, or from the start.

    `monitor` is the check of the run in progress; it takes in the entries
    only as far as it has to. Each checkpoint keeps a copy of it as it stood
    at the snapshot, so a branch feeds the monitor only the entries it
    simulates.
    """

    def __init__(self, sim: _Sim, model: _DecidedDelays):
        self.sim = sim
        self.model = model
        self.monitor = Monitor(sim.meta)
        self.by_decision: list[_Checkpoint] = []
        self.start = self.tie = _Checkpoint(sim.snapshot(), 0, Monitor(sim.meta))
        self.resumed: Optional[_Checkpoint] = None  # what the next draw stands at

    def draw(self) -> None:
        """The engine's `on_draw` during baseline runs."""
        sim, byzantine = self.sim, self.model.byzantine
        taken = sum(env.dst not in byzantine for _, env in sim.outbox)
        if not taken:
            return
        cp, self.resumed = self.resumed, None
        if cp is None:
            # the live monitor catches up to the snapshot; the checkpoint keeps a copy
            self.monitor.feed(sim.entries)
            cp = _Checkpoint(sim.snapshot(), self.model.cursor, self.monitor.copy())
        self.by_decision.extend([cp] * taken)
        if sim.mask == EVERY_POLICY:
            self.tie = cp

    def resume(self, index: int) -> _Checkpoint:
        """Restore the draw that took decision `index` in the last baseline
        run, or, if that run stopped short of it, the last draw that took one
        (the prefix decides the run up to there)."""
        if index < len(self.by_decision):
            cp = self.by_decision[index]
        else:
            cp = self.by_decision[-1] if self.by_decision else self.start
        del self.by_decision[cp.cursor:]
        self.resumed = None if cp is self.start else cp
        return self.restore(cp)

    def restore(self, cp: _Checkpoint) -> _Checkpoint:
        self.sim.restore(cp.snapshot)
        self.model.cursor = cp.cursor
        self.monitor = cp.monitor.copy()
        return cp


def explore(
    base: Scenario,
    assignments: Sequence[dict[ParticipantId, StrategySpec]] = ({},),
    grid: Optional[Sequence[Fraction]] = None,
    budget: int = 200_000,
    on_branch: Optional[Callable[[BranchOutcome], None]] = None,
) -> ExploreReport:
    """Simulate and check every (assignment, delay vector, needed policy) branch.

    Each branch gets the safety verdict set; the per-assignment liveness
    outcome lands in report.bob_paid_everywhere rather than in the violations.
    The report comes back complete=False once `budget` branches were run.
    `on_branch` sees every outcome (traces of clean branches are dropped after
    the callback to keep memory flat).
    """
    if grid is None:
        grid = getattr(base.delay, "grid", None)
        if grid is None and base.delay.delta is not None:
            grid = (base.delay.delta,)
    if not grid:
        raise ConfigError("exploration needs a delay grid")
    grid = _check_grid(grid, None)
    params = base.resolved_timing()
    report = ExploreReport()
    top_tick, top_scale = -1, 1  # max_customer_terminal as a tick of a scale

    for assignment in assignments:
        label = assignment_label(assignment)
        report.bob_paid_everywhere.setdefault(label, True)
        decisions: list[int] = []
        model = _DecidedDelays(grid, set(assignment), decisions)
        tie_break, rx_order = POLICIES[0]
        # one scenario per policy; the others are built on the first tie re-run
        scenarios = [replace(base, delay=model, timing=params, byzantine=dict(assignment),
                             tie_break=tie_break, rx_order=rx_order)]
        sim = _Sim(scenarios[0])
        checkpoints = _Checkpoints(sim, model)
        resumed = checkpoints.start
        while True:
            runs: list[_Run] = []  # the runs of this leaf simulated so far
            for k, policy in enumerate(POLICIES):
                if k > 0 and runs[0].mask == EVERY_POLICY:
                    break  # no tie: every policy makes the baseline run
                if report.branches >= budget:
                    report.complete = False
                    return report
                if k == len(scenarios):
                    scenarios += [replace(scenarios[0], tie_break=tie_break, rx_order=rx_order)
                                  for tie_break, rx_order in POLICIES[1:]]
                run = next((r for r in runs if r.mask >> k & 1), None)
                if run is not None:
                    # this policy makes `run` again; the header shows the
                    # decisions as they stand now, as a run ending now would
                    trace = replace(run.trace, scenario=scenarios[k],
                                    delay_config=model.to_config())
                    report.tie_reruns_shared += 1
                else:
                    if k == 0:
                        sim.on_draw = checkpoints.draw
                        trace = run_simulation(scenarios[0], sim)
                        # unhooked, the run and its checkpoints form no reference
                        # cycle, so they are freed as soon as the assignment ends
                        sim.on_draw = None
                    else:
                        resumed = checkpoints.restore(checkpoints.tie)
                        trace = run_simulation(scenarios[k], sim)
                    report.entries_simulated += len(trace.entries) - resumed.snapshot.entry_count
                    monitor = checkpoints.monitor
                    verdicts = safety_verdicts(trace, monitor)
                    live = check_liveness(trace, monitor)
                    report.entries_checked += monitor.fed - resumed.monitor.fed
                    for hit in monitor.terminal.values():
                        if hit.tick * top_scale > top_tick * hit.scale:
                            top_tick, top_scale = hit.tick, hit.scale
                            report.max_customer_terminal = Fraction(top_tick, top_scale)
                    run = _Run(trace.mask, trace, verdicts, live.status is HOLDS or (
                        live.status is not VIOLATED and monitor.bob_paid()))
                    runs.append(run)
                outcome = BranchOutcome(label, policy, tuple(decisions), run.verdicts, trace)
                if on_branch is not None:
                    on_branch(outcome)
                # progress is only promised under the protocol's own tie-break;
                # timeout-first runs exist to show safety is order-independent
                report._record(outcome, policy[0] != "receive_first" or run.paid)
            # odometer step over however many decisions this leaf consumed
            while decisions and decisions[-1] == len(grid) - 1:
                decisions.pop()
            if not decisions:
                break
            decisions[-1] += 1
            resumed = checkpoints.resume(len(decisions) - 1)
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
