"""The benchmark's workloads: how each one builds its inputs and runs one op.

A workload is set up once per process (config parsing, input generator,
one warm-up op) and then driven as a closed loop by `run.py`. Inputs come
only from the workload seed; the library sees nothing but the generated
`Scenario`s. Every library call goes through a module attribute looked up at
call time (`self.simnet.run_simulation`, ...), so the wrappers that
`spans.Tracer` installs at those names see every call.

Why each workload exists, which layers it loads and what a change to each
layer should move are written down in WORKLOADS.md.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from spans import BENCH_SPAN

ROOT = Path(__file__).resolve().parent.parent
EXPLORE_CONFIG = ROOT / "configs" / "explore_strong_battery_n1.json"

# Closed-loop sizes. `full` is what the benchmark measures; `tiny` exists for
# the smoke test and only checks that every metric is produced.
SIZES = {
    "full": {"strong_n": 32, "weak_n": 8, "explore_budget": 200_000, "min_ops": 100,
             "traced_ops": 16, "count_ops": 1, "count_branches": 40, "setup_reps": 9},
    "tiny": {"strong_n": 3, "weak_n": 2, "explore_budget": 30, "min_ops": 4,
             "traced_ops": 3, "count_ops": 1, "count_branches": 5, "setup_reps": 1},
}

# Patience values a weak op draws from; None is unbounded patience.
PATIENCE_CHOICES = (Fraction(0), Fraction(3), Fraction(10), None)
BYZANTINE_CHOICES = ("none", "silent", "impatient_abort")


def shows_known_defect(depositors, bob, byz) -> bool:
    """Whether a (depositor patience, Bob patience, Byzantine kind) combination
    can hit the weak-variant progress hole (ROADMAP open item 1): unbounded
    depositor patience, a silent depositor and a finite patience for Bob."""
    return depositors is None and bob is not None and byz == "silent"


_ALL_COMBOS = tuple(itertools.product(PATIENCE_CHOICES, PATIENCE_CHOICES, BYZANTINE_CHOICES))
# The 48 combinations split in two. The 3 that can hit the known defect are
# run by the defect probe, outside the timed ops, because a timed op must not
# fail. A weak run walks the other 45 in seeded shuffled cycles, so any 45
# consecutive ops hold each exactly once and the op mix is the same in every run.
DEFECT_COMBOS = tuple(c for c in _ALL_COMBOS if shows_known_defect(*c))
WEAK_COMBOS = tuple(c for c in _ALL_COMBOS if not shows_known_defect(*c))


def _sweep_config(variant: str, n: int) -> dict:
    return {
        "variant": variant,
        "n": n,
        "amount": 1,
        "delay_model": {"kind": "synchronous", "delta": "1", "grid_points": 4},
        "pi": "1/10",
        "rho": "1/10",
        "timing": "auto",
        "clock_mode": "seeded",
        "seed": 0,
    }


def load_xpay():
    """Import the library from the checkout's `src`, as `xpay run` would load it."""
    src = ROOT / "src"
    if not (src / "xpay" / "__init__.py").is_file():
        raise ImportError(f"no xpay sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    xpay = importlib.import_module("xpay")
    if Path(xpay.__file__).resolve().parent != (src / "xpay").resolve():
        raise ImportError(f"xpay was imported from {xpay.__file__}, not from {src}")
    return xpay


@dataclass
class OpResult:
    """What one op produced, kept outside the timed interval."""
    entries: int
    digest: str                    # sha256 of the rendered trace
    verdicts: int
    tm_entered: int = 0
    sends: int = 0
    had_tie: bool = False


class Workload:
    """Shared plumbing: the library modules, looked up at call time."""
    name = ""
    explores = False

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        load_xpay()
        self.cli = importlib.import_module("xpay.cli")
        self.simnet = importlib.import_module("xpay.simnet")
        self.properties = importlib.import_module("xpay.properties")
        self.trace_mod = importlib.import_module("xpay.trace")
        self.core = importlib.import_module("xpay.core")
        # `xpay.explore` the attribute is the function; the module must be imported by name
        self.explore_mod = importlib.import_module("xpay.explore")

    def config(self) -> dict:
        raise NotImplementedError

    def parse(self):
        return self.cli.parse_scenario_config(self.config())[0]

    def defect_inputs(self) -> list:
        """Scenarios that hit a known defect, run untimed by the defect probe."""
        return []

    def count_entries(self, trace) -> tuple[int, int]:
        """Sends, and states the transaction manager entered, in one trace."""
        Rec = self.trace_mod.Rec
        tm = self.core.manager()
        sends = tm_entered = 0
        for e in trace.entries:
            if e.rec is Rec.SENT:
                sends += 1
            elif e.rec is Rec.STATE_ENTERED and e.participant == tm:
                tm_entered += 1
        return sends, tm_entered


class Sweep(Workload):
    """One op is `run_simulation` -> `evaluate_all` -> `Trace.render` (`xpay run --trace`)."""
    cycle = 1  # a timed pass runs a whole number of these, so its op mix is fixed

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.base = self.parse()

    def op_input(self, k: int):
        raise NotImplementedError

    def run_op(self, scenario):
        """The timed op. Returns what the checks need; does nothing else."""
        trace = self.simnet.run_simulation(scenario)
        verdicts = self.properties.evaluate_all(trace)
        text = trace.render()
        return trace, verdicts, text

    def inspect(self, trace, verdicts, text) -> OpResult:
        sends, tm_entered = self.count_entries(trace)
        return OpResult(
            entries=len(trace.entries),
            digest=hashlib.sha256(text.encode()).hexdigest(),
            verdicts=len(verdicts),
            tm_entered=tm_entered,
            sends=sends,
            had_tie=trace.had_tie,
        )

    def classify(self, scenario, verdicts) -> Optional[str]:
        violated = [v for v in verdicts if v.status is self.properties.Status.VIOLATED]
        if not violated:
            return None
        return "; ".join(v.line() for v in violated)


class StrongChain(Sweep):
    name = "strong-chain-n32"

    def config(self) -> dict:
        return _sweep_config("strong", self.size["strong_n"])

    def op_input(self, k: int):
        rng = random.Random(f"{self.seed}:{k}")
        return replace(self.base, seed=rng.randrange(1 << 31))


class WeakManager(Sweep):
    name = "weak-manager-n8"
    cycle = len(WEAK_COMBOS)

    def config(self) -> dict:
        return _sweep_config("weak", self.size["weak_n"])

    def combo(self, k: int) -> tuple:
        cycle, pos = divmod(k, len(WEAK_COMBOS))
        order = list(WEAK_COMBOS)
        random.Random(f"{self.seed}:cycle{cycle}").shuffle(order)
        return order[pos]

    def op_input(self, k: int):
        rng = random.Random(f"{self.seed}:{k}")
        return self.scenario(*self.combo(k), rng.randrange(self.base.n), rng)

    def scenario(self, depositors, bob, byz, byzantine_at: int, rng):
        n = self.base.n
        byzantine = {}
        if byz != "none":
            byzantine[self.core.customer(byzantine_at)] = self.simnet.StrategySpec(byz)
        return replace(self.base, seed=rng.randrange(1 << 31),
                       patience=(depositors,) * n + (bob,), byzantine=byzantine)

    def defect_inputs(self) -> list:
        """The defect probe's scenarios: each of `DEFECT_COMBOS` with the last
        depositor silent, where the defect shows for every finite Bob patience."""
        rng = random.Random(f"{self.seed}:defect")
        return [self.scenario(*combo, self.base.n - 1, rng) for combo in DEFECT_COMBOS]

    def classify(self, scenario, verdicts) -> Optional[str]:
        detail = super().classify(scenario, verdicts)
        if detail is None:
            return None
        return "known_defect" if self.is_known_defect(scenario, verdicts) else detail

    def is_known_defect(self, scenario, verdicts) -> bool:
        """The weak-variant progress hole (ROADMAP open item 1).

        After its patience runs out Bob sends a commit request, not an abort
        request. With a silent depositor and unbounded depositor patience no
        decision ever comes, so a compliant Bob with finite patience never
        terminates: T is violated and nothing else is.
        """
        Status = self.properties.Status
        violated = [v for v in verdicts if v.status is Status.VIOLATED]
        bob = self.core.customer(scenario.n)
        specs = list(scenario.byzantine.items())
        return (
            [v.name for v in violated] == ["T"]
            and violated[0].detail == f"{bob} never terminal"
            and scenario.patience[scenario.n] is not None
            and all(p is None for p in scenario.patience[:scenario.n])
            and len(specs) == 1
            and specs[0][1].name == "silent"
            and specs[0][0] != bob
        )


@dataclass
class Branch:
    """One explored branch, as `on_branch` saw it."""
    latency: float
    end: float  # perf_counter time the branch finished
    entries: int
    decisions: int
    tie_rerun: bool
    had_tie: bool
    verdicts: int
    digest: str
    failure: Optional[str]
    tm_entered: int = 0
    sends: int = 0


class ExploreBattery(Workload):
    """The shipped battery exploration, set up exactly as `xpay explore` does it."""
    name = "explore-strong-battery"
    explores = True

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.base = self.parse()
        self.assignments = self.explore_mod.battery_assignments(self.base)

    def config(self) -> dict:
        raw = json.loads(EXPLORE_CONFIG.read_text(encoding="utf-8"))
        # cmd_explore swaps the "battery" keyword for an empty Byzantine set
        # and passes battery_assignments instead; the parser rejects "battery"
        if raw.get("byzantine") == "battery":
            raw["byzantine"] = {}
        raw["seed"] = self.seed
        return raw

    def tree(self, budget: int, on_branch: Callable[[Branch], None], tracer=None):
        """Explore the whole tree (or `budget` branches), one callback per branch.

        A branch's latency runs from the end of the previous callback to the
        start of this one, so the benchmark's own bookkeeping is not in it.
        """
        perf = time.perf_counter
        Status = self.properties.Status
        last = [0.0]

        def callback(outcome):
            now = perf()
            trace = outcome.trace
            statuses = ",".join(f"{v.name}={v.status.value}" for v in outcome.verdicts)
            violated = [v.line() for v in outcome.verdicts if v.status is Status.VIOLATED]
            summary = (f"{outcome.assignment_label}|{outcome.policy}|{outcome.decisions}|"
                       f"{len(trace.entries)}|{statuses}")
            branch = Branch(
                latency=now - last[0],
                end=now,
                entries=len(trace.entries),
                decisions=len(outcome.decisions),
                tie_rerun=outcome.policy != self.explore_mod.POLICIES[0],
                had_tie=trace.had_tie,
                verdicts=len(outcome.verdicts),
                digest=hashlib.sha256(summary.encode()).hexdigest(),
                failure="; ".join(violated) or None,
            )
            if tracer is not None:
                branch.sends, branch.tm_entered = self.count_entries(trace)
            on_branch(branch)
            last[0] = perf()

        if tracer is not None:
            callback = tracer.span(BENCH_SPAN, callback)
        last[0] = perf()
        report = self.explore_mod.explore(self.base, assignments=self.assignments,
                                          budget=budget, on_branch=callback)
        return report

    def summary(self, report) -> str:
        """What the output check hashes for a tree: branch count, per-property
        counts and the violation list."""
        violations = [
            (v.assignment_label, list(v.policy), list(v.decisions),
             [x.line() for x in v.verdicts if x.status is self.properties.Status.VIOLATED])
            for v in report.violations
        ]
        return json.dumps({"branches": report.branches, "complete": report.complete,
                           "counts": report.counts, "violations": violations},
                          sort_keys=True)


WORKLOADS = {w.name: w for w in (StrongChain, WeakManager, ExploreBattery)}
