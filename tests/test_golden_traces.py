"""Byte-identity gate: sha256 digests of rendered traces and of their verdicts
over a fixed corpus.

Every case is one `run_simulation` of a fixed scenario. Its trace digest is the
sha256 of `Trace.render()`; its verdict digest is the sha256 of the lines of
`evaluate_all(trace)` and then of `check_promises(trace)`, each followed by its
witness list. The recorded digests live in `golden_traces.json` and
`golden_verdicts.json` beside this file. A change meant to keep traces and
verdicts as they are must leave every digest as it is. A change that alters
them on purpose updates exactly the digests it changed and names those cases.

Regenerate both files from the current code with

    PYTHONPATH=src python tests/test_golden_traces.py
"""
from __future__ import annotations

import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import strong_scenario, weak_scenario
from xpay.core import Certificate, Envelope, SigningKey, customer, escrow, sign
from xpay.properties import Status, check_promises, evaluate_all
from xpay.simnet import (
    PartialSync,
    ScriptRule,
    Scripted,
    StrategySpec,
    Synchronous,
    run_simulation,
)

F = Fraction
GOLDEN = Path(__file__).with_name("golden_traces.json")
GOLDEN_VERDICTS = Path(__file__).with_name("golden_verdicts.json")
RHO = F(1, 10)

STRONG_NS = (1, 2, 4, 8, 32)
STRONG_SEEDS = (0, 1, 2)
WEAK_NS = (1, 2, 3, 8)
PATIENCES = (None, F(0), F(3), F(10))  # None is unbounded patience
WEAK_BYZANTINE = ("none", "silent", "impatient_abort")
LATE_KINDS = ("certificate", "money", "promise", "guarantee")
LATE_DELAYS = (2, 4, 9)
GSTS = (0, 3, 20)
ODD_RHOS = (F(1, 7), F(2, 9))
ODD_CLOCKS = ("seeded", "worst_case", "escrows_slow")
ODD_DELAYS = {
    "sync3_7": Synchronous(F(3, 7)),
    "script2_11": Scripted(default=F(2, 11), delta=F(1),
                           rules=(ScriptRule(delay=F(13, 5), payload="money"),)),
    "psync5_3": PartialSync(F(5, 3), F(1)),
}
ODD_BYZANTINE = ("none", "delay_own_sends", "replayer", "greedy_escrow", "premature_certificate")


def _p(patience) -> str:
    return "inf" if patience is None else str(patience)


def strong_cases():
    for n, seed in itertools.product(STRONG_NS, STRONG_SEEDS):
        yield f"strong-n{n}-s{seed}", strong_scenario(n=n, seed=seed, rho=RHO)


def weak_cases():
    """Depositors share one patience and Bob has his own; a Byzantine member,
    when there is one, is the last depositor c_{n-1}."""
    for n in WEAK_NS:
        combos = itertools.product(PATIENCES, PATIENCES, WEAK_BYZANTINE)
        for seed, (dep, bob, byz) in enumerate(combos):
            byzantine = {} if byz == "none" else {customer(n - 1): StrategySpec(byz)}
            scenario = weak_scenario(n=n, seed=seed, rho=RHO, patience=(dep,) * n + (bob,),
                                     byzantine=byzantine)
            yield f"weak-n{n}-d{_p(dep)}-b{_p(bob)}-{byz}", scenario


def violating_cases():
    """Runs outside the synchrony the protocol assumes, so that verdicts come
    back VIOLATED and their witnesses are gated too.

    Strong: every message takes 1/2 except one payload kind to or from one
    customer, which takes 2, 4 or 9 (the bound is 1). Weak: partial synchrony
    stabilizing at 0, 3 or 20, under every pair of depositor and Bob patience.
    """
    for n in (1, 2, 3):
        late = itertools.product(range(n + 1), ("src", "dst"), LATE_KINDS, LATE_DELAYS)
        for k, end, kind, delay in late:
            rule = ScriptRule(delay=F(delay), payload=kind, **{end: customer(k)})
            scenario = strong_scenario(n=n, rho=RHO, delay=Scripted(
                default=F(1, 2), delta=F(1), rules=(rule,)))
            yield f"late-n{n}-{kind}-{end}-c{k}-{delay}", scenario
    for n in (1, 2):
        for gst, dep, bob in itertools.product(GSTS, PATIENCES, PATIENCES):
            scenario = weak_scenario(n=n, rho=RHO, patience=(dep,) * n + (bob,),
                                     delay=PartialSync(F(gst), F(1)))
            yield f"psync-n{n}-g{gst}-d{_p(dep)}-b{_p(bob)}", scenario


def _odd_byzantine(name: str, n: int) -> dict:
    if name == "none":
        return {}
    if name == "delay_own_sends":
        return {customer(0): StrategySpec(name, {"delay": F(5, 3)})}
    if name == "greedy_escrow":
        return {escrow(0): StrategySpec(name)}
    if name == "premature_certificate":
        return {customer(n): StrategySpec(name)}
    return {customer(0): StrategySpec(name)}


def odd_instant_cases():
    """Runs whose instants have large denominators: pi = 2/13, drift 1/7 or
    2/9, delays in sevenths, elevenths, fifths and thirds.

    Every (variant, n, rho, clock mode, delay model, Byzantine member)
    combination runs once, and every other case also gets a foreign-instance
    certificate from Bob injected at e0 at t=2/9.
    """
    combos = itertools.product(("strong", "weak"), (1, 2, 3), ODD_RHOS, ODD_CLOCKS,
                               ODD_DELAYS, ODD_BYZANTINE)
    for k, (variant, n, rho, clocks, delay, byz) in enumerate(combos):
        build = strong_scenario if variant == "strong" else weak_scenario
        injections = ()
        if k % 2 == 0:
            bob = customer(n)
            foreign = sign(Certificate("other-payment"), bob, SigningKey(bob))
            injections = ((F(2, 9), Envelope(bob, escrow(0), foreign)),)
        scenario = build(n=n, seed=k, rho=rho, pi=F(2, 13), clock_mode=clocks,
                         delay=ODD_DELAYS[delay], byzantine=_odd_byzantine(byz, n),
                         raw_injections=injections)
        name = (f"odd-{variant}-n{n}-r{rho.numerator}_{rho.denominator}-{clocks}-{delay}"
                f"-{byz}{'-inj' if injections else ''}")
        yield name, scenario


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def all_verdicts(trace) -> list:
    return evaluate_all(trace) + check_promises(trace)


def verdict_text(trace) -> str:
    return "".join(f"{v.line()} witness={v.witness}\n" for v in all_verdicts(trace))


def digests(cases) -> tuple[dict[str, str], dict[str, str]]:
    """Trace digests and verdict digests, keyed by case name."""
    traces: dict[str, str] = {}
    verdicts: dict[str, str] = {}
    for name, scenario in cases:
        trace = run_simulation(scenario)
        traces[name] = _sha256(trace.render())
        verdicts[name] = _sha256(verdict_text(trace))
    return traces, verdicts


def _mismatches(got: dict[str, str], golden: Path) -> list[str]:
    want = json.loads(golden.read_text())
    assert set(got) <= set(want), f"cases without a recorded digest: {sorted(set(got) - set(want))}"
    return [name for name, digest in got.items() if want[name] != digest]


def _assert_recorded(cases) -> None:
    traces, verdicts = digests(cases)
    assert _mismatches(traces, GOLDEN) == []
    assert _mismatches(verdicts, GOLDEN_VERDICTS) == []


def test_strong_traces_match_recorded_digests():
    _assert_recorded(strong_cases())


def test_weak_traces_match_recorded_digests():
    _assert_recorded(weak_cases())


def test_violating_traces_match_recorded_digests():
    _assert_recorded(violating_cases())


def test_odd_instant_traces_match_recorded_digests():
    _assert_recorded(odd_instant_cases())


def test_violating_cases_violate_termination_liveness_and_the_guarantee():
    violated = {v.name for _, scenario in violating_cases()
                for v in all_verdicts(run_simulation(scenario))
                if v.status is Status.VIOLATED}
    assert {"T", "L", "G_PROMISE"} <= violated


if __name__ == "__main__":
    recorded = [digests(family()) for family in (strong_cases, weak_cases, violating_cases,
                                               odd_instant_cases)]
    for path, tables in ((GOLDEN, [r[0] for r in recorded]),
                         (GOLDEN_VERDICTS, [r[1] for r in recorded])):
        merged = {name: digest for table in tables for name, digest in table.items()}
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
