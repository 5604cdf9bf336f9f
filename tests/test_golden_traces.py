"""Byte-identity gate: sha256 digests of rendered traces over a fixed corpus.

Every case is one `run_simulation` of a fixed scenario; its digest is the
sha256 of `Trace.render()`. The recorded digests live in
`golden_traces.json` beside this file. A change meant to keep traces
byte-identical must leave every digest as it is. A change that alters traces
on purpose updates exactly the digests it changed and names those cases.

Regenerate the file from the current code with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden_traces.json
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
from xpay.core import customer
from xpay.simnet import StrategySpec, run_simulation

F = Fraction
GOLDEN = Path(__file__).with_name("golden_traces.json")
RHO = F(1, 10)

STRONG_NS = (1, 2, 4, 8, 32)
STRONG_SEEDS = (0, 1, 2)
WEAK_NS = (1, 2, 3, 8)
PATIENCES = (None, F(0), F(3), F(10))  # None is unbounded patience
WEAK_BYZANTINE = ("none", "silent", "impatient_abort")


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


def digests(cases) -> dict[str, str]:
    return {name: hashlib.sha256(run_simulation(sc).render().encode()).hexdigest()
            for name, sc in cases}


def _mismatches(got: dict[str, str]) -> list[str]:
    want = json.loads(GOLDEN.read_text())
    assert set(got) <= set(want), f"cases without a recorded digest: {sorted(set(got) - set(want))}"
    return [name for name, digest in got.items() if want[name] != digest]


def test_strong_traces_match_recorded_digests():
    assert _mismatches(digests(strong_cases())) == []


def test_weak_traces_match_recorded_digests():
    assert _mismatches(digests(weak_cases())) == []


if __name__ == "__main__":
    recorded = {**digests(strong_cases()), **digests(weak_cases())}
    print(json.dumps(recorded, indent=1, sort_keys=True))
