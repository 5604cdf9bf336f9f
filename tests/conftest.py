from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xpay import Scenario, Synchronous, derive_timeouts, evaluate_all

CONFIG_DIR = Path(__file__).parent.parent / "configs"


@pytest.fixture
def configs() -> Path:
    return CONFIG_DIR


def strong_scenario(n=1, seed=0, rho=Fraction(0), **kw) -> Scenario:
    defaults = dict(
        variant="strong",
        n=n,
        delay=Synchronous(Fraction(1)),
        pi=Fraction(1, 10),
        rho=rho,
        seed=seed,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def weak_scenario(n=1, seed=0, patience=None, **kw) -> Scenario:
    defaults = dict(
        variant="weak",
        n=n,
        delay=Synchronous(Fraction(1)),
        pi=Fraction(1, 10),
        patience=patience,
        seed=seed,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def verdicts_by_name(trace) -> dict:
    """The trace's `evaluate_all` verdicts, keyed by property name."""
    return {v.name: v for v in evaluate_all(trace)}


def derived(n=1, delta=Fraction(1), pi=Fraction(1, 10), rho=Fraction(0), **kw):
    return derive_timeouts(n, delta, pi, rho, **kw)
