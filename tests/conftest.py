from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xpay import Scenario, Synchronous, derive_timeouts, evaluate_all
from xpay.trace import TimeBase, TraceEntry

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


def entry_at(t, local, scale=None, **fields) -> TraceEntry:
    """A hand-built trace entry at real time `t` whose participant's clock
    reads `local` there. Its tick and time base are chosen to match: `scale`
    ticks per unit (by default the denominator of `t`) and the clock rate
    local/t (1 at t = 0, where local must be 0). `fields` are the entry's
    other fields, `seq`, `participant` and `rec` among them."""
    t, local = Fraction(t), Fraction(local)
    scale = t.denominator if scale is None else scale
    tick = t * scale
    rate = local / t if t else Fraction(1)
    assert tick.denominator == 1 and (t or not local), (t, local, scale)
    entry = TraceEntry(tick=int(tick), base=TimeBase(scale, rate.numerator, rate.denominator),
                       **fields)
    assert (entry.t, entry.local) == (t, local)
    return entry
