"""Timeout derivation and empirical validation.

The per-hop windows are budgeted bottom-up in real time. Let delta be the
delivery bound and pi the output-state processing budget. After escrow i
issues its downstream promise (recording local time u), the certificate takes
at worst:

    hop n-1:  promise out (delta) + issuer processing (pi) + certificate back
              (delta)                                          H_{n-1} = 2*delta + pi
    hop i:    promise out (delta) + customer deposit (pi) + money down (delta)
              + next escrow's promise issue (pi) + H_{i+1} + next escrow's
              resolution (pi) + certificate up to the customer (delta)
              + customer relay (pi) + certificate up to escrow i (delta)
                                                    H_i = H_{i+1} + 4*delta + 4*pi

A local window must cover the real budget even on the fastest admissible
clock, hence a_i = (1+rho) * H_i + mu. The resolution deadline promised to the
depositor adds the promise-issue and resolution processing on a fast clock:
d_i = a_i + 2*(1+rho)*pi + mu.

The end-to-end termination bound follows the longest customer path: guarantee
out and deposit in (2*delta + 2*pi), promise issue (pi), the full window on
the slowest clock ((1+rho) * a_0), one resolution step (pi), final delivery
(delta), plus the margin:

    D = 2*delta + 3*pi + (1+rho) * a_0 + pi + delta + mu

Windows are exactly tight at mu = 0: the worst-case sweep passes at the
derived values (the boundary arrival is saved by the receive-wins tie-break)
and fails once any a_i is lowered by a grid step. `validate_timeouts` is the
empirical oracle for both claims.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .core import ConfigError, as_fraction
from .protocol import TimingParams
from .simnet import Scenario, Scripted, run_simulation
from .trace import Trace

# Parameter sets kept by `derive_timeouts`, `termination_bound` and `default_horizon`.
_DERIVED_CACHED = 64


class ValidationFailed(Exception):
    """The derived (or supplied) timeouts break liveness in a worst-case run."""

    def __init__(self, message: str, trace: Optional[Trace] = None):
        super().__init__(message)
        self.trace = trace


def derive_timeouts(
    n: int,
    delta: Fraction,
    pi: Fraction,
    rho: Fraction,
    epsilon: Optional[Fraction] = None,
    margin: Fraction = Fraction(0),
) -> TimingParams:
    """Compute windows that survive worst-case delays, processing, and drift.

    epsilon defaults to 2*(1+rho)*pi + margin, twice the slack the resolution
    step actually needs.

    Equal arguments get the same `TimingParams` object, derived once. Floats
    and booleans are refused before the memo is consulted: 1.0 and True equal
    (and hash like) Fraction(1), and must not be answered from its entry.
    """
    delta = as_fraction(delta, "delta")
    pi = as_fraction(pi, "pi")
    rho = as_fraction(rho, "rho")
    margin = as_fraction(margin, "margin")
    if epsilon is not None:
        epsilon = as_fraction(epsilon, "epsilon")
    return _derive_timeouts(n, delta, pi, rho, epsilon, margin)


@functools.lru_cache(maxsize=_DERIVED_CACHED)
def _derive_timeouts(n: int, delta: Fraction, pi: Fraction, rho: Fraction,
                     epsilon: Optional[Fraction], margin: Fraction) -> TimingParams:
    if n < 1:
        raise ConfigError("n must be at least 1")
    if delta <= 0:
        raise ConfigError("delta must be strictly positive")
    if pi < 0 or rho < 0 or margin < 0:
        raise ConfigError("pi, rho, margin must be non-negative")

    budgets = [Fraction(0)] * n
    budgets[n - 1] = 2 * delta + pi
    for i in range(n - 2, -1, -1):
        budgets[i] = budgets[i + 1] + 4 * delta + 4 * pi

    drift = 1 + rho
    a = tuple(drift * h + margin for h in budgets)
    if epsilon is None:
        epsilon = 2 * drift * pi + margin
    return TimingParams(n=n, a=a, d=resolution_deadlines(a, pi, rho, margin),
                        epsilon=epsilon, pi=pi, delta=delta, rho=rho, mu=margin)


def resolution_deadlines(a: tuple[Fraction, ...], pi: Fraction, rho: Fraction,
                         margin: Fraction) -> tuple[Fraction, ...]:
    """The deadline d_i each escrow promises its depositor, for its window a_i."""
    return tuple(ai + 2 * (1 + rho) * pi + margin for ai in a)


@functools.lru_cache(maxsize=_DERIVED_CACHED)
def termination_bound(p: TimingParams) -> Fraction:
    """Real-time bound by which every compliant customer with compliant escrows
    resolves, over every admissible schedule (the worst-case sweep checks the
    maximum actually attained equals this at mu = 0); every run asks, so it is kept."""
    return 2 * p.delta + 3 * p.pi + (1 + p.rho) * p.a[0] + p.pi + p.delta + p.mu


@functools.lru_cache(maxsize=_DERIVED_CACHED)
def default_horizon(p: TimingParams) -> Fraction:
    """The horizon of a run whose scenario sets none: four termination bounds."""
    return 4 * termination_bound(p)


_WORST_CLOCK_MODES = ("identity", "worst_case", "escrows_slow", "all_fast", "all_slow")


@dataclass
class SweepResult:
    clock_mode: str
    bob_paid: bool
    trace: Trace
    broken: str = ""  # which progress property the run violates, if any


@dataclass
class TimeoutValidation:
    """What `validate_timeouts` found. It is returned only when every sweep at
    the given values passed; a failing sweep raises `ValidationFailed`."""
    params: TimingParams
    n: int
    sweeps: list[SweepResult] = field(default_factory=list)
    max_customer_terminal: Optional[Fraction] = None
    tight: list[bool] = field(default_factory=list)
    tightness_step: Fraction = Fraction(0)
    counterexamples: list[SweepResult] = field(default_factory=list)


def _worst_case_scenario(params: TimingParams, n: int, clock_mode: str) -> Scenario:
    return Scenario(
        variant="strong",
        n=n,
        delay=Scripted(default=params.delta, delta=params.delta),
        pi=params.pi,
        rho=params.rho,
        timing=params,
        clock_mode=clock_mode,
        seed=0,
    )


def _clock_modes(rho: Fraction) -> tuple[str, ...]:
    if rho == 0:
        return ("identity",)
    return _WORST_CLOCK_MODES


def validate_timeouts(p: TimingParams, n: int) -> TimeoutValidation:
    """Run the worst-case scripted family (every delay at the bound, extreme clock
    assignments, full processing) and report:

    * liveness, termination-within-bound, and promise-honoring at `p`
      (raises ValidationFailed with the first counterexample trace otherwise);
    * tightness evidence: lowering each a_i by one grid step of delta/4
      produces a progress counterexample. For the bottom hop that is
      a liveness failure (Bob refunded-around, never paid); for the hops above
      it Bob is still paid by the escrows below, and the failure is the
      connector above the shortened window forwarding the certificate too late
      and waiting forever for her payment: a termination failure.
    """
    from .properties import Status, check_promises, fold

    if n != p.n:
        raise ConfigError("hop count does not match the timing parameters")
    step = p.delta / 4
    report = TimeoutValidation(params=p, n=n, tightness_step=step)

    bound = termination_bound(p)
    worst_terminal: Optional[Fraction] = None
    for mode in _clock_modes(p.rho):
        trace = run_simulation(_worst_case_scenario(p, n, mode))
        monitor = fold(trace)
        paid = monitor.bob_paid()
        result = SweepResult(mode, paid, trace)
        report.sweeps.append(result)
        if not paid:
            raise ValidationFailed(
                f"liveness fails at the derived values under clock mode {mode!r}", trace)
        term = monitor.termination(trace, bound)
        if term.status is Status.VIOLATED:
            raise ValidationFailed(
                f"termination bound exceeded under clock mode {mode!r}", trace)
        for verdict in check_promises(trace):
            if verdict.status is Status.VIOLATED:
                raise ValidationFailed(
                    f"{verdict.name} dishonored under clock mode {mode!r}", trace)
        for c in monitor.terminal_times():
            if worst_terminal is None or c > worst_terminal:
                worst_terminal = c
    report.max_customer_terminal = worst_terminal

    for i in range(n):
        a = list(p.a)
        a[i] = a[i] - step
        reduced = replace(p, a=tuple(a))
        broke = False
        for mode in _clock_modes(p.rho):
            trace = run_simulation(_worst_case_scenario(reduced, n, mode))
            monitor = fold(trace)
            paid = monitor.bob_paid()
            term = monitor.termination(trace, termination_bound(reduced))
            if not paid or term.status is Status.VIOLATED:
                which = "L" if not paid else "T"
                report.counterexamples.append(SweepResult(mode, paid, trace, broken=which))
                broke = True
                break
        report.tight.append(broke)

    # tightness is evidence, not a requirement: a positive margin is supposed
    # to leave headroom
    return report
