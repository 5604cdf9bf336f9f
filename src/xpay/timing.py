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
empirical oracle for both claims. A known defect escapes it: H_{i+1} is real
time, but escrow i+1 keeps its window open for a_{i+1}/rate, up to
(1+rho)^2 H_{i+1} on the slowest clock, so T can fail when escrow i runs fast
and escrow i+1 slow. The sweep gives every escrow one rate and every delay
the bound, and never meets that case.

The window algebra (`TimingParams`, the windows, T's bound, the default
horizon) sits below the engine and the checkers, which read it. Only the
validator runs simulations, importing the engine inside its functions.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Optional

from .core import ConfigError, as_fraction
from .trace import Trace

# Parameter sets kept by `derive_timeouts`, `termination_bound` and `default_horizon`.
_DERIVED_CACHED = 64


@dataclass(frozen=True)
class TimingParams:
    """Per-hop protocol parameters, all local-time durations as exact rationals.

    a[i]: escrow i's certificate-acceptance window, counted from the instant it
    issues its downstream promise. d[i]: escrow i's resolution deadline counted
    from deposit receipt. epsilon: pay-after-certificate slack. pi: real-time
    output-state processing budget. delta: the delivery bound the values were
    derived against. rho: clock drift bound. mu: safety margin folded into the
    derived values and the termination bound.

    It is hashed once, at construction, to the value the frozen dataclass
    would compute: the memoised roster builders are keyed by it on every run.
    """
    n: int
    a: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    epsilon: Fraction
    pi: Fraction
    delta: Fraction
    rho: Fraction
    mu: Fraction = Fraction(0)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("hop count must be at least 1")
        if len(self.a) != self.n or len(self.d) != self.n:
            raise ConfigError("need one a_i and one d_i per hop")
        object.__setattr__(self, "a", tuple(as_fraction(x, "a_i") for x in self.a))
        object.__setattr__(self, "d", tuple(as_fraction(x, "d_i") for x in self.d))
        for name in ("epsilon", "pi", "delta", "rho", "mu"):
            object.__setattr__(self, name, as_fraction(getattr(self, name), name))
        if any(x <= 0 for x in self.a) or any(x <= 0 for x in self.d):
            raise ConfigError("timeout durations must be strictly positive")
        for i in range(self.n):
            if self.d[i] < self.a[i]:
                raise ConfigError(f"d_{i} < a_{i}: an escrow cannot resolve before its own window closes")
        if self.delta <= 0:
            raise ConfigError("delivery bound must be strictly positive")
        if self.pi < 0 or self.rho < 0 or self.mu < 0 or self.epsilon < 0:
            raise ConfigError("pi, rho, mu, epsilon must be non-negative")
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash


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
    trace: Trace  # a tightness counterexample; its scenario names the clock mode
    broken: str  # the progress property it violates: "L" (Bob unpaid) or "T"


@dataclass
class TimeoutValidation:
    """What `validate_timeouts` found. It is returned only when every sweep at
    the given values passed; a failing sweep raises `ValidationFailed`."""
    params: TimingParams
    max_customer_terminal: Optional[Fraction] = None
    tight: list[bool] = field(default_factory=list)
    tightness_step: Fraction = Fraction(0)
    counterexamples: list[SweepResult] = field(default_factory=list)


def _worst_case_scenario(params: TimingParams, n: int, clock_mode: str):
    """The strong scenario of one sweep: every delay at the bound, under `clock_mode`."""
    from .simnet import Scenario, Scripted
    return Scenario(
        variant="strong",
        n=n,
        delay=Scripted(default=params.delta, delta=params.delta),
        pi=params.pi,
        rho=params.rho,
        timing=params,
        mu=params.mu,
        clock_mode=clock_mode,
        seed=0,
    )


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
    from .simnet import run_simulation

    if n != p.n:
        raise ConfigError("hop count does not match the timing parameters")
    step = p.delta / 4
    report = TimeoutValidation(params=p, tightness_step=step)
    modes = ("identity",) if p.rho == 0 else _WORST_CLOCK_MODES

    bound = termination_bound(p)
    worst_terminal: Optional[Fraction] = None
    for mode in modes:
        trace = run_simulation(_worst_case_scenario(p, n, mode))
        monitor = fold(trace)
        if not monitor.bob_paid():
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
        for mode in modes:
            trace = run_simulation(_worst_case_scenario(reduced, n, mode))
            monitor = fold(trace)
            paid = monitor.bob_paid()
            term = monitor.termination(trace, termination_bound(reduced))
            if not paid or term.status is Status.VIOLATED:
                which = "L" if not paid else "T"
                report.counterexamples.append(SweepResult(trace, which))
                broke = True
                break
        report.tight.append(broke)

    # tightness is evidence, not a requirement: a positive margin is supposed
    # to leave headroom
    return report
