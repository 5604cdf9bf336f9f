"""Property-based differential and metamorphic tests over generated scenarios.

Scenarios: strong or weak, n <= 4, rational delta, pi and rho, a grid of 1-4
points in (0, delta], one of four clock modes, at most one Byzantine member
running an applicable battery strategy, and on weak runs a random patience per
customer.

* Differential: the library's `evaluate_all` statuses equal those of the
  independent brute-force evaluator in `oracles.py`. The drawn scenarios
  include no strong n=4 one, so a separate test runs strong n=4 under each
  clock mode with every single-member Byzantine assignment.
* Metamorphic: multiplying every length of the scenario (delta, pi, the grid,
  finite patience, the `delay_own_sends` delay) by k multiplies every entry's
  t, local, delay and deadline by k and changes nothing else, statuses included.
* Metamorphic: renaming the payment instance changes nothing but the name in
  the rendered trace, statuses included; the n=1 strategy batteries are
  checked the same way. Since the protocol definitions are shared between runs
  and keyed by the instance, this also shows that no definition built for one
  instance serves another.

Examples are derandomized, so every run checks the same scenarios.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import strong_scenario, weak_scenario
from oracles import brute_force_statuses
from xpay.core import ParticipantKind
from xpay.explore import battery_assignments
from xpay.properties import evaluate_all
from xpay.simnet import STRATEGIES, StrategySpec, Synchronous, run_simulation

F = Fraction
CLOCK_MODES = ("identity", "seeded", "worst_case", "escrows_slow")
SCALES = (F(2), F(3, 2), F(7))
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def positive_rationals(max_num: int, max_den: int):
    return st.builds(F, st.integers(1, max_num), st.integers(1, max_den))


@st.composite
def scenarios(draw):
    variant = draw(st.sampled_from(("strong", "weak")))
    n = draw(st.integers(1, 4))
    delta = draw(positive_rationals(9, 7))
    # grid points k/m * delta, 0 < k <= m: inside (0, delta]
    grid = draw(st.lists(st.builds(lambda m, k: delta * min(k, m) / m,
                                   st.integers(1, 6), st.integers(1, 6)),
                         min_size=1, max_size=4))
    common = dict(
        n=n,
        delay=Synchronous(delta, grid=tuple(grid)),
        pi=draw(st.builds(F, st.integers(0, 5), st.integers(1, 13))),
        rho=draw(st.builds(F, st.integers(0, 3), st.integers(1, 10))),
        clock_mode=draw(st.sampled_from(CLOCK_MODES)),
        seed=draw(st.integers(0, 2**16)),
    )
    if variant == "weak":
        patience = draw(st.lists(st.one_of(st.none(), st.builds(F, st.integers(0, 20),
                                                                st.integers(1, 4))),
                                 min_size=n + 1, max_size=n + 1))
        scenario = weak_scenario(patience=tuple(patience), **common)
    else:
        scenario = strong_scenario(**common)
    options = [(pid, name) for pid in scenario.participant_ids()
               if pid.kind is not ParticipantKind.MANAGER
               for name in sorted(STRATEGIES) if STRATEGIES[name][1](pid, scenario)]
    pick = draw(st.sampled_from([None, *options]))
    if pick is not None:
        pid, name = pick
        params = {"delay": 2 * delta} if name == "delay_own_sends" else {}
        scenario = replace(scenario, byzantine={pid: StrategySpec(name, params)})
    return scenario


def scaled(scenario, k: Fraction):
    """The same scenario with every length multiplied by k (clock rates kept)."""
    model = scenario.delay
    byzantine = {pid: StrategySpec(spec.name, {name: k * value
                                               for name, value in spec.params.items()})
                 for pid, spec in scenario.byzantine.items()}
    patience = scenario.patience
    if patience is not None:
        patience = tuple(None if p is None else k * p for p in patience)
    return replace(scenario, delay=Synchronous(k * model.delta,
                                               grid=tuple(k * g for g in model.grid)),
                   pi=k * scenario.pi, patience=patience, byzantine=byzantine)


def statuses(trace) -> dict[str, str]:
    return {v.name: v.status.value for v in evaluate_all(trace)}


def _times_k(x, k):
    return None if x is None else k * x


def untimed(e) -> tuple:
    """An entry without its times; a message is kept as its wire identity,
    since guarantees and promises carry durations in their payloads."""
    wire = None if e.env is None else (e.env.src, e.env.dst, type(e.env.msg.payload),
                                       e.env.msg.signer, e.env.msg.nonce)
    return (e.seq, e.participant, e.rec, wire, e.state, e.frm, e.to, e.amount, e.phase,
            e.reason, e.discarded)


@EXAMPLES
@given(scenarios())
def test_checkers_agree_with_the_brute_force_oracle(scenario):
    trace = run_simulation(scenario)
    lib = statuses(trace)
    for name, want in brute_force_statuses(trace).items():
        assert lib[name] == want, (name, lib[name], want, scenario.config_dict())


def single_member_assignments(scenario) -> list[dict]:
    """No Byzantine member, then each member alone under each strategy that
    applies to it, with the parameters `battery_assignments` gives it."""
    delta = scenario.delay.delta_bound()
    out: list[dict] = [{}]
    for pid in scenario.participant_ids():
        for name in sorted(STRATEGIES):
            if pid.kind is not ParticipantKind.MANAGER and STRATEGIES[name][1](pid, scenario):
                params = {"delay": 2 * delta} if name == "delay_own_sends" else {}
                out.append({pid: StrategySpec(name, params)})
    return out


@pytest.mark.parametrize("clock_mode", CLOCK_MODES)
def test_strong_n4_checkers_agree_with_the_brute_force_oracle(clock_mode):
    """The drawn differential above never draws a strong n=4 scenario; this
    one runs each clock mode with every single-member Byzantine assignment,
    at the derived windows and with a_0 halved, which breaks progress."""
    base = strong_scenario(n=4, rho=F(1, 7), clock_mode=clock_mode,
                           delay=Synchronous(F(3, 2), grid=(F(1, 2), F(1), F(3, 2))))
    params = base.resolved_timing()
    halved = replace(params, a=(params.a[0] / 2, *params.a[1:]))
    seen = set()
    for timing in (params, halved):
        for k, byzantine in enumerate(single_member_assignments(base)):
            scenario = replace(base, timing=timing, byzantine=byzantine, seed=k)
            trace = run_simulation(scenario)
            lib = statuses(trace)
            for name, want in brute_force_statuses(trace).items():
                assert lib[name] == want, (name, lib[name], want, scenario.config_dict())
                seen.add(want)
    assert seen == {"HOLDS", "VACUOUS", "VIOLATED"}


@EXAMPLES
@given(scenarios(), st.sampled_from(SCALES))
def test_scaling_every_length_scales_every_time(scenario, k):
    base = run_simulation(scenario)
    grown = run_simulation(scaled(scenario, k))
    assert grown.stop_reason == base.stop_reason
    assert len(grown.entries) == len(base.entries)
    for e, g in zip(base.entries, grown.entries):
        assert (g.t, g.local, g.delay, g.deadline) == (
            k * e.t, k * e.local, _times_k(e.delay, k), _times_k(e.deadline, k)), (e.line(), g.line())
        assert untimed(g) == untimed(e)
    assert statuses(grown) == statuses(base)


RENAMED = "other-7"


def lines_but_digest(trace) -> list[str]:
    """The rendered trace without its scenario digest, which hashes the instance."""
    return [line for line in trace.render().splitlines()
            if not line.startswith("# scenario sha256=")]


def check_renaming(scenario) -> None:
    base = run_simulation(scenario)
    other = run_simulation(replace(scenario, instance=RENAMED))
    assert statuses(other) == statuses(base)
    lines = lines_but_digest(other)
    assert not any(scenario.instance in line for line in lines)
    assert [line.replace(RENAMED, scenario.instance) for line in lines] == lines_but_digest(base)


@EXAMPLES
@given(scenarios())
def test_renaming_the_instance_changes_only_the_name(scenario):
    check_renaming(scenario)


@pytest.mark.parametrize("make", [strong_scenario, weak_scenario], ids=["strong", "weak"])
def test_renaming_the_instance_changes_only_the_name_across_the_n1_battery(make):
    base = make(seed=7)
    for assignment in battery_assignments(base):
        check_renaming(replace(base, byzantine=assignment))
