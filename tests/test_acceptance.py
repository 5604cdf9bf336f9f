"""Acceptance suite: one test per release criterion, one pass/fail line each.

Each criterion pins its own tolerances (run counts, grids, wall-clock budgets)
and prints `ACCEPTANCE <k> <name>: PASS` on success; a failure raises before
the line is printed.
"""
from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest

from conftest import strong_scenario, weak_scenario
from oracles import brute_force_statuses, strongly_connected_bruteforce
from xpay.cli import EXIT_OK, main
from xpay.core import AbortCert, CommitCert, customer, manager, verify
from xpay.deals import (
    Asset,
    DealMatrix,
    is_acceptable_payoff,
    is_well_formed,
    payment_to_deal,
)
from xpay.explore import battery_assignments, explore
from xpay.properties import Status, evaluate_all
from xpay.simnet import Synchronous, run_simulation
from xpay.timing import (
    ValidationFailed,
    derive_timeouts,
    termination_bound,
    validate_timeouts,
)
from xpay.trace import Rec

F = Fraction
RUNS = 1000


def _passed(k, name):
    print(f"ACCEPTANCE {k} {name}: PASS")


def test_acceptance_1_synchronous_feasibility():
    """n in {1,2,3}, rho in {0, 1/10}, derived timeouts, 1000 seeded runs each:
    every run pays Bob, hands Alice the certificate, leaves connectors whole,
    satisfies every property, and terminates within the bound. Under 60 s."""
    started = time.monotonic()
    for n in (1, 2, 3):
        for rho in (F(0), F(1, 10)):
            params = derive_timeouts(n, F(1), F(1, 10), rho)
            bound = termination_bound(params)
            for seed in range(RUNS):
                sc = strong_scenario(n=n, rho=rho, timing=params, seed=seed)
                trace = run_simulation(sc)
                bob, alice = customer(n), customer(0)
                hit = trace.terminal_entry(bob)
                assert hit and hit[1].state == "paid", (n, rho, seed)
                assert trace.final_balances[bob] == 1
                hit = trace.terminal_entry(alice)
                assert hit and hit[1].state == "has_certificate", (n, rho, seed)
                for k in range(1, n):
                    assert trace.final_balances[customer(k)] == 1, (n, rho, seed, k)
                for c in range(n + 1):
                    term = trace.terminal_entry(customer(c))
                    assert term and term[1].t <= bound, (n, rho, seed, c)
                verdicts = evaluate_all(trace, bound=bound)
                bad = [v.line() for v in verdicts if v.status is Status.VIOLATED]
                assert not bad, (n, rho, seed, bad)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"feasibility sweep took {elapsed:.1f}s"
    _passed(1, f"synchronous feasibility ({6 * RUNS} runs, {elapsed:.1f}s)")


def test_acceptance_2_safety_under_byzantium():
    """Exhaustive n=1 exploration: 3-point grid, both tie-break orders, every
    Byzantine subset with the full strategy battery: zero safety violations on
    any branch, and the checkers coincide with the independent brute-force
    evaluator on every branch, both as the explorer's forked monitors decided
    them and as a whole-trace check decides them. Under 5 min."""
    started = time.monotonic()
    base = strong_scenario(delay=Synchronous(F(1), grid=(F(1, 4), F(1, 2), F(1))))
    assignments = battery_assignments(base)
    assert len(assignments) > 100  # the whole battery, not a sample
    mismatches = []

    def coincide(outcome):
        lib = {v.name: v.status.value for v in evaluate_all(outcome.trace)}
        oracle = brute_force_statuses(outcome.trace)
        for name, want in oracle.items():
            if lib[name] != want:
                mismatches.append((outcome.assignment_label, name, lib[name], want))
        # the oracle has no CONS or AUTH; those are held to the whole-trace check
        for v in outcome.verdicts:
            want = oracle.get(v.name, lib[v.name])
            if v.status.value != want:
                mismatches.append((outcome.assignment_label, v.name, v.status.value, want))

    report = explore(base, assignments=assignments, budget=500_000,
                     on_branch=coincide)
    assert report.complete, "exploration budget exceeded"
    assert report.safe, [
        (v.assignment_label, [x.name for x in v.verdicts if not x.holds])
        for v in report.violations[:5]
    ]
    safety_names = {"C", "ES", "CS1", "CS2", "CS3", "CONS", "AUTH"}
    for name in safety_names:
        assert report.counts[name]["fail"] == 0
    assert not mismatches, mismatches[:5]
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"battery exploration took {elapsed:.1f}s"
    _passed(2, f"safety under byzantium ({report.branches} branches, "
               f"{len(assignments)} assignments, {elapsed:.1f}s)")


def test_acceptance_3_impossibility_illustration(configs):
    """The shipped late-certificate scenario, deterministically: Alice refunded,
    compliant Bob unpaid after issuing, liveness violated with witness, safety
    intact. A demonstration, not a proof."""
    from xpay.cli import load_config, parse_scenario_config
    scenario, _ = parse_scenario_config(load_config(str(configs / "late_certificate_n1.json")))
    traces = [run_simulation(scenario) for _ in range(2)]
    assert traces[0].render() == traces[1].render()  # deterministic
    trace = traces[0]
    alice, bob = customer(0), customer(1)
    hit = trace.terminal_entry(alice)
    assert hit and hit[1].state == "refunded"
    assert trace.final_balances[alice] == 1
    issued = [e for e in trace.entries if e.rec is Rec.SENT and e.participant == bob
              and type(e.env.msg.payload).__name__ == "Certificate"]
    assert issued, "bob never issued the certificate"
    assert trace.terminal_entry(bob) is None
    assert trace.final_balances[bob] == 0
    verdicts = {v.name: v for v in evaluate_all(trace)}
    assert verdicts["L"].status is Status.VIOLATED
    assert verdicts["L"].witness
    for name in ("C", "ES", "CS1", "CS2", "CS3", "CONS", "AUTH"):
        assert verdicts[name].status is not Status.VIOLATED, name
    _passed(3, "impossibility illustration (late certificate)")


def test_acceptance_4_weak_variant_interleavings():
    """Exhaustive n=1 weak exploration over lock/commit/abort orderings: the
    manager never issues both certificates; every terminating compliant
    customer ends with (refund + abort cert) or (payment / commit cert); with
    unbounded patience Bob is paid on every branch."""
    base = weak_scenario(delay=Synchronous(F(1), grid=(F(1, 2), F(1))))
    tm = manager()
    bad_outcomes = []

    def outcome_discipline(outcome):
        trace = outcome.trace
        got_abort, got_commit = set(), set()
        for e in trace.entries:
            if e.rec is Rec.DELIVERED:
                payload = e.env.msg.payload
                if isinstance(payload, AbortCert) and verify(e.env.msg, tm):
                    got_abort.add(e.participant)
                elif isinstance(payload, CommitCert) and verify(e.env.msg, tm):
                    got_commit.add(e.participant)
        for k in range(trace.meta.n + 1):
            c = customer(k)
            hit = trace.terminal_entry(c)
            if hit is None:
                continue
            idx, entry = hit
            net = trace.net_change(c, upto=idx)
            if entry.state in ("refunded", "aborted", "aborted_unfunded"):
                ok = net >= 0 and c in got_abort
            elif entry.state == "paid":
                ok = net >= (1 if c == customer(trace.meta.n) else 0) and c in got_commit
            elif entry.state == "committed":
                ok = c in got_commit
            else:
                ok = False
            if not ok:
                bad_outcomes.append((outcome.assignment_label, str(c), entry.state, net))

    total = 0
    for patience in itertools.product((F(0), F(2), None), repeat=2):
        base.patience = patience
        report = explore(base, on_branch=outcome_discipline)
        assert report.complete
        assert report.safe
        assert report.counts["CC"]["fail"] == 0
        total += report.branches
        if all(p is None for p in patience):
            assert report.bob_paid_everywhere["compliant"], \
                "bob unpaid on a fully patient branch"
    assert not bad_outcomes, bad_outcomes[:5]
    _passed(4, f"weak variant interleavings ({total} branches)")


def test_acceptance_5_clock_drift_claim():
    """Drift-aware windows work under drift (criterion 1 covers the full sweep;
    spot-checked here), while windows derived for perfect clocks produce a
    concrete liveness counterexample under the same drift."""
    rho = F(1, 10)
    aware = derive_timeouts(1, F(1), F(1, 10), rho)
    for seed in range(100):
        trace = run_simulation(strong_scenario(rho=rho, timing=aware, seed=seed))
        hit = trace.terminal_entry(customer(1))
        assert hit and hit[1].state == "paid", seed
    validate_timeouts(aware, 1)  # raises ValidationFailed on a failing sweep

    naive = derive_timeouts(1, F(1), F(1, 10), F(0))
    from xpay.protocol import TimingParams
    naive_under_drift = TimingParams(
        n=1, a=naive.a, d=(naive.a[0] + 2 * (1 + rho) * F(1, 10),),
        epsilon=2 * (1 + rho) * F(1, 10), pi=F(1, 10), delta=F(1), rho=rho)
    with pytest.raises(ValidationFailed) as info:
        validate_timeouts(naive_under_drift, 1)
    counterexample = info.value.trace
    assert counterexample is not None
    assert counterexample.terminal_entry(customer(0))[1].state == "refunded"
    _passed(5, "clock-drift fine-tuning (naive windows refuted)")


def test_acceptance_6_timing_tightness():
    """n in {1,2}: the derived windows pass the full worst-case sweep, and
    lowering any a_i by one grid step produces a worst-case counterexample
    (a liveness one at the bottom hop, a progress one above it)."""
    for n in (1, 2):
        params = derive_timeouts(n, F(1), F(1, 10), F(0))
        report = validate_timeouts(params, n)
        assert all(report.tight), (n, report.tight)
        assert report.counterexamples[-1].broken == "L"  # bottom hop
        for c in report.counterexamples:
            assert c.broken in ("L", "T")
    _passed(6, "timing tightness at one grid step")


def test_acceptance_7_deals():
    """Well-formedness matches brute-force reachability exhaustively (<= 4
    parties); the chained payment is never well-formed (n = 1..5); the payoff
    acceptability examples hold."""
    for parties in (1, 2, 3, 4):
        cells = [(i, j) for i in range(parties) for j in range(parties) if i != j]
        for bits in itertools.product((0, 1), repeat=len(cells)):
            arcs = [cell for cell, bit in zip(cells, bits) if bit]
            m = DealMatrix(parties, {a: Asset("x", 1) for a in arcs})
            assert is_well_formed(m) == strongly_connected_bruteforce(parties, arcs)
    for n in (1, 2, 3, 4, 5):
        assert not is_well_formed(payment_to_deal(n))
    swap = DealMatrix(2, {(0, 1): Asset("a", 1), (1, 0): Asset("b", 1)})
    assert is_acceptable_payoff(swap, 0, {(0, 1), (1, 0)})   # full execution
    assert is_acceptable_payoff(swap, 0, set())              # nothing executed
    assert not is_acceptable_payoff(swap, 0, {(0, 1)})       # pay without receive
    _passed(7, "cross-chain deals")


def test_acceptance_8_determinism_golden(tmp_path, configs):
    """Repeated cmd_run with a fixed config and seed yields byte-identical
    trace files."""
    cfg = str(configs / "nominal_strong_n1.json")
    paths = [str(tmp_path / f"run{i}.trace") for i in range(3)]
    for p in paths:
        assert main(["run", cfg, "--trace", p]) == EXIT_OK
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].splitlines()) > 30
    _passed(8, "byte-identical traces")
