"""xpay benchmark: checked closed-loop runs and exploration, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 1

Run from the root of a checkout; the library is imported from `src/`. One
process, one thread, a closed loop: the next op starts when the previous one
has finished. Each invocation makes these passes, in this order:

1. set-up, timed from outside: fresh interpreters, each of which imports
   xpay, parses the workload config, builds the input generator and runs one
   untimed warm-up op. `setup_s` is their median.
2. the timed pass, untraced: ops for `--seconds` seconds (and at least
   `min_ops`), or whole exploration trees until `--seconds` have passed.
   Every end-to-end metric comes from here.
3. the traced pass: the first ops again with a span recorder wrapped around
   each layer's public functions. Every per-layer time comes from here, and
   the traced-versus-untraced overhead is reported.
4. the counting pass: the first ops once more under a profile hook that
   counts `Fraction.__new__` calls.

Times in the JSON result are scaled to nominal host speed with a reference
kernel sampled between ops (see `hostspeed.py`); the text report prints the
raw host time beside each end-to-end metric.

The outputs of the three passes must agree op for op (sha256 over the
rendered traces, or over each explored branch's verdicts), and no op may
fail. The weak workload also runs a defect probe, outside the timed ops: the
grid combinations that hit the known weak-variant progress defect, whose
failures it reports and attributes to that defect. A disagreement, a failed
op, a probe failure of another kind or an exception makes `correct` false and
the exit code 1.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`. Every metric is also printed by name with
its unit, whatever `--trace` says.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

from hostspeed import NEAR, HostSpeed
from spans import BENCH_SPAN, Tracer, count_fraction_new
from workloads import SIZES, WORKLOADS, ExploreBattery

HERE = Path(__file__).resolve().parent
SETUP_TIMEOUT_S = 60
PARSE_REPS = 20

# name -> unit. The order is the print order.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "protocol.build_ms": "ms",
    "protocol.tm_states": "count",
    "protocol.tm_transitions": "count",
    "protocol.tm_entered_ratio": "ratio",
    "simnet.loop_ms": "ms",
    "simnet.clocks_ms": "ms",
    "simnet.us_per_entry": "us",
    "simnet.entries_per_op": "count",
    "simnet.sends_per_op": "count",
    "simnet.tie_share": "ratio",
    "simnet.fraction_new_per_entry": "count",
    "trace.fraction_new_per_entry": "count",
    "automata.step_ms": "ms",
    "automata.steps_per_op": "count",
    "core.verify_calls_per_op": "count",
    "trace.render_ms": "ms",
    "trace.render_bytes_per_op": "bytes",
    "properties.check_ms": "ms",
    "properties.us_per_entry": "us",
    "properties.verdicts_per_op": "count",
    "explore.branches": "count",
    "explore.tie_rerun_share": "ratio",
    "explore.overhead_ms": "ms",
    "explore.mean_decisions": "count",
    "cli.parse_ms": "ms",
    "tracing.op_ms_mean": "ms",
    "tracing.self_ms_mean": "ms",
    "tracing.overhead_ratio": "ratio",
    "host.slowdown": "ratio",
}
NOT_TIMED = (
    "deals: deal matrices have a few cells and no workload touches them",
    "timing: only derive_timeouts and termination_bound run, inside "
    "Scenario.resolved_timing, and count as simnet; validate_timeouts "
    "(derive --validate, a handful of simulations) runs in no workload",
)


class CheckFailed(Exception):
    """The outputs of the passes disagree, or an op failed unexpectedly."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs every pass at a few ops, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print when that ended and the "
                             "host slowdown, and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- set-up

def set_up(args):
    """Import, parse, build the input generator and run one warm-up op."""
    wl = WORKLOADS[args.workload](args.seed, args.size)
    if wl.explores:
        wl.tree(budget=1, on_branch=lambda branch: None)
    else:
        wl.run_op(wl.op_input(0))
    return wl


def setup_probe(args) -> None:
    """Set up, then report when set-up ended and how slow the host ran for this
    process. perf_counter is CLOCK_MONOTONIC, shared by every process."""
    wl = set_up(args)
    ready = time.perf_counter()
    host = HostSpeed()
    for _ in range(NEAR):
        host.sample()
    print(f"ready {ready!r} {host.around(host.times[-1])!r}", flush=True)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has set up the workload,
    raw and scaled by the slowdown the fresh process measured right after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    times, scaled = [], []
    for _ in range(SIZES[args.size]["setup_reps"]):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            said, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        said, code = said.split(), proc.returncode
        if code != 0 or len(said) != 3 or said[0] != "ready":
            raise CheckFailed(f"set-up probe failed (exit {code}, said {said!r})")
        times.append(float(said[1]) - start)
        scaled.append(times[-1] / float(said[2]))
    return times, scaled


# -------------------------------------------------------------------- helpers

def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def tally(counts: dict, verdicts) -> None:
    """Per-property pass/vacuous/fail, bucketed as `xpay sweep` prints them."""
    for v in verdicts:
        per = counts.setdefault(v.name, {"pass": 0, "vacuous": 0, "fail": 0})
        status = v.status.value
        if status == "VIOLATED":
            per["fail"] += 1
        elif status in ("VACUOUS", "INAPPLICABLE"):
            per["vacuous"] += 1
        else:
            per["pass"] += 1


def compare(label: str, expected: list[str], got: list[str]) -> None:
    for k, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            raise CheckFailed(f"{label}: op {k + 1} differs from the timed pass "
                              f"({have[:12]} != {want[:12]})")
    if len(got) > len(expected):
        raise CheckFailed(f"{label}: {len(got)} ops but the timed pass checked {len(expected)}")


class Outcomes:
    """Failures and verdict counts of the timed pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict = {}

    def add(self, failure) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.failures.append(f"op {self.attempted}: {failure}")


def defect_probe(wl) -> tuple[int, int, list[str]]:
    """Run the weak grid's known-defect combinations once, untimed.

    Returns how many showed the defect, how many ran, and any failure that is
    not the defect's. Once the defect is fixed every probe op passes.
    """
    inputs = wl.defect_inputs()
    shown, other = 0, []
    for k, scenario in enumerate(inputs, 1):
        failure = wl.classify(scenario, wl.run_op(scenario)[1])
        if failure == "known_defect":
            shown += 1
        elif failure is not None:
            other.append(f"defect probe op {k}: {failure}")
    return shown, len(inputs), other


# ---------------------------------------------------------------- sweep passes

def timed_sweep(wl, seconds: float, checked_ops: int):
    size = wl.size
    latencies, mids, digests = [], [], []
    entries = 0
    outcomes = Outcomes()
    corpus = hashlib.sha256()
    perf = time.perf_counter
    host = HostSpeed()
    start = perf()
    k = 1
    while True:
        scenario = wl.op_input(k)
        t0 = perf()
        try:
            trace, verdicts, text = wl.run_op(scenario)
        except Exception:  # an op that raises is a failed op; the run goes on
            t1 = perf()
            outcomes.add(traceback.format_exc(limit=3).strip().splitlines()[-1])
            if k <= checked_ops:
                digests.append("raised")
        else:
            t1 = perf()
            entries += len(trace.entries)
            outcomes.add(wl.classify(scenario, verdicts))
            tally(outcomes.counts, verdicts)
            if k <= checked_ops:
                corpus.update(text.encode())
                digests.append(hashlib.sha256(text.encode()).hexdigest())
        latencies.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        host.tick()
        k += 1
        if (t1 - start >= seconds and len(latencies) >= size["min_ops"]
                and len(latencies) % wl.cycle == 0):
            break
    scaled = [x / host.around(t) for x, t in zip(latencies, mids)]
    return {
        "raw": (latencies, sum(latencies)), "scaled": (scaled, sum(scaled)),
        "ops": len(latencies), "entries": entries, "slowdown": host.slowdown(),
        "outcomes": outcomes, "digests": digests, "corpus": corpus.hexdigest(),
    }


@dataclass
class Traced:
    """What the traced pass recorded."""
    tracer: Tracer
    ops: list            # OpResult or Branch per op
    latencies: list[float]
    busy: float          # seconds the traced ops took, bookkeeping excluded
    slowdown: float      # mean host slowdown during the pass
    overhead: float      # traced op median over untraced op median
    summary: str = ""    # exploration: digest of the tree summary


def traced_sweep(wl, ops: int) -> Traced:
    """Each op runs untraced and then traced, so that host drift cancels out of
    the overhead ratio."""
    results, latencies, untraced = [], [], []
    perf = time.perf_counter
    tracer = Tracer()
    host = HostSpeed()
    for k in range(1, ops + 1):
        scenario = wl.op_input(k)
        t0 = perf()
        wl.run_op(scenario)
        untraced.append(perf() - t0)
        with tracer:
            tracer.op = k
            t0 = perf()
            trace, verdicts, text = wl.run_op(scenario)
            latencies.append(perf() - t0)
        results.append(wl.inspect(trace, verdicts, text))
        host.tick()
    with tracer:
        tracer.op = -1
        for _ in range(PARSE_REPS):
            wl.parse()
    return Traced(tracer, results, latencies, sum(latencies), host.slowdown(),
                  statistics.median(latencies) / statistics.median(untraced))


def counted_sweep(wl, ops: int):
    results = []

    def work():
        for k in range(1, ops + 1):
            results.append(wl.inspect(*wl.run_op(wl.op_input(k))))

    with Tracer() as tracer:
        counts = count_fraction_new(tracer, work)
    return counts, [r.digest for r in results], sum(r.entries for r in results)


# -------------------------------------------------------------- explore passes

def timed_explore(wl: ExploreBattery, seconds: float):
    """Whole trees until `seconds` have passed.

    Every tree runs the same branches in the same order, so a branch's latency
    sample is its mean over the trees.
    """
    per_tree: list[tuple[array, array]] = []  # (latencies, midpoints) of each tree's branches
    trees, tree_digests = [], []
    entries = 0
    outcomes = Outcomes()
    first_tree: list[str] = []

    def on_branch(branch):
        nonlocal entries
        latencies, mids = per_tree[-1]
        latencies.append(branch.latency)
        mids.append(branch.end - branch.latency / 2)
        entries += branch.entries
        outcomes.add(branch.failure)
        if not trees:
            first_tree.append(branch.digest)
        host.tick()

    perf = time.perf_counter
    host = HostSpeed()
    start = perf()
    while True:
        per_tree.append((array("d"), array("d")))
        spent = host.spent
        t0 = perf()
        report = wl.tree(wl.size["explore_budget"], on_branch)
        trees.append(perf() - t0 - (host.spent - spent))
        tree_digests.append(hashlib.sha256(wl.summary(report).encode()).hexdigest())
        if not outcomes.counts:
            outcomes.counts = report.counts
        if not report.complete and wl.size["explore_budget"] > report.branches:
            raise CheckFailed("exploration stopped before the tree was complete")
        if perf() - start >= seconds:
            break
    if len(set(tree_digests)) != 1:
        raise CheckFailed(f"timed trees disagree: {sorted(set(tree_digests))}")
    raw = [latencies for latencies, _ in per_tree]
    scaled = [[x / host.around(t) for x, t in zip(*tree)] for tree in per_tree]
    return {
        "raw": ([statistics.fmean(b) for b in zip(*raw)], sum(map(sum, raw))),
        "scaled": ([statistics.fmean(b) for b in zip(*scaled)], sum(map(sum, scaled))),
        "ops": sum(map(len, raw)), "entries": entries, "slowdown": host.slowdown(),
        "outcomes": outcomes, "digests": first_tree, "corpus": tree_digests[0],
        "trees": trees,
        "trees_scaled": [t * sum(sc) / sum(r) for t, sc, r in zip(trees, scaled, raw)],
    }


def traced_explore(wl: ExploreBattery, untraced_p50: float) -> Traced:
    """One traced tree. The untraced branches ran in the timed pass, so the
    overhead compares medians scaled to nominal host speed (`untraced_p50`)."""
    branches = []
    host = HostSpeed()

    with Tracer() as tracer:
        def on_branch(branch):
            branches.append(branch)
            tracer.op += 1
            host.tick()

        tracer.op = 1
        t0 = time.perf_counter()
        report = wl.tree(wl.size["explore_budget"], on_branch, tracer=tracer)
        # the callbacks, host sampling included, are the benchmark's own time
        busy = time.perf_counter() - t0 - tracer.inclusive(BENCH_SPAN)
        tracer.op = -1
        for _ in range(PARSE_REPS):
            wl.parse()
    latencies = [b.latency for b in branches]
    scaled = [b.latency / host.around(b.end - b.latency / 2) for b in branches]
    return Traced(tracer, branches, latencies, busy, host.slowdown(),
                  statistics.median(scaled) / untraced_p50,
                  hashlib.sha256(wl.summary(report).encode()).hexdigest())


def counted_explore(wl: ExploreBattery, branches: int):
    digests, entries = [], []

    def on_branch(branch):
        digests.append(branch.digest)
        entries.append(branch.entries)

    with Tracer() as tracer:
        counts = count_fraction_new(
            tracer, lambda: wl.tree(branches, on_branch, tracer=tracer))
    return counts, digests, sum(entries)


# ------------------------------------------------------------------- metrics

def end_to_end(timed, setup_times, kind: str) -> dict[str, float]:
    """The end-to-end metrics from the `raw` or the `scaled` op times.

    Rates are per second of op time: the benchmark's own bookkeeping between
    ops and the host-speed samples are not in it.
    """
    samples, busy = timed[kind]
    lat_ms = [x * 1e3 for x in samples]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": timed["ops"] / busy,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": nearest_rank(lat_ms, 0.9),
        "entries_per_s": timed["entries"] / busy,
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer(traced: Traced, counted, explores: bool) -> dict[str, float]:
    """Per-layer metrics of the traced pass, per op unless the name says otherwise.

    Times are scaled to nominal host speed by the pass's mean slowdown.
    """
    tracer, ops, scale = traced.tracer, traced.ops, 1 / traced.slowdown
    self_time, calls = tracer.self_times()
    n = len(ops)
    entries = sum(o.entries for o in ops)

    def self_ms(*names):
        return sum(self_time.get(x, 0.0) for x in names) * 1e3 / n * scale

    tm_states = sum(s for s, _ in tracer.tm_sizes)
    tm_transitions = sum(t for _, t in tracer.tm_sizes)
    builds = len(tracer.tm_sizes)
    layer_self = sum(t for x, t in self_time.items() if x not in ("cli.parse", BENCH_SPAN))
    fraction_new, _, counted_entries = counted
    metrics = {
        "protocol.build_ms": self_ms("protocol.build", "protocol.build_tm"),
        "protocol.tm_states": tm_states / builds if builds else 0.0,
        "protocol.tm_transitions": tm_transitions / builds if builds else 0.0,
        "protocol.tm_entered_ratio":
            sum(o.tm_entered for o in ops) / tm_states if tm_states else 0.0,
        "simnet.loop_ms": self_ms("simnet.run"),
        "simnet.clocks_ms": self_ms("simnet.clocks"),
        "simnet.us_per_entry": tracer.inclusive("simnet.run") * 1e6 / entries * scale,
        "simnet.entries_per_op": entries / n,
        "simnet.sends_per_op": sum(o.sends for o in ops) / n,
        "simnet.tie_share": sum(o.had_tie for o in ops) / n,
        "simnet.fraction_new_per_entry": fraction_new["simnet"] / counted_entries,
        "trace.fraction_new_per_entry": fraction_new["trace"] / counted_entries,
        "automata.step_ms": self_ms("automata.step"),
        "automata.steps_per_op": calls["automata.step"] / n,
        "core.verify_calls_per_op": calls["core.verify"] / n,
        "trace.render_ms": self_ms("trace.render"),
        "trace.render_bytes_per_op": tracer.render_bytes / n,
        "properties.check_ms": self_ms("properties.check"),
        "properties.us_per_entry": tracer.inclusive("properties.check") * 1e6 / entries * scale,
        "properties.verdicts_per_op": sum(o.verdicts for o in ops) / n,
        "explore.branches": float(n) if explores else 0.0,
        "explore.tie_rerun_share": sum(o.tie_rerun for o in ops) / n if explores else 0.0,
        "explore.overhead_ms": self_ms("explore.run") if explores else 0.0,
        "explore.mean_decisions": sum(o.decisions for o in ops) / n if explores else 0.0,
        "cli.parse_ms": self_time["cli.parse"] * 1e3 / calls["cli.parse"] * scale,
        "tracing.op_ms_mean": traced.busy * 1e3 / n * scale,
        "tracing.self_ms_mean": layer_self * 1e3 / n * scale,
        "tracing.overhead_ratio": traced.overhead,
        "host.slowdown": traced.slowdown,
    }
    return metrics


# -------------------------------------------------------------------- report

def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:32s} {fmt(metrics[name]):>14s} {unit}")


def run_workload(args) -> int:
    wl = set_up(args)
    size = wl.size
    setup_times, setup_scaled = measure_setup(args)
    checks: list[str] = []

    if wl.explores:
        timed = timed_explore(wl, args.seconds)
    else:
        timed = timed_sweep(wl, args.seconds, size["traced_ops"])
    timed["peak_rss_mb"] = peak_rss_mb()
    raw = end_to_end(timed, setup_times, "raw")
    e2e = end_to_end(timed, setup_scaled, "scaled")
    outcomes: Outcomes = timed["outcomes"]
    probe = defect_probe(wl)
    checks.extend(probe[2])

    if wl.explores:
        traced = traced_explore(wl, statistics.median(timed["scaled"][0]))
        if traced.summary != timed["corpus"]:
            checks.append(f"traced tree summary {traced.summary[:12]} != timed "
                          f"{timed['corpus'][:12]}")
        counted = counted_explore(wl, size["count_branches"])
    else:
        traced = traced_sweep(wl, size["traced_ops"])
        counted = counted_sweep(wl, size["count_ops"])
    for label, digests in (("traced pass", [o.digest for o in traced.ops]),
                           ("counting pass", counted[1])):
        try:
            compare(label, timed["digests"], digests)
        except CheckFailed as exc:
            checks.append(str(exc))

    layers = per_layer(traced, counted, wl.explores)
    if layers["tracing.self_ms_mean"] > layers["tracing.op_ms_mean"]:
        checks.append("span self times sum to more than the traced op time")
    checks.extend(f"failed op: {u}" for u in outcomes.failures[:5])
    correct = not checks

    print(f"workload {wl.name} seed={args.seed} seconds={fmt(args.seconds)} size={args.size} "
          f"closed loop, 1 process, 1 thread, python {sys.version.split()[0]}")
    print(f"end to end (untraced; times at nominal host speed, raw host time in brackets; "
          f"mean host slowdown {fmt(timed['slowdown'])}):")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:32s} {fmt(e2e[name]):>14s} {unit} [{fmt(raw[name])}]")
    latencies = timed["scaled"][0]
    beyond = sum(1 for x in latencies if x * 1e3 > e2e["op_ms_p90"])
    samples = f"{len(latencies)} ops"
    if wl.explores:
        samples = f"{len(latencies)} branches, each the mean of {len(timed['trees'])} trees"
    print(f"  latency samples: {samples}, {beyond} beyond p90; set-up runs: {len(setup_times)} "
          f"({', '.join(fmt(s) for s in setup_times)} s)")
    if wl.explores:
        trees = timed["trees"]
        print(f"  {'explore_s':32s} {fmt(statistics.median(timed['trees_scaled'])):>14s} s "
              f"[{fmt(statistics.median(trees))}] (median of {len(trees)} complete trees)")
    ratio = outcomes.failed / outcomes.attempted
    print(f"  {'op_fail_ratio':32s} {fmt(ratio):>14s} ratio "
          f"({outcomes.failed} failed / {outcomes.attempted} attempted)")
    if probe[1]:
        print(f"  known defect probe (untimed, not in attempted/failed): T violated with the "
              f"weak-variant progress defect (ROADMAP open item 1) on {probe[0]} of {probe[1]} "
              f"ops: depositors inf, last depositor silent, Bob 0, 3 and 10")
    for name, c in outcomes.counts.items():
        print(f"    {name}: pass={c['pass']} vacuous={c['vacuous']} fail={c['fail']}")
    what = ("tree summary: branch count, per-property counts, violations" if wl.explores
            else f"rendered traces of ops 1..{len(timed['digests'])}")
    print(f"  sha256 {timed['corpus']} ({what})")
    print_table(f"per layer (traced pass, {len(traced.ops)} ops; span self times at nominal "
                f"host speed):", layers, LAYER_UNITS)
    print(f"  tracing overhead: traced op p50 / untraced op p50 = "
          f"{fmt(layers['tracing.overhead_ratio'])}")
    for note in NOT_TIMED:
        print(f"  not timed: {note}")
    print(f"checks: {'timed, traced and counting passes agree' if correct else 'FAILED'}")
    for problem in checks:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    metrics = e2e if args.trace == 0 else layers
    units = E2E_UNITS if args.trace == 0 else LAYER_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            setup_probe(args)
            return 0
        return run_workload(args)
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
