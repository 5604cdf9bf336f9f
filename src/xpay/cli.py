"""Command-line front end: run | sweep | explore | derive | deals-check.

Scenario configs are JSON files using exactly the Scenario field names;
unknown fields anywhere are errors (typos in adversary names must not pass
silently). Rationals are written as "num/den" strings ("21/10"), integers are
accepted, patience may be "inf". Counts (n, amount, seed, grid_points) are
integers, never booleans. A run's seed is `--seed` if given, else the
config's `seed`, else 0.

Exit codes: 0 all applicable non-vacuous properties hold, 1 property
violation, 2 configuration error, 3 exploration budget exceeded.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .core import ConfigError, ParticipantId, as_fraction, fmt_fraction, parse_participant
from .deals import is_well_formed, parse_deal_file
from .explore import battery_assignments, explore
from .properties import Status, evaluate_all, tally
from .simnet import (
    PartialSync,
    Scenario,
    ScriptRule,
    Scripted,
    StrategySpec,
    Synchronous,
    _default_grid,
    run_simulation,
)
from .timing import (
    ValidationFailed,
    derive_timeouts,
    resolution_deadlines,
    termination_bound,
    validate_timeouts,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def parse_rational(value, what: str = "value") -> Fraction:
    """Accept 3, "3", "21/10"."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{what}: cannot parse rational {value!r}") from exc
    return as_fraction(value, what)


def _take(cfg: dict, known: dict[str, bool], where: str) -> None:
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [k for k, required in known.items() if required and k not in cfg]
    if missing:
        raise ConfigError(f"missing required field(s) in {where}: {', '.join(missing)}")


def _parse_delay_model(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("delay_model must be an object")
    kind = cfg.get("kind")
    if kind == "synchronous":
        _take(cfg, {"kind": True, "delta": True, "grid": False, "grid_points": False},
              "delay_model")
        delta = parse_rational(cfg["delta"], "delta")
        grid = _parse_grid(cfg, delta)
        return Synchronous(delta=delta, grid=grid)
    if kind == "partial_sync":
        _take(cfg, {"kind": True, "delta": True, "gst": True, "grid": False,
                    "grid_points": False}, "delay_model")
        delta = parse_rational(cfg["delta"], "delta")
        grid = _parse_grid(cfg, delta)
        return PartialSync(gst=parse_rational(cfg["gst"], "gst"), delta=delta, grid=grid)
    if kind == "scripted":
        _take(cfg, {"kind": True, "default": True, "rules": False, "delta": False},
              "delay_model")
        rules = []
        for k, rule in enumerate(cfg.get("rules", [])):
            _take(rule, {"delay": True, "src": False, "dst": False, "payload": False},
                  f"delay_model.rules[{k}]")
            rules.append(ScriptRule(
                delay=parse_rational(rule["delay"], "rule delay"),
                src=parse_participant(rule["src"]) if "src" in rule else None,
                dst=parse_participant(rule["dst"]) if "dst" in rule else None,
                payload=rule.get("payload"),
            ))
        delta = parse_rational(cfg["delta"], "delta") if "delta" in cfg else None
        return Scripted(default=parse_rational(cfg["default"], "default delay"),
                        rules=tuple(rules), delta=delta)
    raise ConfigError(f"unknown delay model kind {kind!r}")


def _parse_grid(cfg: dict, delta: Fraction) -> Optional[tuple[Fraction, ...]]:
    if "grid" in cfg and "grid_points" in cfg:
        raise ConfigError("give either grid or grid_points, not both")
    if "grid" in cfg:
        return tuple(parse_rational(g, "grid delay") for g in cfg["grid"])
    if "grid_points" in cfg:
        points = cfg["grid_points"]
        if type(points) is not int or points < 1:
            raise ConfigError("grid_points must be a positive integer")
        return _default_grid(delta, points)
    return None


_SCENARIO_FIELDS = {
    "variant": True, "n": True, "delay_model": True, "pi": True,
    "amount": False, "rho": False, "epsilon": False, "timing": False, "mu": False,
    "byzantine": False, "patience": False, "patience_grid": False, "seed": False,
    "horizon": False, "tie_break": False, "rx_order": False, "clock_mode": False,
    "instance": False,
}


def parse_scenario_config(cfg: dict) -> tuple[Scenario, dict]:
    """Build a validated Scenario from a config dict.

    Returns (scenario, extras); extras currently holds the weak-exploration
    patience_grid, which is not a single-run concern.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _take(cfg, _SCENARIO_FIELDS, "config")
    n = cfg["n"]
    if type(n) is not int:
        raise ConfigError("n must be an integer")

    delay = _parse_delay_model(cfg["delay_model"])
    pi = parse_rational(cfg["pi"], "pi")
    rho = parse_rational(cfg.get("rho", 0), "rho")
    mu = parse_rational(cfg.get("mu", 0), "mu")
    epsilon = cfg.get("epsilon")
    epsilon = None if epsilon in (None, "auto") else parse_rational(epsilon, "epsilon")
    timing = None
    if "timing" in cfg and cfg["timing"] not in (None, "auto"):
        tcfg = cfg["timing"]
        _take(tcfg, {"a": True, "d": True}, "timing")
        if delay.delta is None:
            raise ConfigError("explicit timing with a scripted model also needs delay_model.delta")
        # the derived parameters, with the config's windows in place of the derived ones
        timing = replace(derive_timeouts(n, delay.delta, pi, rho, epsilon, mu),
                         a=tuple(parse_rational(x, "a") for x in tcfg["a"]),
                         d=tuple(parse_rational(x, "d") for x in tcfg["d"]))

    raw_byzantine = cfg.get("byzantine") or {}
    if not isinstance(raw_byzantine, dict):
        raise ConfigError('byzantine must be an object of participant to strategy '
                          '("battery" is for xpay explore only)')
    byzantine: dict[ParticipantId, StrategySpec] = {}
    for token, spec in raw_byzantine.items():
        if not isinstance(spec, dict):
            raise ConfigError(f"byzantine[{token}] must be an object")
        if "strategy" not in spec:
            raise ConfigError(f"byzantine[{token}] needs a strategy name")
        params = {k: v for k, v in spec.items() if k != "strategy"}
        for k, v in list(params.items()):
            params[k] = parse_rational(v, f"byzantine[{token}].{k}")
        byzantine[parse_participant(token)] = StrategySpec(spec["strategy"], params)

    patience = None
    if cfg.get("patience") is not None:
        raw = cfg["patience"]
        if isinstance(raw, dict):
            entries: list = [None] * (n + 1)
            for token, val in raw.items():
                pid = parse_participant(token)
                if pid.kind.value != "c" or not 0 <= pid.index <= n:
                    raise ConfigError(f"patience key {token!r} is not a customer")
                entries[pid.index] = None if val == "inf" else parse_rational(val, "patience")
            patience = tuple(entries)
        elif isinstance(raw, list):
            patience = tuple(None if v == "inf" else parse_rational(v, "patience")
                             for v in raw)
        else:
            raise ConfigError("patience must be a list or an object keyed by customer")

    scenario = Scenario(
        variant=cfg["variant"],
        n=n,
        delay=delay,
        pi=pi,
        amount=cfg.get("amount", 1),
        rho=rho,
        epsilon=epsilon,
        timing=timing,
        mu=mu,
        byzantine=byzantine,
        patience=patience,
        seed=0 if cfg.get("seed") is None else cfg["seed"],
        horizon=None if cfg.get("horizon") in (None, "auto")
        else parse_rational(cfg["horizon"], "horizon"),
        tie_break=cfg.get("tie_break", "receive_first"),
        rx_order=cfg.get("rx_order", "declared"),
        clock_mode=cfg.get("clock_mode", "auto"),
        instance=cfg.get("instance", "pay0"),
    )
    scenario.validate()
    extras = {"patience_grid": cfg.get("patience_grid")}
    return scenario, extras


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


# ------------------------------------------------------------------------ commands

def cmd_run(args) -> int:
    scenario, _ = parse_scenario_config(load_config(args.config))
    if args.seed is not None:
        scenario.seed = args.seed
    trace = run_simulation(scenario)
    verdicts = evaluate_all(trace)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(trace.render())
    report = {
        "scenario": scenario.digest(),
        "seed": scenario.seed,
        "stop": trace.stop_reason,
        "properties": {v.name: {"status": v.status.value, "witness": v.witness}
                       for v in verdicts},
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"run seed={scenario.seed} stop={trace.stop_reason} entries={len(trace.entries)}")
    for v in verdicts:
        print(v.line())
    return EXIT_VIOLATION if any(v.status is Status.VIOLATED for v in verdicts) else EXIT_OK


def cmd_sweep(args) -> int:
    if args.runs < 1:
        raise ConfigError("runs must be at least 1")
    scenario, _ = parse_scenario_config(load_config(args.config))
    base_seed = args.seed if args.seed is not None else scenario.seed
    seeds = [base_seed + k for k in range(args.runs)]

    counts: dict[str, dict[str, int]] = {}
    failed = False
    for seed in seeds:
        trace = run_simulation(replace(scenario, seed=seed))
        failed = tally(counts, evaluate_all(trace)) or failed
    # every run gives one verdict per property, in `evaluate_all`'s order
    print(f"sweep runs={args.runs} seeds={seeds[0]}..{seeds[-1]} properties={len(counts)}")
    for name, c in counts.items():
        print(f"{name}: pass={c['pass']} vacuous={c['vacuous']} fail={c['fail']}")
    total = sum(sum(c.values()) for c in counts.values())
    print(f"total={total} (= runs x properties = {args.runs * len(counts)})")
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_explore(args) -> int:
    if args.budget < 1:
        raise ConfigError("budget must be at least 1")
    raw = load_config(args.config)
    battery = raw.get("byzantine") == "battery"
    if battery:
        raw = dict(raw)
        raw["byzantine"] = {}
    scenario, extras = parse_scenario_config(raw)
    if scenario.n > 2:
        raise ConfigError("exploration is a desk-scale oracle; n must be 1 or 2")
    assignments = battery_assignments(scenario) if battery else [dict(scenario.byzantine)]

    patience_grid = extras.get("patience_grid")
    patience_sets: list[Optional[tuple]] = [scenario.patience]
    if patience_grid is not None:
        if scenario.variant != "weak":
            raise ConfigError("patience_grid applies to the weak variant only")
        values = [None if v == "inf" else parse_rational(v, "patience_grid") for v in patience_grid]
        patience_sets = [tuple(combo) for combo in
                         itertools.product(values, repeat=scenario.n + 1)]

    total_branches = 0
    complete = True
    violations = []
    entries = simulated = checked = tie_reruns = shared = 0
    depths: Counter = Counter()
    for patience in patience_sets:
        scenario.patience = patience
        # one budget for every patience set
        report = explore(scenario, assignments=assignments,
                         budget=args.budget - total_branches)
        total_branches += report.branches
        complete = complete and report.complete
        entries += report.entries
        simulated += report.entries_simulated
        checked += report.entries_checked
        tie_reruns += report.tie_reruns
        shared += report.tie_reruns_shared
        depths.update(report.leaf_depths)
        violations.extend(report.violations)
        if not report.complete:
            break

    print(f"explore branches={total_branches} complete={complete} "
          f"assignments={len(assignments)} patience_sets={len(patience_sets)}")
    print(f"explore entries={entries} entries_simulated={simulated} entries_checked={checked} "
          f"tie_reruns={tie_reruns} tie_reruns_shared={shared} "
          f"leaf_depths={','.join(f'{d}:{depths[d]}' for d in sorted(depths))}")
    for v in violations[:20]:
        names = ",".join(x.name for x in v.verdicts if x.status is Status.VIOLATED)
        print(f"VIOLATION {names} byz=[{v.assignment_label}] policy={v.policy} "
              f"delays={list(v.decisions)}")
    if violations:
        print(f"safety violations on {len(violations)} branch(es)")
        return EXIT_VIOLATION
    if not complete:
        print("budget exceeded before full coverage")
        return EXIT_BUDGET
    print("no safety violation on any branch")
    return EXIT_OK


def cmd_derive(args) -> int:
    n = args.n
    delta = parse_rational(args.delta, "--delta")
    pi = parse_rational(args.pi, "--pi")
    rho = parse_rational(args.rho, "--rho")
    mu = parse_rational(args.mu, "--mu")
    epsilon = parse_rational(args.epsilon, "--epsilon") if args.epsilon else None
    params = derive_timeouts(n, delta, pi, rho, epsilon=epsilon, margin=mu)
    if args.force_a:
        forced = tuple(parse_rational(x, "--force-a") for x in args.force_a.split(","))
        if len(forced) != n:
            raise ConfigError(f"--force-a needs {n} comma-separated values")
        params = replace(params, a=forced, d=resolution_deadlines(forced, pi, rho, mu))

    for i in range(n):
        print(f"a_{i} = {fmt_fraction(params.a[i])}")
        print(f"d_{i} = {fmt_fraction(params.d[i])}")
    print(f"epsilon = {fmt_fraction(params.epsilon)}")
    print(f"termination_bound = {fmt_fraction(termination_bound(params))}")
    if not args.validate:
        return EXIT_OK
    try:
        report = validate_timeouts(params, n)
    except ValidationFailed as exc:
        print(f"VALIDATION FAILED: {exc}")
        trace = exc.trace
        if trace is not None:
            print("counterexample (last 12 entries):")
            for e in trace.entries[-12:]:
                print("  " + e.line())
        return EXIT_VIOLATION
    tightness = "tight at grid step" if all(report.tight) else "margin headroom, not tight"
    print(f"PASS ({tightness}; worst customer terminal "
          f"{fmt_fraction(report.max_customer_terminal)})")
    return EXIT_OK


def cmd_deals_check(args) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            matrix = parse_deal_file(fh.read())
    except OSError as exc:
        print(f"config error: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ok = is_well_formed(matrix)
    print(f"parties={matrix.parties} arcs={len(matrix.entries)}")
    print(f"well_formed={'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xpay",
        description="Deterministic cross-chain payment protocol simulator and checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario and check every property")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", help="write the trace file here")
    p.add_argument("--report", help="write a JSON verdict report here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="many seeded runs, aggregated verdicts")
    p.add_argument("config")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="base seed (run k uses seed+k)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("explore", help="exhaustive delay/order/adversary exploration")
    p.add_argument("config")
    p.add_argument("--budget", type=int, default=200_000)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("derive", help="derive timeout parameters (and validate them)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--pi", default="0")
    p.add_argument("--rho", default="0")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--mu", default="0")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--force-a", dest="force_a", default=None,
                   help="override the derived a_i (comma-separated rationals)")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("deals-check", help="check a deal matrix file for well-formedness")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_deals_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
