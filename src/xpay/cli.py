"""Command-line front end: run | sweep | explore | derive | deals-check.

Scenario configs are JSON files using exactly the Scenario field names;
unknown fields anywhere, strategy parameters included, are errors (a typo in
an adversary must not pass silently). Rationals are written as "num/den"
strings ("21/10"), integers are accepted, patience may be "inf". Counts (n,
amount, seed, grid_points) are integers, never booleans. A run's seed is
`--seed` if given, else the config's `seed`, else 0.

Exit codes: 0 all applicable non-vacuous properties hold, 1 property
violation, 2 configuration or file error, 3 exploration budget exceeded.
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

from .core import ConfigError, ParticipantId, as_count, as_fraction, fmt_fraction, parse_participant
from .deals import is_well_formed, parse_deal_file
from .explore import battery_assignments, explore
from .properties import Status, evaluate_all, tally
from .protocol import as_patience
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
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [k for k, required in known.items() if required and k not in cfg]
    if missing:
        raise ConfigError(f"missing required field(s) in {where}: {', '.join(missing)}")


def _list(cfg: dict, key: str, where: str) -> list:
    """The list `cfg[key]`, [] if absent; anything else, a string too, is a config error."""
    value = cfg.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return value


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
        for k, rule in enumerate(_list(cfg, "rules", "delay_model.rules")):
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
        return tuple(parse_rational(g, "grid delay")
                     for g in _list(cfg, "grid", "delay_model.grid"))
    if "grid_points" in cfg:
        return _default_grid(delta, as_count(cfg["grid_points"], "grid_points"))
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

    Returns (scenario, extras); extras holds the weak-exploration
    patience_grid, parsed (None for "inf"), or None if the config has none;
    it is not a single-run concern.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _take(cfg, _SCENARIO_FIELDS, "config")
    n = as_count(cfg["n"], "n")

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
                         a=tuple(parse_rational(x, "a") for x in _list(tcfg, "a", "timing.a")),
                         d=tuple(parse_rational(x, "d") for x in _list(tcfg, "d", "timing.d")))

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
    patience_grid = None
    if "patience_grid" in cfg:
        if patience is not None:
            raise ConfigError("give either patience or patience_grid, not both")
        if scenario.variant != "weak":
            raise ConfigError("patience_grid applies to the weak variant only")
        patience_grid = [None if v == "inf" else parse_rational(v, "patience_grid")
                         for v in _list(cfg, "patience_grid", "patience_grid")]
        if not patience_grid:
            raise ConfigError("patience_grid must not be empty")
        for p in patience_grid:  # a grid value may be every customer's patience
            as_patience((p,) * (n + 1), n, "patience_grid")
    return scenario, {"patience_grid": patience_grid}


def _read(path: str, what: str) -> str:
    """The text of the `what` file at `path`, or a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc}") from exc


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        return json.loads(_read(path, "config"))
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
        _write(args.trace, trace.render(), "trace")
    report = {
        "scenario": trace.digest,
        "seed": scenario.seed,
        "stop": trace.stop_reason,
        "properties": {v.name: {"status": v.status.value, "witness": v.witness}
                       for v in verdicts},
    }
    if args.report:
        _write(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n", "report")
    print(f"run seed={scenario.seed} stop={trace.stop_reason} entries={len(trace.entries)}")
    for v in verdicts:
        print(v.line())
    return EXIT_VIOLATION if any(v.status is Status.VIOLATED for v in verdicts) else EXIT_OK


def cmd_sweep(args) -> int:
    as_count(args.runs, "runs")
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


# the `ExploreReport` counters `xpay explore` sums and prints, in printed order
_COUNTERS = ("entries", "entries_simulated", "entries_checked", "tie_reruns",
             "tie_reruns_shared", "branches_replayed", "states")


def cmd_explore(args) -> int:
    as_count(args.budget, "budget")
    raw = load_config(args.config)
    battery = isinstance(raw, dict) and raw.get("byzantine") == "battery"
    if battery:
        raw = dict(raw)
        raw["byzantine"] = {}
    scenario, extras = parse_scenario_config(raw)
    if scenario.n > 2:
        raise ConfigError("exploration is a desk-scale oracle; n must be 1 or 2")
    assignments = battery_assignments(scenario) if battery else [dict(scenario.byzantine)]

    patience_grid = extras["patience_grid"]
    patience_sets: list[Optional[tuple]] = [scenario.patience]
    if patience_grid is not None:
        patience_sets = list(itertools.product(patience_grid, repeat=scenario.n + 1))

    totals: Counter = Counter()  # the report counters, summed over the patience sets
    violations = []
    depths: Counter = Counter()
    for patience in patience_sets:
        scenario.patience = patience
        # one budget for every patience set
        report = explore(scenario, assignments=assignments,
                         budget=args.budget - totals["branches"])
        totals.update({name: getattr(report, name) for name in ("branches",) + _COUNTERS})
        depths.update(report.leaf_depths)
        violations.extend(report.violations)
        if not report.complete:
            break  # so the last report tells whether the whole grid was covered

    print(f"explore branches={totals['branches']} complete={report.complete} "
          f"assignments={len(assignments)} patience_sets={len(patience_sets)}")
    print("explore " + "".join(f"{name}={totals[name]} " for name in _COUNTERS)
          + f"leaf_depths={','.join(f'{d}:{depths[d]}' for d in sorted(depths))}")
    for v in violations[:20]:
        names = ",".join(x.name for x in v.verdicts if x.status is Status.VIOLATED)
        print(f"VIOLATION {names} byz=[{v.assignment_label}] policy={v.policy} "
              f"delays={list(v.decisions)}")
    if violations:
        print(f"safety violations on {len(violations)} branch(es)")
        return EXIT_VIOLATION
    if not report.complete:
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
    matrix = parse_deal_file(_read(args.matrix, "deal matrix"))
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
