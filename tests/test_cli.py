from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import broken_roster, strong_scenario
from xpay import cli, protocol, simnet
from xpay.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    load_config,
    main,
    parse_rational,
    parse_scenario_config,
)
from xpay.core import ConfigError, customer
from xpay.properties import Status, check_promises, evaluate_all
from xpay.protocol import make_escrow
from xpay.simnet import run_simulation


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


NOMINAL = {
    "variant": "strong",
    "n": 1,
    "delay_model": {"kind": "synchronous", "delta": "1", "grid_points": 4},
    "pi": "1/10",
    "seed": 5,
}


def test_parse_rational_forms():
    from fractions import Fraction
    assert parse_rational(3) == 3
    assert parse_rational("21/10") == Fraction(21, 10)
    with pytest.raises(ConfigError):
        parse_rational("1.5x")
    with pytest.raises(ConfigError):
        parse_rational(1.5)


def test_unknown_fields_are_rejected():
    bad = dict(NOMINAL, adversary="typo")
    with pytest.raises(ConfigError):
        parse_scenario_config(bad)
    bad2 = dict(NOMINAL, delay_model={"kind": "synchronous", "delta": "1", "gird": 3})
    with pytest.raises(ConfigError):
        parse_scenario_config(bad2)


def test_missing_required_field_exits_2(tmp_path, capsys):
    cfg = dict(NOMINAL)
    del cfg["n"]
    assert main(["run", write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG


def test_run_nominal_exit_0(tmp_path, capsys):
    code = main(["run", write(tmp_path, "c.json", NOMINAL)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for name in ("C:", "T:", "ES:", "CS1:", "CS2:", "CS3:", "L:"):
        assert name in out


def test_run_violation_exit_1(tmp_path, configs, capsys):
    code = main(["run", str(configs / "late_certificate_n1.json")])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "L: VIOLATED" in out
    assert "witness" in out
    assert "ES: HOLDS" in out


def test_trace_files_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "c.json", NOMINAL)
    t1, t2 = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
    assert main(["run", cfg, "--trace", t1]) == EXIT_OK
    assert main(["run", cfg, "--trace", t2]) == EXIT_OK
    b1 = Path(t1).read_bytes()
    b2 = Path(t2).read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")


def test_seed_override_changes_the_trace(tmp_path):
    cfg = write(tmp_path, "c.json", NOMINAL)
    t1, t2 = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
    main(["run", cfg, "--trace", t1])
    main(["run", cfg, "--seed", "6", "--trace", t2])
    assert Path(t1).read_text() != Path(t2).read_text()


@pytest.mark.parametrize("field", ["n", "amount", "seed", "grid_points"])
def test_boolean_counts_are_config_errors(tmp_path, capsys, field):
    """JSON true is a bool, and a bool is an int to Python: it must not pass
    as the count 1."""
    cfg = dict(NOMINAL, delay_model=dict(NOMINAL["delay_model"]))
    (cfg["delay_model"] if field == "grid_points" else cfg)[field] = True
    assert main(["run", write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field} must be ")
    if field != "grid_points":  # a library scenario has no grid_points
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            run_simulation(strong_scenario(**{field: True}))


def test_report_json(tmp_path):
    cfg = write(tmp_path, "c.json", NOMINAL)
    report = str(tmp_path / "report.json")
    main(["run", cfg, "--report", report])
    data = json.loads(Path(report).read_text())
    assert data["properties"]["L"]["status"] == "HOLDS"
    assert data["seed"] == 5


def test_sweep_totals_add_up(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", NOMINAL)
    code = main(["sweep", cfg, "--runs", "12"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "total=108 (= runs x properties = 108)" in out  # 12 runs x 9 properties


def _one_by_one_counts(path, seeds):
    """Per-property bucket counts over separate runs of freshly parsed configs."""
    counts = {}
    for seed in seeds:
        scenario, _ = parse_scenario_config(load_config(path))
        scenario.seed = seed
        for v in evaluate_all(run_simulation(scenario)):
            if v.status is Status.VIOLATED:
                bucket = "fail"
            elif v.status is Status.VACUOUS:
                bucket = "vacuous"
            else:
                bucket = "pass"
            counts.setdefault(v.name, Counter())[bucket] += 1
    return counts


def test_sweep_lines_equal_the_tally_of_single_runs(tmp_path, configs, capsys):
    weak_byzantine = {
        "variant": "weak",
        "n": 2,
        "delay_model": {"kind": "synchronous", "delta": "1", "grid_points": 3},
        "pi": "1/10",
        "rho": "1/10",
        "patience": ["inf", "3", "inf"],
        "byzantine": {"e0": {"strategy": "greedy_escrow"}},
        "seed": 9,
    }
    buckets = set()
    for path, seed in ((str(configs / "late_certificate_n1.json"), 0),
                       (write(tmp_path, "weak.json", weak_byzantine), 9)):
        code = main(["sweep", path, "--runs", "6"])
        lines = capsys.readouterr().out.splitlines()[1:-1]
        counts = _one_by_one_counts(path, range(seed, seed + 6))
        assert lines == [f"{name}: pass={c['pass']} vacuous={c['vacuous']} fail={c['fail']}"
                         for name, c in counts.items()]
        assert code == (EXIT_VIOLATION if any(c["fail"] for c in counts.values()) else EXIT_OK)
        buckets.update(*counts.values())
    assert buckets == {"pass", "vacuous", "fail"}


def test_sweep_zero_runs_exit_2(tmp_path):
    cfg = write(tmp_path, "c.json", NOMINAL)
    assert main(["sweep", cfg, "--runs", "0"]) == EXIT_CONFIG


def test_byzantine_sweep_safety_clean_liveness_vacuous(tmp_path, capsys):
    cfg = dict(NOMINAL, byzantine={"c1": {"strategy": "withhold_certificate"}})
    code = main(["sweep", write(tmp_path, "c.json", cfg), "--runs", "8"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "L: pass=0 vacuous=8 fail=0" in out
    assert "ES: pass=8 vacuous=0 fail=0" in out
    assert "CS1: pass=8 vacuous=0 fail=0" in out


def test_explore_budget_exceeded_exit_3(tmp_path, configs):
    assert main(["explore", str(configs / "explore_strong_battery_n1.json"),
                 "--budget", "5"]) == EXIT_BUDGET


def test_explore_budget_covers_every_patience_set_together(configs, capsys):
    """The budget is one for the whole patience grid: the first four of the
    shipped weak config's nine patience sets take 2156 branches, so a budget
    of 3000 leaves 844 for the fifth and stops there."""
    assert main(["explore", str(configs / "explore_weak_n1.json"),
                 "--budget", "3000"]) == EXIT_BUDGET
    out = capsys.readouterr().out
    assert out.startswith("explore branches=3000 complete=False ")
    assert "budget exceeded before full coverage" in out


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_explore_budget_below_one_exit_2(configs, capsys, budget):
    assert main(["explore", str(configs / "explore_weak_n1.json"),
                 "--budget", budget]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: budget must be at least 1\n"


def test_explore_full_battery_exit_0(configs, capsys, monkeypatch):
    built = []

    def counted_escrow(*args):
        built.append(args)
        return make_escrow(*args)

    monkeypatch.setattr(protocol, "make_escrow", counted_escrow)
    protocol.make_strong_participants.cache_clear()
    assert main(["explore", str(configs / "explore_strong_battery_n1.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no safety violation on any branch" in out
    assert "explore branches=1800 " in out
    assert len(built) == 1  # one escrow definition serves every branch
    second = out.splitlines()[1].split()
    assert second[0] == "explore"
    fields = dict(field.split("=") for field in second[1:])
    assert fields["entries"] == "52219" and fields["tie_reruns"] == "282"
    # of the 1800 branches, 134 share a run of their leaf, 885 are replayed
    # from 220 run states explored once each, and the rest are simulated
    assert fields["tie_reruns_shared"] == "134"
    assert (fields["branches_replayed"], fields["states"]) == ("885", "220")
    assert 0 < int(fields["entries_simulated"]) < 52219
    # each branch's monitor takes in only the entries the branch simulates
    assert fields["entries_checked"] == fields["entries_simulated"] == "7901"
    assert fields["leaf_depths"] == "0:84,1:48,2:99,3:126,4:189,5:243,6:729"


def test_explore_without_a_grid_takes_delta(configs, capsys):
    """A model without a grid is explored at `(delta,)` alone: the scripted
    late certificate config gives one leaf of six decisions, each delay 1,
    and its three tie re-runs."""
    assert main(["explore", str(configs / "late_certificate_n1.json")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "explore branches=4 complete=True assignments=1 patience_sets=1"
    fields = dict(field.split("=") for field in lines[1].split()[1:])
    assert (fields["tie_reruns"], fields["leaf_depths"]) == ("3", "6:1")


def test_explore_on_a_violating_tree_exits_1(configs, capsys, monkeypatch):
    """On the hand-broken roster the battery violates safety on 1503 of its
    1698 branches. `xpay explore` lists the first 20 with their decision
    vectors (the compliant assignment's first 20 leaves, in odometer order),
    counts them all and exits 1."""
    monkeypatch.setattr(simnet, "make_strong_participants", broken_roster)
    assert main(["explore", str(configs / "explore_strong_battery_n1.json")]) == EXIT_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "explore branches=1698 complete=True assignments=120 patience_sets=1"
    fields = dict(field.split("=") for field in lines[1].split()[1:])
    assert fields["entries"] == "44110" and fields["tie_reruns"] == "270"
    # a replayed branch that violates is checked again, 945 entries in all
    assert (fields["entries_simulated"], fields["entries_checked"]) == ("5107", "6052")
    assert fields["leaf_depths"] == "0:84,1:66,2:63,3:81,4:162,5:243,6:729"
    policy = "('receive_first', 'declared')"
    assert lines[2:22] == [
        f"VIOLATION CS1,CS2 byz=[compliant] policy={policy} delays={[0, 0, 0, *leaf]}"
        for leaf in itertools.islice(itertools.product(range(3), repeat=3), 20)]
    assert lines[22:] == ["safety violations on 1503 branch(es)"]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--runs", "2"]])
def test_battery_config_is_a_config_error_outside_explore(configs, capsys, command):
    """`"byzantine": "battery"` names a family of assignments that only
    `explore` enumerates; a single run or a sweep refuses it as a config error."""
    path = str(configs / "explore_strong_battery_n1.json")
    assert main([command[0], path, *command[1:]]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('config error: byzantine must be an object of participant to '
                            'strategy ("battery" is for xpay explore only)\n')


def test_explore_weak_patience_grid(tmp_path, capsys):
    cfg = {
        "variant": "weak",
        "n": 1,
        "delay_model": {"kind": "synchronous", "delta": "1", "grid": ["1"]},
        "pi": "1/10",
        "patience_grid": ["0", "inf"],
        "seed": 0,
    }
    assert main(["explore", write(tmp_path, "c.json", cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "patience_sets=4" in out
    assert "no safety violation on any branch" in out


WEAK_GRID = {
    "variant": "weak",
    "n": 1,
    "delay_model": {"kind": "synchronous", "delta": "1", "grid": ["1"]},
    "pi": "1/10",
    "patience_grid": ["0", "inf"],
}
SCRIPTED = {"kind": "scripted", "default": "1"}


@pytest.mark.parametrize("command, cfg, named", [
    ("run", dict(NOMINAL, timing=5), "timing must be an object"),
    ("run", dict(NOMINAL, delay_model={"kind": "synchronous", "delta": "1", "grid": 5}),
     "delay_model.grid must be a list"),
    # a string is not a list of its characters: "12" is not the grid (1, 2)
    ("run", dict(NOMINAL, delay_model={"kind": "synchronous", "delta": "2", "grid": "12"}),
     "delay_model.grid must be a list"),
    ("run", dict(NOMINAL, delay_model=dict(SCRIPTED, rules=5)), "delay_model.rules must be a list"),
    ("run", dict(NOMINAL, delay_model=dict(SCRIPTED, rules=[5])),
     "delay_model.rules[0] must be an object"),
    ("run", dict(NOMINAL, delay_model=dict(SCRIPTED, rules=[{"delay": "1", "src": 5}])),
     "bad participant token 5"),
    ("run", dict(NOMINAL, delay_model=dict(SCRIPTED, rules=[{"delay": "1", "payload": ["x"]}])),
     "unknown payload kind ['x']"),
    ("run", dict(NOMINAL, byzantine={"c1": {"strategy": ["silent"]}}),
     "unknown strategy ['silent']"),
    # int() reads "1_0" as 10: a token is read only in its one written form
    ("run", dict(NOMINAL, byzantine={"c1_0": {"strategy": "silent"}}),
     "bad participant token 'c1_0'"),
    ("run", dict(NOMINAL, instance=5), "instance must be a string"),
    ("run", dict(NOMINAL, n=2, timing={"a": "12", "d": ["1", "2"]}), "timing.a must be a list"),
    ("run", dict(NOMINAL, timing={"a": ["2"], "d": 5}), "timing.d must be a list"),
    ("explore", dict(WEAK_GRID, patience_grid=5), "patience_grid must be a list"),
    ("explore", dict(WEAK_GRID, patience_grid=[]), "patience_grid must not be empty"),
    ("explore", dict(WEAK_GRID, patience=["inf", "inf"]),
     "give either patience or patience_grid, not both"),
    ("explore", [], "config root must be an object"),
    ("explore", '"x"', "config root must be an object"),
    # a mistyped parameter is not left to its default, nor one the strategy never reads
    ("run", dict(NOMINAL, byzantine={"c1": {"strategy": "delay_own_sends", "dealy": "3"}}),
     "strategy 'delay_own_sends' takes no parameter dealy"),
    ("run", dict(NOMINAL, byzantine={"c0": {"strategy": "silent", "delay": "3"}}),
     "strategy 'silent' takes no parameter delay"),
], ids=["timing", "grid-int", "grid-string", "rules-int", "rule-int", "rule-src-int",
        "rule-payload-list", "strategy-list", "participant-underscore", "instance-int",
        "timing-a-string", "timing-d-int", "patience-grid-int", "patience-grid-empty",
        "patience-and-grid", "explore-root-list", "explore-root-string",
        "strategy-param-typo", "strategy-param-unread"])
def test_a_wrongly_typed_field_exits_2(tmp_path, capsys, command, cfg, named):
    """A field of the wrong type or form is a config error naming it: not a
    traceback (exit 1, which reads as a violation), nor a run of some other
    reading."""
    assert main([command, write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {named}\n"


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--runs", "1"], ["explore"]],
                         ids=["run", "sweep", "explore"])
@pytest.mark.parametrize("cfg, named", [
    (dict(NOMINAL, patience_grid=["1"]), "patience_grid applies to the weak variant only"),
    (dict(WEAK_GRID, patience_grid=["-1"]), "patience_grid must be non-negative"),
], ids=["strong", "negative"])
def test_every_command_refuses_a_patience_grid_explore_cannot_take(tmp_path, capsys, argv, cfg,
                                                                   named):
    """The patience grid's rules are the parser's, so `run` and `sweep`, which
    do not read the grid, refuse the configs `explore` refuses."""
    assert main([argv[0], write(tmp_path, "c.json", cfg), *argv[1:]]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {named}\n"


WEAK = {k: v for k, v in WEAK_GRID.items() if k != "patience_grid"}


@pytest.mark.parametrize("argv, cfg, named", [
    (["run"], dict(NOMINAL, delay_model=5), "delay_model must be an object"),
    (["run"], dict(NOMINAL, delay_model={"kind": "lognormal"}),
     "unknown delay model kind 'lognormal'"),
    (["run"], dict(NOMINAL, delay_model={"kind": "synchronous", "delta": "1", "grid": ["1"],
                                         "grid_points": 2}),
     "give either grid or grid_points, not both"),
    (["run"], dict(NOMINAL, delay_model={"kind": "synchronous", "delta": "1", "grid_points": 0}),
     "grid_points must be at least 1"),
    (["run"], dict(NOMINAL, delay_model=SCRIPTED, timing={"a": ["21/10"], "d": ["23/10"]}),
     "explicit timing with a scripted model also needs delay_model.delta"),
    (["run"], dict(NOMINAL, byzantine={"c1": 5}), "byzantine[c1] must be an object"),
    (["run"], dict(NOMINAL, byzantine={"c1": {"delay": "1"}}),
     "byzantine[c1] needs a strategy name"),
    (["run"], dict(WEAK, patience={"e0": "1"}), "patience key 'e0' is not a customer"),
    (["run"], dict(WEAK, patience={"c2": "1"}), "patience key 'c2' is not a customer"),
    (["run"], dict(WEAK, patience="1"), "patience must be a list or an object keyed by customer"),
    (["run"], dict(WEAK, patience=["1"]), "need 2 patience entries, got 1"),
    (["derive", "--n", "2", "--delta", "1", "--force-a", "3"], None,
     "--force-a needs 2 comma-separated values"),
], ids=["delay-model-int", "delay-model-kind", "grid-and-points", "grid-points-zero",
        "timing-without-delta", "strategy-int", "strategy-unnamed", "patience-key-escrow",
        "patience-key-past-bob", "patience-string", "patience-short", "force-a-short"])
def test_each_refusal_of_the_parser_exits_2_naming_it(tmp_path, capsys, argv, cfg, named):
    """Every refusal the parser or a command states itself is one config
    error line (exit 2) with its own message."""
    if cfg is not None:
        argv = [argv[0], write(tmp_path, "c.json", cfg), *argv[1:]]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {named}\n"


NOT_UTF8 = b'{"variant": "\xff"}'


@pytest.mark.parametrize("argv, named", [
    (["run", "{nominal}", "--trace", "{tmp}/missing/t"], "cannot write trace {tmp}/missing/t: "),
    (["run", "{nominal}", "--report", "{tmp}/missing/r"], "cannot write report {tmp}/missing/r: "),
    (["run", "{bytes}"], "config {bytes} is not UTF-8: "),
    (["deals-check", "{bytes}"], "deal matrix {bytes} is not UTF-8: "),
], ids=["trace-dir-missing", "report-dir-missing", "config-not-utf8", "matrix-not-utf8"])
def test_a_file_error_exits_2(tmp_path, capsys, argv, named):
    """A file the command cannot write, or one it reads that is not UTF-8,
    is one config error line naming the file (exit 2), not a traceback (exit
    1, which reads as a violation)."""
    (tmp_path / "bytes").write_bytes(NOT_UTF8)
    paths = {"nominal": write(tmp_path, "c.json", NOMINAL), "bytes": str(tmp_path / "bytes"),
             "tmp": str(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {named.format(**paths)}")
    assert captured.err.count("\n") == 1


def test_explore_rejects_large_n(tmp_path):
    cfg = dict(NOMINAL, n=3)
    assert main(["explore", write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG


def test_derive_reference_output(capsys):
    code = main(["derive", "--n", "1", "--delta", "1", "--pi", "1/10", "--rho", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "a_0 = 21/10" in out
    assert "d_0 = 23/10" in out
    assert "termination_bound = 11/2" in out


def test_derive_rejects_nonpositive_delta(capsys):
    assert main(["derive", "--n", "1", "--delta", "0"]) == EXIT_CONFIG


def test_derive_validate_pass(capsys):
    code = main(["derive", "--n", "1", "--delta", "1", "--pi", "1/10",
                 "--rho", "0", "--validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS (tight at grid step" in out


def test_derive_validate_rho_naive_counterexample(capsys):
    code = main(["derive", "--n", "1", "--delta", "1", "--pi", "1/10",
                 "--rho", "1/10", "--validate", "--force-a", "21/10"])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "VALIDATION FAILED" in out
    assert "counterexample" in out


def test_deals_check(tmp_path, configs, capsys):
    assert main(["deals-check", str(configs / "deal_cycle.matrix")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "well_formed=yes" in out
    assert main(["deals-check", str(configs / "deal_path.matrix")]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "well_formed=no" in out
    assert main(["deals-check", str(tmp_path / "missing.matrix")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot read ")
    assert main(["deals-check", write(tmp_path, "bad.matrix", "not a deal\n")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: deal file must start with a parties=<m> header\n"


def test_weak_config_with_patience(tmp_path, configs):
    assert main(["run", str(configs / "weak_n1.json")]) == EXIT_OK
    # patience on the strong variant is a config error
    bad = dict(NOMINAL, patience={"c0": "1"})
    assert main(["run", write(tmp_path, "c.json", bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_a_horizon_that_is_not_positive_exits_2(tmp_path, capsys, horizon):
    cfg = dict(NOMINAL, horizon=horizon)
    assert main(["run", write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: horizon must be strictly positive\n"


def test_invalid_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == EXIT_CONFIG


EXPLICIT_TIMING = {
    "variant": "strong",
    "n": 1,
    "delay_model": {"kind": "synchronous", "delta": "1", "grid_points": 4},
    "pi": "1/10",
    "timing": {"a": ["21/10"], "d": ["23/10"]},  # the derived windows
    "seed": 3,
}


def test_explicit_timing_keeps_the_other_derived_parameters():
    """Explicit windows replace the derived a and d and nothing else: epsilon
    is the derived 2(1+rho)pi + mu unless the config gives one. With the
    derived windows the run equals the "auto" one and keeps the payment
    promise."""
    explicit, _ = parse_scenario_config(EXPLICIT_TIMING)
    auto, _ = parse_scenario_config({**EXPLICIT_TIMING, "timing": "auto"})
    assert explicit.timing == auto.resolved_timing()
    assert explicit.timing.epsilon == Fraction(1, 5)
    for scenario in (explicit, auto):
        promises = {v.name: v.status for v in check_promises(run_simulation(scenario))}
        assert promises["P_PROMISE"] is Status.HOLDS
    given, _ = parse_scenario_config({**EXPLICIT_TIMING, "epsilon": "1/2"})
    assert given.timing.epsilon == Fraction(1, 2)


@pytest.mark.parametrize("field, value", [("pi", "1/5"), ("rho", "1/10"), ("mu", "1/100"),
                                          ("delta", "2")])
def test_explicit_timing_in_a_config_agrees_with_the_config(tmp_path, field, value):
    """A config's explicit windows take pi, rho, mu and delta from the config
    itself, so the agreement `Scenario.validate` asks of explicit timing holds
    for every config: one that sets any of them to other than its default
    runs."""
    cfg = {**EXPLICIT_TIMING, "timing": {"a": ["10"], "d": ["11"]}}
    if field == "delta":
        cfg["delay_model"] = {**cfg["delay_model"], "delta": value}
    else:
        cfg[field] = value
    scenario, _ = parse_scenario_config(cfg)
    assert getattr(scenario.timing, field) == Fraction(value)
    assert main(["run", write(tmp_path, "c.json", cfg)]) == EXIT_OK


def readme_configs_section() -> tuple[str, str]:
    """The README's "Scenario configs" section: its JSON block, and the text
    after the block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario configs\n", 1)[1].split("\n## ", 1)[0]
    block, text = section.split("```json\n", 1)[1].split("```", 1)
    return block, text


def test_the_readme_scenario_config_runs_as_written(tmp_path):
    """The JSON block under the README's "Scenario configs" heading parses,
    its strategy parameter included, and `xpay run` on it exits 0."""
    block, _ = readme_configs_section()
    scenario, _ = parse_scenario_config(json.loads(block))
    assert scenario.byzantine[customer(2)].params == {"delay": Fraction(2)}
    assert main(["run", write(tmp_path, "readme.json", block)]) == EXIT_OK


def test_a_config_without_grid_or_seed_runs_on_the_defaults():
    """With none of grid, grid_points or seed, a config runs on a grid of 4
    points and seed 0: its trace is byte for byte the one that names them."""
    bare = {"variant": "strong", "n": 2, "delay_model": {"kind": "synchronous", "delta": "1"},
            "pi": "1/10", "rho": "1/10"}
    named = {**bare, "delay_model": {**bare["delay_model"], "grid_points": 4}, "seed": 0}
    bare_trace, named_trace = (run_simulation(parse_scenario_config(cfg)[0]).render()
                               for cfg in (bare, named))
    assert bare_trace == named_trace


def test_the_readme_names_every_config_field_and_strategy_parameter():
    """The README's config example, with `patience_grid` (explore only),
    names exactly the fields the parser takes, and its `byzantine` bullet
    names every strategy with exactly the parameters the strategy declares."""
    block, text = readme_configs_section()
    assert set(json.loads(block)) | {"patience_grid"} == set(cli._SCENARIO_FIELDS)
    bullet = " ".join(text.split("\n* `byzantine`:", 1)[1].split("\n* ", 1)[0].split())
    for name, (cls, _) in simnet.STRATEGIES.items():
        assert f"`{name}`" in bullet, name
        # the text from the name up to the next strategy listed
        described = bullet.split(f"`{name}`", 1)[1].split(", `", 1)[0]
        assert re.findall(r"param `(\w+)`", described) == list(cls.parameters), name
