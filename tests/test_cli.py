from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import broken_roster, strong_scenario
from xpay import protocol, simnet
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
    assert fields["tie_reruns_shared"] == "188"
    assert 0 < int(fields["entries_simulated"]) < 52219
    # each branch's monitor takes in only the entries the branch simulates
    assert fields["entries_checked"] == fields["entries_simulated"] == "13237"
    assert fields["leaf_depths"] == "0:84,1:48,2:99,3:126,4:189,5:243,6:729"


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
    assert fields["entries_checked"] == fields["entries_simulated"] == "5944"
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
    assert capsys.readouterr().err == "config error: horizon must be positive\n"


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


def test_the_readme_scenario_config_runs_as_written(tmp_path):
    """The JSON block under the README's "Scenario configs" heading parses,
    its strategy parameter included, and `xpay run` on it exits 0."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Scenario configs\n", 1)[1].split("```json\n", 1)[1]
    block = block.split("```", 1)[0]
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
