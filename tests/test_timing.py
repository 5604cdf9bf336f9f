from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from xpay.core import ConfigError
from xpay.protocol import TimingParams
from xpay.timing import ValidationFailed, derive_timeouts, termination_bound, validate_timeouts

F = Fraction


def test_derive_n1_reference_values():
    p = derive_timeouts(1, F(1), F(1, 10), F(0))
    assert p.a == (F(21, 10),)
    assert p.d == (F(23, 10),)


def test_derive_n2_reference_values():
    p = derive_timeouts(2, F(1), F(1, 10), F(0))
    assert p.a == (F(65, 10), F(21, 10))
    assert p.d == (F(67, 10), F(23, 10))
    # strictly decreasing in i
    assert p.a[0] > p.a[1]


def test_derive_degenerate_processing():
    p = derive_timeouts(1, F(1), F(0), F(0))
    assert p.a == (F(2),)  # pure round trip
    assert p.d == (F(2),)


def test_derive_with_drift_inflates_local_windows():
    p0 = derive_timeouts(2, F(1), F(1, 10), F(0))
    p1 = derive_timeouts(2, F(1), F(1, 10), F(1, 10))
    for i in range(2):
        assert p1.a[i] == F(11, 10) * p0.a[i]
        assert p1.a[i] > p0.a[i]


def test_termination_bound_n1():
    # 3*delta + 4*pi + (1+rho)*a_0 at mu=0; the worst-case sweep attains this exactly
    p = derive_timeouts(1, F(1), F(1, 10), F(0))
    assert termination_bound(p) == F(11, 2)
    p0 = derive_timeouts(1, F(1), F(0), F(0))
    assert termination_bound(p0) == 5


def test_termination_bound_monotone_in_every_parameter():
    base = derive_timeouts(2, F(1), F(1, 10), F(1, 10), margin=F(1, 100))
    d_base = termination_bound(base)
    for kw in (dict(delta=F(3, 2)), dict(pi=F(2, 10)), dict(rho=F(2, 10)),
               dict(margin=F(1, 10))):
        args = dict(n=2, delta=F(1), pi=F(1, 10), rho=F(1, 10), margin=F(1, 100))
        args.update(kw)
        assert termination_bound(derive_timeouts(**args)) >= d_base
    assert termination_bound(derive_timeouts(3, F(1), F(1, 10), F(1, 10),
                                             margin=F(1, 100))) >= d_base


def test_derive_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        derive_timeouts(0, F(1), F(0), F(0))
    with pytest.raises(ConfigError):
        derive_timeouts(1, F(0), F(0), F(0))
    with pytest.raises(ConfigError):
        derive_timeouts(1, F(1), F(-1), F(0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_passes_and_is_tight(n):
    p = derive_timeouts(n, F(1), F(1, 10), F(0))
    report = validate_timeouts(p, n)
    assert all(report.tight)
    # worst observed customer terminal hits the bound exactly at mu=0
    assert report.max_customer_terminal == termination_bound(p)
    # the bottom hop's counterexample is a liveness failure
    assert report.counterexamples[-1].broken == "L"


def test_validate_margin_keeps_everything_green_but_not_tight():
    p = derive_timeouts(2, F(1), F(1, 10), F(0), margin=F(1, 2))
    report = validate_timeouts(p, 2)
    assert not any(report.tight)  # the margin is headroom; one grid step cannot bite
    assert report.max_customer_terminal < termination_bound(p)


def test_validate_raises_when_a_guarantee_is_dishonored():
    """The promise check of the sweeps at the given values is reachable: with
    d_0 a tenth below the derived 23/10, the guarantee escrow 0 gives Alice
    is broken, and validation raises with that trace."""
    p = derive_timeouts(1, F(1), F(1, 10), F(0))
    assert p.d == (F(23, 10),)
    with pytest.raises(ValidationFailed, match="G_PROMISE dishonored under clock mode 'identity'") as info:
        validate_timeouts(replace(p, d=(F(11, 5),)), 1)
    assert info.value.trace is not None


def test_a_window_one_grid_step_short_exceeds_the_termination_bound():
    """a_0 of an n=2 chain one grid step short: Bob is still paid, but the
    connector c1 never terminates, so validation fails on T."""
    p = derive_timeouts(2, F(1), F(1, 10), F(0))
    with pytest.raises(ValidationFailed) as info:
        validate_timeouts(replace(p, a=(p.a[0] - F(1, 4), p.a[1])), 2)
    assert str(info.value) == "termination bound exceeded under clock mode 'identity'"
    assert info.value.trace is not None


def test_halved_a0_breaks_the_sweep():
    from xpay.simnet import run_simulation
    from xpay.timing import _worst_case_scenario
    from xpay.properties import Status, fold
    p = derive_timeouts(2, F(1), F(1, 10), F(0))
    halved = replace(p, a=(p.a[0] / 2, p.a[1]), d=(p.d[0], p.d[1]))
    trace = run_simulation(_worst_case_scenario(halved, 2, "identity"))
    term = fold(trace).termination(trace, bound=termination_bound(halved))
    assert term.status is Status.VIOLATED  # the connector above the short window starves


def test_rho_naive_values_fail_under_drift():
    """Windows derived for perfect clocks break once clocks actually drift."""
    naive = derive_timeouts(1, F(1), F(1, 10), F(0))
    drifted = TimingParams(n=1, a=naive.a, d=(naive.a[0] + 2 * F(11, 10) * F(1, 10),),
                           epsilon=F(11, 10) * F(2, 10), pi=naive.pi,
                           delta=naive.delta, rho=F(1, 10))
    with pytest.raises(ValidationFailed) as info:
        validate_timeouts(drifted, 1)
    assert info.value.trace is not None
    aware = derive_timeouts(1, F(1), F(1, 10), F(1, 10))
    validate_timeouts(aware, 1)  # raises ValidationFailed on a failing sweep


def test_tightness_step_must_leave_windows_positive(capsys):
    """The tightness step is delta/4, and a window no longer than one step
    fails the sweeps at the given values, before any window is lowered: the
    certificate's round trip alone takes 2*delta. So every lowered window
    stays positive."""
    from xpay.cli import EXIT_VIOLATION, main
    for n, rho in ((1, F(0)), (2, F(1, 10))):
        p = derive_timeouts(n, F(1), F(1, 10), rho)
        assert validate_timeouts(p, n).tightness_step == F(1, 4)
    for argv in (["--n", "1", "--force-a", "1/4"], ["--n", "2", "--force-a", "5,1/10"],
                 ["--n", "1", "--rho", "1/10", "--force-a", "1/10"]):
        assert main(["derive", "--delta", "1", *argv, "--validate"]) == EXIT_VIOLATION
        assert "VALIDATION FAILED: liveness fails" in capsys.readouterr().out
