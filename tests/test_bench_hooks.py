"""The benchmark's span hooks still fit the library.

`perfbench/spans.py` wraps library functions by module and attribute name and
reads the transaction manager's states. A rename in the library would only
crash the benchmark's traced pass; these tests make it fail here first. The
file is loaded by path and nothing is installed, so the library is untouched.
"""
from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import strong_scenario
from xpay.protocol import PaymentInstance, make_transaction_manager
from xpay.simnet import Synchronous

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("path, attr, name", spans.TARGETS,
                         ids=[f"{path}.{attr}" for path, attr, _ in spans.TARGETS])
def test_every_span_target_resolves(path, attr, name):
    owner = spans._owner(path)
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{path} has no callable {attr} for span {name}"


def test_the_manager_observer_reads_the_built_definition():
    tm = make_transaction_manager(PaymentInstance("pay0", 2, 1))
    tracer = spans.Tracer()
    tracer._observe_tm(tm)
    states, transitions = tracer.tm_sizes[0]
    assert states == len(tm.states) > 0
    assert transitions == sum(len(st.transitions) for st in tm.states.values()) > 0


def test_explore_calls_each_wrapped_layer_once_per_branch(monkeypatch):
    """The explore spans wrap the event loop and the checkers where the
    explorer looks them up, in its module globals; each wrapper must see every
    branch that is simulated, the resumed ones and the tie re-runs included.
    The other branches are tie re-runs that share a run of their leaf, or are
    replayed from a subtree explored before. A run that stops where such a
    subtree starts raises out of the wrapper, so only returns are counted."""
    module = importlib.import_module("xpay.explore")
    names = {attr for path, attr, _ in spans.TARGETS if path == "xpay.explore"} - {"explore"}
    assert names == {"run_simulation", "safety_verdicts", "check_liveness"}
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            return result
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    base = strong_scenario(delay=Synchronous(Fraction(1), grid=(Fraction(1, 2), Fraction(1))))
    ties = Counter()
    report = module.explore(base, assignments=module.battery_assignments(base)[:3],
                            budget=100, on_branch=lambda o: ties.update([o.policy]))
    assert report.branches == 100 and not report.complete and len(ties) > 1
    simulated = report.branches - report.tie_reruns_shared - report.branches_replayed
    assert 0 < report.tie_reruns_shared < report.tie_reruns and report.branches_replayed > 0
    assert calls == {name: simulated for name in names}
