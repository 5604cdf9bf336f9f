"""Per-layer spans, recorded from outside the library.

`Tracer.install` replaces each layer's public function with a wrapper at the
name the layer above looks it up by, records one span per call (name, op id,
parent span, start, end) and restores the originals on `uninstall`. Spans
stay in memory; `self_times` turns them into per-layer self time, a span's
duration minus the time its child spans cover.

`count_fraction_new` is the separate counting pass: it counts calls to
`fractions.Fraction.__new__` with `sys.setprofile`, which slows every call,
so it never runs while anything is being timed.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Optional

# (module, attribute, span name). Each wrapper sits where the caller looks
# the function up at call time: simnet calls the roster constructors, the clock
# assignment and verify through its own globals, explore calls the event loop
# and the checkers through its globals, and the benchmark calls run_simulation,
# evaluate_all, explore and parse_scenario_config through their modules.
TARGETS = (
    ("xpay.simnet", "make_strong_participants", "protocol.build"),
    ("xpay.simnet", "make_weak_participants", "protocol.build"),
    ("xpay.simnet", "make_transaction_manager", "protocol.build_tm"),
    ("xpay.simnet", "assign_clocks", "simnet.clocks"),
    ("xpay.simnet", "run_simulation", "simnet.run"),
    ("xpay.explore", "run_simulation", "simnet.run"),
    ("xpay.automata:Automaton", "step", "automata.step"),
    ("xpay.simnet", "verify", "core.verify"),
    ("xpay.automata", "verify", "core.verify"),
    ("xpay.protocol", "verify", "core.verify"),
    ("xpay.properties", "verify", "core.verify"),
    ("xpay.trace:Trace", "render", "trace.render"),
    ("xpay.properties", "evaluate_all", "properties.check"),
    ("xpay.explore", "safety_verdicts", "properties.check"),
    ("xpay.explore", "check_liveness", "properties.check"),
    ("xpay.explore", "explore", "explore.run"),
    ("xpay.cli", "parse_scenario_config", "cli.parse"),
)

# Spans the benchmark opens around its own code inside a library call (the
# exploration callback); they count as children so that their time is not
# charged to the layer around them, and they are reported as no layer.
BENCH_SPAN = "bench.callback"


def _owner(path: str):
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Span recorder. One instance per traced pass; not thread-safe (the
    benchmark is single-threaded)."""

    def __init__(self):
        self.op = 0
        self.spans: list[Optional[tuple[str, int, int, float, float]]] = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.tm_sizes: list[tuple[int, int]] = []
        self.render_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack, names, clock = self.spans, self.stack, self.open_names, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op = self.op
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, op, parent, start, end)
            if observe is not None:
                observe(result)
            return result
        return traced

    def _observe_tm(self, automaton) -> None:
        self.tm_sizes.append((len(automaton.states),
                              sum(len(s.transitions) for s in automaton.states.values())))

    def _observe_render(self, text: str) -> None:
        self.render_bytes += len(text.encode())

    def install(self) -> None:
        observers = {"protocol.build_tm": self._observe_tm, "trace.render": self._observe_render}
        for path, attr, name in TARGETS:
            owner = _owner(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer(self) -> str:
        """The layer of the outermost open span other than the exploration loop."""
        for name in self.open_names:
            if name != "explore.run":
                return name.split(".")[0]
        return "explore" if self.open_names else "bench"

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Seconds of self time and number of calls per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            name, _, parent, start, end = span
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, _, _, start, end) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
            calls[name] += 1
        return self_time, calls

    def inclusive(self, name: str) -> float:
        return sum(end - start for n, _, _, start, end in self.spans if n == name)


def count_fraction_new(tracer: Tracer, fn: Callable[[], object]) -> Counter:
    """Run `fn` once under a profile hook; count `Fraction.__new__` calls per layer.

    The layer is the outermost open span of `tracer` (which must be
    installed), so a Fraction built by an automaton step inside the event loop
    counts for `simnet`.
    """
    code = Fraction.__new__.__code__
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            counts[tracer.layer()] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts
