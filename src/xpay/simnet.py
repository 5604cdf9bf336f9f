"""Deterministic discrete-event network for the payment protocols.

One simulation is one sequential event loop over a heap ordered by
(real_time, priority, sequence). All delays come either from a seeded
generator on a finite grid or from an explicit script, all clocks are exact
rationals, so a Scenario (seed included) maps to exactly one trace, byte for
byte.

Inside the loop real time is an integer count of ticks of 1/S. The scale S is
fixed before the first event (`time_scale`): the lcm of the denominators of
pi, of every delay the delay model lists, of each timeout's real length
delay/rate, of the strategies' own delays and of the injection instants, so
every instant of the run is a whole number of ticks. Event times, heap keys,
delivery delays, timeout deadlines and the horizon test are int arithmetic;
`to_ticks` is the one conversion in, and it raises rather than round. Each
delay object the delay model returns is converted once. A timeout deadline is
a tick: it is worked out once when its state is entered, kept with the
automaton's run state (`Automaton.due`, and in a `Snapshot`), and "is this
timeout due" is one int comparison. Fractions are made only where time
leaves the loop: each instant's Fraction once; each participant's local time
once per instant, as one Fraction built from integers (an identity clock
reuses the instant's); a delivery delay once per distinct length; the
deadline of a state entered with a timeout; and the local deadline each
TIMEOUT_FIRED entry records. Trace entries, `StrategyContext.now`, the `t`
passed to `delay_for` and `Automaton.step` see those Fractions.

A run can be branched. Between two instants its whole state is a `Snapshot`,
a plain value: the event heap and its sequence counter, the current instant,
each automaton's current state, clock variables, captured messages, inbox and
stuck flag, each key's next nonce, the ledger's balances and value in flight,
each strategy's own state and vault, the delay generator's state (once it has
drawn), the tie flag, the count of compliant participants
still running, and the number of trace entries so far (entries are only ever
appended, so the count names the prefix). `restore` puts one back and `run`
continues from there; a plain run is the same loop, with no snapshot taken.
A delay model that keeps its own state, such as the explorer's decision
cursor, is saved by whoever drives it.

Byzantine participants are driven by strategy objects instead of (or wrapped
around) their protocol automaton. A strategy can observe everything delivered
to it, drop or postpone its own prescribed sends, and emit anything it can
legitimately construct: messages signed with its own key, or verbatim replays
of messages it has seen. It can never fabricate another participant's
signature; `byzantine_emit` is the chokepoint that enforces this.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .automata import Automaton, LocalClock, StateKind
from .core import (
    AbortReq,
    Certificate,
    CommitReq,
    ConfigError,
    Envelope,
    InsufficientFunds,
    Ledger,
    Money,
    PAYLOAD_KINDS,
    Payload,
    ParticipantId,
    ParticipantKind,
    SigningKey,
    SignedMessage,
    as_fraction,
    customer,
    escrow,
    fmt_fraction,
    manager,
    sign,
    to_ticks,
    verify,
)
from .protocol import (
    PaymentInstance,
    TimingParams,
    make_strong_participants,
    make_transaction_manager,
    make_weak_participants,
)
from .trace import (
    Rec,
    STOP_ALL_TERMINAL,
    STOP_HORIZON,
    STOP_QUEUE_EMPTY,
    Trace,
    TraceEntry,
    TraceMeta,
    config_digest,
)


class ForgeryRejected(Exception):
    """A Byzantine strategy tried to emit a message it cannot legitimately produce."""


# ----------------------------------------------------------------- delay models

def _default_grid(delta: Fraction, points: int = 4) -> tuple[Fraction, ...]:
    return tuple(delta * k / points for k in range(1, points + 1))


def _check_grid(grid: Sequence[Fraction], delta: Optional[Fraction]) -> tuple[Fraction, ...]:
    """The grid's points, exact, positive and distinct: a point <= 0 would
    deliver before the send, and a repeated one would weight the seeded sampler
    towards it, or run every explored branch through it twice. Points past
    `delta` are refused unless it is None: the explorer passes None, since its
    points past delta model lost synchrony."""
    out: list[Fraction] = []
    for g in grid:
        g = as_fraction(g, "grid delay")
        if delta is not None and not 0 < g <= delta:
            raise ConfigError(f"grid delay {g} outside (0, {delta}]")
        if g <= 0:
            raise ConfigError(f"grid delay {g} must be positive")
        if g in out:
            raise ConfigError(f"grid delay {g} is repeated")
        out.append(g)
    if not out:
        raise ConfigError("delay grid must be non-empty")
    return tuple(out)


@dataclass
class Synchronous:
    """Every delivery within (0, delta], sampled from a finite grid by the run's RNG."""
    delta: Fraction
    grid: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        self.delta = as_fraction(self.delta, "delta")
        if self.delta <= 0:
            raise ConfigError("delivery bound must be strictly positive")
        self.grid = _check_grid(_default_grid(self.delta) if self.grid is None else self.grid,
                                self.delta)

    def delta_bound(self) -> Optional[Fraction]:
        return self.delta

    def delays(self) -> tuple[Fraction, ...]:
        return self.grid

    def delay_for(self, env: Envelope, t: Fraction, rng: random.Random) -> Fraction:
        return self.grid[rng.randrange(len(self.grid))]

    def to_config(self) -> dict:
        return {"kind": "synchronous", "delta": fmt_fraction(self.delta),
                "grid": [fmt_fraction(g) for g in self.grid]}


@dataclass
class PartialSync:
    """Messages sent after the stabilization time arrive within delta; earlier
    messages are delayed arbitrarily but delivered eventually (here: shortly
    after stabilization)."""
    gst: Fraction
    delta: Fraction
    grid: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        self.gst = as_fraction(self.gst, "gst")
        self.delta = as_fraction(self.delta, "delta")
        if self.delta <= 0:
            raise ConfigError("delivery bound must be strictly positive")
        if self.gst < 0:
            raise ConfigError("stabilization time must be non-negative")
        self.grid = _check_grid(_default_grid(self.delta) if self.grid is None else self.grid,
                                self.delta)

    def delta_bound(self) -> Optional[Fraction]:
        return self.delta

    def delays(self) -> tuple[Fraction, ...]:
        # a delay before stabilization is gst - t + a grid point
        return (self.gst, *self.grid)

    def delay_for(self, env: Envelope, t: Fraction, rng: random.Random) -> Fraction:
        base = self.grid[rng.randrange(len(self.grid))]
        if t < self.gst:
            return (self.gst - t) + base
        return base

    def to_config(self) -> dict:
        return {"kind": "partial_sync", "gst": fmt_fraction(self.gst),
                "delta": fmt_fraction(self.delta), "grid": [fmt_fraction(g) for g in self.grid]}


_PAYLOAD_NAMES = {cls: name for name, cls in PAYLOAD_KINDS.items()}


def payload_kind(payload: Payload) -> str:
    return _PAYLOAD_NAMES[type(payload)]


@dataclass(frozen=True)
class ScriptRule:
    """Match on any subset of (src, dst, payload kind); first matching rule wins."""
    delay: Fraction
    src: Optional[ParticipantId] = None
    dst: Optional[ParticipantId] = None
    payload: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "delay", as_fraction(self.delay, "scripted delay"))
        if self.delay <= 0:
            raise ConfigError("scripted delay must be strictly positive")
        if self.payload is not None and self.payload not in PAYLOAD_KINDS:
            raise ConfigError(f"unknown payload kind {self.payload!r}")

    def matches(self, env: Envelope) -> bool:
        if self.src is not None and env.src != self.src:
            return False
        if self.dst is not None and env.dst != self.dst:
            return False
        if self.payload is not None and payload_kind(env.msg.payload) != self.payload:
            return False
        return True

    def to_config(self) -> dict:
        out: dict = {"delay": fmt_fraction(self.delay)}
        if self.src is not None:
            out["src"] = str(self.src)
        if self.dst is not None:
            out["dst"] = str(self.dst)
        if self.payload is not None:
            out["payload"] = self.payload
        return out


@dataclass
class Scripted:
    """Fully explicit per-message delays; `delta` is optional bookkeeping only
    (adversarial schedules carry no delivery bound)."""
    default: Fraction
    rules: tuple[ScriptRule, ...] = ()
    delta: Optional[Fraction] = None

    def __post_init__(self):
        self.default = as_fraction(self.default, "default delay")
        if self.default <= 0:
            raise ConfigError("default delay must be strictly positive")
        self.rules = tuple(self.rules)
        if self.delta is not None:
            self.delta = as_fraction(self.delta, "delta")

    def delta_bound(self) -> Optional[Fraction]:
        return self.delta

    def delays(self) -> tuple[Fraction, ...]:
        return (self.default, *(rule.delay for rule in self.rules))

    def delay_for(self, env: Envelope, t: Fraction, rng: random.Random) -> Fraction:
        for rule in self.rules:
            if rule.matches(env):
                return rule.delay
        return self.default

    def to_config(self) -> dict:
        out: dict = {"kind": "scripted", "default": fmt_fraction(self.default),
                     "rules": [r.to_config() for r in self.rules]}
        if self.delta is not None:
            out["delta"] = fmt_fraction(self.delta)
        return out


# -------------------------------------------------------------------- strategies

@dataclass
class StrategySpec:
    name: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.name}({inner})"


class StrategyContext:
    """What a Byzantine strategy may touch: its vault, its own key, the wire."""

    def __init__(self, sim: "_Sim", pid: ParticipantId):
        self._sim = sim
        self.pid = pid

    @property
    def now(self) -> Fraction:
        return self._sim.now

    @property
    def scenario(self) -> "Scenario":
        return self._sim.sc

    @property
    def pay(self) -> PaymentInstance:
        return self._sim.pay

    @property
    def vault(self) -> list[SignedMessage]:
        return self._sim.vaults[self.pid]

    def sign_own(self, payload: Payload) -> SignedMessage:
        return byzantine_emit(self._sim.strategies[self.pid], self.vault, payload, self.pid)

    def emit(self, dst: ParticipantId, payload: Payload) -> None:
        self._sim.send(Envelope(self.pid, dst, self.sign_own(payload)))

    def replay(self, dst: ParticipantId, msg: SignedMessage) -> None:
        if msg not in self.vault:
            raise ForgeryRejected(f"{self.pid} never observed {msg.token()}")
        self._sim.send(Envelope(self.pid, dst, msg))


class Strategy:
    """Base Byzantine behaviour: run the compliant automaton but filter its sends.

    Subclasses flip `uses_automaton` off to discard the prescribed behaviour
    entirely, hook `on_start`/`on_delivery` for own traffic, or override
    `filter_send` to drop or postpone prescribed messages.
    """
    uses_automaton = True

    def __init__(self, pid: ParticipantId, key: SigningKey, params: dict):
        self.pid = pid
        self.key = key

    def on_start(self, ctx: StrategyContext) -> None:
        pass

    def on_delivery(self, ctx: StrategyContext, env: Envelope) -> None:
        pass

    def filter_send(self, ctx: StrategyContext, env: Envelope) -> list[tuple[Envelope, Fraction]]:
        return [(env, ctx.now)]

    def snapshot(self) -> object:
        """What this strategy has learnt during the run, as a value `restore` takes back."""
        return None

    def restore(self, state: object) -> None:
        pass


class Silent(Strategy):
    """Sends nothing, ever; prescribed behaviour dropped wholesale."""
    uses_automaton = False


class DelayOwnSends(Strategy):
    """Behaves like the compliant automaton but posts every send `delay` late."""

    def __init__(self, pid, key, params):
        super().__init__(pid, key, params)
        self.delay = as_fraction(params.get("delay", 1), "delay_own_sends delay")
        if self.delay <= 0:
            raise ConfigError("delay_own_sends needs a positive delay")

    def filter_send(self, ctx, env):
        return [(env, ctx.now + self.delay)]


def _carries_certificate(payload: Payload) -> bool:
    return isinstance(payload, (Certificate, CommitReq))


class WithholdCertificate(Strategy):
    """Bob plays along but the certificate never leaves his hands."""

    def filter_send(self, ctx, env):
        if _carries_certificate(env.msg.payload):
            return []
        return [(env, ctx.now)]


class PrematureCertificate(Strategy):
    """Bob signs and ships the certificate at time zero, before any promise."""

    def on_start(self, ctx):
        pay = ctx.pay
        if ctx.scenario.variant == "weak":
            chi = ctx.sign_own(Certificate(pay.instance))
            ctx.emit(manager(), CommitReq(pay.instance, chi))
        else:
            ctx.emit(escrow(pay.n - 1), Certificate(pay.instance))

    def filter_send(self, ctx, env):
        # already issued; prescribed issue (or commit request) is suppressed
        if _carries_certificate(env.msg.payload):
            return []
        return [(env, ctx.now)]


class GreedyEscrow(Strategy):
    """Keeps every value it receives: promises go out, money and certificates never do."""

    def filter_send(self, ctx, env):
        if isinstance(env.msg.payload, Money) or _carries_certificate(env.msg.payload):
            return []
        return [(env, ctx.now)]


class Replayer(Strategy):
    """Echoes every message it observes to every other participant, once each."""
    uses_automaton = False

    def __init__(self, pid, key, params):
        super().__init__(pid, key, params)
        self._done: set[tuple] = set()

    def on_delivery(self, ctx, env):
        msg = env.msg
        key = (msg.signer, msg.nonce)
        if key in self._done:
            return
        self._done.add(key)
        for p in ctx.scenario.participant_ids():
            if p != self.pid:
                ctx.replay(p, msg)

    def snapshot(self):
        return frozenset(self._done)

    def restore(self, state):
        self._done = set(state)


class ImpatientAbort(Strategy):
    """Weak-variant customer that fires an abort request immediately but still
    follows the protocol afterwards (deposits, waits, converges)."""

    def on_start(self, ctx):
        ctx.emit(manager(), AbortReq(ctx.pay.instance))


def _role_customer_n(pid: ParticipantId, sc: "Scenario") -> bool:
    return pid == customer(sc.n)


def _role_escrow(pid: ParticipantId, sc: "Scenario") -> bool:
    return pid.kind is ParticipantKind.ESCROW


def _role_any(pid: ParticipantId, sc: "Scenario") -> bool:
    return pid.kind is not ParticipantKind.MANAGER


def _role_weak_customer(pid: ParticipantId, sc: "Scenario") -> bool:
    return pid.kind is ParticipantKind.CUSTOMER and sc.variant == "weak"


STRATEGIES: dict[str, tuple[type, Callable[[ParticipantId, "Scenario"], bool]]] = {
    "silent": (Silent, _role_any),
    "delay_own_sends": (DelayOwnSends, _role_any),
    "withhold_certificate": (WithholdCertificate, _role_customer_n),
    "premature_certificate": (PrematureCertificate, _role_customer_n),
    "greedy_escrow": (GreedyEscrow, _role_escrow),
    "replayer": (Replayer, _role_any),
    "impatient_abort": (ImpatientAbort, _role_weak_customer),
}


def byzantine_emit(
    strategy: Strategy,
    observed: Sequence[SignedMessage],
    attempt: Payload,
    as_signer: ParticipantId,
) -> SignedMessage:
    """Construct a message a Byzantine participant may legitimately put on the wire.

    Succeeds iff `as_signer` is the strategy's own identity (fresh signature)
    or an identical signed payload exists in its vault (verbatim replay).
    """
    if as_signer == strategy.pid:
        return sign(attempt, as_signer, strategy.key)
    for msg in observed:
        if msg.signer == as_signer and msg.payload == attempt:
            return msg
    raise ForgeryRejected(f"{strategy.pid} cannot emit {attempt.token()} as {as_signer}")


# ---------------------------------------------------------------------- scenario

_TIE_BREAKS = ("receive_first", "timeout_first")
_RX_ORDERS = ("declared", "reversed")
_CLOCK_MODES = ("auto", "identity", "seeded", "worst_case", "escrows_slow", "all_fast", "all_slow")


@dataclass
class Scenario:
    """Everything one run depends on. Equal scenarios produce identical traces."""
    variant: str
    n: int
    # Synchronous | PartialSync | Scripted, or any object with their methods
    # delta_bound, delays, delay_for and to_config (a duck-typed delay model)
    delay: object
    pi: Fraction
    amount: int = 1
    rho: Fraction = Fraction(0)
    epsilon: Optional[Fraction] = None
    timing: Optional[TimingParams] = None
    mu: Fraction = Fraction(0)
    byzantine: dict[ParticipantId, StrategySpec] = field(default_factory=dict)
    patience: Optional[tuple] = None
    seed: int = 0
    horizon: Optional[Fraction] = None
    tie_break: str = "receive_first"
    rx_order: str = "declared"
    clock_mode: str = "auto"
    instance: str = "pay0"
    raw_injections: tuple = ()  # ((t, Envelope), ...) test hook; bypasses emission checks

    def __post_init__(self):
        self.pi = as_fraction(self.pi, "pi")
        self.rho = as_fraction(self.rho, "rho")
        self.mu = as_fraction(self.mu, "mu")
        if self.epsilon is not None:
            self.epsilon = as_fraction(self.epsilon, "epsilon")
        if self.horizon is not None:
            self.horizon = as_fraction(self.horizon, "horizon")
        if self.patience is not None:
            self.patience = tuple(None if p is None else as_fraction(p, "patience")
                                  for p in self.patience)
        self.raw_injections = tuple((as_fraction(t, "injection time"), env)
                                    for t, env in self.raw_injections)

    def validate(self) -> None:
        for name in ("n", "amount", "seed"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise ConfigError(f"{name} must be an integer")
        if self.variant not in ("strong", "weak"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.amount < 1:
            raise ConfigError("amount must be at least 1")
        if self.pi < 0 or self.rho < 0 or self.mu < 0:
            raise ConfigError("pi, rho, mu must be non-negative")
        if self.tie_break not in _TIE_BREAKS:
            raise ConfigError(f"tie_break must be one of {_TIE_BREAKS}")
        if self.rx_order not in _RX_ORDERS:
            raise ConfigError(f"rx_order must be one of {_RX_ORDERS}")
        if self.clock_mode not in _CLOCK_MODES:
            raise ConfigError(f"clock_mode must be one of {_CLOCK_MODES}")
        if self.variant == "strong" and self.patience is not None:
            raise ConfigError("patience applies to the weak variant only")
        if self.patience is not None and len(self.patience) != self.n + 1:
            raise ConfigError(f"need {self.n + 1} patience entries")
        if self.timing is not None and self.timing.n != self.n:
            raise ConfigError("explicit timing does not match n")
        if self.timing is None and self.delay.delta_bound() is None:
            raise ConfigError("cannot derive timeouts without a delivery bound; "
                              "give explicit timing")
        valid = set(map(str, self.participant_ids()))
        for pid, spec in self.byzantine.items():
            if pid.kind is ParticipantKind.MANAGER:
                raise ConfigError("the transaction manager is trusted and cannot be Byzantine")
            if str(pid) not in valid:
                raise ConfigError(f"byzantine participant {pid} not in the topology")
            entry = STRATEGIES.get(spec.name)
            if entry is None:
                raise ConfigError(f"unknown strategy {spec.name!r}")
            _, role_ok = entry
            if not role_ok(pid, self):
                raise ConfigError(f"strategy {spec.name!r} does not apply to {pid}")

    def participant_ids(self) -> list[ParticipantId]:
        out = [escrow(i) for i in range(self.n)]
        out += [customer(i) for i in range(self.n + 1)]
        if self.variant == "weak":
            out.append(manager())
        return out

    def resolved_timing(self) -> TimingParams:
        if self.timing is not None:
            return self.timing
        from .timing import derive_timeouts  # simnet is imported by timing; bind late
        return derive_timeouts(self.n, self.delay.delta_bound(), self.pi, self.rho,
                               epsilon=self.epsilon, margin=self.mu)

    def resolved_horizon(self, params: TimingParams) -> Fraction:
        if self.horizon is not None:
            return self.horizon
        from .timing import termination_bound
        return 4 * termination_bound(params)

    def resolved_patience(self) -> Optional[tuple]:
        if self.variant != "weak":
            return None
        return self.patience if self.patience is not None else tuple([None] * (self.n + 1))

    def resolved_balances(self) -> dict[ParticipantId, int]:
        # depositors front the payment amount; Bob, escrows and the manager start empty
        balances = {p: 0 for p in self.participant_ids()}
        for i in range(self.n):
            balances[customer(i)] = self.amount
        return balances

    def is_compliant(self, pid: ParticipantId) -> bool:
        return pid not in self.byzantine

    def config_dict(self) -> dict:
        pat = None
        if self.patience is not None:
            pat = ["inf" if p is None else fmt_fraction(p) for p in self.patience]
        return {
            "variant": self.variant,
            "n": self.n,
            "amount": self.amount,
            "instance": self.instance,
            "delay_model": self.delay.to_config(),
            "pi": fmt_fraction(self.pi),
            "rho": fmt_fraction(self.rho),
            "epsilon": None if self.epsilon is None else fmt_fraction(self.epsilon),
            "mu": fmt_fraction(self.mu),
            "timing": None if self.timing is None else {
                "a": [fmt_fraction(x) for x in self.timing.a],
                "d": [fmt_fraction(x) for x in self.timing.d],
                "epsilon": fmt_fraction(self.timing.epsilon),
                "pi": fmt_fraction(self.timing.pi),
                "delta": fmt_fraction(self.timing.delta),
                "rho": fmt_fraction(self.timing.rho),
                "mu": fmt_fraction(self.timing.mu),
            },
            "byzantine": {str(p): self.byzantine[p].label()
                          for p in sorted(self.byzantine, key=lambda q: q.sort_key)},
            "patience": pat,
            "seed": self.seed,
            "horizon": None if self.horizon is None else fmt_fraction(self.horizon),
            "tie_break": self.tie_break,
            "rx_order": self.rx_order,
            "clock_mode": self.clock_mode,
        }

    def digest(self) -> str:
        return config_digest(self.config_dict())


def _rate_grid(rho: Fraction, points: int = 9) -> list[Fraction]:
    lo = Fraction(1) / (1 + rho)
    hi = 1 + rho
    return [lo + (hi - lo) * k / (points - 1) for k in range(points)]


def assign_clocks(scenario: Scenario) -> dict[ParticipantId, LocalClock]:
    """Per-participant clocks, rates within [1/(1+rho), 1+rho].

    Modes: auto (identity when rho=0, else seeded), seeded (deterministic
    seed-derived rates), worst_case (escrows fastest, customers slowest: the
    adversarial assignment for premature timeouts), escrows_slow (the reverse,
    maximal real timeout windows), all_fast, all_slow, identity.
    """
    rho = scenario.rho
    mode = scenario.clock_mode
    if mode == "auto":
        mode = "identity" if rho == 0 else "seeded"
    participants = sorted(scenario.participant_ids(), key=lambda p: p.sort_key)
    # clocks are values; participants with the same rate share one
    one = LocalClock()
    lo = LocalClock(Fraction(1) / (1 + rho))
    hi = LocalClock(1 + rho)

    def fixed(escrow_clock: LocalClock, customer_clock: LocalClock) -> dict[ParticipantId, LocalClock]:
        out = {}
        for p in participants:
            if p.kind is ParticipantKind.ESCROW:
                out[p] = escrow_clock
            elif p.kind is ParticipantKind.CUSTOMER:
                out[p] = customer_clock
            else:
                out[p] = one
        return out

    if mode == "identity":
        return fixed(one, one)
    if mode == "worst_case":
        return fixed(hi, lo)
    if mode == "escrows_slow":
        return fixed(lo, hi)
    if mode == "all_fast":
        return fixed(hi, hi)
    if mode == "all_slow":
        return fixed(lo, lo)
    rng = random.Random(f"{scenario.seed}:clocks")
    grid = [LocalClock(rate) for rate in _rate_grid(rho)]
    return {p: grid[rng.randrange(len(grid))] for p in participants}


# --------------------------------------------------------------------- the engine

def time_scale(sc: Scenario, automata: dict[ParticipantId, Automaton],
               strategies: dict[ParticipantId, Strategy]) -> int:
    """Ticks per time unit for one run: the lcm of the denominators of every
    length that can separate two instants of the run.

    Those are pi, the delays the delay model lists, the real length delay/rate
    of each timeout an automaton's definition lists (a deadline is the
    assignment instant plus delay/rate), the
    strategies' own delays and the injection instants. The states a manager
    builds on first entry have no timeout.
    """
    lengths = [sc.pi, *sc.delay.delays()]
    for aut in automata.values():
        lengths += [delay / aut.clock.rate for delay in aut.machine.timeouts]
    lengths += [s.delay for s in strategies.values() if isinstance(s, DelayOwnSends)]
    lengths += [t for t, _ in sc.raw_injections]
    return math.lcm(*(x.denominator for x in lengths))


# An event is a plain tuple on the heap, (tick, priority, seq, kind, a, b):
#   _DELIVER      a = envelope, b = the send instant in ticks
#   _OUTPUT_DONE  a = participant, b = the output state it was scheduled in
#   _TIMEOUT      a = participant, b = the input state whose timeout it is
#   _SEND_LATER   a = envelope, b = None
# Deliveries have priority 0 and everything else 1, and no two events share
# a seq, so tuples never compare past it.
_DELIVER, _OUTPUT_DONE, _TIMEOUT, _SEND_LATER = range(4)


class _Generator(random.Random):
    """The run's delay generator. It notes its first draw, so that a snapshot
    of a run that has drawn nothing (under every delay model but the seeded
    grids) needs no copy of its 2.5 KB state. Overriding both primitives keeps
    the inherited `randrange` and the draw sequence as in `random.Random`."""
    drawn = False

    def random(self) -> float:
        self.drawn = True
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.drawn = True
        return super().getrandbits(k)


class Snapshot(NamedTuple):
    """The state of a run between two instants, as a plain value.

    What does not change during a run (definitions, clocks, keys' owners, the
    time scale, the trace header facts) is not in it. Restoring never changes
    a snapshot, so one can be restored any number of times.
    """
    started: bool  # the t=0 setup is done
    heap: tuple
    seq: int
    tick: int
    now: Fraction
    # entries are append-only and a restore starts a new list, so the list the
    # snapshot saw keeps its first `entry_count` entries for good
    entries: list
    entry_count: int
    had_tie: bool
    pending_compliant: int
    balances: dict  # pid -> balance
    in_flight: int
    rng: Optional[tuple]  # None while the generator has drawn nothing
    automata: list  # per automaton: (current, clock_vars, captured, inbox, stuck, due)
    nonces: list  # per key, the next nonce
    strategies: Sequence  # per strategy, its own `snapshot()`; empty with no strategy
    vaults: Sequence  # per strategy, the messages delivered to it


class _Sim:
    """One run of a scenario.

    `run` takes the run from where it stands to its end and returns the trace.
    Between two instants the whole run state can be taken as a `Snapshot` and
    put back with `restore`, so a caller can branch a run: `on_instant`, when
    set, is called at the start of every instant (before the t=0 setup, and
    whenever time advances), which is where such snapshots are taken.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.params = scenario.resolved_timing()
        self.horizon = scenario.resolved_horizon(self.params)
        self.pay = PaymentInstance(scenario.instance, scenario.n, scenario.amount)
        self.rng = _Generator(f"{scenario.seed}:delays")
        self.clocks = assign_clocks(scenario)
        self.ledger = Ledger(scenario.resolved_balances())
        self.initial_balances = dict(self.ledger.balances)

        # the definitions are shared between runs; only the wrappers below are this run's
        if scenario.variant == "weak":
            machines = {**make_weak_participants(self.params, self.pay,
                                                 scenario.resolved_patience()),
                        manager(): make_transaction_manager(scenario.n, self.pay)}
        else:
            machines = make_strong_participants(self.params, self.pay)
        self.keys = {pid: machine.new_key() for pid, machine in machines.items()}

        self.strategies: dict[ParticipantId, Strategy] = {}
        self.vaults: dict[ParticipantId, list[SignedMessage]] = {}
        for pid, spec in scenario.byzantine.items():
            cls, _ = STRATEGIES[spec.name]
            self.strategies[pid] = cls(pid, self.keys[pid], spec.params)
            self.vaults[pid] = []
        self.automata: dict[ParticipantId, Automaton] = {
            pid: Automaton(machine, self.clocks[pid], self.keys[pid])
            for pid, machine in machines.items()
            if pid not in self.strategies or self.strategies[pid].uses_automaton
        }

        # in a fixed order, for snapshots
        self._automata = list(self.automata.values())
        self._keys = list(self.keys.values())

        self.pending_compliant = sum(
            1 for pid, aut in self.automata.items()
            if scenario.is_compliant(pid) and not aut.is_terminal()
        )
        self.compliant_total = sum(1 for pid in self.automata if scenario.is_compliant(pid))

        # the trace header's facts; a re-run under another tie-break or receive
        # order gets a copy naming that policy, made once (`metas`)
        patience = scenario.resolved_patience()
        self.meta = TraceMeta(
            variant=scenario.variant,
            n=scenario.n,
            amount=scenario.amount,
            instance=scenario.instance,
            seed=scenario.seed,
            byzantine={p: s.label() for p, s in scenario.byzantine.items()},
            compliant=frozenset(p for p in scenario.participant_ids()
                                if scenario.is_compliant(p)),
            params=self.params,
            horizon=self.horizon,
            delta=scenario.delay.delta_bound(),
            tie_break=scenario.tie_break,
            rx_order=scenario.rx_order,
            initial_balances=self.initial_balances,
            clock_rates={p: self.clocks[p].rate for p in self.clocks},
            patience=patience,
            patience_sufficient=patience is None or all(p is None for p in patience),
        )
        self.metas = {(scenario.tie_break, scenario.rx_order): self.meta}

        self.heap: list[tuple] = []
        self.seq = 0
        self.started = False
        self.scale = 1  # ticks per time unit; the t=0 setup fixes it before the first event
        self.pi_ticks = 0
        self.horizon_tick = 0  # the last tick not beyond the horizon
        self.tick = 0  # the current instant in ticks, and as a Fraction
        self.now = Fraction(0)
        self.local_now: dict[ParticipantId, Fraction] = {}  # local times at `now`
        self.transit_times: dict[int, Fraction] = {}  # delivery delays by their length in ticks
        # the length in ticks of each delay object the delay model returned,
        # keyed by id and holding the object so that its id is not reused
        self.delay_ticks: dict[int, tuple[Fraction, int]] = {}
        self.entries: list[TraceEntry] = []
        self.had_tie = False
        self.stop_reason = STOP_QUEUE_EMPTY
        self.on_instant: Optional[Callable[[], None]] = None

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The run state now; take it between two instants (from `on_instant`,
        or before or after `run`)."""
        entries = self.entries
        strategies = self.strategies
        return Snapshot(
            self.started, tuple(self.heap), self.seq, self.tick, self.now,
            entries, len(entries), self.had_tie, self.pending_compliant,
            self.ledger.balances.copy(), self.ledger.in_flight,
            self.rng.getstate() if self.rng.drawn else None,
            [(a.current, a.clock_vars.copy(), a.captured.copy(), tuple(a.inbox), a.stuck, a.due)
             for a in self._automata],
            [key.nonce for key in self._keys],
            [s.snapshot() for s in strategies.values()] if strategies else (),
            [tuple(v) for v in self.vaults.values()] if strategies else (),
        )

    def restore(self, snap: Snapshot) -> None:
        """Put this run back into the state `snap` was taken in; the trace
        entries after it are left to the traces already returned."""
        (self.started, heap, self.seq, self.tick, self.now, entries, entry_count,
         self.had_tie, self.pending_compliant, balances, in_flight, rng,
         automata, nonces, strategies, vaults) = snap
        self.heap = list(heap)
        self.local_now = {}
        self.entries = entries[:entry_count]
        self.ledger.balances = balances.copy()
        self.ledger.in_flight = in_flight
        if rng is not None:
            self.rng.setstate(rng)
            self.rng.drawn = True
        elif self.rng.drawn:
            self.rng.seed(f"{self.sc.seed}:delays")
            self.rng.drawn = False
        for aut, (current, clock_vars, captured, inbox, stuck, due) in zip(
                self._automata, automata):
            aut.current = current
            aut.clock_vars = clock_vars.copy()
            aut.captured = captured.copy()
            aut.inbox = list(inbox)
            aut.stuck = stuck
            aut.due = due
        for key, nonce in zip(self._keys, nonces):
            key.nonce = nonce
        for strategy, state in zip(self.strategies.values(), strategies):
            strategy.restore(state)
        for pid, vault in zip(self.vaults, vaults):
            self.vaults[pid] = list(vault)

    # -- bookkeeping ---------------------------------------------------------

    def schedule(self, tick: int, kind: int, a, b) -> None:
        # Deliveries sort before automaton steps at the same instant: a message
        # arriving exactly at a deadline must be in the inbox when the
        # scheduler applies its tie-break, and simultaneous arrivals must all
        # be visible before any of them can fire a transition.
        heapq.heappush(self.heap, (tick, 0 if kind == _DELIVER else 1, self.seq, kind, a, b))
        self.seq += 1

    def entry(self, rec: Rec, pid: ParticipantId, env: Optional[Envelope] = None,
              delay: Optional[Fraction] = None, state: Optional[str] = None,
              deadline: Optional[Fraction] = None, frm: Optional[ParticipantId] = None,
              to: Optional[ParticipantId] = None, amount: Optional[int] = None,
              phase: Optional[str] = None, reason: Optional[str] = None,
              discarded: int = 0) -> None:
        """Record `rec` for `pid` at the current instant."""
        local = self.local_now.get(pid)
        if local is None:
            clock = self.clocks[pid]
            local = self.local_now[pid] = (self.now if clock.is_identity
                                           else clock.local_at_tick(self.tick, self.scale))
        entries = self.entries
        entries.append(TraceEntry(self.now, len(entries), pid, local, rec, env, delay, state,
                                  deadline, frm, to, amount, phase, reason, discarded))

    def ctx(self, pid: ParticipantId) -> StrategyContext:
        return StrategyContext(self, pid)

    # -- wire ------------------------------------------------------------------

    def send(self, env: Envelope) -> bool:
        payload = env.msg.payload
        if isinstance(payload, Money):
            try:
                self.ledger.send_value(env.src, payload.amount)
            except InsufficientFunds:
                self.entry(Rec.IMPOSSIBLE_STEP, env.src, reason="insufficient_funds")
                aut = self.automata.get(env.src)
                if aut is not None and self.sc.is_compliant(env.src):
                    aut.stuck = True
                return False
            self.entry(Rec.TRANSFERRED, env.src, frm=env.src, to=env.dst,
                       amount=payload.amount, phase="sent")
        self.entry(Rec.SENT, env.src, env=env)
        delay = self.sc.delay.delay_for(env, self.now, self.rng)
        known = self.delay_ticks.get(id(delay))
        if known is None:
            known = self.delay_ticks[id(delay)] = (delay, to_ticks(delay, self.scale, "delay"))
        self.schedule(self.tick + known[1], _DELIVER, env, self.tick)
        return True

    def _deliver(self, env: Envelope, sent_at: int) -> Optional[ParticipantId]:
        """Deliver into the inbox; returns the recipient if its automaton may now fire.

        Firing is the caller's job: all deliveries at one instant land before
        any transition at that instant is taken.
        """
        pid = env.dst
        if not verify(env.msg, env.msg.signer):
            self.entry(Rec.REJECTED, pid, env=env, reason="bad_signature")
            return None
        length = self.tick - sent_at
        delay = self.transit_times.get(length)
        if delay is None:
            delay = self.transit_times[length] = Fraction(length, self.scale)
        self.entry(Rec.DELIVERED, pid, env=env, delay=delay)
        payload = env.msg.payload
        if isinstance(payload, Money):
            self.ledger.receive_value(pid, payload.amount)
            self.entry(Rec.TRANSFERRED, pid, frm=env.src, to=pid,
                       amount=payload.amount, phase="received")
        strategy = self.strategies.get(pid)
        if strategy is not None:
            self.vaults[pid].append(env.msg)
            strategy.on_delivery(self.ctx(pid), env)
        aut = self.automata.get(pid)
        if aut is not None and not aut.is_terminal() and not aut.stuck:
            aut.inbox.append(env)
            if aut.state.kind is StateKind.INPUT:
                return pid
        return None

    # -- automaton driving -------------------------------------------------------

    def _enter_state(self, pid: ParticipantId) -> None:
        aut = self.automata[pid]
        st = aut.state
        self.entry(Rec.STATE_ENTERED, pid, state=st.name)
        if st.kind is StateKind.OUTPUT:
            self.schedule(self.tick + self.pi_ticks, _OUTPUT_DONE, pid, st.name)
        elif st.kind is StateKind.TERMINAL:
            self.entry(Rec.TERMINAL_REACHED, pid, state=st.name, discarded=len(aut.inbox))
            if self.sc.is_compliant(pid):
                self.pending_compliant -= 1
        else:
            due = aut.deadline()
            if due is not None and due > self.tick:
                self.schedule(due, _TIMEOUT, pid, st.name)

    def _ordered_candidates(self, aut: Automaton):
        cands = aut.enabled_transitions(self.tick)
        if len(cands) < 2:
            return cands
        # receives carry their matched envelope, the timeout None
        receives = [c for c in cands if c[1] is not None]
        timeouts = [c for c in cands if c[1] is None]
        self.had_tie = True
        if self.sc.rx_order == "reversed":
            receives.reverse()
        if self.sc.tie_break == "timeout_first":
            return timeouts + receives
        return receives + timeouts

    def _try_fire(self, pid: ParticipantId) -> None:
        aut = self.automata[pid]
        while not aut.stuck and aut.state.kind is StateKind.INPUT:
            ordered = self._ordered_candidates(aut)
            if not ordered:
                return
            tr, env = ordered[0]
            if env is None:
                deadline = tr.guard.local_deadline(aut.clock_vars)
                self.entry(Rec.TIMEOUT_FIRED, pid, state=aut.current, deadline=deadline)
            emissions = aut.step(tr, self.now, env)
            self._route_emissions(pid, emissions)
            self._enter_state(pid)

    def _fire_output(self, pid: ParticipantId, state_name: str) -> None:
        aut = self.automata.get(pid)
        if aut is None or aut.stuck or aut.current != state_name:
            return
        tr = aut.state.transitions[0]
        emissions = aut.step(tr, self.now, None)
        self._route_emissions(pid, emissions)
        self._enter_state(pid)
        if aut.state.kind is StateKind.INPUT:
            self._try_fire(pid)

    def _on_timeout(self, pid: ParticipantId, state_name: str) -> None:
        aut = self.automata.get(pid)
        if aut is None or aut.stuck or aut.current != state_name:
            return
        if aut.state.kind is StateKind.INPUT:
            self._try_fire(pid)

    def _route_emissions(self, pid: ParticipantId, emissions: list[Envelope]) -> None:
        strategy = self.strategies.get(pid)
        for env in emissions:
            if strategy is not None:
                for env2, when in strategy.filter_send(self.ctx(pid), env):
                    tick = to_ticks(when, self.scale, "send time")
                    if tick <= self.tick:
                        self.send(env2)
                    else:
                        self.schedule(tick, _SEND_LATER, env2, None)
            else:
                self.send(env)
                if self.automata[pid].stuck:
                    break

    # -- main loop ----------------------------------------------------------------

    def _start(self) -> None:
        """The t=0 setup: fix the time scale, enter every initial state, start
        the strategies and schedule the injections."""
        self.started = True
        self.scale = time_scale(self.sc, self.automata, self.strategies)
        self.pi_ticks = to_ticks(self.sc.pi, self.scale, "pi")
        self.horizon_tick = self.horizon.numerator * self.scale // self.horizon.denominator
        for aut in self.automata.values():
            aut.scale = self.scale
        for pid in sorted(self.automata, key=lambda p: p.sort_key):
            self._enter_state(pid)
        for pid in sorted(self.automata, key=lambda p: p.sort_key):
            aut = self.automata[pid]
            if not aut.stuck and aut.state.kind is StateKind.INPUT:
                self._try_fire(pid)
        for pid in sorted(self.strategies, key=lambda p: p.sort_key):
            self.strategies[pid].on_start(self.ctx(pid))
        for at, env in self.sc.raw_injections:
            tick = to_ticks(at, self.scale, "injection time")
            self.schedule(tick, _DELIVER, env, tick)

    def run(self) -> Trace:
        """Run from the current state to the end and return the trace."""
        on_instant = self.on_instant
        if not self.started:
            if on_instant is not None:
                on_instant()
            self._start()
        heap = self.heap
        horizon = self.horizon_tick
        self.stop_reason = STOP_QUEUE_EMPTY
        while heap:
            if self.compliant_total > 0 and self.pending_compliant == 0:
                self.stop_reason = STOP_ALL_TERMINAL
                break
            tick = heap[0][0]
            if tick > horizon:
                self.stop_reason = STOP_HORIZON
                break
            if tick != self.tick:
                self.tick = tick
                self.now = Fraction(tick, self.scale)
                self.local_now.clear()
                if on_instant is not None:
                    on_instant()
            if heap[0][1] == 0:
                # drain every delivery at this instant, then let recipients fire
                touched: dict[ParticipantId, None] = {}
                while heap and heap[0][0] == tick and heap[0][1] == 0:
                    ev = heapq.heappop(heap)
                    pid = self._deliver(ev[4], ev[5])
                    if pid is not None:
                        touched[pid] = None
                for pid in touched:
                    aut = self.automata.get(pid)
                    if aut is not None and not aut.stuck and aut.state.kind is StateKind.INPUT:
                        self._try_fire(pid)
                continue
            _, _, _, kind, a, b = heapq.heappop(heap)
            if kind == _OUTPUT_DONE:
                self._fire_output(a, b)
            elif kind == _TIMEOUT:
                self._on_timeout(a, b)
            else:
                self.send(a)
        else:
            if self.compliant_total > 0 and self.pending_compliant == 0:
                self.stop_reason = STOP_ALL_TERMINAL

        sc = self.sc
        policy = (sc.tie_break, sc.rx_order)
        meta = self.metas.get(policy)
        if meta is None:
            meta = self.metas[policy] = replace(self.meta, tie_break=sc.tie_break,
                                                rx_order=sc.rx_order)
        return Trace(meta=meta, entries=self.entries, stop_reason=self.stop_reason,
                     final_balances=dict(self.ledger.balances),
                     final_in_flight=self.ledger.in_flight, had_tie=self.had_tie,
                     scenario=sc, delay_config=sc.delay.to_config())


def run_simulation(scenario: Scenario, sim: Optional[_Sim] = None) -> Trace:
    """Execute one scenario to completion and return its trace.

    Pure function of the scenario: identical inputs give byte-identical traces.
    Impossible prescribed steps and a horizon cut are recorded in the trace,
    so the property checkers pass verdicts on what actually happened.

    `sim` continues a run instead of starting one, under `scenario` from the
    state it stands in. It must be a run of a scenario that differs from
    `scenario` at most in tie-break and receive order, standing before the
    first instant at which the two could differ (a tie); this is how
    `explore` runs the suffix of each branch.
    """
    if sim is None:
        return _Sim(scenario).run()
    sim.sc = scenario
    return sim.run()
