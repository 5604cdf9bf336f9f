"""Deterministic discrete-event network for the payment protocols.

One simulation is one sequential event loop over a heap ordered by
(real_time, priority, sequence). All delays come either from a seeded
generator on a finite grid or from an explicit script, all clocks are exact
rationals, so a Scenario (seed included) maps to exactly one trace, byte for
byte.

Real time is an integer count of ticks of 1/S, from the event loop all the
way into the trace, and this module is the one place where a duration becomes
ticks (`to_ticks`, which raises rather than round). A participant's clock is
a rate r within [1/(1+rho), 1+rho], so a timeout of local delay d lasts d/r
real time, worked out once per delay and rate and shared between runs.
A run fixes its time axis when it is built, where every input is known: the
scale S (`time_scale`), so that every instant of the run is a whole number of
ticks; pi and the horizon in ticks; each participant's `TimeBase`; and each
automaton's timeout lengths in ticks, handed to it when it is built. Event
times, heap keys, delivery delays, the horizon test, clock variables and
timeout deadlines are then int arithmetic. Each delay object the delay model
returns is converted once, and a strategy's delayed send when it is
scheduled. A timeout deadline is the tick its clock variable was set at plus
its length, worked out by the automaton when it enters the state and kept
with its run state (`Automaton.due`, and in a `Snapshot`). A trace entry
records its tick and its participant's `TimeBase` and builds its real and
local time as Fractions only when they are read. A delivery records the delay
object the delay model returned for it. The loop makes a Fraction only for
the local deadline each TIMEOUT_FIRED entry records, and for `now` when a
delay model that reads the send instant (`PartialSync`) asks for it.

An event is one pass through the engine. The loop pops it and calls its
handler, which builds its trace entries and pushes the events it causes in
place; the record and state kinds are read as module globals, not off their
Enum classes. A fire lists the automaton's enabled transitions once and
applies the tie-break policy only when two or more are enabled (a tie). Each
tie drops from the run's mask of the four `POLICIES` those that pick another
transition; a tie is the one place a policy is read, so a policy left in the
mask would have made the very same run. A send
records SENT at once and queues the envelope, with the seq its delivery
takes, on the outbox; the loop draws the queued delays at its top, in send
order, before the next event and before it stops: at the end of the event
that sent them, still at their send instant.

A run can be branched. At the top of its loop no part of an event is under
way, and the whole run state is a `Snapshot`, a plain value: the event heap
and its sequence counter, the current tick, the sends not yet drawn, each
automaton's current state, clock variables, captured messages, inbox and
stuck flag, each key's next nonce, the ledger's balances and value in flight,
each Byzantine participant's vault, the delay generator's state (built on the
first draw; restoring a snapshot from before it drops the generator), the tie
mask, the count of compliant participants still running, and the number of
trace entries so far (entries are only ever appended, so the count names the
prefix). `on_draw`, when set, is called there just before each draw, which
is where such snapshots are taken. `restore` puts one back and `run`
continues from there; a plain run is the same loop, with no snapshot taken.
A delay model that keeps its own state, such as the explorer's decision
cursor, is saved by whoever drives it.

Byzantine participants are driven by strategy objects instead of (or wrapped
around) their protocol automaton. A strategy can observe everything delivered
to it, drop or postpone its own prescribed sends, and emit anything it can
legitimately construct: messages signed with its own key, or verbatim replays
of messages it has seen. The messages delivered to it are its vault, the one
state a Byzantine participant keeps. It can never fabricate another
participant's signature: `StrategyContext.sign_own`, the one place a strategy
signs, signs as its own participant.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional, Sequence

from .automata import INPUT, OUTPUT, TERMINAL, Automaton
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
    make_strong_participants,
    make_transaction_manager,
    make_weak_participants,
)
from .timing import TimingParams, default_horizon, derive_timeouts
from .trace import (
    DELIVERED,
    EVERY_POLICY,
    IMPOSSIBLE_STEP,
    POLICIES,
    REJECTED,
    RX_ORDERS,
    SENT,
    STATE_ENTERED,
    STOP_ALL_TERMINAL,
    STOP_HORIZON,
    STOP_QUEUE_EMPTY,
    TERMINAL_REACHED,
    TIE_BREAKS,
    TIMEOUT_FIRED,
    TRANSFERRED,
    Rec,
    TimeBase,
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


def _bound_and_grid(delta: Fraction, grid: Optional[Sequence[Fraction]],
                    ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """A sampled model's delivery bound, exact and positive, and its grid: the
    one given, checked against the bound, or four points evenly up to it."""
    delta = as_fraction(delta, "delta")
    if delta <= 0:
        raise ConfigError("delivery bound must be strictly positive")
    return delta, _check_grid(_default_grid(delta) if grid is None else grid, delta)


@dataclass
class Synchronous:
    """Every delivery within (0, delta], sampled from a finite grid by the run's RNG."""
    delta: Fraction
    grid: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        self.delta, self.grid = _bound_and_grid(self.delta, self.grid)

    def delays(self) -> tuple[Fraction, ...]:
        return self.grid

    def delay_for(self, env: Envelope, run) -> Fraction:
        return run.rng.choice(self.grid)  # the draws of `randrange(len(grid))`

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
        if self.gst < 0:
            raise ConfigError("stabilization time must be non-negative")
        self.delta, self.grid = _bound_and_grid(self.delta, self.grid)

    def delays(self) -> tuple[Fraction, ...]:
        # a delay before stabilization is gst - t + a grid point
        return (self.gst, *self.grid)

    def delay_for(self, env: Envelope, run) -> Fraction:
        base = run.rng.choice(self.grid)
        t = run.now
        if t < self.gst:
            return (self.gst - t) + base
        return base

    def to_config(self) -> dict:
        return {"kind": "partial_sync", "gst": fmt_fraction(self.gst),
                "delta": fmt_fraction(self.delta), "grid": [fmt_fraction(g) for g in self.grid]}


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
        if self.payload is not None and type(env.msg.payload) is not PAYLOAD_KINDS[self.payload]:
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

    def delays(self) -> tuple[Fraction, ...]:
        return (self.default, *(rule.delay for rule in self.rules))

    def delay_for(self, env: Envelope, run) -> Fraction:
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
    def scenario(self) -> "Scenario":
        return self._sim.sc

    @property
    def pay(self) -> PaymentInstance:
        return self._sim.pay

    @property
    def vault(self) -> list[SignedMessage]:
        return self._sim.vaults[self.pid]

    def sign_own(self, payload: Payload) -> SignedMessage:
        return sign(payload, self.pid, self._sim.keys[self.pid])

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
    `filter_send` to drop or postpone prescribed messages: it returns the
    delay to send a prescribed envelope after, 0 for at once, or None to drop
    it. A strategy keeps no state of its own: what it learns is its vault
    (`ctx.vault`), which a snapshot keeps.
    """
    uses_automaton = True

    def __init__(self, pid: ParticipantId, params: dict):
        self.pid = pid

    def on_start(self, ctx: StrategyContext) -> None:
        pass

    def on_delivery(self, ctx: StrategyContext, env: Envelope) -> None:
        pass

    def filter_send(self, env: Envelope) -> Optional[Fraction]:
        return 0


class Silent(Strategy):
    """Sends nothing, ever; prescribed behaviour dropped wholesale."""
    uses_automaton = False


class DelayOwnSends(Strategy):
    """Behaves like the compliant automaton but posts every send `delay` late."""

    def __init__(self, pid, params):
        super().__init__(pid, params)
        self.delay = as_fraction(params.get("delay", 1), "delay_own_sends delay")
        if self.delay <= 0:
            raise ConfigError("delay_own_sends needs a positive delay")

    def filter_send(self, env):
        return self.delay


def _carries_certificate(payload: Payload) -> bool:
    return isinstance(payload, (Certificate, CommitReq))


class WithholdCertificate(Strategy):
    """Bob plays along but the certificate never leaves his hands."""

    def filter_send(self, env):
        return None if _carries_certificate(env.msg.payload) else 0


class PrematureCertificate(Strategy):
    """Bob signs and ships the certificate at time zero, before any promise."""

    def on_start(self, ctx):
        pay = ctx.pay
        if ctx.scenario.variant == "weak":
            chi = ctx.sign_own(Certificate(pay.instance))
            ctx.emit(manager(), CommitReq(pay.instance, chi))
        else:
            ctx.emit(escrow(pay.n - 1), Certificate(pay.instance))

    def filter_send(self, env):
        # already issued; prescribed issue (or commit request) is suppressed
        return None if _carries_certificate(env.msg.payload) else 0


class GreedyEscrow(Strategy):
    """Keeps every value it receives: promises go out, money and certificates never do."""

    def filter_send(self, env):
        payload = env.msg.payload
        return None if isinstance(payload, Money) or _carries_certificate(payload) else 0


class Replayer(Strategy):
    """Echoes each message it observes to every other participant, unless its
    vault already held an earlier message of the same signer and nonce."""
    uses_automaton = False

    def on_delivery(self, ctx, env):
        msg = env.msg
        signer, nonce = msg.signer, msg.nonce
        # the vault already holds this delivery, as its last message
        if any(m.signer == signer and m.nonce == nonce for m in ctx.vault[:-1]):
            return
        for p in ctx.scenario.participant_ids():
            if p != self.pid:
                ctx.replay(p, msg)


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


# ---------------------------------------------------------------------- scenario

_CLOCK_MODES = ("auto", "identity", "seeded", "worst_case", "escrows_slow", "all_fast", "all_slow")


@dataclass
class Scenario:
    """Everything one run depends on. Equal scenarios produce identical traces."""
    variant: str
    n: int
    # Synchronous | PartialSync | Scripted, or any object with their `delta`
    # attribute (the delivery bound, None when unbounded) and their methods
    # delays, delay_for and to_config (a duck-typed delay model).
    # delay_for(env, run) is handed the run: a model draws from `run.rng`
    # (built on the first draw) and reads the send instant as `run.now`
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
    raw_injections: tuple = ()  # ((t, Envelope), ...) test hook; bypasses emission checks, no money

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
        if self.tie_break not in TIE_BREAKS:
            raise ConfigError(f"tie_break must be one of {TIE_BREAKS}")
        if self.rx_order not in RX_ORDERS:
            raise ConfigError(f"rx_order must be one of {RX_ORDERS}")
        if self.clock_mode not in _CLOCK_MODES:
            raise ConfigError(f"clock_mode must be one of {_CLOCK_MODES}")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if any(isinstance(env.msg.payload, Money) for _, env in self.raw_injections):
            raise ConfigError("a raw injection cannot carry money: value moves only by a send")
        if self.variant == "strong" and self.patience is not None:
            raise ConfigError("patience applies to the weak variant only")
        if self.patience is not None and len(self.patience) != self.n + 1:
            raise ConfigError(f"need {self.n + 1} patience entries")
        if self.timing is not None:
            if self.timing.n != self.n:
                raise ConfigError("explicit timing does not match n")
            # the engine reads pi and rho here, T's bound and the horizon read the
            # timing: both must describe this run (an unbounded model takes any delta)
            own = {"pi": self.pi, "rho": self.rho, "mu": self.mu, "delta": self.delay.delta}
            for name, value in own.items():
                given = getattr(self.timing, name)
                if value is not None and given != value:
                    raise ConfigError(f"explicit timing has {name} {fmt_fraction(given)}, "
                                      f"the scenario {fmt_fraction(value)}")
        elif self.delay.delta is None:
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
        return derive_timeouts(self.n, self.delay.delta, self.pi, self.rho,
                               epsilon=self.epsilon, margin=self.mu)

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
                          for p in sorted(self.byzantine)},
            "patience": pat,
            "seed": self.seed,
            "horizon": None if self.horizon is None else fmt_fraction(self.horizon),
            "tie_break": self.tie_break,
            "rx_order": self.rx_order,
            "clock_mode": self.clock_mode,
        }

    def digest(self) -> str:
        return config_digest(self.config_dict())


_IDENTITY = Fraction(1)


@functools.lru_cache(maxsize=16)
def _seeded_clocks(rho: Fraction, points: int = 9) -> tuple[Fraction, ...]:
    """The clock rates a seeded run draws from, evenly spaced over
    [1/(1+rho), 1+rho]. Built once per rho and shared by every run."""
    lo = Fraction(1) / (1 + rho)
    hi = 1 + rho
    return tuple(lo + (hi - lo) * k / (points - 1) for k in range(points))


def assign_clocks(scenario: Scenario) -> dict[ParticipantId, Fraction]:
    """Per-participant clock rates, within [1/(1+rho), 1+rho]. A clock reads
    rate * t at real time t, so every clock reads zero at time zero.

    Modes: auto (identity when rho=0, else seeded), seeded (deterministic
    seed-derived rates), worst_case (escrows fastest, customers slowest: the
    adversarial assignment for premature timeouts), escrows_slow (the reverse,
    maximal real timeout windows), all_fast, all_slow, identity.
    """
    rho = scenario.rho
    mode = scenario.clock_mode
    if mode == "auto":
        mode = "identity" if rho == 0 else "seeded"
    participants = scenario.participant_ids()  # in id order, the order of the draws
    grid = _seeded_clocks(rho)
    if mode == "seeded":
        rng = random.Random(f"{scenario.seed}:clocks")
        return {p: grid[rng.randrange(len(grid))] for p in participants}
    # the fixed modes give each kind one clock: escrows, customers, the manager
    lo, hi = grid[0], grid[-1]
    escrow_clock, customer_clock = {
        "identity": (_IDENTITY, _IDENTITY),
        "worst_case": (hi, lo),
        "escrows_slow": (lo, hi),
        "all_fast": (hi, hi),
        "all_slow": (lo, lo),
    }[mode]
    by_kind = {ParticipantKind.ESCROW: escrow_clock, ParticipantKind.CUSTOMER: customer_clock,
               ParticipantKind.MANAGER: _IDENTITY}
    return {p: by_kind[p.kind] for p in participants}


# --------------------------------------------------------------------- the engine

@functools.lru_cache(maxsize=1024)
def _real_length(num: int, den: int, rate_num: int, rate_den: int) -> Fraction:
    """How long a local delay num/den lasts on a clock of rate rate_num/rate_den.
    Keyed by ints, since hashing a Fraction costs about as much as dividing."""
    return Fraction(num * rate_den, den * rate_num)


def time_scale(sc: Scenario, timeouts: Sequence[Fraction],
               strategies: dict[ParticipantId, Strategy]) -> int:
    """Ticks per time unit for one run: the lcm of the denominators of every
    length that can separate two instants of the run.

    Those are pi, the delays the delay model lists, the real length of each
    timeout (`timeouts`: a deadline is the assignment instant plus
    delay/rate), the strategies' own delays and the injection instants.
    """
    lengths = [sc.pi, *sc.delay.delays(), *timeouts]
    lengths += [s.delay for s in strategies.values() if isinstance(s, DelayOwnSends)]
    lengths += [t for t, _ in sc.raw_injections]
    return math.lcm(*(x.denominator for x in lengths))


# An event is a plain tuple on the heap, (tick, priority, seq, kind, a, b):
#   _DELIVER      a = envelope, b = its delay, as the delay model returned it
#   _OUTPUT_DONE  a = participant, b = the output `State` it was scheduled in
#   _TIMEOUT      a = participant, b = the input `State` whose timeout it is
#   _SEND_LATER   a = envelope, b = None
# Deliveries have priority 0 and everything else 1, so all arrivals at an
# instant land before any transition fires there (a message due at a deadline
# meets the tie-break). Each push takes the next seq, so tuples never compare
# past it.
_DELIVER, _OUTPUT_DONE, _TIMEOUT, _SEND_LATER = range(4)

_INJECTED = Fraction(0)  # the delay a raw injection's delivery records


class Snapshot(NamedTuple):
    """The state of a run at the top of its loop, as a plain value.

    What does not change during a run (definitions, clock rates, keys'
    owners, timeout lengths, the time scale, the trace header facts) is not
    in it. Restoring never changes a snapshot, so one can be restored any
    number of times.
    """
    started: bool  # the t=0 setup is done
    heap: tuple
    seq: int
    tick: int
    # entries are append-only and a restore starts a new list, so the list the
    # snapshot saw keeps its first `entry_count` entries for good
    entries: list
    entry_count: int
    mask: int  # the policies that would have chosen as the run did at every tie so far
    pending_compliant: int
    outbox: tuple  # the sends whose delays are not drawn yet, as (seq, envelope)
    balances: dict  # pid -> balance
    in_flight: int
    rng: Optional[tuple]  # the delay generator's state; None while the run has none
    automata: list  # per automaton: (state, clock_vars, captured, inbox, stuck, due)
    nonces: list  # per key, the next nonce
    vaults: Sequence  # per strategy, the messages delivered to it; empty with no strategy


class _Sim:
    """One run of a scenario.

    `run` takes the run from where it stands to its end and returns the trace.
    At the top of the loop the whole run state can be taken as a `Snapshot`
    and put back with `restore`, so a caller can branch a run: `on_draw`, when
    set, is called there just before the delays of the sends in `outbox` are
    drawn, which is where such snapshots are taken.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.params = scenario.resolved_timing()
        self.horizon = (scenario.horizon if scenario.horizon is not None
                        else default_horizon(self.params))
        self.pay = PaymentInstance(scenario.instance, scenario.n, scenario.amount)
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
            self.strategies[pid] = cls(pid, spec.params)
            self.vaults[pid] = []
        machines = {pid: machine for pid, machine in machines.items()
                    if pid not in self.strategies or self.strategies[pid].uses_automaton}

        # the run's time axis. Real timeout lengths are keyed by delay id, as
        # `Automaton.lengths` is; a manager's states built on entry have none.
        real = {}
        for pid, machine in machines.items():
            rate = self.clocks[pid].as_integer_ratio()
            real[pid] = {id(delay): _real_length(*delay.as_integer_ratio(), *rate)
                         for delay in machine.timeouts}
        scale = self.scale = time_scale(  # ticks per time unit
            scenario, [length for lengths in real.values() for length in lengths.values()],
            self.strategies)
        self.pi_ticks = to_ticks(scenario.pi, scale, "pi")
        # the last tick not beyond the horizon
        self.horizon_tick = self.horizon.numerator * scale // self.horizon.denominator
        self.bases = {pid: TimeBase(scale, rate.numerator, rate.denominator)
                      for pid, rate in self.clocks.items()}
        self.automata: dict[ParticipantId, Automaton] = {
            pid: Automaton(machine, self.keys[pid], {
                key: to_ticks(length, scale, "timeout length")
                for key, length in real[pid].items()})
            for pid, machine in machines.items()
        }

        # in a fixed order, for snapshots
        self._automata = list(self.automata.values())
        self._keys = list(self.keys.values())

        self.pending_compliant = sum(
            1 for pid, aut in self.automata.items()
            if scenario.is_compliant(pid) and not aut.is_terminal()
        )
        self.compliant_total = sum(1 for pid in self.automata if scenario.is_compliant(pid))

        # the trace header's facts, shared by every trace of this run; the
        # policy a re-run takes is read from its trace's scenario
        self.meta = TraceMeta(
            variant=scenario.variant,
            n=scenario.n,
            amount=scenario.amount,
            instance=scenario.instance,
            compliant=frozenset(p for p in scenario.participant_ids()
                                if scenario.is_compliant(p)),
            params=self.params,
            horizon=self.horizon,
            initial_balances=self.initial_balances,
            clock_rates=self.clocks,
            patience=scenario.resolved_patience(),
        )

        self.heap: list[tuple] = []
        self.seq = 0
        self.started = False
        self.tick = 0  # the current instant in ticks
        # the length in ticks of each delay object the delay model returned,
        # keyed by id and holding the object so that its id is not reused
        self.delay_ticks: dict[int, tuple[Fraction, int]] = {}
        self.entries: list[TraceEntry] = []
        self.outbox: list[tuple[int, Envelope]] = []
        self.mask = EVERY_POLICY  # the policies that would have chosen as this run at every tie
        self.stop_reason = STOP_QUEUE_EMPTY
        self.on_draw: Optional[Callable[[], None]] = None

    @functools.cached_property
    def rng(self) -> random.Random:
        """The run's delay generator, built when a delay model first draws."""
        return random.Random(f"{self.sc.seed}:delays")

    @property
    def now(self) -> Fraction:
        """The current instant as a Fraction, built on each call."""
        return Fraction(self.tick, self.scale)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The run state now; take it at the top of the loop (from `on_draw`),
        or before or after `run`."""
        entries = self.entries
        rng = self.__dict__.get("rng")
        return Snapshot(
            self.started, tuple(self.heap), self.seq, self.tick,
            entries, len(entries), self.mask, self.pending_compliant, tuple(self.outbox),
            self.ledger.balances.copy(), self.ledger.in_flight,
            None if rng is None else rng.getstate(),
            [(a.state, a.clock_vars.copy(), a.captured.copy(), tuple(a.inbox), a.stuck, a.due)
             for a in self._automata],
            [key.nonce for key in self._keys],
            [tuple(v) for v in self.vaults.values()] if self.vaults else (),
        )

    def restore(self, snap: Snapshot) -> None:
        """Put this run back into the state `snap` was taken in; the trace
        entries after it are left to the traces already returned."""
        (self.started, heap, self.seq, self.tick, entries, entry_count,
         self.mask, self.pending_compliant, outbox, balances, in_flight, rng,
         automata, nonces, vaults) = snap
        self.heap = list(heap)
        self.outbox = list(outbox)
        self.entries = entries[:entry_count]
        self.ledger.balances = balances.copy()
        self.ledger.in_flight = in_flight
        if rng is None:
            self.__dict__.pop("rng", None)  # the next draw starts from the seed
        else:
            self.rng.setstate(rng)
        for aut, (state, clock_vars, captured, inbox, stuck, due) in zip(
                self._automata, automata):
            aut.state = state
            aut.clock_vars = clock_vars.copy()
            aut.captured = captured.copy()
            aut.inbox = list(inbox)
            aut.stuck = stuck
            aut.due = due
        for key, nonce in zip(self._keys, nonces):
            key.nonce = nonce
        for pid, vault in zip(self.vaults, vaults):
            self.vaults[pid] = list(vault)

    # -- bookkeeping ---------------------------------------------------------

    def entry(self, rec: Rec, pid: ParticipantId, **fields) -> None:
        """Record `rec` for `pid` now (SENT, DELIVERED, STATE_ENTERED: in place)."""
        entries = self.entries
        entries.append(TraceEntry(self.tick, len(entries), pid, self.bases[pid], rec, **fields))

    def ctx(self, pid: ParticipantId) -> StrategyContext:
        return StrategyContext(self, pid)

    # -- wire ------------------------------------------------------------------

    def send(self, env: Envelope) -> None:
        src = env.src
        payload = env.msg.payload
        if isinstance(payload, Money):
            try:
                self.ledger.send_value(src, payload.amount)
            except InsufficientFunds:
                self.entry(IMPOSSIBLE_STEP, src, reason="insufficient_funds")
                aut = self.automata.get(src)
                if aut is not None and self.sc.is_compliant(src):
                    aut.stuck = True
                return
            self.entry(TRANSFERRED, src, frm=src, to=env.dst, amount=payload.amount,
                       phase="sent")
        entries = self.entries
        entries.append(TraceEntry(self.tick, len(entries), src, self.bases[src], SENT, env))
        self.outbox.append((self.seq, env))  # its delivery's seq, taken now
        self.seq += 1

    def _deliver(self, env: Envelope, delay: Fraction) -> Optional[ParticipantId]:
        """Deliver into the inbox; returns the recipient if its automaton may now fire.

        Firing is the caller's job: all deliveries at one instant land before
        any transition at that instant is taken.
        """
        pid = env.dst
        msg = env.msg
        if not verify(msg, msg.signer):
            self.entry(REJECTED, pid, env=env, reason="bad_signature")
            return None
        entries = self.entries
        entries.append(TraceEntry(self.tick, len(entries), pid, self.bases[pid], DELIVERED, env,
                                  delay))
        payload = msg.payload
        if isinstance(payload, Money):
            self.ledger.receive_value(pid, payload.amount)
            self.entry(TRANSFERRED, pid, frm=env.src, to=pid, amount=payload.amount,
                       phase="received")
        strategy = self.strategies.get(pid)
        if strategy is not None:
            self.vaults[pid].append(msg)
            strategy.on_delivery(self.ctx(pid), env)
        aut = self.automata.get(pid)
        if aut is not None and not aut.stuck and aut.state.kind is not TERMINAL:
            aut.inbox.append(env)
            if aut.state.kind is INPUT:
                return pid
        return None

    # -- automaton driving -------------------------------------------------------

    def _enter_state(self, pid: ParticipantId, aut: Automaton) -> None:
        st = aut.state
        tick = self.tick
        entries = self.entries
        entries.append(TraceEntry(tick, len(entries), pid, self.bases[pid], STATE_ENTERED,
                                  None, None, st.name))
        if st.kind is OUTPUT:
            heappush(self.heap, (tick + self.pi_ticks, 1, self.seq, _OUTPUT_DONE, pid, st))
            self.seq += 1
        elif st.kind is TERMINAL:
            self.entry(TERMINAL_REACHED, pid, state=st.name, discarded=len(aut.inbox))
            if self.sc.is_compliant(pid):
                self.pending_compliant -= 1
        else:
            due = aut.due
            if due is not None and due > tick:
                heappush(self.heap, (due, 1, self.seq, _TIMEOUT, pid, st))
                self.seq += 1

    def _try_fire(self, pid: ParticipantId) -> None:
        """Fire enabled input transitions of `pid`'s automaton, one at a time,
        until none is; on a tie (two or more enabled) the policy picks one."""
        aut = self.automata[pid]
        while not aut.stuck and aut.state.kind is INPUT:
            cands = aut.enabled_transitions(self.tick)
            if not cands:
                return
            tr, env = cands[0]
            if len(cands) > 1:
                # each policy's pick, in `POLICIES` order: the receives come in
                # declaration order, then the timeout if due (a tie holds a receive)
                m = len(cands)
                picks = (0, m - 2, m - 1, m - 1) if cands[-1][1] is None else (0, m - 1, 0, m - 1)
                pick = picks[POLICIES.index((self.sc.tie_break, self.sc.rx_order))]
                self.mask &= sum(1 << k for k, other in enumerate(picks) if other == pick)
                tr, env = cands[pick]
            if env is None:
                self.entry(TIMEOUT_FIRED, pid, state=aut.state.name,
                           deadline=self.bases[pid].local(aut.due))
            aut.step(tr, self.tick, env)  # an input state sends nothing
            self._enter_state(pid, aut)

    def _fire_output(self, pid: ParticipantId, aut: Automaton) -> None:
        emissions = aut.step(aut.state.transitions[0], self.tick, None)
        if emissions:
            self._route_emissions(pid, aut, emissions)
        self._enter_state(pid, aut)
        self._try_fire(pid)

    def _route_emissions(self, pid: ParticipantId, aut: Automaton, emissions: list) -> None:
        # a Byzantine sender is never compliant, so never stuck
        strategy = self.strategies.get(pid)
        for env in emissions:
            delay = 0 if strategy is None else strategy.filter_send(env)
            if delay is None:
                continue
            if delay:
                later = self.tick + to_ticks(delay, self.scale, "send delay")
                heappush(self.heap, (later, 1, self.seq, _SEND_LATER, env, None))
                self.seq += 1
            else:
                self.send(env)
                if aut.stuck:
                    break

    # -- main loop ----------------------------------------------------------------

    def _start(self) -> None:
        """The t=0 setup: enter every initial state, start the strategies and
        schedule the injections."""
        self.started = True
        for pid in sorted(self.automata):
            self._enter_state(pid, self.automata[pid])
        for pid in sorted(self.automata):
            self._try_fire(pid)
        for pid in sorted(self.strategies):
            self.strategies[pid].on_start(self.ctx(pid))
        for at, env in self.sc.raw_injections:
            tick = to_ticks(at, self.scale, "injection time")
            heappush(self.heap, (tick, 0, self.seq, _DELIVER, env, _INJECTED))
            self.seq += 1

    def run(self) -> Trace:
        """Run from the current state to the end and return the trace."""
        if not self.started:
            self._start()
        heap = self.heap
        outbox = self.outbox
        on_draw = self.on_draw
        horizon = self.horizon_tick
        delay_for = self.sc.delay.delay_for
        delay_ticks = self.delay_ticks
        self.stop_reason = STOP_QUEUE_EMPTY
        while True:
            # no part of an event is under way here: the last one's sends get
            # their delays, at their send instant and in send order, before
            # anything else, and each delivery is scheduled under the seq its
            # send took
            if outbox:
                if on_draw is not None:
                    on_draw()
                for seq, env in outbox:
                    delay = delay_for(env, self)
                    known = delay_ticks.get(id(delay))
                    if known is None:
                        known = delay_ticks[id(delay)] = (delay, to_ticks(delay, self.scale, "delay"))
                    heappush(heap, (self.tick + known[1], 0, seq, _DELIVER, env, delay))
                outbox.clear()
            if self.pending_compliant == 0 and self.compliant_total != 0:
                self.stop_reason = STOP_ALL_TERMINAL
                break
            if not heap:
                break
            tick = heap[0][0]
            if tick > horizon:
                self.stop_reason = STOP_HORIZON
                break
            self.tick = tick
            if heap[0][1] == 0:
                # drain every delivery at this instant, then let recipients fire
                touched: dict[ParticipantId, None] = {}
                while heap and heap[0][0] == tick and heap[0][1] == 0:
                    ev = heappop(heap)
                    pid = self._deliver(ev[4], ev[5])
                    if pid is not None:
                        touched[pid] = None
                for pid in touched:
                    self._try_fire(pid)
                continue
            _, _, _, kind, a, b = heappop(heap)
            if kind == _SEND_LATER:
                self.send(a)
                continue
            aut = self.automata[a]
            if aut.stuck or aut.state is not b:
                continue  # the automaton left the state the event was set in
            if kind == _OUTPUT_DONE:
                self._fire_output(a, aut)
            else:
                self._try_fire(a)

        sc = self.sc
        return Trace(meta=self.meta, entries=self.entries, stop_reason=self.stop_reason,
                     final_balances=dict(self.ledger.balances),
                     final_in_flight=self.ledger.in_flight, mask=self.mask,
                     scenario=sc, delay_config=sc.delay.to_config())


def run_simulation(scenario: Scenario, sim: Optional[_Sim] = None) -> Trace:
    """Execute one scenario to completion and return its trace.

    Pure function of the scenario: identical inputs give byte-identical traces.
    Impossible prescribed steps and a horizon cut are recorded in the trace,
    so the property checkers pass verdicts on what actually happened.

    `sim` continues a run instead of starting one, under `scenario` from the
    state it stands in. It must be a run of a scenario that differs from
    `scenario` at most in tie-break and receive order, standing before its
    first tie (its mask still whole: the two could first differ there); this
    is how `explore` runs the suffix of each branch.
    """
    if sim is None:
        return _Sim(scenario).run()
    sim.sc = scenario
    return sim.run()
