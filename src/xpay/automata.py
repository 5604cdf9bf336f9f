"""Timed automata: drifting local clocks, receive/timeout guards, output dwell.

A participant's automaton comes in two parts. A `Machine` is its definition:
id, states and initial state, validated once and never changed by a run, so one
definition serves every run of the same protocol role. An `Automaton` is one
run of a machine: the clock and key of that run and the state it has reached
(current state, clock variables, captured messages, inbox).

Each machine has three state kinds:

* output states do a bounded amount of local work and leave via a single
  unguarded transition that sends one or more messages;
* input states wait (possibly forever) until a receive guard matches a
  buffered, signature-verified message, or a timeout guard over the local
  clock becomes true, and then fire immediately;
* terminal states have no outgoing transitions.

All real and local times are exact rationals, so timeout boundaries are
decided exactly and runs are reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Union

from .core import (
    ConfigError,
    Envelope,
    Payload,
    ParticipantId,
    SignedMessage,
    SigningKey,
    as_fraction,
    sign,
    to_ticks,
    verify,
)


class ProtocolComplete(Exception):
    """Raised when asked to step an automaton that already reached a terminal state."""


@dataclass(frozen=True)
class LocalClock:
    """Drifting local clock: local_time(t) = rate * t, rate > 0.

    Every clock reads zero at real time zero. With rate 1 local time equals
    real time. Drift bounded by rho means rate lies in [1/(1+rho), 1+rho].
    """
    rate: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "rate", as_fraction(self.rate, "clock rate"))
        if self.rate <= 0:
            raise ConfigError("clock rate must be strictly positive")
        # local time is real time; not a field, so equality and hash ignore it
        object.__setattr__(self, "is_identity", self.rate == 1)

    def local_time(self, real_time: Fraction) -> Fraction:
        return self.rate * real_time

    def local_at_tick(self, tick: int, scale: int) -> Fraction:
        """local_time(tick / scale), made as one Fraction from integers."""
        rate = self.rate
        return Fraction(rate.numerator * tick, rate.denominator * scale)

    def real_time_of_deadline(self, local_deadline: Fraction) -> Fraction:
        """Unique real instant t with local_time(t) = local_deadline (exact inversion)."""
        return local_deadline / self.rate


class StateKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    TERMINAL = "terminal"


@dataclass(frozen=True, slots=True)
class Receive:
    """Guard matching a buffered message from `sender` whose payload has the given shape.

    `signed_by` additionally requires the payload signature to verify for that
    participant (certificates are checked against their issuer, not the relay).
    `where` hooks in the rare checks a field-equality list cannot express.
    """
    sender: ParticipantId
    payload_type: type
    attrs: tuple[tuple[str, object], ...] = ()
    signed_by: Optional[ParticipantId] = None
    where: Optional[Callable[[Payload], bool]] = None

    def matches(self, env: Envelope) -> bool:
        if env.src != self.sender:
            return False
        payload = env.msg.payload
        if not isinstance(payload, self.payload_type):
            return False
        for name, want in self.attrs:
            if getattr(payload, name) != want:
                return False
        if self.signed_by is not None and not verify(env.msg, self.signed_by):
            return False
        if self.where is not None and not self.where(payload):
            return False
        return True


@dataclass(frozen=True, slots=True)
class Timeout:
    """Guard of the form now >= var + delay over the local clock.

    var=None is the absolute form now >= delay measured from local time zero
    (used for patience deadlines that precede any transition).
    """
    delay: Fraction
    var: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "delay", as_fraction(self.delay, "timeout delay"))

    def local_deadline(self, clock_vars: dict[str, Fraction]) -> Optional[Fraction]:
        if self.var is None:
            return self.delay
        base = clock_vars.get(self.var)
        if base is None:
            return None
        return base + self.delay


@dataclass(frozen=True, slots=True)
class Fresh:
    """Emit spec: sign `payload` with the automaton's own key at send time."""
    payload: Payload


@dataclass(frozen=True, slots=True)
class Forward:
    """Emit spec: relay the captured message stored under `slot` verbatim."""
    slot: str


EmitSpec = Union[Fresh, Forward]
Guard = Union[Receive, Timeout]


@dataclass(frozen=True, slots=True)
class Transition:
    target: str
    guard: Optional[Guard] = None  # None only on the single send of an output state
    assign: tuple[str, ...] = ()   # clock variables set to `now` when the transition fires
    capture: Optional[str] = None  # slot for the consumed message, enabling later Forward
    emits: tuple[tuple[ParticipantId, EmitSpec], ...] = ()


@dataclass(frozen=True, slots=True)
class State:
    name: str
    kind: StateKind
    transitions: tuple[Transition, ...] = ()


def validate_state(st: State, states: dict[str, State]) -> None:
    """The rules one state must meet: its targets are in `states`, and its
    transitions fit its kind."""
    for tr in st.transitions:
        if tr.target not in states:
            raise ConfigError(f"state {st.name!r} targets undefined state {tr.target!r}")
    if st.kind is StateKind.OUTPUT:
        if len(st.transitions) != 1 or st.transitions[0].guard is not None:
            raise ConfigError(f"output state {st.name!r} needs exactly one unguarded send")
    elif st.kind is StateKind.INPUT:
        if not st.transitions or any(tr.guard is None for tr in st.transitions):
            raise ConfigError(f"input state {st.name!r} needs guarded transitions only")
        if sum(isinstance(tr.guard, Timeout) for tr in st.transitions) > 1:
            raise ConfigError(f"input state {st.name!r} has more than one timeout guard")
    else:
        if st.transitions:
            raise ConfigError(f"terminal state {st.name!r} must have no transitions")


def validate_states(states: dict[str, State], initial: str) -> None:
    if initial not in states:
        raise ConfigError(f"initial state {initial!r} is not defined")
    for st in states.values():
        validate_state(st, states)


Enabled = tuple[Transition, Optional[Envelope]]


@dataclass(frozen=True, eq=False)
class Machine:
    """A participant's automaton as its protocol role defines it, validated once.

    `states` is a read-only view, so the runs that share a definition cannot
    change it. `timeouts` holds the delays of the timeout guards of the states
    present at construction. `nonces_spent` counts the signatures the
    definition made with its owner's key (a message signed up front and sent
    later); a run's key starts past them.
    """
    id: ParticipantId
    states: Mapping[str, State]
    initial: str
    nonces_spent: int = 0
    timeouts: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        validate_states(self.states, self.initial)
        object.__setattr__(self, "states", MappingProxyType(self.states))
        object.__setattr__(self, "timeouts", tuple(
            tr.guard.delay for st in self.states.values() for tr in st.transitions
            if isinstance(tr.guard, Timeout)))

    def new_key(self) -> SigningKey:
        """A fresh signing key for one run, past the nonces the definition spent."""
        return SigningKey(self.id, self.nonces_spent)


# `Automaton.due` before the current state's deadline has been worked out
UNARMED = "unarmed"


@dataclass
class Automaton:
    """One run of a machine: its clock and key, and the state the run has reached.

    Times given to `enabled_transitions` count ticks of 1/`scale` (the engine
    sets its run's scale), or real time when `scale` is None. `due` is when
    the current state's timeout falls due on that axis, None if never; it is
    worked out on first use after each step, since only a step changes the
    state and the clock variables.
    """
    machine: Machine
    clock: LocalClock = field(default_factory=LocalClock)
    key: Optional[SigningKey] = None
    current: str = ""
    clock_vars: dict[str, Fraction] = field(default_factory=dict)
    captured: dict[str, SignedMessage] = field(default_factory=dict)
    inbox: list[Envelope] = field(default_factory=list)
    stuck: bool = False
    scale: Optional[int] = None
    due: Union[int, Fraction, None, str] = UNARMED

    def __post_init__(self):
        if not self.current:
            self.current = self.machine.initial
        if self.key is None:
            self.key = self.machine.new_key()
        elif self.key.owner != self.machine.id:
            raise ConfigError(f"automaton {self.machine.id} was handed {self.key.owner}'s key")

    @property
    def id(self) -> ParticipantId:
        return self.machine.id

    @property
    def state(self) -> State:
        return self.machine.states[self.current]

    def is_terminal(self) -> bool:
        return self.state.kind is StateKind.TERMINAL

    def now(self, real_time: Fraction) -> Fraction:
        return self.clock.local_time(real_time)

    def timeout_guard(self) -> Optional[Transition]:
        for tr in self.state.transitions:
            if isinstance(tr.guard, Timeout):
                return tr
        return None

    def deadline(self) -> Union[int, Fraction, None]:
        """When the current state's timeout falls due, on the axis of `scale`;
        None when the state has no timeout or its clock variable is unset."""
        due = self.due
        if due is UNARMED:
            due = None
            tr = self.timeout_guard()
            if tr is not None:
                local = tr.guard.local_deadline(self.clock_vars)
                if local is not None:
                    due = self.clock.real_time_of_deadline(local)
                    if self.scale is not None:
                        due = to_ticks(due, self.scale, "timeout deadline")
            self.due = due
        return due

    def enabled_transitions(self, now: Union[int, Fraction]) -> list[Enabled]:
        """Enabled transitions of the current input state at `now` (on the axis
        of `scale`): receives matched against the buffered inbox (oldest
        matching message per guard), plus the timeout if due.

        Order: declaration order, receives carrying their matched envelope. The
        scheduler applies its tie-break policy on top of this list.
        """
        st = self.state
        if st.kind is not StateKind.INPUT:
            return []
        out: list[Enabled] = []
        for tr in st.transitions:
            if isinstance(tr.guard, Receive):
                for env in self.inbox:
                    if tr.guard.matches(env):
                        out.append((tr, env))
                        break
            else:
                due = self.deadline()
                if due is not None and now >= due:
                    out.append((tr, None))
        return out

    def step(
        self,
        transition: Transition,
        real_time: Fraction,
        matched: Optional[Envelope] = None,
    ) -> list[Envelope]:
        """Fire `transition`: apply clock assignments, consume the matched message,
        move to the target state, and return the envelopes to be sent.

        Fresh emissions are signed here with the automaton's own key; Forward
        emissions relay the captured message verbatim.
        """
        if self.state.kind is StateKind.TERMINAL:
            raise ProtocolComplete(f"{self.id} already terminal in {self.current!r}")
        if transition.assign:
            now = self.now(real_time)
            for var in transition.assign:
                self.clock_vars[var] = now
        if matched is not None:
            self.inbox.remove(matched)
            if transition.capture:
                self.captured[transition.capture] = matched.msg
        emissions: list[Envelope] = []
        for recipient, spec in transition.emits:
            if isinstance(spec, Forward):
                msg = self.captured[spec.slot]
            else:
                msg = sign(spec.payload, self.id, self.key)
            emissions.append(Envelope(self.id, recipient, msg))
        self.current = transition.target
        self.due = UNARMED
        return emissions
