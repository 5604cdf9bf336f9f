"""Timed automata: receive/timeout guards over a local clock, output dwell.

A participant's automaton comes in two parts. A `Machine` is its definition:
id, states and initial state, validated once and never changed by a run, so one
definition serves every run of the same protocol role. An `Automaton` is one
run of a machine: the key of that run, the length of each timeout on the run's
time axis, and the state it has reached (current state, clock variables,
captured messages, inbox).

Each machine has three state kinds:

* output states do a bounded amount of local work and leave via a single
  unguarded transition that sends one or more messages; only output states
  send;
* input states wait (possibly forever) until a receive guard matches a
  buffered, signature-verified message, or a timeout guard over the local
  clock becomes true, and then fire immediately, sending nothing;
* terminal states have no outgoing transitions.

All times are exact, so timeout boundaries are decided exactly and runs are
reproducible bit for bit. An automaton knows no clock rate and no time scale:
whoever builds it hands it the length of each timeout on its axis (int ticks
under the simulator), and every instant it is given or gives back is on that
axis.
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
    verify,
)


class ProtocolComplete(Exception):
    """Raised when asked to step an automaton that already reached a terminal state."""


class StateKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    TERMINAL = "terminal"


# StateKind's members as globals: a read off the class takes `EnumType.__getattr__`, ~10x slower
INPUT, OUTPUT, TERMINAL = StateKind  # in declaration order


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
    """A state of a machine. `receives` holds its receive transitions, in
    declaration order, and `timeout` its timeout transition (None if none):
    both are worked out once, when the state is defined."""
    name: str
    kind: StateKind
    transitions: tuple[Transition, ...] = ()
    receives: tuple[Transition, ...] = field(init=False, repr=False, compare=False)
    timeout: Optional[Transition] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        transitions = self.transitions
        receives = tuple(tr for tr in transitions if isinstance(tr.guard, Receive))
        timeout = next((tr for tr in transitions if isinstance(tr.guard, Timeout)), None)
        # a state that only receives reuses its tuple: thousands of states stay defined
        object.__setattr__(self, "receives", transitions if receives == transitions else receives)
        object.__setattr__(self, "timeout", timeout)


def validate_state(st: State, states: dict[str, State]) -> None:
    """The rules one state must meet: its targets are in `states`, and its
    transitions fit its kind."""
    for tr in st.transitions:
        if tr.target not in states:
            raise ConfigError(f"state {st.name!r} targets undefined state {tr.target!r}")
    if st.kind is OUTPUT:
        if len(st.transitions) != 1 or st.transitions[0].guard is not None:
            raise ConfigError(f"output state {st.name!r} needs exactly one unguarded send")
    elif st.kind is INPUT:
        if not st.transitions or any(tr.guard is None for tr in st.transitions):
            raise ConfigError(f"input state {st.name!r} needs guarded transitions only")
        if sum(isinstance(tr.guard, Timeout) for tr in st.transitions) > 1:
            raise ConfigError(f"input state {st.name!r} has more than one timeout guard")
        if any(tr.emits for tr in st.transitions):
            raise ConfigError(f"input state {st.name!r} sends: only output states send")
    else:
        if st.transitions:
            raise ConfigError(f"terminal state {st.name!r} must have no transitions")


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
        if self.initial not in self.states:
            raise ConfigError(f"initial state {self.initial!r} is not defined")
        for st in self.states.values():
            validate_state(st, self.states)
        object.__setattr__(self, "states", MappingProxyType(self.states))
        object.__setattr__(self, "timeouts", tuple(
            st.timeout.guard.delay for st in self.states.values() if st.timeout is not None))

    def new_key(self) -> SigningKey:
        """A fresh signing key for one run, past the nonces the definition spent."""
        return SigningKey(self.id, self.nonces_spent)


Instant = Union[int, Fraction]


@dataclass
class Automaton:
    """One run of a machine: its key, its timeout lengths and the state the
    run has reached.

    `state` is the current `State` object itself (the machine's initial state
    when none is given), so the engine reads its kind and transitions without
    a table lookup; `current` reads its name.

    An automaton keeps time on one axis, the one `lengths` is given on: the
    `now` of `step` and `enabled_transitions`, the value of a clock variable
    (the instant at which it was set) and `due` are all on it. `lengths` maps
    the id of each timeout delay of the definition (the definition holds the
    delay objects) to the time that timeout lasts, from the instant its
    variable was set (from time zero when it has none). The engine works these
    out once per run in int ticks, from each delay and the participant's
    clock rate. Without `lengths` each timeout lasts its delay: real time on a
    clock of rate 1. `due`, when the current state's timeout falls due (None
    if never), is worked out on entering a state: at construction and by
    `step`.
    """
    machine: Machine
    key: Optional[SigningKey] = None
    lengths: Optional[dict[int, Instant]] = field(default=None, repr=False, compare=False)
    state: Optional[State] = None
    clock_vars: dict[str, Instant] = field(default_factory=dict)
    captured: dict[str, SignedMessage] = field(default_factory=dict)
    inbox: list[Envelope] = field(default_factory=list)
    stuck: bool = False
    due: Optional[Instant] = field(default=None, init=False)

    def __post_init__(self):
        if self.state is None:
            self.state = self.machine.states[self.machine.initial]
        if self.key is None:
            self.key = self.machine.new_key()
        elif self.key.owner != self.machine.id:
            raise ConfigError(f"automaton {self.machine.id} was handed {self.key.owner}'s key")
        if self.lengths is None:
            self.lengths = {id(delay): delay for delay in self.machine.timeouts}
        self._arm()

    def _arm(self) -> None:
        """Work out `due` for the state just entered."""
        due = None
        tr = self.state.timeout
        if tr is not None:
            guard = tr.guard
            start = 0 if guard.var is None else self.clock_vars.get(guard.var)
            if start is not None:
                due = start + self.lengths[id(guard.delay)]
        self.due = due

    @property
    def current(self) -> str:
        return self.state.name

    def is_terminal(self) -> bool:
        return self.state.kind is TERMINAL

    def enabled_transitions(self, now: Instant) -> list[Enabled]:
        """Enabled transitions of the current state at `now` (on the
        automaton's axis): receives matched against the buffered inbox (oldest
        matching message per guard), plus the timeout if due. Only an input
        state has either, so for any other state the list is empty.

        Order: the receives in declaration order, each carrying its matched
        envelope, then the timeout. The scheduler applies its tie-break policy
        on top of this list.
        """
        st = self.state
        out: list[Enabled] = []
        for tr in st.receives:
            for env in self.inbox:
                if tr.guard.matches(env):
                    out.append((tr, env))
                    break
        due = self.due
        if due is not None and now >= due:
            out.append((st.timeout, None))
        return out

    def step(
        self,
        transition: Transition,
        now: Instant,
        matched: Optional[Envelope] = None,
    ) -> list[Envelope]:
        """Fire `transition` at `now` (on the automaton's axis): set its clock
        variables to `now`, consume the matched message, move to the target
        state, and return the envelopes to be sent.

        Fresh emissions are signed here with the automaton's own key; Forward
        emissions relay the captured message verbatim.
        """
        if self.state.kind is TERMINAL:
            raise ProtocolComplete(f"{self.machine.id} already terminal in {self.current!r}")
        for var in transition.assign:
            self.clock_vars[var] = now
        if matched is not None:
            self.inbox.remove(matched)
            if transition.capture:
                self.captured[transition.capture] = matched.msg
        me = self.machine.id
        emissions: list[Envelope] = []
        for recipient, spec in transition.emits:
            if isinstance(spec, Forward):
                msg = self.captured[spec.slot]
            else:
                msg = sign(spec.payload, me, self.key)
            emissions.append(Envelope(me, recipient, msg))
        self.state = self.machine.states[transition.target]
        self._arm()
        return emissions
