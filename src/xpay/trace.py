"""Run traces: the totally ordered event record a simulation produces.

Every entry carries its instant as an int tick of the run's time axis, a
sequence number breaking ties, the acting participant and that participant's
time base, from which the real and local times are read as exact Fractions.
The text rendering is bit-exact and documented in the README: fixed key order
per event kind, rationals always as num/den, newline-terminated lines, no
trailing whitespace. Repeated runs of the same scenario and seed produce
byte-identical files.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .core import Envelope, ParticipantId, fmt_fraction


class Rec(Enum):
    SENT = "SENT"
    DELIVERED = "DELIVERED"
    REJECTED = "REJECTED"
    TIMEOUT_FIRED = "TIMEOUT_FIRED"
    STATE_ENTERED = "STATE_ENTERED"
    TRANSFERRED = "TRANSFERRED"
    TERMINAL_REACHED = "TERMINAL_REACHED"
    IMPOSSIBLE_STEP = "IMPOSSIBLE_STEP"


# Rec's members as module constants, for the engine and the checkers: a read
# off the class takes `EnumType.__getattr__`, about ten times slower
(SENT, DELIVERED, REJECTED, TIMEOUT_FIRED, STATE_ENTERED, TRANSFERRED, TERMINAL_REACHED,
 IMPOSSIBLE_STEP) = Rec  # in declaration order


class TimeBase(NamedTuple):
    """How one participant's entries of one run tell time: the run's ticks of
    1/`scale` of real time, and the participant's clock rate `num`/`den` in
    lowest terms. A run makes one per participant and every entry of that
    participant holds it."""
    scale: int
    num: int
    den: int

    def local(self, tick: int) -> Fraction:
        """The participant's local time at `tick`, as one Fraction."""
        return Fraction(self.num * tick, self.den * self.scale)


@dataclass(slots=True)
class TraceEntry:
    """One event of a run, at the instant `tick` (ticks of 1/`base.scale`).

    `t`, the real time, and `local`, the participant's local time, are
    read-only and built as exact Fractions each time they are read; a run makes
    no Fraction for an entry's times, and `format_lines` reads the ints.
    """
    tick: int
    seq: int
    participant: ParticipantId
    base: TimeBase
    rec: Rec
    env: Optional[Envelope] = None
    delay: Optional[Fraction] = None      # DELIVERED: transit time
    state: Optional[str] = None           # STATE_ENTERED / TIMEOUT_FIRED / TERMINAL_REACHED
    deadline: Optional[Fraction] = None   # TIMEOUT_FIRED: the local deadline that lapsed
    frm: Optional[ParticipantId] = None   # TRANSFERRED
    to: Optional[ParticipantId] = None
    amount: Optional[int] = None
    phase: Optional[str] = None           # TRANSFERRED: "sent" | "received"
    reason: Optional[str] = None          # REJECTED / IMPOSSIBLE_STEP
    discarded: int = 0                    # TERMINAL_REACHED: unconsumed inbox size

    @property
    def t(self) -> Fraction:
        return Fraction(self.tick, self.base.scale)

    @property
    def local(self) -> Fraction:
        return self.base.local(self.tick)

    def line(self) -> str:
        return format_lines([self])[0]


def format_lines(entries: Sequence[TraceEntry]) -> list[str]:
    """The text line of each entry, each built by one f-string.

    A line starts "t=N/D seq=S p=P lt=N/D ev=E", and both times come from the
    entry's ints. "t=N/D seq=" is made whenever the instant (tick, scale)
    differs from the previous entry's, with one `math.gcd` to put tick/scale
    in lowest terms; a run's entries of one instant follow each other, so that
    is once per instant. " p=P lt=N/D ev=" is made once per participant and
    time base object within the instant, kept in a dict keyed by participant
    that each instant starts afresh: the local time is num/den times the
    reduced instant, put in lowest terms with one more gcd. A relayed message
    is the same object wherever it goes, so each message token is formatted
    once, and so is each delay and deadline object; those are kept by object
    id, which stays valid because `entries` holds the objects until the call
    returns.
    """
    texts: dict[int, str] = {}  # message tokens, delays and deadlines, by object id
    sent, delivered, rejected, fired, entered, transferred, terminal, _ = Rec  # in Rec's order
    gcd = math.gcd
    tick_at = scale_at = None  # the instant of the entries so far
    out = []
    append = out.append
    for e in entries:
        tick = e.tick
        p = e.participant
        base = e.base
        if tick != tick_at or base.scale != scale_at:
            tick_at, scale_at = tick, base.scale
            g = gcd(tick, scale_at)
            t_num = tick // g
            t_den = scale_at // g
            when = f"t={t_num}/{t_den} seq="
            heads = {}  # participant -> (time base, its prefix) at this instant
        head = heads.get(p)
        if head is not None and head[0] is base:
            who = head[1]
        else:
            lt_num = base.num * t_num
            lt_den = base.den * t_den
            g = gcd(lt_num, lt_den)
            who = f" p={p.text} lt={lt_num // g}/{lt_den // g} ev="
            heads[p] = (base, who)
        rec = e.rec
        if rec is entered:
            append(f"{when}{e.seq}{who}STATE_ENTERED state={e.state}")
        elif rec is sent:
            msg = e.env.msg
            token = texts.get(id(msg)) or texts.setdefault(id(msg), msg.token())
            append(f"{when}{e.seq}{who}SENT dst={e.env.dst.text} msg={token}")
        elif rec is delivered:
            msg, delay = e.env.msg, e.delay
            token = texts.get(id(msg)) or texts.setdefault(id(msg), msg.token())
            text = texts.get(id(delay)) or texts.setdefault(id(delay), fmt_fraction(delay))
            append(f"{when}{e.seq}{who}DELIVERED src={e.env.src.text} msg={token} delay={text}")
        elif rec is transferred:
            append(f"{when}{e.seq}{who}TRANSFERRED from={e.frm.text} to={e.to.text} "
                   f"amount={e.amount} phase={e.phase}")
        elif rec is terminal:
            append(f"{when}{e.seq}{who}TERMINAL_REACHED state={e.state} discarded={e.discarded}")
        elif rec is fired:
            deadline = e.deadline
            text = texts.get(id(deadline)) or texts.setdefault(id(deadline), fmt_fraction(deadline))
            append(f"{when}{e.seq}{who}TIMEOUT_FIRED state={e.state} deadline={text}")
        elif rec is rejected:
            msg = e.env.msg
            token = texts.get(id(msg)) or texts.setdefault(id(msg), msg.token())
            append(f"{when}{e.seq}{who}REJECTED src={e.env.src.text} msg={token} reason={e.reason}")
        else:  # IMPOSSIBLE_STEP
            append(f"{when}{e.seq}{who}IMPOSSIBLE_STEP reason={e.reason}")
    return out


def config_digest(config: dict) -> str:
    """sha256 of a scenario config, as the trace header and `xpay run --report` name it."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class TraceMeta:
    """Scenario facts the checkers need, resolved once per run and shared by
    every trace of it; what else the header shows is read from the trace's
    scenario."""
    variant: str
    n: int
    amount: int
    instance: str
    compliant: frozenset[ParticipantId]
    params: object  # TimingParams
    horizon: Fraction
    initial_balances: dict[ParticipantId, int]
    clock_rates: dict[ParticipantId, Fraction]
    patience: Optional[tuple] = None


TIE_BREAKS = ("receive_first", "timeout_first")
RX_ORDERS = ("declared", "reversed")
# the scheduler's policies, (tie_break, rx_order); bit k of a run's mask is POLICIES[k]
POLICIES = tuple(itertools.product(TIE_BREAKS, RX_ORDERS))
EVERY_POLICY = (1 << len(POLICIES)) - 1  # a run's tie mask while no tie has split the policies

STOP_ALL_TERMINAL = "all_compliant_terminal"
STOP_QUEUE_EMPTY = "queue_empty"
STOP_HORIZON = "horizon_exceeded"


@dataclass
class Trace:
    meta: TraceMeta
    entries: list[TraceEntry] = field(default_factory=list)
    stop_reason: str = STOP_QUEUE_EMPTY
    final_balances: dict[ParticipantId, int] = field(default_factory=dict)
    final_in_flight: int = 0
    mask: int = EVERY_POLICY  # bit k: `POLICIES[k]` chose as this run at every tie
    # what the header's scenario digest, seed, policy and strategy labels are
    # taken from: the scenario the run was made from, and its delay model's
    # `to_config()` when the run ended
    scenario: object = None  # Scenario
    delay_config: Optional[dict] = None

    @property
    def had_tie(self) -> bool:
        """Some instant offered the scheduler a real choice: every tie splits the policies."""
        return self.mask != EVERY_POLICY

    def participants(self) -> list[ParticipantId]:
        return sorted(self.meta.initial_balances)

    @cached_property
    def digest(self) -> str:
        """sha256 of the scenario the run was made from, taken on first use
        (only a rendered header shows it), with the delay model as it stood
        when the run ended."""
        return config_digest({**self.scenario.config_dict(), "delay_model": self.delay_config})

    def net_change(self, p: ParticipantId, upto: Optional[int] = None) -> int:
        """Balance change of `p` over the entry prefix [0, upto] (whole trace if None)."""
        net = 0
        for idx, e in enumerate(self.entries):
            if upto is not None and idx > upto:
                break
            if e.rec is TRANSFERRED:
                if e.phase == "sent" and e.frm == p:
                    net -= e.amount
                elif e.phase == "received" and e.to == p:
                    net += e.amount
        return net

    def terminal_entry(self, p: ParticipantId) -> Optional[tuple[int, TraceEntry]]:
        for idx, e in enumerate(self.entries):
            if e.rec is TERMINAL_REACHED and e.participant == p:
                return idx, e
        return None

    def header_lines(self) -> list[str]:
        m = self.meta
        sc = self.scenario
        lines = [
            "# xpay-trace v1",
            f"# scenario sha256={self.digest}",
            f"# run variant={m.variant} n={m.n} amount={m.amount} instance={m.instance} "
            f"seed={sc.seed} horizon={fmt_fraction(m.horizon)} tie_break={sc.tie_break} "
            f"rx_order={sc.rx_order}",
        ]
        for p in self.participants():
            spec = sc.byzantine.get(p)
            byz = "-" if spec is None else spec.label()
            lines.append(
                f"# participant p={p} clock={fmt_fraction(m.clock_rates[p])} "
                f"byz={byz} balance={m.initial_balances[p]}"
            )
        lines.append(f"# stop reason={self.stop_reason} entries={len(self.entries)}")
        return lines

    def render(self) -> str:
        return "\n".join(self.header_lines() + format_lines(self.entries)) + "\n"
