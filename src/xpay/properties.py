"""Verdicts over traces, decided online.

Every checker of the paper's clauses is part of one monitor (`Monitor`): a
small state fed the trace one entry at a time, a synthesised safety monitor in
the sense of Havelund and Roşu (TACAS 2002). The state can be copied at any
point, so a caller that branches a run (the explorer) forks the monitor with
the run and feeds each branch only the entries that branch simulates.
`evaluate_all` and `safety_verdicts` are folds of the monitor over a whole
trace, so each check has one implementation.

Conditional clauses are evaluated only when their named participants are
compliant ("provided her escrows abide"); a clause whose precondition never
applies comes back VACUOUS. Violations always carry a witness: the indices of
the trace entries that substantiate them, minimal enough that replaying just
the witness-relevant participants' entries re-triggers the same verdict.

"Got her money back" is interpreted as net balance change >= 0 at the
participant's termination entry (exact refund equals net zero with uniform
amounts; commissions are out of scope). "Upon termination" clauses are
evaluated at each participant's terminal entry; participants that never
terminate leave the clause vacuous, except where termination itself is the
property under check.

Checking costs one pass over the entries, each entry fed once. C, ES, CONS,
AUTH and CC are decided as the entries arrive, and their witnesses build up
with them. CONS watches only for a balance or the in-flight value going
negative: each transfer moves one amount between the two, so their total
holds. For T, L and CS1-3 the monitor keeps each customer's first terminal
entry, its time, the customer's net balance change there and whether it held
the certificate the clause asks about; those clauses are decided from these
facts when the run is over, and only a violation reads the trace again, to
list the participant's entries as its witness. Copying the monitor copies a
few small dicts and sets. The escrow promises (`check_promises`) stay a batch
check over the finished trace: they compare local times per escrow, only
`validate_timeouts` reads them, and exploration does not check them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    AbortCert,
    Certificate,
    CommitCert,
    CommitReq,
    Money,
    ParticipantId,
    Promise,
    SignedMessage,
    as_positive,
    customer,
    escrow,
    escrows_of,
    manager,
    verify,
)
from .timing import termination_bound
from .trace import (DELIVERED, IMPOSSIBLE_STEP, SENT, STATE_ENTERED, TERMINAL_REACHED, TRANSFERRED,
                    Trace, TraceEntry, TraceMeta)


class Status(Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    VACUOUS = "VACUOUS"


# Status's members as globals: a read off the class takes `EnumType.__getattr__`
HOLDS, VIOLATED, VACUOUS = Status


@dataclass(frozen=True)
class Verdict:
    """One clause's verdict on one trace. It is immutable: a verdict without a
    witness is one of the module's shared objects (`_HOLDS`, `_VACUOUS` and the
    VACUOUS ones with a fixed detail), whose `witness` stays empty."""
    name: str
    status: Status
    witness: list[int] = field(default_factory=list)
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status is not VIOLATED

    def line(self) -> str:
        out = f"{self.name}: {self.status.value}"
        if self.detail:
            out += f" ({self.detail})"
        if self.status is VIOLATED and self.witness:
            out += f" witness={self.witness}"
        return out


_NAMES = ("C", "T", "ES", "CS1", "CS2", "CS3", "L", "CC", "CONS", "AUTH", "G_PROMISE", "P_PROMISE")
_HOLDS = {name: Verdict(name, HOLDS) for name in _NAMES}
_VACUOUS = {name: Verdict(name, VACUOUS) for name in _NAMES}
_ALICE_NEVER_TERMINAL = Verdict("CS1", VACUOUS, detail="alice never terminal")
_BOB_NEVER_TERMINAL = Verdict("CS2", VACUOUS, detail="bob never terminal")
_BYZANTINE_PRESENT = Verdict("L", VACUOUS, detail="byzantine participants present")
_PATIENCE_INSUFFICIENT = Verdict("L", VACUOUS, detail="patience declared insufficient")


# ------------------------------------------------------------------ trace helpers

def _is_certificate(msg: SignedMessage, meta: TraceMeta, kind: type = Certificate) -> bool:
    """Is `msg` a verified `kind` certificate of this payment? Bob signs the
    payment certificate; the manager signs the commit and abort certificates."""
    signer = customer(meta.n) if kind is Certificate else manager()
    return (isinstance(msg.payload, kind)
            and msg.payload.instance == meta.instance
            and verify(msg, signer))


def _own_certificate(msg: SignedMessage, meta: TraceMeta) -> bool:
    """Does this message of Bob's put his own payment certificate on the wire?"""
    if isinstance(msg.payload, CommitReq):  # the weak variant's Bob sends it inside his request
        return _is_certificate(msg.payload.certificate, meta)
    return _is_certificate(msg, meta)


def _entries_of(trace: Trace, p: ParticipantId) -> list[int]:
    """The indices of `p`'s entries: the witness of a clause about all `p` did."""
    return [idx for idx, e in enumerate(trace.entries) if e.participant == p]


def _verdict(name: str, evaluated: int, witness: list[int], detail: str = "") -> Verdict:
    """VIOLATED if the check found a violation (a witness or a detail), else
    the shared HOLDS verdict of `name`, or VACUOUS if nothing was evaluated."""
    if witness or detail:
        return Verdict(name, VIOLATED, witness, detail)
    return (_HOLDS if evaluated else _VACUOUS)[name]


# ----------------------------------------------------------------------- monitor

# the participants whose entries the monitor reads beyond money and messages
_ALICE, _CONNECTOR, _BOB, _MANAGER = range(4)


class _Terminal(NamedTuple):
    """A customer's first terminal entry, as the monitor saw it."""
    idx: int
    # the entry's instant, tick/scale: terminal times are compared with each
    # other and with bounds by cross-multiplying, since runs differ in scale
    tick: int
    scale: int
    net: int  # the customer's net balance change up to the entry
    certified: bool  # Alice: her certificate had reached her; Bob: see `Monitor.feed`


class Monitor:
    """The online state of every clause's check over one trace.

    `feed` takes in the entries appended since the last feed; `copy` forks the
    state, so a run that is branched can have its check branched with it;
    `projection` is the state less the entry indices it holds. The
    verdict methods read the state once the last entry is in; those whose
    witness lists a participant's entries also take the trace.
    """

    def __init__(self, meta: TraceMeta):
        n = meta.n
        self.meta = meta
        # what does not change during the run; copies share it
        self._roles = {customer(k): _CONNECTOR for k in range(1, n)}
        self._roles.update({customer(0): _ALICE, customer(n): _BOB, manager(): _MANAGER})
        self._weak = meta.variant == "weak"
        self._alice_certificate = CommitCert if self._weak else Certificate
        compliant = meta.compliant
        self._escrows = {escrow(i): i for i in range(n) if escrow(i) in compliant}
        # the customers that are compliant, with every escrow they hold accounts
        # at, by index: the clauses about a customer are checked for these only
        self._guarded = {c: k for k, c in enumerate(map(customer, range(n + 1)))
                         if c in compliant and all(e in compliant for e in escrows_of(n, c))}
        self._connectors = [c for c, k in self._guarded.items() if 0 < k < n]
        # the state; `copy` copies each dict and set, the tuples grow by replacement
        self.fed = 0  # entries taken in
        self.net: dict[ParticipantId, int] = {}  # net balance change per participant
        self.in_flight = 0
        self.sent: set = set()  # (signer, nonce, payload) of each message sent
        self.seen: set = set()  # (recipient, (signer, nonce, payload)) of each delivery
        self.terminal: dict[ParticipantId, _Terminal] = {}  # per customer that terminated
        self.engaged: set = set()  # customers that sent money or Bob's certificate
        self.impossible: tuple[int, ...] = ()  # C: impossible steps of compliant participants
        self.dips: tuple = ()  # ES: (escrow index, entry, detail), each compliant escrow's first dip
        self.auth: tuple = ()  # AUTH: (entry, detail) per violation
        self.cons: Optional[tuple[int, str]] = None  # CONS: the first violation
        self.alice_certified = False  # the certificate of CS1 has reached Alice
        self.bob_signed = False  # Bob has sent his own certificate
        self.bob_aborted = False  # the abort certificate has reached Bob
        self.commit_at: Optional[int] = None  # the manager's first commit certificate sent
        self.abort_at: Optional[int] = None  # and its first abort certificate

    def copy(self) -> "Monitor":
        """An independent copy: feeding one leaves the other as it was."""
        other = object.__new__(Monitor)
        other.__dict__.update(self.__dict__)
        other.net = dict(self.net)
        other.sent = set(self.sent)
        other.seen = set(self.seen)
        other.terminal = dict(self.terminal)
        other.engaged = set(self.engaged)
        return other

    def projection(self) -> tuple:
        """The state as a hashable value, less its entry indices: two monitors
        with the same projection, fed the same entries from here on, give the
        same verdict statuses and details, and differ at most in the entries
        their witnesses name. A record made of indices keeps only how many
        there are."""
        return (
            frozenset(self.net.items()), self.in_flight, frozenset(self.sent),
            frozenset(self.seen),
            # a terminal record less its first field, the entry's index
            frozenset([(p, hit[1:]) for p, hit in self.terminal.items()]),
            frozenset(self.engaged), len(self.impossible),
            tuple([(i, detail) for i, _, detail in self.dips]),
            tuple([detail for _, detail in self.auth]),
            None if self.cons is None else self.cons[1],
            self.alice_certified, self.bob_signed, self.bob_aborted,
            self.commit_at is not None, self.abort_at is not None,
        )

    def feed(self, entries: list[TraceEntry]) -> None:
        """Take in `entries[self.fed:]`: `entries` is the run so far, and the
        monitor reads only the entries appended since the last feed.

        A customer's terminal record notes whether it was certified: Alice, if
        the certificate CS1 asks about (the commit certificate in the weak
        variant) had reached her; Bob, if he had sent his own certificate
        (strong) or the abort certificate had reached him (weak).
        """
        meta = self.meta
        roles = self._roles
        net, sent, seen, terminal = self.net, self.sent, self.seen, self.terminal
        end = len(entries)
        for idx in range(self.fed, end):
            e = entries[idx]
            rec = e.rec
            if rec is STATE_ENTERED:
                continue
            p = e.participant
            if rec is SENT:
                msg = e.env.msg
                key = (msg.signer, msg.nonce, msg.payload)
                sent.add(key)
                if msg.signer != p and (p, key) not in seen:
                    self.auth += ((idx, f"{p} emitted {msg.token()} it never observed"),)
                role = roles.get(p)
                if role is None:
                    continue
                payload = msg.payload
                if role == _MANAGER:
                    if isinstance(payload, CommitCert):
                        if self.commit_at is None:
                            self.commit_at = idx
                    elif isinstance(payload, AbortCert) and self.abort_at is None:
                        self.abort_at = idx
                elif isinstance(payload, Money):
                    self.engaged.add(p)
                elif role == _BOB and not self.bob_signed and _own_certificate(msg, meta):
                    self.bob_signed = True
                    self.engaged.add(p)
            elif rec is DELIVERED:
                msg = e.env.msg
                key = (msg.signer, msg.nonce, msg.payload)
                if key not in sent:
                    self.auth += ((idx, f"{msg.token()} delivered without a matching send"),)
                seen.add((p, key))
                role = roles.get(p)
                if role == _ALICE:
                    if not self.alice_certified and _is_certificate(
                            msg, meta, self._alice_certificate):
                        self.alice_certified = True
                elif role == _BOB and not self.bob_aborted and _is_certificate(
                        msg, meta, AbortCert):
                    self.bob_aborted = True
            elif rec is TRANSFERRED:
                amount = e.amount
                if e.phase == "sent":
                    frm = e.frm
                    left = net[frm] = net.get(frm, 0) - amount
                    self.in_flight += amount
                    if left < 0 and frm in self._escrows:
                        i = self._escrows[frm]
                        if all(dip[0] != i for dip in self.dips):
                            self.dips += ((i, idx, f"{frm} below initial balance at t={e.t}"),)
                    if self.cons is None and meta.initial_balances.get(frm, 0) + left < 0:
                        self.cons = (idx, f"{frm} went negative")
                else:
                    to = e.to
                    self.in_flight -= amount
                    net[to] = net.get(to, 0) + amount
                    if self.cons is None and self.in_flight < 0:
                        self.cons = (idx, "in-flight value went negative")
            elif rec is TERMINAL_REACHED:
                role = roles.get(p)
                if role is None or role == _MANAGER or p in terminal:
                    continue
                if role == _ALICE:
                    certified = self.alice_certified
                elif role == _BOB:
                    certified = self.bob_aborted if self._weak else self.bob_signed
                else:
                    certified = False
                terminal[p] = _Terminal(idx, e.tick, e.base.scale, net.get(p, 0), certified)
            elif rec is IMPOSSIBLE_STEP and p in meta.compliant:
                self.impossible += (idx,)
        self.fed = end

    # -- facts at the end of the run ----------------------------------------------

    def bob_paid(self) -> bool:
        """Bob reached a terminal state at least the payment amount richer."""
        hit = self.terminal.get(customer(self.meta.n))
        return hit is not None and hit.net >= self.meta.amount

    def terminal_times(self) -> list[Fraction]:
        """When each customer first reached a terminal state, in customer order;
        a customer that never did is left out."""
        return [Fraction(hit.tick, hit.scale) for _, hit in sorted(self.terminal.items())]

    # -- verdicts ---------------------------------------------------------------

    def consistency(self) -> Verdict:
        """C: no compliant participant ever hit an impossible prescribed step."""
        if self.impossible:
            return Verdict("C", VIOLATED, list(self.impossible), "impossible prescribed step")
        return _HOLDS["C"]

    def termination(self, trace: Trace, bound=None) -> Verdict:
        """T: customers finish in time.

        Strong traces are time-bounded: every compliant customer that made a
        payment or issued a certificate, and whose escrows are compliant,
        reaches a terminal state within `bound` (by default the derived
        termination bound) of scenario start. Weak traces are eventual: every
        compliant customer with compliant escrows terminates within the
        horizon; customers who chose unbounded patience are exempt when no
        decision was ever issued. A `bound` given must be an exact time
        strictly greater than 0, whichever the variant.
        """
        meta = self.meta
        if bound is not None:
            bound = as_positive(bound, "termination bound")
        if self._weak:  # eventual: by the horizon
            limit = meta.horizon
        else:
            limit = termination_bound(meta.params) if bound is None else bound
        num, den = limit.numerator, limit.denominator
        decision_issued = self._weak and (self.commit_at is not None or self.abort_at is not None)

        evaluated = 0
        violations: list[int] = []
        details = []
        for c, k in self._guarded.items():
            if self._weak:
                patience = meta.patience[k] if meta.patience else None
                if patience is None and not decision_issued:
                    continue  # waiting forever was this customer's own choice
            elif c not in self.engaged:
                continue
            evaluated += 1
            hit = self.terminal.get(c)
            if hit is None:
                violations.extend(_entries_of(trace, c))
                details.append(f"{c} never terminal")
            elif hit.tick * den > num * hit.scale:
                violations.append(hit.idx)
                details.append(f"{c} terminal at t={Fraction(hit.tick, hit.scale)} > {limit}")
        # a customer with no entry at all still violates T, with no witness
        return _verdict("T", evaluated, violations, "; ".join(details))

    def escrow_security(self) -> Verdict:
        """ES: no compliant escrow ever dips below its initial balance."""
        dips = sorted(self.dips)
        violations = [idx for _, idx, _ in dips]
        return _verdict("ES", len(self._escrows), violations,
                        "; ".join(detail for _, _, detail in dips))

    def customer_security(self, trace: Trace) -> tuple[Verdict, Verdict, Verdict]:
        """CS1, CS2 and CS3, strong or weak wording per the trace variant.

        CS1 (Alice, her escrow compliant, at her termination): money back, or the
        certificate (strong) / the commit certificate (weak).
        CS2 (Bob, his escrow compliant, at his termination): the money, or no
        certificate issued (strong) / the abort certificate received (weak).
        CS3 (each connector with both her escrows compliant, at her termination):
        money back.
        """
        meta = self.meta
        alice = customer(0)
        bob = customer(meta.n)

        if alice in self._guarded:
            hit = self.terminal.get(alice)
            if hit is None:
                cs1 = _ALICE_NEVER_TERMINAL
            elif hit.net >= 0 or hit.certified:
                cs1 = _HOLDS["CS1"]
            else:
                cs1 = Verdict("CS1", VIOLATED, _entries_of(trace, alice),
                              "alice lost value without the certificate")
        else:
            cs1 = _VACUOUS["CS1"]

        if bob in self._guarded:
            hit = self.terminal.get(bob)
            if hit is None:
                cs2 = _BOB_NEVER_TERMINAL
            else:
                got_money = hit.net >= meta.amount
                if self._weak:
                    ok = got_money or hit.certified
                    why = "bob has neither the money nor the abort certificate"
                else:
                    ok = got_money or not hit.certified
                    why = "bob issued the certificate but was not paid"
                if ok:
                    cs2 = _HOLDS["CS2"]
                else:
                    cs2 = Verdict("CS2", VIOLATED, _entries_of(trace, bob), why)
        else:
            cs2 = _VACUOUS["CS2"]

        evaluated = 0
        violations: list[int] = []
        details = []
        for c in self._connectors:
            hit = self.terminal.get(c)
            if hit is None:
                continue
            evaluated += 1
            if hit.net < 0:
                violations.extend(_entries_of(trace, c))
                details.append(f"{c} terminated below her starting balance")
        cs3 = _verdict("CS3", evaluated, violations, "; ".join(details))
        return cs1, cs2, cs3

    def liveness(self, trace: Trace) -> Verdict:
        """L; see `check_liveness`."""
        meta = self.meta
        if len(meta.compliant) != len(meta.initial_balances):
            return _BYZANTINE_PRESENT
        # a weak customer with finite patience may give up before the payment lands
        if self._weak and any(p is not None for p in meta.patience or ()):
            return _PATIENCE_INSUFFICIENT
        if self.bob_paid():
            return _HOLDS["L"]
        return Verdict("L", VIOLATED, _entries_of(trace, customer(meta.n)), "bob was not paid")

    def certificate_consistency(self) -> Verdict:
        """CC (weak variant): the manager never issues both certificate kinds."""
        if self.commit_at is not None and self.abort_at is not None:
            return Verdict("CC", VIOLATED, sorted((self.commit_at, self.abort_at)),
                           "both certificate kinds issued")
        return _HOLDS["CC"]

    def conservation(self) -> Verdict:
        """CONS: no balance and no in-flight value ever goes negative; their
        total cannot change, as each transfer moves its amount between them."""
        if self.cons is not None:
            idx, detail = self.cons
            return Verdict("CONS", VIOLATED, [idx], detail)
        return _HOLDS["CONS"]

    def authentication(self) -> Verdict:
        """AUTH: every message on the wire is either signed by its transmitter or
        a replay of a message the transmitter had already observed; every
        verified delivery has a matching send. Byzantine containment,
        re-derived from the trace alone."""
        if self.auth:
            return Verdict("AUTH", VIOLATED, [idx for idx, _ in self.auth],
                           "; ".join(detail for _, detail in self.auth))
        return _HOLDS["AUTH"]


def fold(trace: Trace, monitor: Optional[Monitor] = None) -> Monitor:
    """`monitor` fed the entries of `trace` it has not taken in yet; without
    one, a new monitor fed the whole trace."""
    if monitor is None:
        monitor = Monitor(trace.meta)
    monitor.feed(trace.entries)
    return monitor


# ---------------------------------------------------------------------- checkers

def check_liveness(trace: Trace, monitor: Optional[Monitor] = None) -> Verdict:
    """Bob is paid eventually, contingent on everybody abiding (and, weak mode,
    on the customers having waited long enough). `monitor`, if given, has
    taken in a prefix of the trace."""
    return fold(trace, monitor).liveness(trace)


def check_promises(trace: Trace) -> list[Verdict]:
    """The two escrow promises, replayed against the trace timestamps.

    Resolution promise: if a compliant escrow received the deposit at its local
    time w, it sent the depositor money or the certificate by local w + d_i.
    Payment promise: if a verified certificate reached it at local v within the
    acceptance window, it sent the downstream payment by local v + epsilon.
    """
    meta = trace.meta
    params = meta.params
    own: dict[ParticipantId, list[int]] = {escrow(i): [] for i in range(meta.n)}
    for idx, entry in enumerate(trace.entries):
        mine = own.get(entry.participant)
        if mine is not None:
            mine.append(idx)
    g_eval = 0
    g_viol: list[int] = []
    p_eval = 0
    p_viol: list[int] = []
    for i in range(meta.n):
        e = escrow(i)
        if e not in meta.compliant:
            continue
        up = customer(i)
        down = customer(i + 1)
        deposit_local = None
        promise_local = None
        chi_local = None
        resolved_up = None
        paid_down = None
        for idx in own[e]:
            entry = trace.entries[idx]
            if (entry.rec is DELIVERED and deposit_local is None
                    and entry.env.src == up and isinstance(entry.env.msg.payload, Money)):
                deposit_local = entry.local
            elif entry.rec is SENT:
                payload = entry.env.msg.payload
                if entry.env.dst == down and isinstance(payload, Promise):
                    if promise_local is None:
                        promise_local = entry.local
                elif entry.env.dst == up and (isinstance(payload, Money)
                                              or _is_certificate(entry.env.msg, meta)):
                    if resolved_up is None:
                        resolved_up = (idx, entry.local)
                elif entry.env.dst == down and isinstance(payload, Money):
                    if paid_down is None:
                        paid_down = (idx, entry.local)
            elif (entry.rec is DELIVERED and chi_local is None
                    and entry.env.src == down and _is_certificate(entry.env.msg, meta)):
                chi_local = entry.local
        if deposit_local is not None:
            g_eval += 1
            deadline = deposit_local + params.d[i]
            if resolved_up is None or resolved_up[1] > deadline:
                g_viol.extend(own[e])
        if promise_local is not None and chi_local is not None and chi_local < promise_local + params.a[i]:
            # a certificate that raced ahead of the promise counts as received
            # the instant the promise (and with it the obligation) came to be
            v_eff = max(chi_local, promise_local)
            p_eval += 1
            deadline = v_eff + params.epsilon
            if paid_down is None or paid_down[1] > deadline:
                p_viol.extend(own[e])
    return [
        _verdict("G_PROMISE", g_eval, g_viol),
        _verdict("P_PROMISE", p_eval, p_viol),
    ]


def evaluate_all(trace: Trace, bound=None) -> list[Verdict]:
    """Every verdict for the trace, in report order: C, T, ES, CS1-3, L, CC
    (weak traces only), CONS, AUTH."""
    monitor = fold(trace)
    cs1, cs2, cs3 = monitor.customer_security(trace)
    verdicts = [
        monitor.consistency(),
        monitor.termination(trace, bound),
        monitor.escrow_security(),
        cs1,
        cs2,
        cs3,
        monitor.liveness(trace),
    ]
    if trace.meta.variant == "weak":
        verdicts.append(monitor.certificate_consistency())
    verdicts.append(monitor.conservation())
    verdicts.append(monitor.authentication())
    return verdicts


def safety_verdicts(trace: Trace, monitor: Optional[Monitor] = None) -> list[Verdict]:
    """The unconditional-safety subset used by exhaustive exploration.
    `monitor`, if given, has taken in a prefix of the trace; it is fed the rest."""
    monitor = fold(trace, monitor)
    verdicts = [
        monitor.consistency(),
        monitor.escrow_security(),
        *monitor.customer_security(trace),
        monitor.conservation(),
        monitor.authentication(),
    ]
    if trace.meta.variant == "weak":
        verdicts.append(monitor.certificate_consistency())
    return verdicts


def tally(counts: dict[str, dict[str, int]], verdicts: list[Verdict]) -> bool:
    """Add each verdict to its property's pass/vacuous/fail count in `counts`;
    True if any verdict is a violation."""
    violated = False
    for v in verdicts:
        per = counts.get(v.name)
        if per is None:
            per = counts[v.name] = {"pass": 0, "vacuous": 0, "fail": 0}
        if v.status is VIOLATED:
            per["fail"] += 1
            violated = True
        elif v.status is VACUOUS:
            per["vacuous"] += 1
        else:
            per["pass"] += 1
    return violated
