"""Verdicts over completed traces.

Each checker is a pure function of the trace. Conditional clauses are
evaluated only when their named participants are compliant ("provided her
escrows abide"); a clause whose precondition never applies comes back VACUOUS.
Violations always carry a witness: the indices of the trace entries that
substantiate them, minimal enough that replaying just the witness-relevant
participants' entries re-triggers the same verdict.

"Got her money back" is interpreted as net balance change >= 0 at the
participant's termination entry (exact refund equals net zero with uniform
amounts; commissions are out of scope). "Upon termination" clauses are
evaluated at each participant's terminal entry; participants that never
terminate leave the clause vacuous, except where termination itself is the
property under check.

Checking costs one pass over the entries to build the trace's shared index
(`Trace.index`: each participant's entries and balance moves), plus one pass
each for the checkers that must see every entry (C, CONS, AUTH). Every other
query reads only the entries of the participant it is about. Traces are
read-only once built: the index is cached on the trace and never rebuilt.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .core import (
    AbortCert,
    Certificate,
    CommitCert,
    CommitReq,
    Money,
    ParticipantId,
    Promise,
    as_fraction,
    customer,
    escrow,
    escrows_of,
    manager,
    verify,
)
from .trace import Rec, Trace, TraceEntry


class Status(Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    VACUOUS = "VACUOUS"
    INAPPLICABLE = "INAPPLICABLE"


@dataclass
class Verdict:
    name: str
    status: Status
    witness: list[int] = field(default_factory=list)
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status is not Status.VIOLATED

    def line(self) -> str:
        out = f"{self.name}: {self.status.value}"
        if self.detail:
            out += f" ({self.detail})"
        if self.status is Status.VIOLATED and self.witness:
            out += f" witness={self.witness}"
        return out


# ------------------------------------------------------------------ trace helpers

def _is_certificate(msg, trace: Trace, kind: type = Certificate) -> bool:
    """Is `msg` a verified `kind` certificate of this payment? Bob signs the
    payment certificate; the manager signs the commit and abort certificates."""
    signer = customer(trace.meta.n) if kind is Certificate else manager()
    return (isinstance(msg.payload, kind)
            and msg.payload.instance == trace.meta.instance
            and verify(msg, signer))


def _sends_own_certificate(e: TraceEntry, trace: Trace) -> bool:
    """Did this entry put the sender's own payment certificate on the wire?"""
    if e.rec is not Rec.SENT or e.participant != customer(trace.meta.n):
        return False
    msg = e.env.msg
    if isinstance(msg.payload, CommitReq):  # the weak variant's Bob sends it inside his request
        return _is_certificate(msg.payload.certificate, trace)
    return _is_certificate(msg, trace)


def _delivers(kind: type) -> Callable[[TraceEntry, Trace], bool]:
    """Matches the delivery of a verified `kind` certificate of this payment."""
    return lambda e, trace: e.rec is Rec.DELIVERED and _is_certificate(e.env.msg, trace, kind)


def _issues_decision(e: TraceEntry, trace: Trace) -> bool:
    return e.rec is Rec.SENT and isinstance(e.env.msg.payload, (AbortCert, CommitCert))


def _first(trace: Trace, p: ParticipantId, match: Callable[[TraceEntry, Trace], bool],
           upto: Optional[int] = None) -> Optional[int]:
    """Index of `p`'s first entry, at or before `upto` (whole trace if None), that matches."""
    for idx in trace.index.entries[p]:
        if upto is not None and idx > upto:
            break
        if match(trace.entries[idx], trace):
            return idx
    return None


def _compliant(trace: Trace, p: ParticipantId) -> bool:
    return p in trace.meta.compliant


def _summarize(evaluated: int, violations: list[int]) -> Status:
    if violations:
        return Status.VIOLATED
    return Status.HOLDS if evaluated else Status.VACUOUS


# ---------------------------------------------------------------------- checkers

def check_consistency(trace: Trace) -> Verdict:
    """No compliant participant ever hit an impossible prescribed step."""
    witness = [i for i, e in enumerate(trace.entries)
               if e.rec is Rec.IMPOSSIBLE_STEP and _compliant(trace, e.participant)]
    if witness:
        return Verdict("C", Status.VIOLATED, witness, "impossible prescribed step")
    return Verdict("C", Status.HOLDS)


EVENTUAL = "eventual"


def check_termination(trace: Trace, bound=None) -> Verdict:
    """Customers finish in time.

    Time-bounded mode (the default for strong traces): every compliant customer
    that made a payment or issued a certificate, and whose escrows are
    compliant, reaches a terminal state within `bound` of scenario start.
    Eventual mode (weak traces, or bound=EVENTUAL): every compliant customer
    with compliant escrows terminates within the horizon; customers who chose
    unbounded patience are exempt when no decision was ever issued.
    """
    meta = trace.meta
    eventual = meta.variant == "weak" or bound == EVENTUAL
    if eventual:
        limit = meta.horizon
    else:
        if bound is None:
            from .timing import termination_bound
            limit = termination_bound(meta.params)
        else:
            limit = as_fraction(bound, "termination bound")

    decision_issued = eventual and _first(trace, manager(), _issues_decision) is not None

    evaluated = 0
    violations: list[int] = []
    details = []
    for k in range(meta.n + 1):
        c = customer(k)
        if not _compliant(trace, c):
            continue
        if any(not _compliant(trace, e) for e in escrows_of(meta.n, c)):
            continue
        if eventual:
            patience = meta.patience[k] if meta.patience else None
            if patience is None and not decision_issued:
                continue  # waiting forever was this customer's own choice
        else:
            engaged = _first(trace, c, lambda e, t: (e.rec is Rec.SENT and isinstance(
                e.env.msg.payload, Money)) or _sends_own_certificate(e, t))
            if engaged is None:
                continue
        evaluated += 1
        hit = trace.terminal_entry(c)
        if hit is None:
            violations.extend(trace.index.entries[c])
            details.append(f"{c} never terminal")
        elif hit[1].t > limit:
            violations.append(hit[0])
            details.append(f"{c} terminal at t={hit[1].t} > {limit}")
    return Verdict("T", _summarize(evaluated, violations), violations, "; ".join(details))


def check_escrow_security(trace: Trace) -> Verdict:
    """No compliant escrow ever dips below its initial balance, and ends at or above it."""
    evaluated = 0
    violations: list[int] = []
    details = []
    for i in range(trace.meta.n):
        e = escrow(i)
        if not _compliant(trace, e):
            continue
        evaluated += 1
        net = 0
        for idx, amount in trace.index.transfers[e]:
            net += amount
            if net < 0:
                violations.append(idx)
                details.append(f"{e} below initial balance at t={trace.entries[idx].t}")
                break
    return Verdict("ES", _summarize(evaluated, violations), violations, "; ".join(details))


@dataclass
class CustomerSecurity:
    cs1: Verdict
    cs2: Verdict
    cs3: Verdict

    def all(self) -> list[Verdict]:
        return [self.cs1, self.cs2, self.cs3]


def check_customer_security(trace: Trace) -> CustomerSecurity:
    """The three per-role safety clauses, strong or weak wording per the trace variant.

    CS1 (Alice, her escrow compliant, at her termination): money back, or the
    certificate (strong) / the commit certificate (weak).
    CS2 (Bob, his escrow compliant, at his termination): the money, or no
    certificate issued (strong) / the abort certificate received (weak).
    CS3 (each connector with both her escrows compliant, at her termination):
    money back.
    """
    meta = trace.meta
    weak = meta.variant == "weak"
    alice = customer(0)
    bob = customer(meta.n)

    # CS1
    if _compliant(trace, alice) and _compliant(trace, escrow(0)):
        hit = trace.terminal_entry(alice)
        if hit is None:
            cs1 = Verdict("CS1", Status.VACUOUS, detail="alice never terminal")
        else:
            idx, _ = hit
            money_back = trace.net_change(alice, upto=idx) >= 0
            got_cert = _first(trace, alice, _delivers(CommitCert if weak else Certificate), idx)
            if money_back or got_cert is not None:
                cs1 = Verdict("CS1", Status.HOLDS)
            else:
                cs1 = Verdict("CS1", Status.VIOLATED, list(trace.index.entries[alice]),
                              "alice lost value without the certificate")
    else:
        cs1 = Verdict("CS1", Status.VACUOUS)

    # CS2
    if _compliant(trace, bob) and _compliant(trace, escrow(meta.n - 1)):
        hit = trace.terminal_entry(bob)
        if hit is None:
            cs2 = Verdict("CS2", Status.VACUOUS, detail="bob never terminal")
        else:
            idx, _ = hit
            got_money = trace.net_change(bob, upto=idx) >= meta.amount
            if weak:
                ok = got_money or _first(trace, bob, _delivers(AbortCert), idx) is not None
                why = "bob has neither the money nor the abort certificate"
            else:
                ok = got_money or _first(trace, bob, _sends_own_certificate, idx) is None
                why = "bob issued the certificate but was not paid"
            if ok:
                cs2 = Verdict("CS2", Status.HOLDS)
            else:
                cs2 = Verdict("CS2", Status.VIOLATED, list(trace.index.entries[bob]), why)
    else:
        cs2 = Verdict("CS2", Status.VACUOUS)

    # CS3
    evaluated = 0
    violations: list[int] = []
    details = []
    for k in range(1, meta.n):
        c = customer(k)
        if not _compliant(trace, c):
            continue
        if any(not _compliant(trace, e) for e in escrows_of(meta.n, c)):
            continue
        hit = trace.terminal_entry(c)
        if hit is None:
            continue
        evaluated += 1
        if trace.net_change(c, upto=hit[0]) < 0:
            violations.extend(trace.index.entries[c])
            details.append(f"{c} terminated below her starting balance")
    cs3 = Verdict("CS3", _summarize(evaluated, violations), violations, "; ".join(details))
    return CustomerSecurity(cs1, cs2, cs3)


def check_liveness(trace: Trace) -> Verdict:
    """Bob is paid eventually, contingent on everybody abiding (and, weak mode,
    on the customers having waited long enough)."""
    meta = trace.meta
    if len(meta.compliant) != len(meta.initial_balances):
        return Verdict("L", Status.VACUOUS, detail="byzantine participants present")
    if meta.variant == "weak" and not meta.patience_sufficient:
        return Verdict("L", Status.VACUOUS, detail="patience declared insufficient")
    if bob_paid(trace):
        return Verdict("L", Status.HOLDS)
    return Verdict("L", Status.VIOLATED, list(trace.index.entries[customer(meta.n)]),
                   "bob was not paid")


def bob_paid(trace: Trace) -> bool:
    """Bob reached a terminal state at least the payment amount richer."""
    bob = customer(trace.meta.n)
    hit = trace.terminal_entry(bob)
    return hit is not None and trace.net_change(bob, upto=hit[0]) >= trace.meta.amount


def check_certificate_consistency(trace: Trace) -> Verdict:
    """Weak variant only: the manager never issues both certificate kinds."""
    if trace.meta.variant != "weak":
        return Verdict("CC", Status.INAPPLICABLE)
    kinds: dict[str, int] = {}
    for idx in trace.index.entries[manager()]:
        e = trace.entries[idx]
        if _issues_decision(e, trace):
            kinds.setdefault(type(e.env.msg.payload).__name__, idx)
    if len(kinds) > 1:
        return Verdict("CC", Status.VIOLATED, sorted(kinds.values()),
                       "both certificate kinds issued")
    return Verdict("CC", Status.HOLDS)


def check_conservation(trace: Trace) -> Verdict:
    """At every prefix, balances plus in-flight value sum to the initial total,
    and nothing ever goes negative."""
    balances = dict(trace.meta.initial_balances)
    in_flight = 0
    expected = sum(balances.values())
    for idx, e in enumerate(trace.entries):
        if e.rec is not Rec.TRANSFERRED:
            continue
        if e.phase == "sent":
            balances[e.frm] = balances.get(e.frm, 0) - e.amount
            in_flight += e.amount
            if balances[e.frm] < 0:
                return Verdict("CONS", Status.VIOLATED, [idx], f"{e.frm} went negative")
        else:
            in_flight -= e.amount
            balances[e.to] = balances.get(e.to, 0) + e.amount
            if in_flight < 0:
                return Verdict("CONS", Status.VIOLATED, [idx], "in-flight value went negative")
        if sum(balances.values()) + in_flight != expected:
            return Verdict("CONS", Status.VIOLATED, [idx], "total value changed")
    return Verdict("CONS", Status.HOLDS)


def check_authentication(trace: Trace) -> Verdict:
    """Every message on the wire is either signed by its transmitter or a replay of
    a message the transmitter had already observed; every verified delivery has a
    matching send. Byzantine containment, re-derived from the trace alone."""
    violations: list[int] = []
    details = []
    seen_by: dict[ParticipantId, set] = {}
    sent_keys: set = set()
    for idx, e in enumerate(trace.entries):
        if e.rec is Rec.SENT:
            msg = e.env.msg
            key = (msg.signer, msg.nonce, msg.payload)
            sent_keys.add(key)
            if msg.signer != e.participant and key not in seen_by.get(e.participant, set()):
                violations.append(idx)
                details.append(f"{e.participant} emitted {msg.token()} it never observed")
        elif e.rec is Rec.DELIVERED:
            msg = e.env.msg
            key = (msg.signer, msg.nonce, msg.payload)
            if key not in sent_keys:
                violations.append(idx)
                details.append(f"{msg.token()} delivered without a matching send")
            seen_by.setdefault(e.participant, set()).add(key)
    if violations:
        return Verdict("AUTH", Status.VIOLATED, violations, "; ".join(details))
    return Verdict("AUTH", Status.HOLDS)


def check_promises(trace: Trace) -> list[Verdict]:
    """The two escrow promises, replayed against the trace timestamps.

    Resolution promise: if a compliant escrow received the deposit at its local
    time w, it sent the depositor money or the certificate by local w + d_i.
    Payment promise: if a verified certificate reached it at local v within the
    acceptance window, it sent the downstream payment by local v + epsilon.
    """
    meta = trace.meta
    params = meta.params
    g_eval = 0
    g_viol: list[int] = []
    p_eval = 0
    p_viol: list[int] = []
    for i in range(meta.n):
        e = escrow(i)
        if not _compliant(trace, e):
            continue
        up = customer(i)
        down = customer(i + 1)
        deposit_local = None
        promise_local = None
        chi_local = None
        resolved_up = None
        paid_down = None
        for idx in trace.index.entries[e]:
            entry = trace.entries[idx]
            if (entry.rec is Rec.DELIVERED and deposit_local is None
                    and entry.env.src == up and isinstance(entry.env.msg.payload, Money)):
                deposit_local = entry.local
            elif entry.rec is Rec.SENT:
                payload = entry.env.msg.payload
                if entry.env.dst == down and isinstance(payload, Promise):
                    if promise_local is None:
                        promise_local = entry.local
                elif entry.env.dst == up and (isinstance(payload, Money)
                                              or _is_certificate(entry.env.msg, trace)):
                    if resolved_up is None:
                        resolved_up = (idx, entry.local)
                elif entry.env.dst == down and isinstance(payload, Money):
                    if paid_down is None:
                        paid_down = (idx, entry.local)
            elif (entry.rec is Rec.DELIVERED and chi_local is None
                    and entry.env.src == down and _is_certificate(entry.env.msg, trace)):
                chi_local = entry.local
        if deposit_local is not None:
            g_eval += 1
            deadline = deposit_local + params.d[i]
            if resolved_up is None or resolved_up[1] > deadline:
                g_viol.extend(trace.index.entries[e])
        if promise_local is not None and chi_local is not None and chi_local < promise_local + params.a[i]:
            # a certificate that raced ahead of the promise counts as received
            # the instant the promise (and with it the obligation) came to be
            v_eff = max(chi_local, promise_local)
            p_eval += 1
            deadline = v_eff + params.epsilon
            if paid_down is None or paid_down[1] > deadline:
                p_viol.extend(trace.index.entries[e])
    return [
        Verdict("G_PROMISE", _summarize(g_eval, g_viol), g_viol),
        Verdict("P_PROMISE", _summarize(p_eval, p_viol), p_viol),
    ]


STRONG_PROPERTIES = ("C", "T", "ES", "CS1", "CS2", "CS3", "L", "CONS", "AUTH")
WEAK_PROPERTIES = ("C", "T", "ES", "CS1", "CS2", "CS3", "L", "CC", "CONS", "AUTH")


def property_names(variant: str) -> tuple[str, ...]:
    return WEAK_PROPERTIES if variant == "weak" else STRONG_PROPERTIES


def evaluate_all(trace: Trace, bound=None, include_promises: bool = False) -> list[Verdict]:
    """Every applicable verdict for the trace, in report order."""
    cs = check_customer_security(trace)
    verdicts = [
        check_consistency(trace),
        check_termination(trace, bound=bound),
        check_escrow_security(trace),
        cs.cs1,
        cs.cs2,
        cs.cs3,
        check_liveness(trace),
    ]
    if trace.meta.variant == "weak":
        verdicts.append(check_certificate_consistency(trace))
    verdicts.append(check_conservation(trace))
    verdicts.append(check_authentication(trace))
    if include_promises:
        verdicts.extend(check_promises(trace))
    return verdicts


def safety_verdicts(trace: Trace) -> list[Verdict]:
    """The unconditional-safety subset used by exhaustive exploration."""
    cs = check_customer_security(trace)
    verdicts = [
        check_consistency(trace),
        check_escrow_security(trace),
        cs.cs1,
        cs.cs2,
        cs.cs3,
        check_conservation(trace),
        check_authentication(trace),
    ]
    if trace.meta.variant == "weak":
        verdicts.append(check_certificate_consistency(trace))
    return verdicts


def tally(counts: dict[str, dict[str, int]], verdicts: list[Verdict]) -> bool:
    """Add each verdict to its property's pass/vacuous/fail count in `counts`
    (INAPPLICABLE counts as vacuous); True if any verdict is a violation."""
    violated = False
    for v in verdicts:
        per = counts.setdefault(v.name, {"pass": 0, "vacuous": 0, "fail": 0})
        if v.status is Status.VIOLATED:
            per["fail"] += 1
            violated = True
        elif v.status in (Status.VACUOUS, Status.INAPPLICABLE):
            per["vacuous"] += 1
        else:
            per["pass"] += 1
    return violated
