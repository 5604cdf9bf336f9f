"""Concrete participant automata for the chained escrow payment.

Topology: escrows e_0..e_{n-1}, customers c_0..c_n. Customer 0 is Alice,
customer n is Bob, the customers in between are connectors. Customers c_{i-1}
and c_i hold accounts at escrow e_{i-1}, and value moves only along those
edges.

Two constructions are provided:

* the time-bounded ("strong") protocol, where each escrow guarantees its
  depositor resolution within a local duration d_i and promises its downstream
  customer payment against a certificate arriving within a local window a_i;

* the patience-based ("weak") variant, where deposits happen in parallel, a
  trusted transaction manager collects per-hop lock notices plus Bob's commit
  request and issues exactly one of an abort or a commit certificate, and any
  customer may abort after a patience deadline of their own choosing without
  risking value.

The variants share three steps, each built by one helper: an escrow's
guarantee to its depositor and its paid_out/refunded terminals (`_escrow`), a
customer's deposit (`_pay_escrow`) and a payee's await_payment -> paid (`_collect`).

Every factory returns a `Machine`: the definition of one participant's
automaton, which depends only on the timing parameters (`timing.TimingParams`,
imported here, so `protocol.TimingParams` names it too), the payment instance
(whose hop count the timing must share) and, in the weak variant, the patience.
The roster builders are memoised by those values and the transaction manager
by `(pay)`, so each definition is built and validated once and then shared by
every run that asks for it; `simnet` wraps it in a per-run `Automaton` with
that run's key and timeout lengths.

The weak construction here is our own; it is validated against the variant's
stated properties by the checker suite rather than against a reference.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .automata import (
    INPUT,
    OUTPUT,
    TERMINAL,
    Forward,
    Fresh,
    Machine,
    Receive,
    State,
    Timeout,
    Transition,
    validate_state,
)
from .core import (
    AbortCert,
    AbortReq,
    Certificate,
    CommitCert,
    CommitReq,
    ConfigError,
    Guarantee,
    LockNotice,
    Money,
    Payload,
    ParticipantId,
    Promise,
    SignedMessage,
    SigningKey,
    as_count,
    as_non_negative,
    customer,
    escrow,
    manager,
    sign,
    verify,
)
from .timing import TimingParams

# Definitions kept per memoised builder. A sweep or an exploration needs a
# handful: one per distinct patience vector, timing and instance it runs.
_DEFINITIONS_CACHED = 64


@dataclass(frozen=True)
class PaymentInstance:
    """One payment: its id (bound into every signed payload), hop count, and amount."""
    instance: str
    n: int
    amount: int

    def __post_init__(self):
        as_count(self.n, "hop count")
        as_count(self.amount, "amount")

    @property
    def bob(self) -> ParticipantId:
        return customer(self.n)


def _money(pay: PaymentInstance) -> Money:
    return Money(pay.instance, pay.amount)


def _recv_money(pay: PaymentInstance, frm: ParticipantId) -> Receive:
    return Receive(frm, Money, attrs=(("instance", pay.instance), ("amount", pay.amount)))


def _recv_guarantee(pay: PaymentInstance, e: ParticipantId, d: Fraction) -> Receive:
    """Escrow `e`'s guarantee to resolve its depositor within `d`."""
    return Receive(e, Guarantee, attrs=(("instance", pay.instance), ("resolve_within", d)),
                   signed_by=e)


def _recv_promise(pay: PaymentInstance, e: ParticipantId, a: Fraction) -> Receive:
    """Escrow `e`'s promise to accept a certificate within `a`."""
    return Receive(e, Promise, attrs=(("instance", pay.instance), ("accept_within", a)),
                   signed_by=e)


def _recv_certificate(pay: PaymentInstance, frm: ParticipantId) -> Receive:
    """A certificate relayed by `frm` but necessarily signed by Bob for this instance."""
    return Receive(frm, Certificate, attrs=(("instance", pay.instance),), signed_by=pay.bob)


def _recv_decision(pay: PaymentInstance, kind: type) -> Receive:
    return Receive(manager(), kind, attrs=(("instance", pay.instance),), signed_by=manager())


def _recv_lock(pay: PaymentInstance, i: int) -> Receive:
    """Escrow e_i's notice that hop i is locked."""
    return Receive(escrow(i), LockNotice, attrs=(("instance", pay.instance), ("escrow_index", i)),
                   signed_by=escrow(i))


# ------------------------------------------------------------ steps both variants share

def _check_hops(params: TimingParams, pay: PaymentInstance) -> None:
    if params.n != pay.n:
        raise ConfigError(f"timing is for n={params.n}, the payment instance for n={pay.n}")


def _escrow(i: int, params: TimingParams, pay: PaymentInstance,
            middle: dict[str, State]) -> Machine:
    """Escrow e_i: it guarantees its depositor resolution within d_i, goes on
    from await_money through `middle`, and ends paid_out or refunded."""
    states = {
        "send_guarantee": State("send_guarantee", OUTPUT, (
            Transition("await_money", emits=((customer(i), Fresh(Guarantee(pay.instance, params.d[i]))),)),
        )),
        **middle,
        "paid_out": State("paid_out", TERMINAL),
        "refunded": State("refunded", TERMINAL),
    }
    return Machine(escrow(i), states, "send_guarantee")


def _pay_escrow(pay: PaymentInstance, e: ParticipantId, then: str) -> State:
    """A customer's deposit: pay escrow `e`, then go on to `then`."""
    return State("pay_escrow", OUTPUT, (Transition(then, emits=((e, Fresh(_money(pay))),)),))


def _collect(pay: PaymentInstance, e: ParticipantId) -> dict[str, State]:
    """A payee's last step: await the payment from escrow `e`, then stop paid."""
    paid = Transition("paid", guard=_recv_money(pay, e))
    return {"await_payment": State("await_payment", INPUT, (paid,)),
            "paid": State("paid", TERMINAL)}


# ------------------------------------------------------------------ strong variant

def make_escrow(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Escrow e_i of the time-bounded protocol.

    Guarantee out, deposit in, promise out, then either a verified
    certificate arrives within the local window a_i, counted from the
    promise's issue (the entry to await_certificate), and
    one resolution step forwards the certificate upstream and the money
    downstream, or the window lapses and the deposit is refunded. Exactly two
    terminal states: paid_out and refunded.
    """
    _check_hops(params, pay)
    if not 0 <= i < params.n:
        raise ConfigError(f"escrow index {i} out of range for n={params.n}")
    up = customer(i)
    down = customer(i + 1)
    return _escrow(i, params, pay, {
        "await_money": State("await_money", INPUT, (
            Transition("send_promise", guard=_recv_money(pay, up)),
        )),
        "send_promise": State("send_promise", OUTPUT, (
            Transition("await_certificate",
                       emits=((down, Fresh(Promise(pay.instance, params.a[i]))),)),
        )),
        "await_certificate": State("await_certificate", INPUT, (
            Transition("resolve_paid", guard=_recv_certificate(pay, down), capture=True),
            Transition("resolve_refund", guard=Timeout(params.a[i], from_entry=True)),
        )),
        # One processing step settles both legs: certificate upstream, money downstream.
        "resolve_paid": State("resolve_paid", OUTPUT, (
            Transition("paid_out", emits=(
                (up, Forward()),
                (down, Fresh(_money(pay))),
            )),
        )),
        "resolve_refund": State("resolve_refund", OUTPUT, (
            Transition("refunded", emits=((up, Fresh(_money(pay))),)),
        )),
    })


def make_alice(params: TimingParams, pay: PaymentInstance) -> Machine:
    """Customer c_0: pays e_0 once its guarantee arrives, then awaits refund or certificate."""
    _check_hops(params, pay)
    e0 = escrow(0)
    states = {
        "await_guarantee": State("await_guarantee", INPUT, (
            Transition("pay_escrow", guard=_recv_guarantee(pay, e0, params.d[0])),
        )),
        "pay_escrow": _pay_escrow(pay, e0, "await_outcome"),
        "await_outcome": State("await_outcome", INPUT, (
            Transition("refunded", guard=_recv_money(pay, e0)),
            Transition("has_certificate", guard=_recv_certificate(pay, e0)),
        )),
        "refunded": State("refunded", TERMINAL),
        "has_certificate": State("has_certificate", TERMINAL),
    }
    return Machine(customer(0), states, "await_guarantee")


def make_connector(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Connector c_i (0 < i < n): fronts her own deposit downstream once both the
    downstream guarantee and the upstream promise are in, then either takes the
    refund (done) or relays the certificate upstream and collects the payment."""
    _check_hops(params, pay)
    if not 1 <= i <= params.n - 1:
        raise ConfigError(f"connector index {i} out of range for n={params.n}")
    up_escrow = escrow(i - 1)
    down_escrow = escrow(i)
    states = {
        "await_guarantee": State("await_guarantee", INPUT, (
            Transition("await_promise", guard=_recv_guarantee(pay, down_escrow, params.d[i])),
        )),
        "await_promise": State("await_promise", INPUT, (
            Transition("pay_escrow", guard=_recv_promise(pay, up_escrow, params.a[i - 1])),
        )),
        "pay_escrow": _pay_escrow(pay, down_escrow, "await_outcome"),
        "await_outcome": State("await_outcome", INPUT, (
            Transition("refunded", guard=_recv_money(pay, down_escrow)),
            Transition("forward_certificate", guard=_recv_certificate(pay, down_escrow),
                       capture=True),
        )),
        "forward_certificate": State("forward_certificate", OUTPUT, (
            Transition("await_payment", emits=((up_escrow, Forward()),)),
        )),
        "refunded": State("refunded", TERMINAL),
        **_collect(pay, up_escrow),
    }
    return Machine(customer(i), states, "await_guarantee")


def make_bob(params: TimingParams, pay: PaymentInstance) -> Machine:
    """Customer c_n: issues the certificate against the upstream promise, then awaits payment.

    Structurally issues at most one certificate (single send state), and never
    before a verified promise arrived.
    """
    _check_hops(params, pay)
    e = escrow(params.n - 1)
    states = {
        "await_promise": State("await_promise", INPUT, (
            Transition("issue_certificate", guard=_recv_promise(pay, e, params.a[params.n - 1])),
        )),
        "issue_certificate": State("issue_certificate", OUTPUT, (
            Transition("await_payment", emits=((e, Fresh(Certificate(pay.instance))),)),
        )),
        **_collect(pay, e),
    }
    return Machine(customer(params.n), states, "await_promise")


@functools.lru_cache(maxsize=_DEFINITIONS_CACHED)
def make_strong_participants(
    params: TimingParams, pay: PaymentInstance,
) -> Mapping[ParticipantId, Machine]:
    """Full roster of the time-bounded protocol, keyed by participant id.

    Memoised by (params, pay): equal arguments get the same read-only roster.
    """
    roster = {escrow(i): make_escrow(i, params, pay) for i in range(params.n)}
    roster[customer(0)] = make_alice(params, pay)
    for i in range(1, params.n):
        roster[customer(i)] = make_connector(i, params, pay)
    roster[customer(params.n)] = make_bob(params, pay)
    return MappingProxyType(roster)


# -------------------------------------------------------------------- weak variant

Patience = Optional[Fraction]  # None means unbounded patience


def as_patience(values: Sequence, n: int, what: str = "patience") -> tuple[Patience, ...]:
    """`values` as the patience of an n-hop payment: one entry per customer
    c_0..c_n, each None (unbounded) or an exact time of at least 0."""
    if len(values) != n + 1:
        raise ConfigError(f"need {n + 1} {what} entries, got {len(values)}")
    return tuple(None if p is None else as_non_negative(p, what) for p in values)


def _impatience(target: str, patience: Patience) -> tuple[Transition, ...]:
    """The timeout to `target` once `patience` runs out; none when it is unbounded."""
    return () if patience is None else (Transition(target, guard=Timeout(patience)),)


def _waiting_states(pay: PaymentInstance, patience: Patience, decision: tuple[Transition, ...],
                    unfunded: tuple[Transition, ...]) -> dict[str, State]:
    """A weak customer's wait for the manager's `decision` once funded. With
    unbounded patience that wait is all. With a finite patience, once it runs
    out the customer asks the manager to abort and awaits the decision for
    good; a customer whose patience runs out unfunded asks to abort too, and
    then waits in await_decision_unfunded on `unfunded`."""
    if patience is None:
        return {"await_decision": State("await_decision", INPUT, decision)}
    abort_req = ((manager(), Fresh(AbortReq(pay.instance))),)
    return {
        "request_abort_unfunded": State("request_abort_unfunded", OUTPUT, (
            Transition("await_decision_unfunded", emits=abort_req),
        )),
        "await_decision_unfunded": State("await_decision_unfunded", INPUT, unfunded),
        "await_decision": State("await_decision", INPUT,
                                decision + _impatience("request_abort", patience)),
        "request_abort": State("request_abort", OUTPUT, (
            Transition("await_decision_final", emits=abort_req),
        )),
        "await_decision_final": State("await_decision_final", INPUT, decision),
    }


def _weak_escrow(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Weak-variant escrow: hold the deposit until the manager's decision.

    On deposit, notify the manager that hop i is locked (the last escrow also
    tells Bob his funding is in place). Release per the decision: pay the
    downstream customer on commit, refund the depositor on abort. An abort
    arriving before the deposit parks the escrow in a watch state that refunds
    a late (already in-flight) deposit, so an abort/deposit race can never
    strand the depositor's money.
    """
    up = customer(i)
    down = customer(i + 1)
    lock_emits: tuple = ((manager(), Fresh(LockNotice(pay.instance, i))),)
    if i == params.n - 1:
        lock_emits += ((down, Fresh(LockNotice(pay.instance, i))),)
    return _escrow(i, params, pay, {
        "await_money": State("await_money", INPUT, (
            Transition("notify_lock", guard=_recv_money(pay, up)),
            Transition("await_stray_deposit", guard=_recv_decision(pay, AbortCert)),
        )),
        "notify_lock": State("notify_lock", OUTPUT, (
            Transition("await_decision", emits=lock_emits),
        )),
        "await_decision": State("await_decision", INPUT, (
            Transition("pay_downstream", guard=_recv_decision(pay, CommitCert)),
            Transition("refund", guard=_recv_decision(pay, AbortCert)),
        )),
        "pay_downstream": State("pay_downstream", OUTPUT, (
            Transition("paid_out", emits=((down, Fresh(_money(pay))),)),
        )),
        "refund": State("refund", OUTPUT, (
            Transition("refunded", emits=((up, Fresh(_money(pay))),)),
        )),
        "await_stray_deposit": State("await_stray_deposit", INPUT, (
            Transition("refund", guard=_recv_money(pay, up)),
        )),
    })


def _weak_depositor(i: int, params: TimingParams, pay: PaymentInstance,
                    patience: Patience) -> Machine:
    """Weak-variant customer c_i for i < n (Alice or a connector).

    Deposits with e_i after its guarantee; on commit, Alice keeps the commit
    certificate as her proof while a connector collects the upstream payment;
    on abort, the refund comes back from e_i. A finite patience deadline (local
    clock, measured from start) turns into an abort request at any waiting
    point; the manager's answer is still awaited, so aborting never loses value.
    """
    dep_escrow = escrow(i)
    recv_abort = _recv_decision(pay, AbortCert)
    decision = (
        Transition("committed" if i == 0 else "await_payment",
                   guard=_recv_decision(pay, CommitCert)),
        Transition("await_refund", guard=recv_abort),
    )
    to_aborted = Transition("aborted_unfunded", guard=recv_abort)
    states = {
        "await_guarantee": State("await_guarantee", INPUT, (
            Transition("pay_escrow", guard=_recv_guarantee(pay, dep_escrow, params.d[i])),
            to_aborted,
        ) + _impatience("request_abort_unfunded", patience)),
        "pay_escrow": _pay_escrow(pay, dep_escrow, "await_decision"),
        **_waiting_states(pay, patience, decision, (to_aborted,)),
        "await_refund": State("await_refund", INPUT, (
            Transition("refunded", guard=_recv_money(pay, dep_escrow)),
        )),
        "refunded": State("refunded", TERMINAL),
        "aborted_unfunded": State("aborted_unfunded", TERMINAL),
    }
    if i == 0:
        states["committed"] = State("committed", TERMINAL)
    else:
        states.update(_collect(pay, escrow(i - 1)))
    return Machine(customer(i), states, "await_guarantee")


def _weak_bob(params: TimingParams, pay: PaymentInstance, patience: Patience) -> Machine:
    """Weak-variant Bob: after the last escrow confirms funding, send the manager a
    commit request carrying the payment certificate, then await the decision and,
    on commit, the payment. The inner certificate is signed with Bob's own key up
    front, as his nonce 0, and the definition records that nonce as spent; it
    leaves his hands only inside the commit request. If his patience runs out
    first, he sends an abort request instead, funded or not."""
    me = pay.bob
    e = escrow(params.n - 1)
    chi = sign(Certificate(pay.instance), me, SigningKey(me))
    recv_abort = _recv_decision(pay, AbortCert)
    decision = (
        Transition("await_payment", guard=_recv_decision(pay, CommitCert)),
        Transition("aborted", guard=recv_abort),
    )
    states = {
        "await_funding_notice": State("await_funding_notice", INPUT, (
            Transition("request_commit", guard=_recv_lock(pay, params.n - 1)),
            Transition("aborted", guard=recv_abort),
        ) + _impatience("request_abort_unfunded", patience)),
        "request_commit": State("request_commit", OUTPUT, (
            Transition("await_decision",
                       emits=((manager(), Fresh(CommitReq(pay.instance, chi))),)),
        )),
        **_waiting_states(pay, patience, decision, decision),
        **_collect(pay, e),
        "aborted": State("aborted", TERMINAL),
    }
    return Machine(me, states, "await_funding_notice", nonces_spent=chi.nonce + 1)


def make_weak_participants(
    params: TimingParams, pay: PaymentInstance, patience: Sequence[Patience],
) -> Mapping[ParticipantId, Machine]:
    """Weak-variant roster (escrows and customers; the manager is built separately).

    `patience` has one entry per customer c_0..c_n; None means unbounded.
    Memoised by (params, pay, patience as a tuple of Fractions): equal
    arguments get the same read-only roster, and rosters that differ only in
    patience hold the same escrow definitions.
    """
    _check_hops(params, pay)
    return _weak_roster(params, pay, as_patience(patience, params.n))


@functools.lru_cache(maxsize=_DEFINITIONS_CACHED)
def _weak_escrows(params: TimingParams, pay: PaymentInstance) -> tuple[Machine, ...]:
    """The weak escrows, which do not depend on patience: one set serves every
    patience vector."""
    return tuple(_weak_escrow(i, params, pay) for i in range(params.n))


@functools.lru_cache(maxsize=_DEFINITIONS_CACHED)
def _weak_roster(params: TimingParams, pay: PaymentInstance,
                 patience: tuple[Patience, ...]) -> Mapping[ParticipantId, Machine]:
    roster = {machine.id: machine for machine in _weak_escrows(params, pay)}
    for i in range(params.n):
        roster[customer(i)] = _weak_depositor(i, params, pay, patience[i])
    roster[pay.bob] = _weak_bob(params, pay, patience[params.n])
    return MappingProxyType(roster)


# -------------------------------------------------------------- transaction manager

class _CollectStates(dict):
    """The manager's state table, its collect states built on first entry.

    A collect state stands for a lock bitmask and whether Bob's commit request
    is in. There are 2^(n+1) - 1 of them and a run enters at most n + 2, so
    none is built until a lookup asks for it. `name` gives a collect state's
    name and records its (mask, chi); membership accepts every recorded name,
    and looking one up builds the state from what was recorded, checks it with
    `validate_state` and keeps it.
    """

    def __init__(self, n: int, build: Callable[[int, bool], tuple[Transition, ...]]):
        super().__init__()
        self._width = n
        self._build = build
        self._named: dict[str, tuple[int, bool]] = {}

    def name(self, mask: int, chi: bool) -> str:
        name = f"collect_{mask:0{self._width}b}_{'x' if chi else '-'}"
        self._named[name] = (mask, chi)
        return name

    def __contains__(self, name: object) -> bool:
        return dict.__contains__(self, name) or name in self._named

    def __missing__(self, name: str) -> State:
        mask, chi = self._named[name]
        state = State(name, INPUT, self._build(mask, chi))
        validate_state(state, self)
        self[name] = state
        return state


@functools.lru_cache(maxsize=_DEFINITIONS_CACHED)
def make_transaction_manager(pay: PaymentInstance) -> Machine:
    """The trusted decider of the weak variant.

    Collects lock notices from the pay.n escrows and Bob's commit request (whose
    inner certificate must verify as Bob's). Decides exactly once: commit when
    everything is in and no abort came first, abort on the first abort request
    before a decision. The decision is broadcast to every escrow and customer,
    and any request arriving after the decision is answered with the recorded
    decision, so latecomers always converge.

    The collect states `collect_<mask>_<x|->` are built only when a run first
    enters one, and the 2n + 2 receive guards (n lock notices, the commit
    request, n + 1 abort requests) are built once and shared by every state,
    so building the manager costs time and memory linear in n. Memoised by
    (pay); the collect states a run enters stay built in the shared
    definition for later runs.
    """
    n = pay.n
    bob = pay.bob
    full = (1 << n) - 1

    def chi_valid(payload: Payload) -> bool:
        cert = payload.certificate
        return (
            isinstance(cert, SignedMessage)
            and isinstance(cert.payload, Certificate)
            and cert.payload.instance == pay.instance
            and verify(cert, bob)
        )

    recv_lock = [_recv_lock(pay, i) for i in range(n)]
    recv_commit_req = Receive(bob, CommitReq, attrs=(("instance", pay.instance),), where=chi_valid)
    recv_abort_req = [Receive(customer(k), AbortReq, attrs=(("instance", pay.instance),),
                              signed_by=customer(k))
                      for k in range(n + 1)]
    to_abort = tuple(Transition("decide_abort", guard=g) for g in recv_abort_req)

    def target(mask: int, chi: bool) -> str:
        return "decide_commit" if mask == full and chi else states.name(mask, chi)

    def collect(mask: int, chi: bool) -> tuple[Transition, ...]:
        transitions = [Transition(target(mask | (1 << i), chi), guard=recv_lock[i])
                       for i in range(n) if not mask & (1 << i)]
        if not chi:
            transitions.append(Transition(target(mask, True), guard=recv_commit_req))
        return tuple(transitions) + to_abort

    everyone = [escrow(i) for i in range(n)] + [customer(k) for k in range(n + 1)]
    states = _CollectStates(n, collect)

    states["decide_commit"] = State("decide_commit", OUTPUT, (
        Transition("decided_commit",
                   emits=tuple((p, Fresh(CommitCert(pay.instance))) for p in everyone)),
    ))
    states["decide_abort"] = State("decide_abort", OUTPUT, (
        Transition("decided_abort",
                   emits=tuple((p, Fresh(AbortCert(pay.instance))) for p in everyone)),
    ))

    for decision, cert_type in (("commit", CommitCert), ("abort", AbortCert)):
        decided = f"decided_{decision}"
        transitions = []
        for k in range(n + 1):
            answer = f"reanswer_{decision}_c{k}"
            transitions.append(Transition(answer, guard=recv_abort_req[k]))
            states[answer] = State(answer, OUTPUT, (
                Transition(decided, emits=((customer(k), Fresh(cert_type(pay.instance))),)),
            ))
        late_commit = f"reanswer_{decision}_creq"
        transitions.append(Transition(late_commit, guard=recv_commit_req))
        states[late_commit] = State(late_commit, OUTPUT, (
            Transition(decided, emits=((bob, Fresh(cert_type(pay.instance))),)),
        ))
        states[decided] = State(decided, INPUT, tuple(transitions))

    return Machine(manager(), states, states.name(0, False))
