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

Every factory returns a `Machine`: the definition of one participant's
automaton, which depends only on the hop count, the timing parameters
(`timing.TimingParams`, imported here, so `protocol.TimingParams` names it
too), the payment instance and, in the weak variant, the patience. The roster builders
and the transaction manager are memoised by those values, so each definition
is built and validated once and then shared by every run that asks for it;
`simnet` wraps it in a per-run `Automaton` with that run's key and timeout
lengths.

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
    as_fraction,
    customer,
    escrow,
    manager,
    sign,
    verify,
)
from .timing import TimingParams

# Terminal state names shared by checkers and tests.
ESCROW_PAID_OUT = "paid_out"
ESCROW_REFUNDED = "refunded"
ALICE_REFUNDED = "refunded"
ALICE_HAS_CERTIFICATE = "has_certificate"
CONNECTOR_REFUNDED = "refunded"
CONNECTOR_PAID = "paid"
BOB_PAID = "paid"
WEAK_COMMITTED = "committed"
WEAK_ABORTED = "aborted"
WEAK_ABORTED_UNFUNDED = "aborted_unfunded"

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
        if self.n < 1:
            raise ConfigError("hop count must be at least 1")
        if self.amount <= 0:
            raise ConfigError("amount must be strictly positive")

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


# ------------------------------------------------------------------ strong variant

def make_escrow(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Escrow e_i of the time-bounded protocol.

    Guarantee out, deposit in, promise out (recording its issue time u), then
    either a verified certificate arrives within the local window u + a_i and
    one resolution step forwards the certificate upstream and the money
    downstream, or the window lapses and the deposit is refunded. Exactly two
    terminal states: paid_out and refunded.
    """
    if not 0 <= i < params.n:
        raise ConfigError(f"escrow index {i} out of range for n={params.n}")
    me = escrow(i)
    up = customer(i)
    down = customer(i + 1)
    states = {
        "send_guarantee": State("send_guarantee", OUTPUT, (
            Transition("await_money", emits=((up, Fresh(Guarantee(pay.instance, params.d[i]))),)),
        )),
        "await_money": State("await_money", INPUT, (
            Transition("send_promise", guard=_recv_money(pay, up)),
        )),
        "send_promise": State("send_promise", OUTPUT, (
            Transition("await_certificate", assign=("u",),
                       emits=((down, Fresh(Promise(pay.instance, params.a[i]))),)),
        )),
        "await_certificate": State("await_certificate", INPUT, (
            Transition("resolve_paid", guard=_recv_certificate(pay, down), capture="chi"),
            Transition("resolve_refund", guard=Timeout(params.a[i], var="u")),
        )),
        # One processing step settles both legs: certificate upstream, money downstream.
        "resolve_paid": State("resolve_paid", OUTPUT, (
            Transition(ESCROW_PAID_OUT, emits=(
                (up, Forward("chi")),
                (down, Fresh(_money(pay))),
            )),
        )),
        "resolve_refund": State("resolve_refund", OUTPUT, (
            Transition(ESCROW_REFUNDED, emits=((up, Fresh(_money(pay))),)),
        )),
        ESCROW_PAID_OUT: State(ESCROW_PAID_OUT, TERMINAL),
        ESCROW_REFUNDED: State(ESCROW_REFUNDED, TERMINAL),
    }
    return Machine(me, states, "send_guarantee")


def make_alice(params: TimingParams, pay: PaymentInstance) -> Machine:
    """Customer c_0: pays e_0 once its guarantee arrives, then awaits refund or certificate."""
    e0 = escrow(0)
    states = {
        "await_guarantee": State("await_guarantee", INPUT, (
            Transition("pay_escrow", guard=_recv_guarantee(pay, e0, params.d[0])),
        )),
        "pay_escrow": State("pay_escrow", OUTPUT, (
            Transition("await_outcome", emits=((e0, Fresh(_money(pay))),)),
        )),
        "await_outcome": State("await_outcome", INPUT, (
            Transition(ALICE_REFUNDED, guard=_recv_money(pay, e0)),
            Transition(ALICE_HAS_CERTIFICATE, guard=_recv_certificate(pay, e0), capture="chi"),
        )),
        ALICE_REFUNDED: State(ALICE_REFUNDED, TERMINAL),
        ALICE_HAS_CERTIFICATE: State(ALICE_HAS_CERTIFICATE, TERMINAL),
    }
    return Machine(customer(0), states, "await_guarantee")


def make_connector(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Connector c_i (0 < i < n): fronts her own deposit downstream once both the
    downstream guarantee and the upstream promise are in, then either takes the
    refund (done) or relays the certificate upstream and collects the payment."""
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
        "pay_escrow": State("pay_escrow", OUTPUT, (
            Transition("await_outcome", emits=((down_escrow, Fresh(_money(pay))),)),
        )),
        "await_outcome": State("await_outcome", INPUT, (
            Transition(CONNECTOR_REFUNDED, guard=_recv_money(pay, down_escrow)),
            Transition("forward_certificate", guard=_recv_certificate(pay, down_escrow), capture="chi"),
        )),
        "forward_certificate": State("forward_certificate", OUTPUT, (
            Transition("await_payment", emits=((up_escrow, Forward("chi")),)),
        )),
        "await_payment": State("await_payment", INPUT, (
            Transition(CONNECTOR_PAID, guard=_recv_money(pay, up_escrow)),
        )),
        CONNECTOR_REFUNDED: State(CONNECTOR_REFUNDED, TERMINAL),
        CONNECTOR_PAID: State(CONNECTOR_PAID, TERMINAL),
    }
    return Machine(customer(i), states, "await_guarantee")


def make_bob(params: TimingParams, pay: PaymentInstance) -> Machine:
    """Customer c_n: issues the certificate against the upstream promise, then awaits payment.

    Structurally issues at most one certificate (single send state), and never
    before a verified promise arrived.
    """
    e = escrow(params.n - 1)
    states = {
        "await_promise": State("await_promise", INPUT, (
            Transition("issue_certificate", guard=_recv_promise(pay, e, params.a[params.n - 1])),
        )),
        "issue_certificate": State("issue_certificate", OUTPUT, (
            Transition("await_payment", emits=((e, Fresh(Certificate(pay.instance))),)),
        )),
        "await_payment": State("await_payment", INPUT, (
            Transition(BOB_PAID, guard=_recv_money(pay, e)),
        )),
        BOB_PAID: State(BOB_PAID, TERMINAL),
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


def _impatience(target: str, patience: Patience) -> tuple[Transition, ...]:
    """The timeout to `target` once `patience` runs out; none when it is unbounded."""
    return () if patience is None else (Transition(target, guard=Timeout(patience)),)


def _weak_escrow(i: int, params: TimingParams, pay: PaymentInstance) -> Machine:
    """Weak-variant escrow: hold the deposit until the manager's decision.

    On deposit, notify the manager that hop i is locked (the last escrow also
    tells Bob his funding is in place). Release per the decision: pay the
    downstream customer on commit, refund the depositor on abort. An abort
    arriving before the deposit parks the escrow in a watch state that refunds
    a late (already in-flight) deposit, so an abort/deposit race can never
    strand the depositor's money.
    """
    me = escrow(i)
    up = customer(i)
    down = customer(i + 1)
    tm = manager()
    lock_emits: tuple = ((tm, Fresh(LockNotice(pay.instance, i))),)
    if i == params.n - 1:
        lock_emits += ((down, Fresh(LockNotice(pay.instance, i))),)
    states = {
        "send_guarantee": State("send_guarantee", OUTPUT, (
            Transition("await_money", emits=((up, Fresh(Guarantee(pay.instance, params.d[i]))),)),
        )),
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
            Transition(ESCROW_PAID_OUT, emits=((down, Fresh(_money(pay))),)),
        )),
        "refund": State("refund", OUTPUT, (
            Transition(ESCROW_REFUNDED, emits=((up, Fresh(_money(pay))),)),
        )),
        "await_stray_deposit": State("await_stray_deposit", INPUT, (
            Transition("refund", guard=_recv_money(pay, up)),
        )),
        ESCROW_PAID_OUT: State(ESCROW_PAID_OUT, TERMINAL),
        ESCROW_REFUNDED: State(ESCROW_REFUNDED, TERMINAL),
    }
    return Machine(me, states, "send_guarantee")


def _weak_depositor(i: int, params: TimingParams, pay: PaymentInstance,
                    patience: Patience) -> Machine:
    """Weak-variant customer c_i for i < n (Alice or a connector).

    Deposits with e_i after its guarantee; on commit, Alice keeps the commit
    certificate as her proof while a connector collects the upstream payment;
    on abort, the refund comes back from e_i. A finite patience deadline (local
    clock, measured from start) turns into an abort request at any waiting
    point; the manager's answer is still awaited, so aborting never loses value.
    """
    me = customer(i)
    dep_escrow = escrow(i)
    up_escrow = escrow(i - 1) if i > 0 else None
    tm = manager()
    recv_commit = _recv_decision(pay, CommitCert)
    recv_abort = _recv_decision(pay, AbortCert)
    if i == 0:
        commit_target = WEAK_COMMITTED
    else:
        commit_target = "await_payment"

    decision_transitions = (
        Transition(commit_target, guard=recv_commit),
        Transition("await_refund", guard=recv_abort),
    )
    states = {
        "await_guarantee": State("await_guarantee", INPUT, (
            Transition("pay_escrow", guard=_recv_guarantee(pay, dep_escrow, params.d[i])),
            Transition(WEAK_ABORTED_UNFUNDED, guard=recv_abort),
        ) + _impatience("request_abort_unfunded", patience)),
        "request_abort_unfunded": State("request_abort_unfunded", OUTPUT, (
            Transition("await_decision_unfunded", emits=((tm, Fresh(AbortReq(pay.instance))),)),
        )),
        "await_decision_unfunded": State("await_decision_unfunded", INPUT, (
            Transition(WEAK_ABORTED_UNFUNDED, guard=recv_abort),
        )),
        "pay_escrow": State("pay_escrow", OUTPUT, (
            Transition("await_decision", emits=((dep_escrow, Fresh(_money(pay))),)),
        )),
        "await_decision": State("await_decision", INPUT,
                                decision_transitions + _impatience("request_abort", patience)),
        "request_abort": State("request_abort", OUTPUT, (
            Transition("await_decision_final", emits=((tm, Fresh(AbortReq(pay.instance))),)),
        )),
        "await_decision_final": State("await_decision_final", INPUT, decision_transitions),
        "await_refund": State("await_refund", INPUT, (
            Transition(CONNECTOR_REFUNDED, guard=_recv_money(pay, dep_escrow)),
        )),
        CONNECTOR_REFUNDED: State(CONNECTOR_REFUNDED, TERMINAL),
        WEAK_ABORTED_UNFUNDED: State(WEAK_ABORTED_UNFUNDED, TERMINAL),
    }
    if i == 0:
        states[WEAK_COMMITTED] = State(WEAK_COMMITTED, TERMINAL)
    else:
        states["await_payment"] = State("await_payment", INPUT, (
            Transition(CONNECTOR_PAID, guard=_recv_money(pay, up_escrow)),
        ))
        states[CONNECTOR_PAID] = State(CONNECTOR_PAID, TERMINAL)
    return Machine(me, states, "await_guarantee")


def _weak_bob(params: TimingParams, pay: PaymentInstance, patience: Patience) -> Machine:
    """Weak-variant Bob: after the last escrow confirms funding, send the manager a
    commit request carrying the payment certificate, then await the decision and,
    on commit, the payment. The inner certificate is signed with Bob's own key up
    front, as his nonce 0, and the definition records that nonce as spent; it
    leaves his hands only inside the commit request. If his patience runs out
    first, he sends an abort request instead, funded or not."""
    me = pay.bob
    e = escrow(params.n - 1)
    tm = manager()
    chi = sign(Certificate(pay.instance), me, SigningKey(me))
    recv_commit = _recv_decision(pay, CommitCert)
    recv_abort = _recv_decision(pay, AbortCert)
    decision_transitions = (
        Transition("await_payment", guard=recv_commit),
        Transition(WEAK_ABORTED, guard=recv_abort),
    )
    states = {
        "await_funding_notice": State("await_funding_notice", INPUT, (
            Transition("request_commit", guard=Receive(
                e, LockNotice,
                attrs=(("instance", pay.instance), ("escrow_index", params.n - 1)),
                signed_by=e)),
            Transition(WEAK_ABORTED, guard=recv_abort),
        ) + _impatience("request_abort_unfunded", patience)),
        "request_abort_unfunded": State("request_abort_unfunded", OUTPUT, (
            Transition("await_decision_unfunded", emits=((tm, Fresh(AbortReq(pay.instance))),)),
        )),
        "request_commit": State("request_commit", OUTPUT, (
            Transition("await_decision", emits=((tm, Fresh(CommitReq(pay.instance, chi))),)),
        )),
        "await_decision": State("await_decision", INPUT,
                                decision_transitions + _impatience("request_abort", patience)),
        "request_abort": State("request_abort", OUTPUT, (
            Transition("await_decision_final", emits=((tm, Fresh(AbortReq(pay.instance))),)),
        )),
        "await_decision_final": State("await_decision_final", INPUT, decision_transitions),
        "await_decision_unfunded": State("await_decision_unfunded", INPUT, decision_transitions),
        "await_payment": State("await_payment", INPUT, (
            Transition(BOB_PAID, guard=_recv_money(pay, e)),
        )),
        BOB_PAID: State(BOB_PAID, TERMINAL),
        WEAK_ABORTED: State(WEAK_ABORTED, TERMINAL),
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
    if len(patience) != params.n + 1:
        raise ConfigError(f"need {params.n + 1} patience entries, got {len(patience)}")
    norm = tuple(None if p is None else as_fraction(p, "patience") for p in patience)
    if any(p is not None and p < 0 for p in norm):
        raise ConfigError("patience must be non-negative or unbounded")
    return _weak_roster(params, pay, norm)


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
def make_transaction_manager(n: int, pay: PaymentInstance) -> Machine:
    """The trusted decider of the weak variant.

    Collects lock notices from the n escrows and Bob's commit request (whose
    inner certificate must verify as Bob's). Decides exactly once: commit when
    everything is in and no abort came first, abort on the first abort request
    before a decision. The decision is broadcast to every escrow and customer,
    and any request arriving after the decision is answered with the recorded
    decision, so latecomers always converge.

    The collect states `collect_<mask>_<x|->` are built only when a run first
    enters one, and the 2n + 2 receive guards (n lock notices, the commit
    request, n + 1 abort requests) are built once and shared by every state,
    so building the manager costs time and memory linear in n. Memoised by
    (n, pay); the collect states a run enters stay built in the shared
    definition for later runs.
    """
    if n < 1:
        raise ConfigError("hop count must be at least 1")
    me = manager()
    bob = customer(n)
    full = (1 << n) - 1

    def chi_valid(payload: Payload) -> bool:
        cert = payload.certificate
        return (
            isinstance(cert, SignedMessage)
            and isinstance(cert.payload, Certificate)
            and cert.payload.instance == pay.instance
            and verify(cert, bob)
        )

    recv_lock = [Receive(escrow(i), LockNotice,
                         attrs=(("instance", pay.instance), ("escrow_index", i)),
                         signed_by=escrow(i))
                 for i in range(n)]
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

    return Machine(me, states, states.name(0, False))
