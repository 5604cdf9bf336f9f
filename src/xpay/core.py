"""Participants, message vocabulary, capability-based signing, and the value ledger.

Signatures are simulated: a participant can produce a verifying message only
through its own SigningKey capability, or by relaying a previously observed
message verbatim. That is exactly the authentication power the threat model
grants, and it keeps runs deterministic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

class AuthorizationError(Exception):
    """Attempt to sign with a key that does not belong to the claimed signer."""


class InsufficientFunds(Exception):
    """A transfer was requested that would drive a balance negative."""


class ConfigError(Exception):
    """A scenario or construction parameter is out of range or malformed."""


class ParticipantKind(Enum):
    ESCROW = "e"
    CUSTOMER = "c"
    MANAGER = "m"


# keyed by the kind's value: a str key hashes in C, an Enum member in Python
_KIND_ORDER = {"e": 0, "c": 1, "m": 2}


@dataclass(frozen=True)
class ParticipantId:
    """A participant, hashed by its sort key. The hash and the string form are
    computed once: ids key most of the simulator's per-participant dicts and
    name their participant in every rendered trace line."""
    kind: ParticipantKind
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ConfigError(f"participant index must be non-negative, got {self.index}")
        object.__setattr__(self, "_hash", hash(self.sort_key))
        object.__setattr__(self, "_str", f"{self.kind.value}{self.index}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # ids are shared, so equal ids are nearly always one object
        if self is other:
            return True
        if other.__class__ is not ParticipantId:
            return NotImplemented
        return self.kind is other.kind and self.index == other.index

    def __str__(self) -> str:
        return self._str

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind._value_], self.index)


# escrow(), customer() and manager() hand out one shared id per participant; the
# bound only caps what an unusually wide topology leaves behind
_IDS_CACHED = 1024


@functools.lru_cache(maxsize=_IDS_CACHED)
def escrow(i: int) -> ParticipantId:
    return ParticipantId(ParticipantKind.ESCROW, i)


@functools.lru_cache(maxsize=_IDS_CACHED)
def customer(i: int) -> ParticipantId:
    return ParticipantId(ParticipantKind.CUSTOMER, i)


@functools.lru_cache(maxsize=1)
def manager() -> ParticipantId:
    return ParticipantId(ParticipantKind.MANAGER, 0)


_BY_KIND = {ParticipantKind.ESCROW: escrow, ParticipantKind.CUSTOMER: customer}


def escrows_of(n: int, c: ParticipantId) -> list[ParticipantId]:
    """The escrows customer `c` of an n-hop chain holds accounts at (one for
    Alice and Bob, two for connectors)."""
    i = c.index
    out = []
    if i > 0:
        out.append(escrow(i - 1))
    if i < n:
        out.append(escrow(i))
    return out


def parse_participant(token: str) -> ParticipantId:
    """Parse the compact form used in configs and trace lines, e.g. "e0", "c2", "m0"."""
    if len(token) < 2:
        raise ConfigError(f"bad participant token {token!r}")
    try:
        kind = ParticipantKind(token[0])
        index = int(token[1:])
    except ValueError as exc:
        raise ConfigError(f"bad participant token {token!r}") from exc
    if kind is ParticipantKind.MANAGER:
        return manager() if index == 0 else ParticipantId(kind, index)
    return _BY_KIND[kind](index)


def as_fraction(value, what: str = "value") -> Fraction:
    """`value` as an exact rational: a Fraction as it is, an int converted.

    Anything else is refused, floats and booleans included: a float such as 0.1
    is not the rational it reads as, and times and amounts here are exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ConfigError(f"{what}: expected a rational, got {type(value).__name__} "
                      "(floats are not accepted; times are exact)")


def fmt_fraction(x: Fraction) -> str:
    """Render a rational (or an int) as num/den, denominator always explicit
    (bit-exact trace fields)."""
    return f"{x.numerator}/{x.denominator}"


def to_ticks(x: Fraction, scale: int, what: str) -> int:
    """`x` as a whole number of ticks of 1/scale. Raises ConfigError naming `x`
    when it falls between two ticks; never rounds."""
    ticks, rest = divmod(x.numerator * scale, x.denominator)
    if rest:
        raise ConfigError(f"{what} {fmt_fraction(x)} falls between the run's ticks of 1/{scale}")
    return ticks


# --------------------------------------------------------------------------- payloads

class Payload:
    """Base class for message bodies. All payloads are bound to a payment instance id.

    A payload is hashed once, at construction, to the value its frozen
    dataclass would compute (the hash of the tuple of its fields): the checkers
    key every message sent and delivered by its payload, and a `CommitReq`
    would otherwise hash the certificate it carries at every lookup.
    """

    instance: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    def token(self) -> str:
        raise NotImplementedError


def _payload(cls: type) -> type:
    """A frozen dataclass payload, keeping the hash `Payload` computes at construction."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Payload.__hash__
    return cls


@_payload
class Guarantee(Payload):
    """Escrow's resolve-within-d commitment to its upstream customer (local-time duration)."""
    instance: str
    resolve_within: Fraction

    def __post_init__(self):
        object.__setattr__(self, "resolve_within", as_fraction(self.resolve_within, "guarantee"))
        if self.resolve_within <= 0:
            raise ConfigError("guarantee duration must be strictly positive")
        super().__post_init__()

    def token(self) -> str:
        return f"G[{self.instance},d={fmt_fraction(self.resolve_within)}]"


@_payload
class Promise(Payload):
    """Escrow's pay-on-certificate-within-window promise to its downstream customer."""
    instance: str
    accept_within: Fraction

    def __post_init__(self):
        object.__setattr__(self, "accept_within", as_fraction(self.accept_within, "promise"))
        if self.accept_within <= 0:
            raise ConfigError("promise window must be strictly positive")
        super().__post_init__()

    def token(self) -> str:
        return f"P[{self.instance},a={fmt_fraction(self.accept_within)}]"


@_payload
class Money(Payload):
    instance: str
    amount: int

    def __post_init__(self):
        if not isinstance(self.amount, int) or self.amount <= 0:
            raise ConfigError("money amount must be a strictly positive integer")
        super().__post_init__()

    def token(self) -> str:
        return f"$[{self.instance},{self.amount}]"


@_payload
class Certificate(Payload):
    """Bob's attestation that the payment obligation has been met."""
    instance: str

    def token(self) -> str:
        return f"X[{self.instance}]"


@_payload
class AbortCert(Payload):
    instance: str

    def token(self) -> str:
        return f"XA[{self.instance}]"


@_payload
class CommitCert(Payload):
    instance: str

    def token(self) -> str:
        return f"XC[{self.instance}]"


@_payload
class LockNotice(Payload):
    """Escrow's notification that the deposit for hop `escrow_index` is held."""
    instance: str
    escrow_index: int

    def token(self) -> str:
        return f"LOCK[{self.instance},{self.escrow_index}]"


@_payload
class CommitReq(Payload):
    """Commit request carrying the payment certificate (weak variant)."""
    instance: str
    certificate: "SignedMessage"

    def token(self) -> str:
        return f"CREQ[{self.instance},{self.certificate.token()}]"


@_payload
class AbortReq(Payload):
    instance: str

    def token(self) -> str:
        return f"AREQ[{self.instance}]"


PAYLOAD_KINDS = {
    "guarantee": Guarantee,
    "promise": Promise,
    "money": Money,
    "certificate": Certificate,
    "abort_cert": AbortCert,
    "commit_cert": CommitCert,
    "lock_notice": LockNotice,
    "commit_req": CommitReq,
    "abort_req": AbortReq,
}


# --------------------------------------------------------------------------- signing

@dataclass(eq=False)
class SigningKey:
    """Capability to sign as `owner`. The simulator hands each participant only its own key.

    Carries the per-participant nonce counter so duplicate payloads stay
    distinguishable in traces.
    """
    owner: ParticipantId
    nonce: int = field(default=0, repr=False)  # the nonce of the next signature

    def next_nonce(self) -> int:
        n = self.nonce
        self.nonce += 1
        return n


# Private mint token: a Seal verifies only if it was struck by sign() below.
# Constructing Seal(...) by hand yields a dud, which is the point: unforgeability
# holds even against code that reaches for the dataclass directly.
_MINT = object()


@dataclass(frozen=True)
class Seal:
    """Binding of (issuer, payload, nonce) produced by sign(); survives verbatim relay."""
    issuer: ParticipantId
    payload: Payload
    nonce: int
    mint: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SignedMessage:
    payload: Payload
    signer: ParticipantId
    nonce: int
    seal: Seal

    def token(self) -> str:
        return f"{self.payload.token()}@{self.signer}/{self.nonce}"


def sign(payload: Payload, signer: ParticipantId, key: SigningKey) -> SignedMessage:
    """Produce a message verifying as `signer`. Raises AuthorizationError on key mismatch."""
    if key.owner != signer:
        raise AuthorizationError(f"key of {key.owner} cannot sign as {signer}")
    nonce = key.next_nonce()
    return SignedMessage(payload, signer, nonce, Seal(signer, payload, nonce, _MINT))


def verify(msg: SignedMessage, claimed_signer: ParticipantId) -> bool:
    """True iff `msg` was produced by sign() with `claimed_signer`'s key (relays included)."""
    seal = msg.seal
    return (
        seal.mint is _MINT
        and msg.signer == claimed_signer
        and seal.issuer == claimed_signer
        # sign() seals the message's own payload object, so equality is rarely compared
        and (seal.payload is msg.payload or seal.payload == msg.payload)
        and seal.nonce == msg.nonce
    )


@dataclass(frozen=True)
class Envelope:
    """A message in transit: network-level sender and recipient around the signed body.

    The transmitter (`src`) need not be the payload signer: certificates are
    relayed upstream verbatim and stay attributable to their issuer.
    """
    src: ParticipantId
    dst: ParticipantId
    msg: SignedMessage


# --------------------------------------------------------------------------- ledger

@dataclass
class Ledger:
    """Integer balances for a single fungible asset, plus the value currently in transit.

    Invariants: sum(balances) + in_flight is constant under every operation,
    and no operation ever leaves a negative balance.
    """
    balances: dict[ParticipantId, int]
    in_flight: int = 0

    def __post_init__(self):
        for p, b in self.balances.items():
            if b < 0:
                raise InsufficientFunds(f"initial balance of {p} is negative")
        if self.in_flight < 0:
            raise InsufficientFunds("in-flight value is negative")

    def balance(self, p: ParticipantId) -> int:
        return self.balances.get(p, 0)

    # Value leaves the sender at Sent and reaches the recipient at Delivered,
    # spending the interim in `in_flight`.

    def send_value(self, frm: ParticipantId, amount: int) -> None:
        if amount <= 0:
            raise ConfigError("amount must be strictly positive")
        if self.balance(frm) < amount:
            raise InsufficientFunds(f"{frm} holds {self.balance(frm)}, cannot send {amount}")
        self.balances[frm] = self.balance(frm) - amount
        self.in_flight += amount

    def receive_value(self, to: ParticipantId, amount: int) -> None:
        if amount <= 0:
            raise ConfigError("amount must be strictly positive")
        if self.in_flight < amount:
            raise InsufficientFunds("receiving more than is in flight")
        self.in_flight -= amount
        self.balances[to] = self.balance(to) + amount
