"""Participants, message vocabulary, and capability-based signing.

Signatures are simulated: a participant can produce a verifying message only
through its own SigningKey capability, or by relaying a previously observed
message verbatim. That is exactly the authentication power the threat model
grants, and it keeps runs deterministic.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import NamedTuple


class AuthorizationError(Exception):
    """Attempt to sign with a key that does not belong to the claimed signer."""


class ConfigError(Exception):
    """A scenario or construction parameter is out of range or malformed."""


class ParticipantKind(Enum):
    ESCROW = "e"
    CUSTOMER = "c"
    MANAGER = "m"


_KINDS = tuple(ParticipantKind)  # a kind's position is its order in an id


class ParticipantId(tuple):
    """A participant, as the int tuple (kind order, index): escrows are 0,
    customers 1 and the manager 2.

    Hashing, equality and ordering are the tuple's own and run in C. Ids sort
    escrows first, then customers, then the manager, each kind by index, and
    an id compares equal to the plain tuple: `escrow(3) == (0, 3)`. The
    string form, e.g. "e3", is computed once and kept as `text`: ids key most
    of the simulator's per-participant dicts and name their participant in
    every rendered trace line.
    """

    def __new__(cls, kind: ParticipantKind, index: int):
        as_non_negative(as_integer(index, "participant index"), "participant index")
        pid = super().__new__(cls, (_KINDS.index(kind), index))
        pid.text = f"{kind.value}{index}"
        return pid

    kind = property(lambda self: _KINDS[self[0]])
    index = property(operator.itemgetter(1))

    def __reduce__(self):
        return ParticipantId, (self.kind, self.index)

    def __repr__(self) -> str:
        return f"ParticipantId(kind={self.kind!r}, index={self.index!r})"

    def __str__(self) -> str:
        return self.text


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
    if not isinstance(token, str) or len(token) < 2:
        raise ConfigError(f"bad participant token {token!r}")
    try:
        kind = ParticipantKind(token[0])
        index = int(token[1:])
    except ValueError as exc:
        raise ConfigError(f"bad participant token {token!r}") from exc
    if token[1:] != str(index):  # int() also reads "01", " 1", "+1" and "1_0"
        raise ConfigError(f"bad participant token {token!r}")
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


# The three rules on input values, each stated here alone: a count, an exact
# quantity > 0 and an exact quantity >= 0. Each is applied where a value
# enters (a constructor, `derive_timeouts`, `Scenario.validate`), before any
# memo is keyed by it: True and 1.0 equal (and hash like) 1.

def as_integer(value, what: str) -> int:
    """`value` if it is an int and not a bool."""
    if type(value) is not int:
        raise ConfigError(f"{what} must be an integer")
    return value


def as_count(value, what: str) -> int:
    """`value` if it is an integer (`as_integer`) of at least 1."""
    if as_integer(value, what) < 1:
        raise ConfigError(f"{what} must be at least 1")
    return value


def as_positive(value, what: str) -> Fraction:
    """`value` as an exact rational (`as_fraction`) strictly greater than 0."""
    x = as_fraction(value, what)
    if x <= 0:
        raise ConfigError(f"{what} must be strictly positive")
    return x


def as_non_negative(value, what: str) -> Fraction:
    """`value` as an exact rational (`as_fraction`) of at least 0."""
    x = as_fraction(value, what)
    if x < 0:
        raise ConfigError(f"{what} must be non-negative")
    return x


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
        object.__setattr__(self, "resolve_within",
                           as_positive(self.resolve_within, "guarantee duration"))
        super().__post_init__()

    def token(self) -> str:
        return f"G[{self.instance},d={fmt_fraction(self.resolve_within)}]"


@_payload
class Promise(Payload):
    """Escrow's pay-on-certificate-within-window promise to its downstream customer."""
    instance: str
    accept_within: Fraction

    def __post_init__(self):
        object.__setattr__(self, "accept_within", as_positive(self.accept_within, "promise window"))
        super().__post_init__()

    def token(self) -> str:
        return f"P[{self.instance},a={fmt_fraction(self.accept_within)}]"


@_payload
class Money(Payload):
    instance: str
    amount: int

    def __post_init__(self):
        as_count(self.amount, "money amount")
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


class Seal(NamedTuple):
    """Binding of (issuer, payload, nonce) produced by sign(); survives verbatim relay.

    A seal verifies only if sign() struck it as a `_Struck`: its type is its
    mint, and takes part in neither equality nor hashing, which are the
    tuple's. A Seal(...) built by hand is a dud, which is the point:
    unforgeability holds even against code that reaches for the class."""
    issuer: ParticipantId
    payload: Payload
    nonce: int


class _Struck(Seal):
    __slots__ = ()


class SignedMessage(NamedTuple):
    payload: Payload
    signer: ParticipantId
    nonce: int
    seal: Seal

    def token(self) -> str:
        return f"{self.payload.token()}@{self.signer}/{self.nonce}"


# builds a NamedTuple from its fields in one C call, past the Python-level
# `__new__` the class generates (about half its cost)
_mint = tuple.__new__


def sign(payload: Payload, signer: ParticipantId, key: SigningKey) -> SignedMessage:
    """Produce a message verifying as `signer`. Raises AuthorizationError on key mismatch."""
    if key.owner != signer:
        raise AuthorizationError(f"key of {key.owner} cannot sign as {signer}")
    nonce = key.next_nonce()
    return _mint(SignedMessage, (payload, signer, nonce, _mint(_Struck, (signer, payload, nonce))))


def verify(msg: SignedMessage, claimed_signer: ParticipantId) -> bool:
    """True iff `msg` was produced by sign() with `claimed_signer`'s key (relays included)."""
    seal = msg.seal
    return (
        type(seal) is _Struck
        and msg.signer == claimed_signer
        and seal.issuer == claimed_signer
        # sign() seals the message's own payload object, so equality is rarely compared
        and (seal.payload is msg.payload or seal.payload == msg.payload)
        and seal.nonce == msg.nonce
    )


class Envelope(NamedTuple):
    """A message in transit: network-level sender and recipient around the signed body.

    The transmitter (`src`) need not be the payload signer: certificates are
    relayed upstream verbatim and stay attributable to their issuer.
    """
    src: ParticipantId
    dst: ParticipantId
    msg: SignedMessage

