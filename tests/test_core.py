from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from xpay.core import (
    AbortCert,
    AbortReq,
    AuthorizationError,
    Certificate,
    CommitCert,
    CommitReq,
    ConfigError,
    Envelope,
    Guarantee,
    LockNotice,
    Money,
    ParticipantId,
    ParticipantKind,
    Promise,
    Seal,
    SignedMessage,
    SigningKey,
    customer,
    escrow,
    fmt_fraction,
    manager,
    parse_participant,
    sign,
    verify,
)


def test_participant_tokens_round_trip():
    for pid in (escrow(0), customer(3), manager()):
        assert parse_participant(str(pid)) == pid
    with pytest.raises(ConfigError):
        parse_participant("x1")
    with pytest.raises(ConfigError):
        parse_participant("c")


def test_participant_ids_hash_compare_and_order_as_int_tuples():
    """Ids hash, compare and sort as the tuple (kind order, index), in C: the
    hash is the tuple's own, equal to the hash of the plain tuple, and the
    order is escrows, then customers, then the manager, each by index."""
    assert ParticipantId.__hash__ is tuple.__hash__
    assert ParticipantId.__eq__ is tuple.__eq__
    assert hash(escrow(3)) == hash((0, 3))
    assert escrow(3) == (0, 3) and manager() == (2, 0)
    ids = [manager(), customer(2), escrow(1), customer(0), escrow(0), escrow(10), customer(10)]
    kind_order = {"e": 0, "c": 1, "m": 2}
    assert sorted(ids) == sorted(ids, key=lambda p: (kind_order[str(p)[0]], int(str(p)[1:])))
    assert [str(p) for p in sorted(ids)] == ["e0", "e1", "e10", "c0", "c2", "c10", "m0"]
    assert (escrow(2).kind, escrow(2).index) == (ParticipantKind.ESCROW, 2)
    assert repr(customer(1)) == "ParticipantId(kind=<ParticipantKind.CUSTOMER: 'c'>, index=1)"
    with pytest.raises(ConfigError):
        ParticipantId(ParticipantKind.ESCROW, -1)


def test_participant_ids_survive_pickle_and_copy():
    for pid in (escrow(0), customer(3), manager(), ParticipantId(ParticipantKind.MANAGER, 2)):
        for clone in (pickle.loads(pickle.dumps(pid)), copy.copy(pid), copy.deepcopy(pid)):
            assert clone == pid and hash(clone) == hash(pid)
            assert type(clone) is ParticipantId
            assert (clone.kind, clone.index, str(clone)) == (pid.kind, pid.index, str(pid))


def test_payload_invariants():
    with pytest.raises(ConfigError):
        Guarantee("pay0", Fraction(0))
    with pytest.raises(ConfigError):
        Promise("pay0", Fraction(-1))
    with pytest.raises(ConfigError):
        Money("pay0", 0)
    assert Money("pay0", 3).token() == "$[pay0,3]"
    assert Guarantee("pay0", Fraction(23, 10)).token() == "G[pay0,d=23/10]"


@pytest.mark.parametrize("build, message", [
    (lambda: Money("pay0", True), "money amount must be an integer"),
    (lambda: Money("pay0", 1.0), "money amount must be an integer"),
    (lambda: Money("pay0", 0), "money amount must be at least 1"),
    (lambda: Guarantee("pay0", 0), "guarantee duration must be strictly positive"),
    (lambda: Promise("pay0", Fraction(-1)), "promise window must be strictly positive"),
    # a bool index equals (and hashes like) 0 or 1, yet renders as eFalse or cTrue
    (lambda: ParticipantId(ParticipantKind.CUSTOMER, True), "participant index must be an integer"),
    (lambda: ParticipantId(ParticipantKind.ESCROW, -1), "participant index must be non-negative"),
], ids=["money-bool", "money-float", "money-zero", "guarantee-zero", "promise-negative",
        "index-bool", "index-negative"])
def test_each_value_rule_has_its_one_message(build, message):
    """True equals 1 and hashes like it, so a value holding it would equal
    the one holding the count 1 and be found in its place; it is refused."""
    with pytest.raises(ConfigError) as refused:
        build()
    assert str(refused.value) == message


def test_payload_hash_is_the_hash_of_its_fields():
    """Each payload's hash, taken once at construction, is the value its frozen
    dataclass derives from its fields; equal payloads hash alike."""
    chi = sign(Certificate("pay0"), customer(1), SigningKey(customer(1)))
    payloads = [
        (Guarantee("pay0", 3), ("pay0", Fraction(3))),
        (Promise("pay0", Fraction(5, 2)), ("pay0", Fraction(5, 2))),
        (Money("pay0", 1), ("pay0", 1)),
        (Certificate("pay0"), ("pay0",)),
        (AbortCert("pay0"), ("pay0",)),
        (CommitCert("pay0"), ("pay0",)),
        (LockNotice("pay0", 2), ("pay0", 2)),
        (CommitReq("pay0", chi), ("pay0", chi)),
        (AbortReq("pay0"), ("pay0",)),
    ]
    for payload, values in payloads:
        assert hash(payload) == hash(values), payload
        assert hash(type(payload)(*values)) == hash(payload)
    assert len({Money("pay0", 1), Money("pay0", 1), Money("pay0", 2)}) == 2


def test_sign_verify_round_trip():
    bob = customer(1)
    key = SigningKey(bob)
    msg = sign(Certificate("pay0"), bob, key)
    assert verify(msg, bob)
    assert not verify(msg, customer(0))
    assert not verify(msg, escrow(0))


def test_messages_are_tuples_that_survive_pickle_and_copy():
    """Seals, signed messages and envelopes are built as one tuple each: they
    hash and compare as the tuple of their fields, in C, and equal their
    `copy.deepcopy` and `pickle` round trips, which still verify. A seal built
    by hand equals the one sign() struck, and still does not verify."""
    for cls in (Seal, SignedMessage, Envelope):
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
    bob = customer(1)
    key = SigningKey(bob)
    chi = sign(Certificate("pay0"), bob, key)
    creq = sign(CommitReq("pay0", chi), bob, key)
    assert hash(chi.seal) == hash((bob, chi.payload, 0))
    for msg in (chi, creq):
        env = Envelope(bob, escrow(0), msg)
        assert hash(env) == hash((bob, escrow(0), msg))
        for x in (msg, env):
            for clone in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert clone == x and hash(clone) == hash(x) and type(clone) is type(x)
                assert verify(clone if x is msg else clone.msg, bob)
    dud = Seal(bob, chi.payload, chi.nonce)
    assert dud == chi.seal and hash(dud) == hash(chi.seal)
    assert not verify(chi._replace(seal=dud), bob)


def test_sign_requires_own_key():
    alice, bob = customer(0), customer(1)
    with pytest.raises(AuthorizationError):
        sign(Certificate("pay0"), bob, SigningKey(alice))


def test_connector_cannot_fake_bobs_certificate():
    c1, bob = customer(1), customer(2)
    forged = sign(Certificate("pay0"), c1, SigningKey(c1))
    assert verify(forged, c1)
    assert not verify(forged, bob)


def test_replay_verifies_like_the_original():
    bob = customer(1)
    msg = sign(Certificate("pay0"), bob, SigningKey(bob))
    relayed = msg  # verbatim relay is the same value
    assert verify(relayed, bob)
    assert relayed == msg


def test_nonces_distinguish_duplicate_payloads():
    e = escrow(0)
    key = SigningKey(e)
    a = sign(Money("pay0", 1), e, key)
    b = sign(Money("pay0", 1), e, key)
    assert a.nonce != b.nonce
    assert a != b


def test_fmt_fraction_always_carries_denominator():
    assert fmt_fraction(Fraction(5)) == "5/1"
    assert fmt_fraction(Fraction(21, 10)) == "21/10"
    assert fmt_fraction(Fraction(-3, 6)) == "-1/2"
