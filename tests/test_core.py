from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from xpay.core import (
    AbortCert,
    AbortReq,
    AuthorizationError,
    Certificate,
    CommitCert,
    CommitReq,
    ConfigError,
    Guarantee,
    LockNotice,
    InsufficientFunds,
    Ledger,
    Money,
    Promise,
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


def test_payload_invariants():
    with pytest.raises(ConfigError):
        Guarantee("pay0", Fraction(0))
    with pytest.raises(ConfigError):
        Promise("pay0", Fraction(-1))
    with pytest.raises(ConfigError):
        Money("pay0", 0)
    assert Money("pay0", 3).token() == "$[pay0,3]"
    assert Guarantee("pay0", Fraction(23, 10)).token() == "G[pay0,d=23/10]"


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


def test_transfer_insufficient_funds():
    """Value moves by a send and a receive; neither may overdraw."""
    ledger = Ledger({customer(0): 0, escrow(0): 0})
    with pytest.raises(InsufficientFunds):
        ledger.send_value(customer(0), 1)
    with pytest.raises(InsufficientFunds):
        ledger.receive_value(escrow(0), 1)  # nothing is in flight
    assert ledger.balances == {customer(0): 0, escrow(0): 0} and ledger.in_flight == 0


@given(st.integers(0, 2**32 - 1))
def test_transfer_sequences_conserve_total(seed):
    """Oracle: after every random send or receive, re-sum the balances and
    the value in flight, and predict each refusal from the ledger before it."""
    rng = random.Random(seed)
    parties = [customer(i) for i in range(4)] + [escrow(0)]
    ledger = Ledger({p: rng.randrange(0, 5) for p in parties})
    expected = sum(ledger.balances.values())
    for _ in range(40):
        p = rng.choice(parties)
        amount = rng.randrange(1, 4)
        balances, in_flight = dict(ledger.balances), ledger.in_flight
        if rng.randrange(2):
            move, refused = ledger.send_value, balances[p] < amount
        else:
            move, refused = ledger.receive_value, in_flight < amount
        if refused:
            with pytest.raises(InsufficientFunds):
                move(p, amount)
            assert (ledger.balances, ledger.in_flight) == (balances, in_flight)
        else:
            move(p, amount)
        assert sum(ledger.balances.values()) + ledger.in_flight == expected
        assert all(b >= 0 for b in ledger.balances.values())


def test_send_receive_pair_tracks_in_flight():
    ledger = Ledger({customer(0): 2, escrow(0): 0})
    ledger.send_value(customer(0), 2)
    assert ledger.balance(customer(0)) == 0
    assert ledger.in_flight == 2
    ledger.receive_value(escrow(0), 2)
    assert ledger.balance(escrow(0)) == 2
    assert ledger.in_flight == 0
    with pytest.raises(InsufficientFunds):
        ledger.send_value(customer(0), 1)


def test_fmt_fraction_always_carries_denominator():
    assert fmt_fraction(Fraction(5)) == "5/1"
    assert fmt_fraction(Fraction(21, 10)) == "21/10"
    assert fmt_fraction(Fraction(-3, 6)) == "-1/2"
