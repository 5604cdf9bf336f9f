from __future__ import annotations

import itertools

import pytest

from oracles import acceptable_by_definition, strongly_connected_bruteforce
from xpay.core import ConfigError
from xpay.deals import (
    Asset,
    DealMatrix,
    is_acceptable_payoff,
    is_well_formed,
    parse_deal_file,
    payment_to_deal,
)


def matrix_from_arcs(parties, arcs):
    return DealMatrix(parties, {arc: Asset("x", 1) for arc in arcs})


def test_two_cycle_is_well_formed():
    m = matrix_from_arcs(2, [(0, 1), (1, 0)])
    assert is_well_formed(m)


def test_chain_is_not_well_formed():
    m = matrix_from_arcs(3, [(0, 1), (1, 2)])
    assert not is_well_formed(m)


def test_single_party_empty_matrix_is_well_formed():
    assert is_well_formed(DealMatrix(1, {}))


def test_empty_matrix_many_parties_is_isolated_vertices():
    m = DealMatrix(3, {})
    assert not is_well_formed(m)


def test_diagonal_entries_rejected():
    with pytest.raises(ConfigError):
        DealMatrix(2, {(0, 0): Asset("x", 1)})
    with pytest.raises(ConfigError):
        Asset("x", 0)


@pytest.mark.parametrize("parties", [1, 2, 3, 4])
def test_well_formed_matches_reachability_exhaustively(parties):
    """Every 0/1 matrix with up to 4 parties, against the all-pairs BFS oracle."""
    cells = [(i, j) for i in range(parties) for j in range(parties) if i != j]
    for bits in itertools.product((0, 1), repeat=len(cells)):
        arcs = [cell for cell, bit in zip(cells, bits) if bit]
        m = matrix_from_arcs(parties, arcs)
        assert is_well_formed(m) == strongly_connected_bruteforce(parties, arcs), arcs


def test_full_execution_acceptable_for_everyone():
    m = matrix_from_arcs(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
    outcome = set(m.entries)
    for party in range(3):
        assert is_acceptable_payoff(m, party, outcome)


def test_null_execution_acceptable_for_everyone():
    m = matrix_from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    for party in range(3):
        assert is_acceptable_payoff(m, party, set())


def test_pay_without_receive_unacceptable():
    m = matrix_from_arcs(2, [(0, 1), (1, 0)])
    assert not is_acceptable_payoff(m, 0, {(0, 1)})
    assert is_acceptable_payoff(m, 1, {(0, 1)})  # pure gain for the other side


def test_acceptability_matches_definition_on_all_two_party_outcomes():
    m = matrix_from_arcs(2, [(0, 1), (1, 0)])
    arcs = list(m.entries)
    for r in range(len(arcs) + 1):
        for outcome in itertools.combinations(arcs, r):
            for party in (0, 1):
                assert is_acceptable_payoff(m, party, set(outcome)) == \
                    acceptable_by_definition(m, party, set(outcome))


def test_acceptability_upward_closed_under_dominance():
    m = matrix_from_arcs(3, [(0, 1), (1, 0), (2, 0), (0, 2)])
    arcs = list(m.entries)
    for r in range(len(arcs) + 1):
        for outcome in itertools.combinations(arcs, r):
            outcome = set(outcome)
            if not is_acceptable_payoff(m, 0, outcome):
                continue
            # add gains / remove losses: must stay acceptable
            for extra in m.incoming(0) - outcome:
                assert is_acceptable_payoff(m, 0, outcome | {extra})
            for loss in outcome & m.outgoing(0):
                assert is_acceptable_payoff(m, 0, outcome - {loss})


def test_outcome_outside_deal_rejected():
    m = matrix_from_arcs(2, [(0, 1)])
    with pytest.raises(ConfigError):
        is_acceptable_payoff(m, 0, {(1, 0)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_payment_chain_is_never_well_formed(n):
    m = payment_to_deal(n)
    assert m.parties == n + 1
    assert not is_well_formed(m)
    assert strongly_connected_bruteforce(m.parties, m.entries) is False


def test_deal_file_round_trip():
    m = matrix_from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    text = "# a three-cycle\nparties=3\n\n0 1 x 1\n1 2 x 1\n2 0 x 1\n"
    again = parse_deal_file(text)
    assert again.parties == 3
    assert set(again.entries) == set(m.entries)
    with pytest.raises(ConfigError):
        parse_deal_file("0 1 x 1\n")
    with pytest.raises(ConfigError):
        parse_deal_file("parties=2\n0 1 x\n")
    with pytest.raises(ConfigError):
        parse_deal_file("parties=2\n0 1 x 1\n0 1 y 2\n")


@pytest.mark.parametrize("build, message", [
    (lambda: Asset("x", 1.5), "asset magnitude must be an integer"),
    (lambda: Asset("x", True), "asset magnitude must be an integer"),
    (lambda: Asset("x", 0), "asset magnitude must be at least 1"),
    (lambda: DealMatrix(True), "parties must be an integer"),
    (lambda: DealMatrix(0), "parties must be at least 1"),
    (lambda: DealMatrix(2, {(0, 2): Asset("x", 1)}), "entry (0,2) outside 0..1"),
    (lambda: payment_to_deal(True), "n must be an integer"),
    (lambda: payment_to_deal(0), "n must be at least 1"),
    (lambda: parse_deal_file("parties=two\n"), "bad parties header"),
    (lambda: parse_deal_file("parties=2\n0 1 x one\n"), "bad entry line '0 1 x one'"),
], ids=["magnitude-float", "magnitude-bool", "magnitude-zero", "parties-bool", "parties-zero",
        "entry-outside", "payment-hops-bool", "payment-hops-zero", "file-parties",
        "file-magnitude"])
def test_each_malformed_deal_is_refused_naming_its_rule(build, message):
    """A bool is not the count 1, and a float magnitude is not a whole asset."""
    with pytest.raises(ConfigError) as refused:
        build()
    assert str(refused.value) == message
