"""Multi-party asset-swap deals: the matrix form, its transfer digraph, and payoffs.

A deal is an m-by-m matrix whose (i, j) entry, when present, is the asset
party i transfers to party j. Its digraph has one vertex per party and one
arc per non-empty entry (the keys of `DealMatrix.entries`); a deal is
well-formed iff that digraph is strongly connected.

A payoff (set of executed arcs) is acceptable to party i iff she loses
nothing at all, or receives every incoming asset (losing at most her outgoing
ones); this is the upward closure, under fewer-losses/more-gains dominance,
of the all-or-nothing outcomes. The chained payment deliberately fails
well-formedness: its transfer graph is a simple path, which is the point of
payment_to_deal below.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import ConfigError, as_count

Arc = tuple[int, int]


@dataclass(frozen=True)
class Asset:
    label: str
    magnitude: int

    def __post_init__(self):
        as_count(self.magnitude, "asset magnitude")


@dataclass
class DealMatrix:
    parties: int
    entries: dict[Arc, Asset] = field(default_factory=dict)

    def __post_init__(self):
        as_count(self.parties, "parties")
        for (i, j) in self.entries:
            if i == j:
                raise ConfigError("diagonal entries are not allowed")
            if not (0 <= i < self.parties and 0 <= j < self.parties):
                raise ConfigError(f"entry ({i},{j}) outside 0..{self.parties - 1}")

    def incoming(self, party: int) -> set[Arc]:
        return {arc for arc in self.entries if arc[1] == party}

    def outgoing(self, party: int) -> set[Arc]:
        return {arc for arc in self.entries if arc[0] == party}


def _reaches_all(arcs: Iterable[Arc], parties: int) -> bool:
    """True iff party 0 reaches every party along `arcs`."""
    adj: dict[int, list[int]] = {v: [] for v in range(parties)}
    for i, j in arcs:
        adj[i].append(j)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == parties


def is_well_formed(m: DealMatrix) -> bool:
    """True iff the transfer digraph is strongly connected: party 0 reaches
    every party along the arcs, and every party reaches party 0 (party 0
    reaches it along the reversed arcs)."""
    return (_reaches_all(m.entries, m.parties)
            and _reaches_all(((j, i) for i, j in m.entries), m.parties))


def is_acceptable_payoff(m: DealMatrix, party: int, outcome: Iterable[Arc]) -> bool:
    """Is the executed-arc set an acceptable payoff for `party`?

    Acceptable iff the party loses nothing, or gains every incoming asset
    (her losses are then automatically bounded by her outgoing entries).
    """
    executed = set(outcome)
    unknown = executed - set(m.entries)
    if unknown:
        raise ConfigError(f"outcome contains arcs outside the deal: {sorted(unknown)}")
    losses = executed & m.outgoing(party)
    gains = executed & m.incoming(party)
    return not losses or gains == m.incoming(party)


def payment_to_deal(n: int, amount: int = 1) -> DealMatrix:
    """The chained payment written as a deal: customers 0..n, one money arc per hop.

    The result is never well-formed for n >= 1 (a path is not strongly
    connected): chained payments and swap deals do not coincide.
    """
    as_count(n, "n")
    return DealMatrix(n + 1, {(i, i + 1): Asset("$", amount) for i in range(n)})


# ------------------------------------------------------------------- file format

def parse_deal_file(text: str) -> DealMatrix:
    """Matrix file: a `parties=m` header, then one `i j label magnitude` line per entry.

    Blank lines and `#` comments are skipped.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("parties="):
        raise ConfigError("deal file must start with a parties=<m> header")
    try:
        parties = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ConfigError("bad parties header") from exc
    entries: dict[Arc, Asset] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ConfigError(f"bad entry line {ln!r}; expected: i j label magnitude")
        try:
            i, j = int(parts[0]), int(parts[1])
            magnitude = int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad entry line {ln!r}") from exc
        if (i, j) in entries:
            raise ConfigError(f"duplicate entry ({i},{j})")
        entries[(i, j)] = Asset(parts[2], magnitude)
    return DealMatrix(parties, entries)

