"""Multi-party asset-swap deals: the matrix form, its transfer digraph, and payoffs.

A deal is an m-by-m matrix whose (i, j) entry, when present, is the asset
party i transfers to party j. Its digraph has one vertex per party and one
labelled arc per non-empty entry; a deal is well-formed iff that digraph is
strongly connected.

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

from .core import ConfigError

Arc = tuple[int, int]


@dataclass(frozen=True)
class Asset:
    label: str
    magnitude: int

    def __post_init__(self):
        if self.magnitude <= 0:
            raise ConfigError("asset magnitude must be strictly positive")


@dataclass
class DealMatrix:
    parties: int
    entries: dict[Arc, Asset] = field(default_factory=dict)

    def __post_init__(self):
        if self.parties < 1:
            raise ConfigError("a deal needs at least one party")
        for (i, j) in self.entries:
            if i == j:
                raise ConfigError("diagonal entries are not allowed")
            if not (0 <= i < self.parties and 0 <= j < self.parties):
                raise ConfigError(f"entry ({i},{j}) outside 0..{self.parties - 1}")

    def incoming(self, party: int) -> set[Arc]:
        return {arc for arc in self.entries if arc[1] == party}

    def outgoing(self, party: int) -> set[Arc]:
        return {arc for arc in self.entries if arc[0] == party}


@dataclass
class Digraph:
    vertices: int
    arcs: dict[Arc, Asset]


def to_digraph(m: DealMatrix) -> Digraph:
    """One vertex per party, one labelled arc per non-empty entry."""
    return Digraph(m.parties, dict(m.entries))


def _strongly_connected(g: Digraph) -> bool:
    """Iterative Tarjan; true iff the whole vertex set is one component."""
    if g.vertices == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(g.vertices)}
    for (i, j) in g.arcs:
        adj[i].append(j)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    components = 0

    for root in range(g.vertices):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                components += 1
                if components > 1:
                    return False
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    if w == v:
                        break
    return components == 1 and len(index) == g.vertices


def is_well_formed(m: DealMatrix) -> bool:
    """True iff the transfer digraph is strongly connected."""
    return _strongly_connected(to_digraph(m))


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


def payment_to_deal(n: int, amount: int = 1,
                    with_certificate_arcs: bool = False) -> DealMatrix:
    """The chained payment written as a deal: customers 0..n, one money arc per hop.

    The result is never well-formed for n >= 1 (a path is not strongly
    connected): chained payments and swap deals do not coincide. Passing
    with_certificate_arcs=True adds the reverse attestation chain as pseudo
    assets, which closes the cycle; that is an illustrative experiment only,
    no equivalence is claimed.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    entries: dict[Arc, Asset] = {}
    for i in range(n):
        entries[(i, i + 1)] = Asset("$", amount)
    if with_certificate_arcs:
        for i in range(n, 0, -1):
            entries[(i, i - 1)] = Asset("attestation", 1)
    return DealMatrix(n + 1, entries)


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


def format_deal_file(m: DealMatrix) -> str:
    lines = [f"parties={m.parties}"]
    for (i, j) in sorted(m.entries):
        asset = m.entries[(i, j)]
        lines.append(f"{i} {j} {asset.label} {asset.magnitude}")
    return "\n".join(lines) + "\n"
