"""Independent brute-force evaluators used as oracles by the test suite.

Everything here deliberately recomputes results from raw trace entries (or raw
matrices) with straight-line code, sharing no helper with the library's
checkers. When a test compares library verdicts against these, the two sides
are genuinely independent routes to the same answer.

`rerun_explore` is the reference for the library's checkpointed `explore`: the
same branches, each simulated from t=0 by a fresh `run_simulation`.
`format_lines` is the reference for the library's trace renderer.
"""
from __future__ import annotations

from dataclasses import replace

from xpay.automata import Fresh, Receive, State, StateKind, Transition
from xpay.core import (
    AbortCert,
    AbortReq,
    Certificate,
    CommitCert,
    CommitReq,
    LockNotice,
    Money,
    SignedMessage,
    customer,
    escrow,
    manager,
    verify,
)
from xpay.explore import POLICIES, BranchOutcome, ExploreReport, _DecidedDelays, assignment_label
from xpay.properties import Status, bob_paid, check_liveness, safety_verdicts
from xpay.simnet import run_simulation
from xpay.trace import Rec


def final_summary(trace):
    """Final balances, terminal states, delivered/issued certificates, per participant."""
    balances = dict(trace.meta.initial_balances)
    terminal = {}
    got_chi = set()
    got_commit = set()
    got_abort = set()
    issued_chi = set()
    made_payment = set()
    below_initial = set()
    bob = customer(trace.meta.n)
    tm = manager()
    for e in trace.entries:
        if e.rec is Rec.TRANSFERRED:
            if e.phase == "sent":
                balances[e.frm] -= e.amount
            else:
                balances[e.to] += e.amount
            for p, b in balances.items():
                if b < trace.meta.initial_balances.get(p, 0):
                    below_initial.add(p)
        elif e.rec is Rec.TERMINAL_REACHED:
            terminal.setdefault(e.participant, (e.t, e.state))
        elif e.rec is Rec.DELIVERED:
            payload = e.env.msg.payload
            if isinstance(payload, Certificate) and verify(e.env.msg, bob):
                got_chi.add(e.participant)
            elif isinstance(payload, CommitCert) and verify(e.env.msg, tm):
                got_commit.add(e.participant)
            elif isinstance(payload, AbortCert) and verify(e.env.msg, tm):
                got_abort.add(e.participant)
        elif e.rec is Rec.SENT and e.participant == bob:
            payload = e.env.msg.payload
            if isinstance(payload, Certificate) and verify(e.env.msg, bob):
                issued_chi.add(e.participant)
            elif isinstance(payload, CommitReq) and verify(payload.certificate, bob):
                issued_chi.add(e.participant)
        if e.rec is Rec.SENT and isinstance(e.env.msg.payload, Money):
            made_payment.add(e.participant)
    return {
        "balances": balances,
        "terminal": terminal,
        "got_chi": got_chi,
        "got_commit": got_commit,
        "got_abort": got_abort,
        "issued_chi": issued_chi,
        "made_payment": made_payment,
        "below_initial": below_initial,
    }


def brute_force_statuses(trace, bound=None):
    """Each clause evaluated directly from the final-state summary.

    Returns {name: "HOLDS" | "VIOLATED" | "VACUOUS"} for C, T, ES, CS1, CS2,
    CS3, L (and CC on weak traces).
    """
    meta = trace.meta
    weak = meta.variant == "weak"
    s = final_summary(trace)
    compliant = meta.compliant
    init = meta.initial_balances
    out = {}

    # C: no compliant participant logged an impossible step
    impossible = any(e.rec is Rec.IMPOSSIBLE_STEP and e.participant in compliant
                     for e in trace.entries)
    out["C"] = "VIOLATED" if impossible else "HOLDS"

    # T
    if bound is None and not weak:
        from xpay.timing import termination_bound
        bound = termination_bound(meta.params)
    limit = meta.horizon if weak else bound
    decision_issued = any(
        e.rec is Rec.SENT and e.participant == manager()
        and isinstance(e.env.msg.payload, (AbortCert, CommitCert))
        for e in trace.entries)
    evaluated = 0
    bad = 0
    for k in range(meta.n + 1):
        c = customer(k)
        if c not in compliant:
            continue
        her_escrows = [escrow(j) for j in (k - 1, k) if 0 <= j < meta.n]
        if any(e not in compliant for e in her_escrows):
            continue
        if weak:
            patience = meta.patience[k] if meta.patience else None
            if patience is None and not decision_issued:
                continue
        else:
            bob = customer(meta.n)
            active = c in s["made_payment"] or (c == bob and c in s["issued_chi"])
            if not active:
                continue
        evaluated += 1
        hit = s["terminal"].get(c)
        if hit is None or hit[0] > limit:
            bad += 1
    out["T"] = "VIOLATED" if bad else ("HOLDS" if evaluated else "VACUOUS")

    # ES
    evaluated = 0
    bad = 0
    for i in range(meta.n):
        e = escrow(i)
        if e not in compliant:
            continue
        evaluated += 1
        if e in s["below_initial"] or s["balances"][e] < init[e]:
            bad += 1
    out["ES"] = "VIOLATED" if bad else ("HOLDS" if evaluated else "VACUOUS")

    # CS1
    alice = customer(0)
    if alice in compliant and escrow(0) in compliant and alice in s["terminal"]:
        back = s["balances"][alice] >= init[alice]
        cert = alice in (s["got_commit"] if weak else s["got_chi"])
        out["CS1"] = "HOLDS" if back or cert else "VIOLATED"
    else:
        out["CS1"] = "VACUOUS"

    # CS2
    bob = customer(meta.n)
    if bob in compliant and escrow(meta.n - 1) in compliant and bob in s["terminal"]:
        paid = s["balances"][bob] >= init[bob] + meta.amount
        if weak:
            ok = paid or bob in s["got_abort"]
        else:
            ok = paid or bob not in s["issued_chi"]
        out["CS2"] = "HOLDS" if ok else "VIOLATED"
    else:
        out["CS2"] = "VACUOUS"

    # CS3
    evaluated = 0
    bad = 0
    for k in range(1, meta.n):
        c = customer(k)
        if c not in compliant:
            continue
        if escrow(k - 1) not in compliant or escrow(k) not in compliant:
            continue
        if c not in s["terminal"]:
            continue
        evaluated += 1
        if s["balances"][c] < init[c]:
            bad += 1
    out["CS3"] = "VIOLATED" if bad else ("HOLDS" if evaluated else "VACUOUS")

    # L
    if len(compliant) == len(init) and (not weak or meta.patience_sufficient):
        paid = bob in s["terminal"] and s["balances"][bob] >= init[bob] + meta.amount
        out["L"] = "HOLDS" if paid else "VIOLATED"
    else:
        out["L"] = "VACUOUS"

    if weak:
        kinds = set()
        for e in trace.entries:
            if e.rec is Rec.SENT and e.participant == manager():
                if isinstance(e.env.msg.payload, AbortCert):
                    kinds.add("abort")
                elif isinstance(e.env.msg.payload, CommitCert):
                    kinds.add("commit")
        out["CC"] = "VIOLATED" if len(kinds) > 1 else "HOLDS"
    return out


def reachable_from(adjacency: dict[int, set[int]], start: int, vertices: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def strongly_connected_bruteforce(parties: int, arcs) -> bool:
    """All-pairs reachability by repeated BFS; the oracle for is_well_formed."""
    adjacency: dict[int, set[int]] = {}
    for (i, j) in arcs:
        adjacency.setdefault(i, set()).add(j)
    for v in range(parties):
        if len(reachable_from(adjacency, v, parties)) != parties:
            return False
    return True


def acceptable_by_definition(m, party: int, outcome) -> bool:
    """The payoff definition applied literally: all-or-nothing plus dominance closure.

    Enumerates the base acceptable outcomes (full execution restricted to the
    party, and every no-loss outcome) and asks whether `outcome` dominates one
    of them (loses less and/or gains more).
    """
    executed = set(outcome)
    gains = {a for a in executed if a[1] == party}
    losses = {a for a in executed if a[0] == party}
    all_in = {a for a in m.entries if a[1] == party}
    all_out = {a for a in m.entries if a[0] == party}
    base = [(all_in, all_out), (set(), set())]  # full swap, lose-nothing
    for base_gain, base_loss in base:
        if gains >= base_gain and losses <= base_loss:
            return True
    return False


def eager_manager_states(n: int, pay) -> dict[str, State]:
    """The transaction manager's full state table, every collect state built up
    front as the product of lock bitmask and commit-request flag (2^(n+1) - 1
    collect states), with a fresh guard on every transition.

    The reference the on-demand manager of `make_transaction_manager` is
    compared against state by state; its initial state is collect_0..0_-.
    """
    bob = customer(n)
    full = (1 << n) - 1

    def chi_valid(payload) -> bool:
        cert = payload.certificate
        return (
            isinstance(cert, SignedMessage)
            and isinstance(cert.payload, Certificate)
            and cert.payload.instance == pay.instance
            and verify(cert, bob)
        )

    recv_commit_req = Receive(bob, CommitReq, attrs=(("instance", pay.instance),), where=chi_valid)

    def collect_name(mask: int, chi: bool) -> str:
        return f"collect_{mask:0{n}b}_{'x' if chi else '-'}"

    everyone = [escrow(i) for i in range(n)] + [customer(k) for k in range(n + 1)]
    states: dict[str, State] = {}

    for mask in range(full + 1):
        for chi in (False, True):
            if mask == full and chi:
                continue  # that configuration decides commit immediately
            transitions = []
            for i in range(n):
                if mask & (1 << i):
                    continue
                new_mask = mask | (1 << i)
                target = "decide_commit" if (new_mask == full and chi) else collect_name(new_mask, chi)
                transitions.append(Transition(target, guard=Receive(
                    escrow(i), LockNotice,
                    attrs=(("instance", pay.instance), ("escrow_index", i)),
                    signed_by=escrow(i))))
            if not chi:
                target = "decide_commit" if mask == full else collect_name(mask, True)
                transitions.append(Transition(target, guard=recv_commit_req, capture="creq"))
            for k in range(n + 1):
                transitions.append(Transition("decide_abort", guard=Receive(
                    customer(k), AbortReq, attrs=(("instance", pay.instance),),
                    signed_by=customer(k))))
            name = collect_name(mask, chi)
            states[name] = State(name, StateKind.INPUT, tuple(transitions))

    states["decide_commit"] = State("decide_commit", StateKind.OUTPUT, (
        Transition("decided_commit",
                   emits=tuple((p, Fresh(CommitCert(pay.instance))) for p in everyone)),
    ))
    states["decide_abort"] = State("decide_abort", StateKind.OUTPUT, (
        Transition("decided_abort",
                   emits=tuple((p, Fresh(AbortCert(pay.instance))) for p in everyone)),
    ))

    for decision, cert_type in (("commit", CommitCert), ("abort", AbortCert)):
        decided = f"decided_{decision}"
        transitions = []
        for k in range(n + 1):
            answer = f"reanswer_{decision}_c{k}"
            transitions.append(Transition(answer, guard=Receive(
                customer(k), AbortReq, attrs=(("instance", pay.instance),),
                signed_by=customer(k))))
            states[answer] = State(answer, StateKind.OUTPUT, (
                Transition(decided, emits=((customer(k), Fresh(cert_type(pay.instance))),)),
            ))
        late_commit = f"reanswer_{decision}_creq"
        transitions.append(Transition(late_commit, guard=recv_commit_req))
        states[late_commit] = State(late_commit, StateKind.OUTPUT, (
            Transition(decided, emits=((bob, Fresh(cert_type(pay.instance))),)),
        ))
        states[decided] = State(decided, StateKind.INPUT, tuple(transitions))

    return states


def rerun_explore(base, assignments=({},), grid=None, budget=200_000, on_branch=None):
    """`xpay.explore.explore` as it was before checkpoints: every branch runs
    from t=0 under its own scenario. Same arguments, same branch order, same
    report fields; `entries_simulated` is every entry, as nothing is reused."""
    if grid is None:
        grid = getattr(base.delay, "grid", None)
        if grid is None and base.delay.delta_bound() is not None:
            grid = (base.delay.delta_bound(),)
    grid = tuple(grid)
    params = base.resolved_timing()
    report = ExploreReport()

    for assignment in assignments:
        label = assignment_label(assignment)
        report.bob_paid_everywhere.setdefault(label, True)
        decisions = []
        while True:
            had_tie = False
            for k, policy in enumerate(POLICIES):
                if k > 0 and not had_tie:
                    break
                if report.branches >= budget:
                    report.complete = False
                    return report
                model = _DecidedDelays(grid, set(assignment), decisions,
                                       base.delay.delta_bound())
                scenario = replace(base, delay=model, timing=params,
                                   byzantine=dict(assignment),
                                   tie_break=policy[0], rx_order=policy[1])
                trace = run_simulation(scenario)
                if k == 0:
                    had_tie = trace.had_tie
                report.entries_simulated += len(trace.entries)
                verdicts = safety_verdicts(trace)
                live = check_liveness(trace)
                paid = policy[0] != "receive_first" or (
                    live.status is Status.HOLDS or (
                        live.status is not Status.VIOLATED and bob_paid(trace)))
                for k in range(base.n + 1):
                    hit = trace.terminal_entry(customer(k))
                    if hit is not None and (report.max_customer_terminal is None
                                            or hit[1].t > report.max_customer_terminal):
                        report.max_customer_terminal = hit[1].t
                outcome = BranchOutcome(label, policy, tuple(decisions), verdicts, trace)
                if on_branch is not None:
                    on_branch(outcome)
                report._record(outcome, paid)
            while decisions and decisions[-1] == len(grid) - 1:
                decisions.pop()
            if not decisions:
                break
            decisions[-1] += 1
    return report


def format_lines(entries):
    """The library's `xpay.trace.format_lines` as it was before its line
    prefixes were cached: each line built from its entry's fields alone, each
    time read as a Fraction and formatted where it is read, and message tokens
    formatted once per message."""
    tokens = {}

    def fmt(x):
        return f"{x.numerator}/{x.denominator}"

    def token(msg):
        text = tokens.get(id(msg))
        if text is None:
            text = tokens[id(msg)] = msg.token()
        return text

    out = []
    for e in entries:
        rec = e.rec
        head = f"t={fmt(e.t)} seq={e.seq} p={e.participant} lt={fmt(e.local)} ev={rec.value}"
        if rec is Rec.STATE_ENTERED:
            out.append(f"{head} state={e.state}")
        elif rec is Rec.SENT:
            out.append(f"{head} dst={e.env.dst} msg={token(e.env.msg)}")
        elif rec is Rec.DELIVERED:
            out.append(f"{head} src={e.env.src} msg={token(e.env.msg)} delay={fmt(e.delay)}")
        elif rec is Rec.TRANSFERRED:
            out.append(f"{head} from={e.frm} to={e.to} amount={e.amount} phase={e.phase}")
        elif rec is Rec.TERMINAL_REACHED:
            out.append(f"{head} state={e.state} discarded={e.discarded}")
        elif rec is Rec.TIMEOUT_FIRED:
            out.append(f"{head} state={e.state} deadline={fmt(e.deadline)}")
        elif rec is Rec.REJECTED:
            out.append(f"{head} src={e.env.src} msg={token(e.env.msg)} reason={e.reason}")
        else:  # IMPOSSIBLE_STEP
            out.append(f"{head} reason={e.reason}")
    return out
