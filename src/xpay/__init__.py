"""Deterministic simulator and property checker for chained escrow payments.

Public surface: the scenario/runner pair (Scenario, run_simulation), the
protocol constructors (each returns a `Machine` definition shared by the runs,
which wrap it in their own `Automaton`), the timeout derivation, the trace
property checkers, the exhaustive explorer, and the deal-matrix analysis.
"""
from .automata import Automaton, Machine, Receive, State, StateKind, Timeout, Transition
from .core import (
    AuthorizationError,
    ConfigError,
    Envelope,
    ParticipantId,
    ParticipantKind,
    SignedMessage,
    SigningKey,
    customer,
    escrow,
    manager,
    sign,
    verify,
)
from .deals import (
    Asset,
    DealMatrix,
    is_acceptable_payoff,
    is_well_formed,
    payment_to_deal,
)
from .explore import battery_assignments, explore
from .properties import Status, Verdict, evaluate_all
from .protocol import (
    PaymentInstance,
    TimingParams,
    make_alice,
    make_bob,
    make_connector,
    make_escrow,
    make_strong_participants,
    make_transaction_manager,
    make_weak_participants,
)
from .simnet import (
    ForgeryRejected,
    PartialSync,
    Scenario,
    Scripted,
    ScriptRule,
    StrategySpec,
    Synchronous,
    assign_clocks,
    run_simulation,
)
from .timing import ValidationFailed, derive_timeouts, termination_bound, validate_timeouts
from .trace import Rec, Trace, TraceEntry

__version__ = "0.1.0"
