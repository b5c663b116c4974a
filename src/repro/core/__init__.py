"""The paper's primary contribution: controlled choreography evolution.

* :mod:`.changes` — structural change operations on private processes
  (Sect. 4's change framework, applied functionally);
* :mod:`.classify` — additive/subtractive (Def. 5) and
  variant/invariant (Def. 6) classification;
* :mod:`.propagate` — the 5-step propagation algorithms for variant
  additive (Sect. 5.2) and variant subtractive (Sect. 5.3) changes,
  including region detection via the mapping table;
* :mod:`.suggestions` — concrete, executable private-process edit
  suggestions (receive → pick, loop unfolding);
* :mod:`.choreography` — the multi-party choreography container with
  bilateral and decentralized consistency checking;
* :mod:`.sweep` — the batched (optionally fanned-out) consistency
  sweep engine behind every pairwise check;
* :mod:`.engine` — the Fig. 4 evolution loop tying everything together.
"""

from repro.core.changes import (
    AddPickBranch,
    AddSwitchBranch,
    BoundLoop,
    ChangeOperation,
    ChangeSet,
    ChangeLoopCondition,
    DeleteActivity,
    InsertActivity,
    MoveActivity,
    ReceiveToPick,
    RemoveLoop,
    RemovePickBranch,
    RemoveSwitchBranch,
    ReplaceActivity,
    UnfoldLoop,
)
from repro.core.classify import (
    ADDITIVE,
    BOTH,
    INVARIANT,
    NEUTRAL,
    SUBTRACTIVE,
    VARIANT,
    ChangeClassification,
    classify_change,
    classify_against_partner,
)
from repro.core.propagate import (
    PropagationResult,
    propagate_additive,
    propagate_subtractive,
)
from repro.core.suggestions import EditSuggestion, derive_suggestions
from repro.core.choreography import Choreography, ConsistencyReport
from repro.core.sweep import (
    PairOutcome,
    SweepReport,
    sweep_choreography,
    sweep_pairs,
)
from repro.core.history import ProcessHistory, ProcessVersion
from repro.core.negotiation import (
    ChangeNegotiation,
    NegotiationOutcome,
    PartnerAgent,
)
from repro.core.engine import EvolutionEngine, EvolutionReport, PartnerImpact

__all__ = [
    "ADDITIVE",
    "AddPickBranch",
    "AddSwitchBranch",
    "BOTH",
    "BoundLoop",
    "ChangeClassification",
    "ChangeLoopCondition",
    "ChangeNegotiation",
    "ChangeOperation",
    "ChangeSet",
    "Choreography",
    "ConsistencyReport",
    "DeleteActivity",
    "EditSuggestion",
    "EvolutionEngine",
    "EvolutionReport",
    "INVARIANT",
    "InsertActivity",
    "MoveActivity",
    "NEUTRAL",
    "NegotiationOutcome",
    "PairOutcome",
    "PartnerAgent",
    "ProcessHistory",
    "ProcessVersion",
    "PartnerImpact",
    "PropagationResult",
    "ReceiveToPick",
    "RemoveLoop",
    "RemovePickBranch",
    "RemoveSwitchBranch",
    "ReplaceActivity",
    "SUBTRACTIVE",
    "SweepReport",
    "UnfoldLoop",
    "VARIANT",
    "classify_against_partner",
    "classify_change",
    "derive_suggestions",
    "propagate_additive",
    "propagate_subtractive",
    "sweep_choreography",
    "sweep_pairs",
]
