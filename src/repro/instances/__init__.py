"""Running-instance fleets: trace-compliance replay and batched migration.

The paper's controlled evolution is not finished when a change has been
propagated through private processes and public views: the choreography
*instances already running* at the moment a partner evolves must be
carried forward or stranded.  This package turns the repo from a model
checker into a runtime for that workload:

* :mod:`.replay` — a dense trace-replay primitive on the aFSA kernel
  with a memoized per-(version, trace-prefix) cache, so fleets of
  instances sharing prefixes replay in amortized O(1) per event;
* :mod:`.store` — an :class:`InstanceStore` holding lightweight
  instance records (version id, interned trace, status) grouped into
  (version, trace) equivalence classes;
* :mod:`.migrate` — the migration classifier: per the paper's
  compliance criterion each instance is **migratable** (its executed
  log replays into the new model and the residual language is live
  under annotations), **pending** (the continuation exists structurally
  but is blocked on unsupported mandatory messages — partner
  confirmation required), or **stranded**; classification is batched
  per equivalence class with optional fan-out to shards whose
  verdicts are independent of worker count.
"""

from repro.instances.migrate import (
    MIGRATABLE,
    PENDING,
    STRANDED,
    ClassVerdict,
    InstanceVerdict,
    MigrationReport,
    classify_fleet,
    classify_migration,
    classify_trace_reference,
)
from repro.instances.replay import (
    ReplayCache,
    classify_states,
    continuation_witness,
    replay_trace,
)
from repro.instances.store import (
    RUNNING,
    InstanceRecord,
    InstanceStore,
)

__all__ = [
    "MIGRATABLE",
    "PENDING",
    "RUNNING",
    "STRANDED",
    "ClassVerdict",
    "InstanceRecord",
    "InstanceStore",
    "InstanceVerdict",
    "MigrationReport",
    "ReplayCache",
    "classify_fleet",
    "classify_migration",
    "classify_states",
    "classify_trace_reference",
    "continuation_witness",
    "replay_trace",
]
