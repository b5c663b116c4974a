"""Force a scheduler regime on real shards.

The runtime takes no option and reads no environment variable that
selects a regime, so tests force one with what they own:

* :func:`scheduler` patches the scheduler's constants in
  :mod:`repro.core.runtime` for the duration of a ``with`` block:
  :data:`FAN_OUT` fans out every grid that may (``workers > 1``, more
  than one item) and :data:`NO_FAN_OUT` runs every grid in the
  parent, whatever the measured costs predict;
  :data:`FORCED_SPECULATION` backs up every chunk older than 2 ms,
  :data:`NO_SPECULATION` makes the straggler threshold infinite (no
  backups and no steals), and ``_WINDOW`` / ``_SPILL_FACTOR`` set the
  in-flight window and the spill cap;
* :func:`fork_fleet` forks a runtime's local shards one at a time and
  gives the chosen slots a chunk function that sleeps per item first.
  The function is patched only while those shards fork, so the parent
  and every other shard keep the real one.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

import pytest

from repro.core import runtime as runtime_module

#: Fan out every grid that may fan out.
FAN_OUT = {"_FORCE_FAN_OUT": True}

#: Run every grid in the parent.
NO_FAN_OUT = {"_FORCE_FAN_OUT": False}

#: Back up any chunk older than 2 ms.
FORCED_SPECULATION = {"_SPECULATE_MULTIPLE": 0.0, "_SPECULATE_FLOOR_S": 0.002}

#: No chunk is ever straggling: no backups, no steals.
NO_SPECULATION = {"_SPECULATE_FLOOR_S": math.inf}


@contextmanager
def scheduler(**constants):
    """Set :mod:`repro.core.runtime` constants inside the block only."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            assert hasattr(runtime_module, name), name
            patch.setattr(runtime_module, name, value)
        yield


def fork_fleet(runtime, size: int, slow, chunk, seconds_per_item: float):
    """Fork *runtime*'s local shards ``0 .. size-1`` in slot order.

    Each slot in *slow* forks while the module attribute the transport
    resolves *chunk* by (``chunk.__module__``, ``chunk.__name__``) is a
    wrapper that first sleeps *seconds_per_item* for every item of the
    payload (``payload[2]``: a sweep chunk's pairs, a migration chunk's
    traces), so that shard runs slow for its whole life.
    """
    module = sys.modules[chunk.__module__]

    def slowed(payload):
        time.sleep(seconds_per_item * max(1, len(payload[2])))
        return chunk(payload)

    for slot in range(size):
        with pytest.MonkeyPatch.context() as patch:
            if slot in slow:
                patch.setattr(module, chunk.__name__, slowed)
            runtime.ensure_pool(slot + 1)
