"""Deterministic, seed-driven fault injection.

Chaos testing only proves something when the chaos is reproducible: a fault
schedule must fire at exactly the same write point or task index on every run
with the same seed, so a recovery failure found in CI can be replayed locally
byte for byte.  This module provides that schedule.

A :class:`Fault` names *where* (a site, e.g. one occurrence of a WAL append),
*what* (an action, e.g. a torn write), and *when* (the 0-based occurrence
index at that site, either pinned or drawn deterministically from the
injector's seed).  A :class:`FaultInjector` holds the schedule and is threaded
through the durability and execution layers behind ``if injector is not None``
checks — the hooks are free when no injector is attached, which is every
production configuration.

The injector only *decides*; the instrumented component *acts*.  A WAL that
receives a ``torn-write`` fault writes the partial record itself, because only
it knows the record bytes; the injector stays free of I/O and stays importable
from rank 0 of the layering DAG.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exceptions import ConfigurationError

# -- sites ------------------------------------------------------------------
#: One logged update inside a WAL append (occurrence index == the update's
#: sequence number for a log written by a single engine); a fault that fires
#: acts on the whole record of the update's window.
SITE_WAL_APPEND = "wal.append"
#: One periodic engine snapshot write.
SITE_SNAPSHOT_WRITE = "snapshot.write"
#: One shard task dispatched by a :class:`~repro.matmul.sharding.ShardExecutor`.
SITE_EXECUTOR_TASK = "executor.task"

FAULT_SITES = (SITE_WAL_APPEND, SITE_SNAPSHOT_WRITE, SITE_EXECUTOR_TASK)

# -- actions ----------------------------------------------------------------
#: Simulate process death at the site (before the write unless the fault's
#: payload says ``{"when": "after"}``).
ACTION_CRASH = "crash"
#: Write a strict byte prefix of the record, then crash (a torn tail).
ACTION_TORN_WRITE = "torn-write"
#: Write the record with a flipped byte, then crash (CRC must catch it).
ACTION_CORRUPT_RECORD = "corrupt-record"
#: Kill the worker process executing the task (``os._exit``); outside a
#: process pool this is downgraded to a transient error, because exiting a
#: thread or inline worker would kill the engine process itself.
ACTION_KILL_WORKER = "kill-worker"
#: Raise :class:`~repro.exceptions.InjectedTransientError` from the task.
ACTION_TRANSIENT_ERROR = "transient-error"
#: Sleep ``payload["seconds"]`` inside the task before computing, so a
#: configured task timeout fires in the parent.
ACTION_STALL = "stall"

FAULT_ACTIONS = (
    ACTION_CRASH,
    ACTION_TORN_WRITE,
    ACTION_CORRUPT_RECORD,
    ACTION_KILL_WORKER,
    ACTION_TRANSIENT_ERROR,
    ACTION_STALL,
)

#: Actions each site knows how to act on.
SITE_ACTIONS = {
    SITE_WAL_APPEND: (ACTION_CRASH, ACTION_TORN_WRITE, ACTION_CORRUPT_RECORD),
    SITE_SNAPSHOT_WRITE: (ACTION_CRASH, ACTION_TORN_WRITE),
    SITE_EXECUTOR_TASK: (ACTION_KILL_WORKER, ACTION_TRANSIENT_ERROR, ACTION_STALL),
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: fire ``action`` at occurrence ``at`` of ``site``.

    ``at=None`` asks the injector to draw the occurrence index deterministically
    from its seed, uniform over ``range(horizon)`` — the "crash at a random
    write point" shape the chaos suite uses.  ``times`` arms the fault for that
    many *consecutive* occurrences starting at ``at`` (a persistently failing
    worker is ``times`` large); each firing consumes one charge.  ``payload``
    carries action-specific knobs (``when``, ``keep_bytes``, ``seconds``).
    """

    site: str
    action: str
    at: Optional[int] = None
    horizon: int = 16
    times: int = 1
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.action not in SITE_ACTIONS[self.site]:
            raise ConfigurationError(
                f"action {self.action!r} is not valid at site {self.site!r}; "
                f"expected one of {SITE_ACTIONS[self.site]}"
            )
        if self.at is not None and (not isinstance(self.at, int) or self.at < 0):
            raise ConfigurationError(f"fault occurrence index must be >= 0, got {self.at!r}")
        if self.horizon < 1:
            raise ConfigurationError(f"fault horizon must be positive, got {self.horizon}")
        if self.times < 1:
            raise ConfigurationError(f"fault times must be positive, got {self.times}")
        object.__setattr__(self, "payload", dict(self.payload))

    def describe(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "action": self.action,
            "at": self.at,
            "times": self.times,
            "payload": dict(self.payload),
        }


def derived_seed(seed: int, *parts: object) -> int:
    """A stable sub-seed for ``(seed, parts...)``.

    Hash-free (``hash(str)`` is salted per process) so the same schedule
    resolves identically across runs and machines.
    """
    text = ":".join([str(seed)] + [str(part) for part in parts])
    return zlib.crc32(text.encode("utf-8"))


class FaultInjector:
    """Arms a schedule of :class:`Fault` entries and fires them on demand.

    Instrumented components call :meth:`check` once per occurrence of their
    site; the call increments the site's occurrence counter and returns the
    fault armed for that occurrence (consuming one of its charges) or ``None``.
    Everything is resolved deterministically at construction: two injectors
    built from the same ``(faults, seed)`` fire identically.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        resolved: List[Fault] = []
        for index, fault in enumerate(faults):
            if not isinstance(fault, Fault):
                raise ConfigurationError(
                    f"expected a Fault, got {type(fault).__name__} at schedule index {index}"
                )
            if fault.at is None:
                rng = random.Random(derived_seed(self.seed, fault.site, index))
                fault = replace(fault, at=rng.randrange(fault.horizon))
            resolved.append(fault)
        self.faults: List[Fault] = resolved
        self._charges: List[int] = [fault.times for fault in resolved]
        self._counts: Dict[str, int] = {}
        self.fired: List[Dict[str, object]] = []

    def occurrences(self, site: str) -> int:
        """How many times ``site`` has been checked so far."""
        return self._counts.get(site, 0)

    def check(self, site: str) -> Optional[Fault]:
        """Advance ``site`` by one occurrence; return the fault due now, if any."""
        occurrence = self._counts.get(site, 0)
        self._counts[site] = occurrence + 1
        for index, fault in enumerate(self.faults):
            if fault.site != site or self._charges[index] <= 0:
                continue
            start = fault.at
            if start <= occurrence < start + fault.times and self._charges[index] > 0:
                self._charges[index] -= 1
                self.fired.append(
                    {
                        "site": site,
                        "action": fault.action,
                        "occurrence": occurrence,
                        "schedule_index": index,
                    }
                )
                return fault
        return None

    def rng(self, *parts: object) -> random.Random:
        """A deterministic RNG namespaced by ``parts`` (for payload decisions)."""
        return random.Random(derived_seed(self.seed, *parts))

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled charge has fired."""
        return all(charge <= 0 for charge in self._charges)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly record of the schedule and what has fired (the
        chaos suite uploads this as its CI artifact)."""
        return {
            "seed": self.seed,
            "faults": [fault.describe() for fault in self.faults],
            "fired": [dict(entry) for entry in self.fired],
            "occurrences": dict(self._counts),
            "exhausted": self.exhausted,
        }

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, faults={len(self.faults)}, "
            f"fired={len(self.fired)})"
        )
