"""Typed, validated engine configuration.

:class:`EngineConfig` is the single description of "how to run a counter" that
every consumer — CLI, harness, benchmarks, examples, checkpoints — shares.  It
captures the counter name, its counter-specific options, the batch size the
stream is windowed into, the cost-model switch, the shard worker count and
the durability settings, and it round-trips through plain dictionaries
(:meth:`EngineConfig.to_dict` / :meth:`EngineConfig.from_dict`) so it can
live inside CLI arguments and JSON artifacts unchanged.

Validation happens at construction time, against the counter's registered
:class:`~repro.api.registry.CounterSpec`: an unknown counter name or an option
the counter does not accept raises
:class:`~repro.exceptions.ConfigurationError` here, at the API boundary,
instead of a ``TypeError`` deep inside a constructor.

Which kernel runs a product is not configuration: the counters' product
dispatcher picks dense BLAS or CSR SpGEMM, and their shard executor picks the
execution vehicle, per product from its cost.  Configs persisted by earlier
versions still name such settings; :meth:`EngineConfig.from_dict` accepts
them with the values those versions accepted, and drops them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Tuple

from repro.api.registry import counter_spec
from repro.exceptions import ConfigurationError

#: Options accepted by every counter but owned by :class:`EngineConfig` itself;
#: they must be set through the config fields, not the options mapping, so a
#: config never says the same thing twice.
_RESERVED_OPTIONS = ("workers", "wal_path", "snapshot_every", "fsync_policy")

#: WAL fsync policies (mirrors :data:`repro.durability.wal.FSYNC_POLICIES`;
#: duplicated literally so a config error does not require importing the
#: durability layer).
_FSYNC_POLICY_CHOICES = ("always", "batch", "never")

#: Keys of removed settings that persisted configs still carry (``to_dict``
#: writes every field into snapshots and ``<wal>.meta.json``): for each, the
#: values the versions that wrote it accepted, and what replaced it.  None of
#: them ever changed a count, so :meth:`EngineConfig.from_dict` drops an
#: accepted value and refuses any other.
_REMOVED_KEYS: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "interned": (
        lambda value: value is True,
        "the label-only graph mode was removed and every graph is interned",
    ),
    "backend": (
        lambda value: value in ("auto", "dense", "csr"),
        "the setting was removed; the product dispatcher picks dense BLAS or "
        "CSR SpGEMM for each product",
    ),
    "shard_policy": (
        lambda value: value in ("auto", "serial", "thread", "process"),
        "the setting was removed; the shard executor picks the serial, thread "
        "or process vehicle for each product",
    ),
    "block_entries": (
        lambda value: value is None
        or (isinstance(value, int) and not isinstance(value, bool) and value >= 1),
        "the setting was removed; every SpGEMM row block is bounded by the "
        "constant SPGEMM_BLOCK_ENTRIES",
    ),
    "record_metrics": (
        lambda value: isinstance(value, bool),
        "the counters' own per-update recorder was removed; the harness in "
        "repro.instrumentation measures every update or window",
    ),
}


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build and drive a :class:`FourCycleEngine`.

    ``options`` holds only counter-specific knobs (e.g. ``phase_length`` for
    the phase-based counters); the one option shared by every counter, the
    shard-parallel SpGEMM ``workers`` count, is a top-level field.
    ``track_costs=False`` disables the operation-count cost model entirely,
    which removes the per-operation accounting overhead from hot paths.
    """

    counter: str = "assadi-shah"
    options: Mapping[str, object] = field(default_factory=dict)
    batch_size: int = 1
    track_costs: bool = True
    workers: int = 1
    #: Durability: a write-ahead log path enables crash-safe operation (every
    #: apply/apply_batch window is logged as one record before it is applied;
    #: see :mod:`repro.durability`); ``snapshot_every`` checkpoints next to
    #: the log after that many logged updates; ``fsync_policy`` picks when the
    #: log hits stable storage ("always" per record, "batch" per
    #: apply/apply_batch call, "never").
    wal_path: "str | None" = None
    snapshot_every: "int | None" = None
    fsync_policy: str = "batch"

    def __post_init__(self) -> None:
        if not isinstance(self.counter, str):
            raise ConfigurationError(
                f"counter must be a string, got {type(self.counter).__name__}"
            )
        if not isinstance(self.track_costs, bool):
            raise ConfigurationError(
                f"track_costs must be a boolean, got {type(self.track_costs).__name__}"
            )
        if not isinstance(self.batch_size, int) or isinstance(self.batch_size, bool):
            raise ConfigurationError(
                f"batch_size must be an integer, got {type(self.batch_size).__name__}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ConfigurationError(
                f"workers must be an integer, got {type(self.workers).__name__}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")
        if self.wal_path is not None:
            if not isinstance(self.wal_path, (str, bytes)) and not hasattr(self.wal_path, "__fspath__"):
                raise ConfigurationError(
                    f"wal_path must be a path or None, got {type(self.wal_path).__name__}"
                )
            object.__setattr__(self, "wal_path", os.fsdecode(self.wal_path))
        if self.snapshot_every is not None:
            if not isinstance(self.snapshot_every, int) or isinstance(self.snapshot_every, bool):
                raise ConfigurationError(
                    f"snapshot_every must be an integer or None, "
                    f"got {type(self.snapshot_every).__name__}"
                )
            if self.snapshot_every < 1:
                raise ConfigurationError(
                    f"snapshot_every must be positive, got {self.snapshot_every}"
                )
            if self.wal_path is None:
                raise ConfigurationError(
                    "snapshot_every requires wal_path (snapshots live next to the log)"
                )
        if self.fsync_policy not in _FSYNC_POLICY_CHOICES:
            raise ConfigurationError(
                f"fsync_policy must be one of {', '.join(_FSYNC_POLICY_CHOICES)}, "
                f"got {self.fsync_policy!r}"
            )
        object.__setattr__(self, "options", dict(self.options))
        reserved = sorted(set(self.options) & set(_RESERVED_OPTIONS))
        if reserved:
            raise ConfigurationError(
                f"option{'s' if len(reserved) > 1 else ''} "
                f"{', '.join(repr(name) for name in reserved)} must be set via the "
                f"EngineConfig field of the same name, not the options mapping"
            )
        # Raises on unknown counter names and on options the counter's spec
        # does not list (the reserved common options were handled above).
        spec = counter_spec(self.counter)
        spec.validate_options(self.options)
        # A spec registered from a bare factory (``options is None``) is
        # assumed to follow the base-class signature and accept ``workers``.
        accepts_workers = spec.options is None or "workers" in spec.option_names()
        if self.workers != 1 and not accepts_workers:
            raise ConfigurationError(
                f"counter {self.counter!r} does not accept the 'workers' option; "
                f"only workers=1 is valid for it"
            )

    @property
    def spec(self):
        """The :class:`~repro.api.registry.CounterSpec` this config targets."""
        return counter_spec(self.counter)

    def counter_kwargs(self) -> Dict[str, object]:
        """The full keyword set to instantiate the counter with.

        ``workers`` is forwarded only to counters that declare the option —
        and, for bare-factory specs (``options is None``, signature unknown),
        only when set above 1 — so a third-party counter that predates the
        option keeps working under the default config.
        """
        kwargs = dict(self.options)
        spec = self.spec
        if "workers" in spec.option_names() or (spec.options is None and self.workers != 1):
            kwargs["workers"] = self.workers
        return kwargs

    def with_updates(self, **changes) -> "EngineConfig":
        """A copy of this config with the given fields replaced (validated
        again; a name that is not a field raises ``TypeError``)."""
        return replace(self, **changes)

    # -- dict round-trips ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain-dict representation (JSON-friendly, CLI-friendly)."""
        payload = {item.name: getattr(self, item.name) for item in fields(self)}
        payload["options"] = dict(self.options)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; every key is optional, unknown keys are
        rejected with a :class:`ConfigurationError`.

        Snapshots and WAL meta files written by earlier versions carry the
        keys of removed settings (``interned``, ``backend``, ``shard_policy``,
        ``block_entries``, ``record_metrics``); each is accepted with any
        value those versions accepted, and dropped.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"engine config must be a mapping, got {type(payload).__name__}"
            )
        for key, (accepted, replacement) in _REMOVED_KEYS.items():
            if key in payload and not accepted(payload[key]):
                raise ConfigurationError(
                    f"{key}={payload[key]!r} is not supported: {replacement}"
                )
        payload = {key: value for key, value in payload.items() if key not in _REMOVED_KEYS}
        known = {item.name for item in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown engine-config key{'s' if len(unknown) > 1 else ''}: "
                f"{', '.join(repr(key) for key in unknown)}; expected a subset of "
                f"{', '.join(sorted(known))}"
            )
        options = payload.get("options", {})
        if not isinstance(options, Mapping):
            raise ConfigurationError(
                f"engine-config options must be a mapping, got {type(options).__name__}"
            )
        return cls(**payload)

    @classmethod
    def from_counter_kwargs(
        cls, name: str, kwargs: Mapping[str, object], batch_size: int = 1
    ) -> "EngineConfig":
        """Build a config from a flat dict of counter keyword arguments.

        The shared ``workers`` keyword is lifted into its config field;
        everything else stays counter-specific.
        """
        options = dict(kwargs)
        workers = int(options.pop("workers", 1))
        return cls(counter=name, options=options, batch_size=batch_size, workers=workers)
