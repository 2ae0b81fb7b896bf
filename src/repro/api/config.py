"""Typed, validated engine configuration.

:class:`EngineConfig` is the single description of "how to run a counter" that
every consumer — CLI, harness, benchmarks, examples, checkpoints — shares.  It
captures the counter name, its counter-specific options, the batch size the
stream is windowed into, and the metrics/cost-model switches, and it
round-trips through plain dictionaries (:meth:`EngineConfig.to_dict` /
:meth:`EngineConfig.from_dict`) so it can live inside CLI arguments and JSON
artifacts unchanged.

Validation happens at construction time, against the counter's registered
:class:`~repro.api.registry.CounterSpec`: an unknown counter name or an option
the counter does not accept raises
:class:`~repro.exceptions.ConfigurationError` here, at the API boundary,
instead of a ``TypeError`` deep inside a constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.api.registry import counter_spec
from repro.exceptions import ConfigurationError

#: Options accepted by every counter but owned by :class:`EngineConfig` itself;
#: they must be set through the config fields, not the options mapping, so a
#: config never says the same thing twice.
_RESERVED_OPTIONS = (
    "record_metrics", "backend", "workers", "shard_policy", "block_entries",
    "wal_path", "snapshot_every", "fsync_policy",
)

#: Matmul backends a counter's batch kernels accept (mirrors
#: :data:`repro.matmul.scheduler.PRODUCT_BACKENDS`; duplicated literally so a
#: config error does not require importing the matmul layer).
_BACKEND_CHOICES = ("auto", "dense", "csr")

#: Shard execution policies the counters' shard-parallel SpGEMM accepts
#: (mirrors :data:`repro.matmul.sharding.SHARD_POLICIES`; duplicated literally
#: for the same import-isolation reason as the backends above).
_SHARD_POLICY_CHOICES = ("auto", "serial", "thread", "process")

#: WAL fsync policies (mirrors :data:`repro.durability.wal.FSYNC_POLICIES`;
#: duplicated literally for the same import-isolation reason).
_FSYNC_POLICY_CHOICES = ("always", "batch", "never")


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build and drive a :class:`FourCycleEngine`.

    ``options`` holds only counter-specific knobs (e.g. ``phase_length`` for
    the phase-based counters); the switches shared by every counter —
    ``record_metrics`` and the batch-kernel matmul ``backend``
    (``"auto"`` dispatches dense BLAS versus CSR SpGEMM per product by density;
    ``"dense"``/``"csr"`` pin the kernel) — are top-level fields.
    ``track_costs=False`` disables the operation-count cost model entirely,
    which removes the per-operation accounting overhead from hot paths.
    """

    counter: str = "assadi-shah"
    options: Mapping[str, object] = field(default_factory=dict)
    batch_size: int = 1
    record_metrics: bool = False
    track_costs: bool = True
    backend: str = "auto"
    workers: int = 1
    shard_policy: str = "auto"
    block_entries: "int | None" = None
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
        for name in ("record_metrics", "track_costs"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be a boolean, got {type(value).__name__}"
                )
        if not isinstance(self.batch_size, int) or isinstance(self.batch_size, bool):
            raise ConfigurationError(
                f"batch_size must be an integer, got {type(self.batch_size).__name__}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.backend not in _BACKEND_CHOICES:
            raise ConfigurationError(
                f"backend must be one of {', '.join(_BACKEND_CHOICES)}, "
                f"got {self.backend!r}"
            )
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ConfigurationError(
                f"workers must be an integer, got {type(self.workers).__name__}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")
        if self.shard_policy not in _SHARD_POLICY_CHOICES:
            raise ConfigurationError(
                f"shard_policy must be one of {', '.join(_SHARD_POLICY_CHOICES)}, "
                f"got {self.shard_policy!r}"
            )
        if self.block_entries is not None:
            if not isinstance(self.block_entries, int) or isinstance(self.block_entries, bool):
                raise ConfigurationError(
                    f"block_entries must be an integer or None, "
                    f"got {type(self.block_entries).__name__}"
                )
            if self.block_entries < 1:
                raise ConfigurationError(
                    f"block_entries must be positive, got {self.block_entries}"
                )
        if self.wal_path is not None:
            if not isinstance(self.wal_path, (str, bytes)) and not hasattr(self.wal_path, "__fspath__"):
                raise ConfigurationError(
                    f"wal_path must be a path or None, got {type(self.wal_path).__name__}"
                )
            object.__setattr__(self, "wal_path", str(self.wal_path))
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
        for name, value, default in self._kernel_fields():
            if value != default and not self._spec_accepts(spec, name):
                raise ConfigurationError(
                    f"counter {self.counter!r} does not accept the {name!r} option; "
                    f"only {name}={default!r} is valid for it"
                )

    def _kernel_fields(self) -> tuple:
        """The shared batch-kernel fields forwarded like counter options."""
        return (
            ("backend", self.backend, "auto"),
            ("workers", self.workers, 1),
            ("shard_policy", self.shard_policy, "auto"),
            ("block_entries", self.block_entries, None),
        )

    @staticmethod
    def _spec_accepts(spec, name: str) -> bool:
        """Whether the counter takes one of the shared kernel keywords.

        Registered built-ins declare them in their option list; legacy specs
        registered from a bare factory (``options is None``) are assumed to
        follow the base-class signature and accept them.
        """
        return spec.options is None or name in spec.option_names()

    @property
    def spec(self):
        """The :class:`~repro.api.registry.CounterSpec` this config targets."""
        return counter_spec(self.counter)

    def counter_kwargs(self) -> Dict[str, object]:
        """The full keyword set to instantiate the counter with.

        The shared kernel fields (``backend``, ``workers``, ``shard_policy``,
        ``block_entries``) are forwarded only to counters that declare the
        option — and, for legacy bare-factory specs (``options is None``,
        signature unknown), only when explicitly set to a non-default value —
        so a third-party counter that predates an option keeps working under
        the default config.
        """
        kwargs = dict(self.options, record_metrics=self.record_metrics)
        spec = self.spec
        for name, value, default in self._kernel_fields():
            if name in spec.option_names() or (spec.options is None and value != default):
                kwargs[name] = value
        return kwargs

    def with_updates(self, **changes) -> "EngineConfig":
        """A copy of this config with the given fields replaced."""
        payload = self.to_dict()
        payload.update(changes)
        return EngineConfig.from_dict(payload)

    # -- dict round-trips ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain-dict representation (JSON-friendly, CLI-friendly)."""
        return {
            "counter": self.counter,
            "options": dict(self.options),
            "batch_size": self.batch_size,
            "record_metrics": self.record_metrics,
            "track_costs": self.track_costs,
            "backend": self.backend,
            "workers": self.workers,
            "shard_policy": self.shard_policy,
            "block_entries": self.block_entries,
            "wal_path": self.wal_path,
            "snapshot_every": self.snapshot_every,
            "fsync_policy": self.fsync_policy,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; every key is optional, unknown keys are
        rejected with a :class:`ConfigurationError`.

        Snapshots and WAL meta files written while the label-only graph mode
        existed carry ``"interned": true``; that key is accepted with that
        value only, and dropped.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"engine config must be a mapping, got {type(payload).__name__}"
            )
        if "interned" in payload:
            if payload["interned"] is not True:
                raise ConfigurationError(
                    f"interned={payload['interned']!r} is not supported: the label-only "
                    "graph mode was removed and every graph is interned"
                )
            payload = {key: value for key, value in payload.items() if key != "interned"}
        known = {
            "counter", "options", "batch_size", "record_metrics",
            "track_costs", "backend", "workers", "shard_policy", "block_entries",
            "wal_path", "snapshot_every", "fsync_policy",
        }
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
        return cls(
            counter=payload.get("counter", "assadi-shah"),
            options=dict(options),
            batch_size=payload.get("batch_size", 1),
            record_metrics=payload.get("record_metrics", False),
            track_costs=payload.get("track_costs", True),
            backend=payload.get("backend", "auto"),
            workers=payload.get("workers", 1),
            shard_policy=payload.get("shard_policy", "auto"),
            block_entries=payload.get("block_entries", None),
            wal_path=payload.get("wal_path", None),
            snapshot_every=payload.get("snapshot_every", None),
            fsync_policy=payload.get("fsync_policy", "batch"),
        )

    @classmethod
    def from_counter_kwargs(
        cls, name: str, kwargs: Mapping[str, object], batch_size: int = 1
    ) -> "EngineConfig":
        """Build a config from a flat dict of counter keyword arguments.

        The shared keywords (``record_metrics`` and the batch-kernel ones)
        are lifted into the matching config fields; everything else stays
        counter-specific.
        """
        options = dict(kwargs)
        record_metrics = bool(options.pop("record_metrics", False))
        backend = str(options.pop("backend", "auto"))
        workers = int(options.pop("workers", 1))
        shard_policy = str(options.pop("shard_policy", "auto"))
        block_entries = options.pop("block_entries", None)
        return cls(
            counter=name,
            options=options,
            batch_size=batch_size,
            record_metrics=record_metrics,
            backend=backend,
            workers=workers,
            shard_policy=shard_policy,
            block_entries=block_entries,
        )
