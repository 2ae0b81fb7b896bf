"""Capability-aware registry of the dynamic 4-cycle counters.

This module is the single source of truth for counter registration; it lives
in the core layer (next to the counters it describes) so that nothing in core
ever has to import the higher-level :mod:`repro.api` package —
:mod:`repro.api.registry` simply re-exports these names.

The registry maps counter names to :class:`CounterSpec` descriptors instead of
bare factories.  A spec carries everything a caller can know about a counter
without instantiating it:

* the constructor **options** it accepts, with defaults and one-line docs, so
  option dictionaries can be validated at the API boundary — an unknown option
  raises :class:`~repro.exceptions.ConfigurationError` naming the option and
  the counter instead of a bare ``TypeError`` deep inside a constructor;
* **capabilities**: whether the counter implements a bulk ``_rebuild``
  batch path, and whether it routes queries through a 3-path oracle;
* the **asymptotic class** of its worst-case update time, for the CLI's
  capability table and for documentation.

Counters are built through :func:`counter_spec` and :meth:`CounterSpec.create`,
usually indirectly, via :class:`repro.api.config.EngineConfig` and
:class:`repro.api.engine.FourCycleEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.assadi_shah import AssadiShahCounter
from repro.core.base import DynamicFourCycleCounter
from repro.core.brute_force import BruteForceCounter
from repro.core.hhh22 import HHH22Counter
from repro.core.phase_fmm import PhaseFMMCounter
from repro.core.wedge_counter import WedgeCounter
from repro.exceptions import ConfigurationError

CounterFactory = Callable[..., DynamicFourCycleCounter]


@dataclass(frozen=True)
class OptionSpec:
    """One constructor option a counter accepts."""

    name: str
    default: object = None
    description: str = ""


#: Options shared by every built-in counter (handled by the base class).
COMMON_OPTIONS: Tuple[OptionSpec, ...] = (
    OptionSpec("workers", 1, "shard-parallel SpGEMM worker count (1 = serial kernels)"),
)


@dataclass(frozen=True)
class CounterSpec:
    """Descriptor for one registered counter.

    ``options`` lists every keyword the factory accepts; ``None`` disables
    validation entirely (for a third-party factory whose signature the
    registry cannot know).
    """

    name: str
    factory: CounterFactory
    description: str = ""
    asymptotic: str = "unknown"
    supports_batch_hook: bool = False
    needs_oracle: bool = False
    options: Optional[Tuple[OptionSpec, ...]] = None

    def option_names(self) -> Tuple[str, ...]:
        """The accepted option names (empty when validation is disabled)."""
        return tuple(option.name for option in self.options) if self.options else ()

    def validate_options(self, options: Mapping[str, object]) -> None:
        """Reject unknown options with a :class:`ConfigurationError`.

        No-op when the spec carries no option list.
        """
        if self.options is None:
            return
        allowed = set(self.option_names())
        unknown = sorted(set(options) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown option{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(name) for name in unknown)} for counter {self.name!r}; "
                f"valid options: {', '.join(sorted(allowed))}"
            )

    def create(self, **options) -> DynamicFourCycleCounter:
        """Instantiate the counter after validating ``options``."""
        self.validate_options(options)
        return self.factory(**options)


_SPECS: Dict[str, CounterSpec] = {}


def register_spec(spec: CounterSpec, overwrite: bool = False) -> None:
    """Register a :class:`CounterSpec` under its name."""
    if not overwrite and spec.name in _SPECS:
        raise ConfigurationError(f"counter {spec.name!r} is already registered")
    _SPECS[spec.name] = spec


def counter_spec(name: str) -> CounterSpec:
    """The spec registered under ``name``; raises :class:`ConfigurationError`
    (naming the available counters) when unknown."""
    spec = _SPECS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown counter {name!r}; available: {', '.join(available_counter_names())}"
        )
    return spec


def available_specs() -> List[CounterSpec]:
    """All registered specs, sorted by counter name."""
    return [_SPECS[name] for name in available_counter_names()]


def available_counter_names() -> List[str]:
    """The sorted list of registered counter names."""
    return sorted(_SPECS)


def _phase_options() -> Tuple[OptionSpec, ...]:
    return COMMON_OPTIONS + (
        # Phases count chain-relation updates, six per graph update.
        OptionSpec("phase_length", None, "fixed phase length, in sixths of a graph update, ending at an update boundary (default: from m)"),
        OptionSpec("delta", None, "degree-class exponent delta (default: solved)"),
        OptionSpec("min_phase_length", 16, "lower bound on the adaptive phase length (sixths of an update)"),
    )


# Built-in counters.
register_spec(
    CounterSpec(
        name=BruteForceCounter.name,
        factory=BruteForceCounter,
        description="reference counter: enumerate both endpoint neighborhoods",
        asymptotic="O(deg(u)*deg(v))",
        supports_batch_hook=True,
        needs_oracle=False,
        options=COMMON_OPTIONS,
    )
)
register_spec(
    CounterSpec(
        name=WedgeCounter.name,
        factory=WedgeCounter,
        description="Appendix A: all-pairs wedge counts",
        asymptotic="O(n)",
        supports_batch_hook=True,
        needs_oracle=False,
        options=COMMON_OPTIONS,
    )
)
register_spec(
    CounterSpec(
        name=HHH22Counter.name,
        factory=HHH22Counter,
        description="[HHH22] high/low degree partition baseline",
        asymptotic="O(m^{2/3})",
        supports_batch_hook=True,
        needs_oracle=False,
        options=COMMON_OPTIONS,
    )
)
register_spec(
    CounterSpec(
        name=PhaseFMMCounter.name,
        factory=PhaseFMMCounter,
        description="phases + fast matrix multiplication (no degree classes)",
        asymptotic="O(m^{2/3}) amortized via phases",
        supports_batch_hook=True,
        needs_oracle=True,
        options=_phase_options(),
    )
)
register_spec(
    CounterSpec(
        name=AssadiShahCounter.name,
        factory=AssadiShahCounter,
        description="the paper's main algorithm: phases + degree classes + FMM",
        asymptotic="O(m^{0.6569})",
        supports_batch_hook=True,
        needs_oracle=True,
        options=_phase_options() + (OptionSpec("eps", None, "degree-class exponent eps (default: solved)"),),
    )
)
