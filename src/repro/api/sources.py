"""Update sources: one protocol for everything that feeds an engine.

The repo grows update streams in three places — the synthetic generators of
:mod:`repro.workloads.generators`, saved streams replayed from disk, and the
database side's tuple feeds — and before this module each consumer adapted
them by hand.  :class:`UpdateSource` is the unifying protocol: *any re-iterable
of* :class:`~repro.graph.updates.EdgeUpdate`.  A plain
:class:`~repro.graph.updates.UpdateStream` already satisfies it; the adapters
here cover the other producers:

* :class:`GeneratorSource` — a named workload from the generator catalogue,
  built lazily on first iteration and cached for re-iteration.
* :class:`ReplaySource` — a JSON-lines stream saved by
  :func:`repro.io.serialization.save_stream`, read lazily line by line (the
  file is never materialized in memory, so arbitrarily large recorded streams
  can be replayed).
* :class:`TupleFeedSource` — a feed of database tuple updates
  (:class:`~repro.db.ivm.TupleUpdate` or
  :class:`~repro.graph.updates.LayeredEdgeUpdate`), encoded as general-graph
  edge updates on layer-tagged vertices ``(layer, value)``.  The resulting
  graph is the bipartite encoding of the 4-layered instance; general 4-cycle
  counts over it include every cyclic-join result plus the same-relation
  rectangles (two customers ordering the same two items) — the motif framing
  of the social-network example.

:func:`as_update_source` normalizes whatever a caller hands the engine, and
:func:`iter_windows` chunks any source into batch windows without
materializing it.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, runtime_checkable

from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.graph.updates import RELATION_NAMES, EdgeUpdate, UpdateStream
from repro.workloads.generators import (
    erdos_renyi_stream,
    hub_adversarial_stream,
    mixed_churn_stream,
    power_law_stream,
    sliding_window_stream,
)


@runtime_checkable
class UpdateSource(Protocol):
    """Anything that can be iterated (repeatedly) into edge updates."""

    def __iter__(self) -> Iterator[EdgeUpdate]: ...


#: The named workload generators an engine (or the CLI) can ask for.
GENERATOR_CATALOGUE: Dict[str, Callable[..., UpdateStream]] = {
    "erdos-renyi": erdos_renyi_stream,
    "power-law": power_law_stream,
    "hubs": hub_adversarial_stream,
    "sliding-window": sliding_window_stream,
    "mixed-churn": mixed_churn_stream,
}


def as_update_source(source) -> UpdateSource:
    """Normalize ``source`` into an :class:`UpdateSource`.

    Accepts an existing source/stream unchanged, and wraps plain sequences of
    updates into an :class:`~repro.graph.updates.UpdateStream` (which also
    validates the element type).
    """
    if isinstance(source, (UpdateStream, GeneratorSource, ReplaySource, TupleFeedSource)):
        return source
    if isinstance(source, (list, tuple)):
        return UpdateStream(source)
    if isinstance(source, Iterable):
        return source
    raise ConfigurationError(
        f"expected an update source (iterable of EdgeUpdate), got {type(source).__name__}"
    )


def iter_windows(source: UpdateSource, batch_size: int) -> Iterator[List[EdgeUpdate]]:
    """Chunk a source into consecutive windows of ``batch_size`` updates.

    Unlike :meth:`UpdateStream.batched` this never materializes the whole
    source, so it works for unbounded streams; the last window may be shorter.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    iterator = iter(source)
    while True:
        window = list(islice(iterator, batch_size))
        if not window:
            return
        yield window


class GeneratorSource:
    """A named synthetic workload from :data:`GENERATOR_CATALOGUE`.

    The stream is generated on first iteration and cached, so iterating the
    source twice replays identical updates (the generators are deterministic
    given their seed anyway; the cache just avoids recomputation).
    """

    def __init__(self, workload: str, **params) -> None:
        generator = GENERATOR_CATALOGUE.get(workload)
        if generator is None:
            raise ConfigurationError(
                f"unknown workload {workload!r}; available: "
                f"{', '.join(sorted(GENERATOR_CATALOGUE))}"
            )
        self.workload = workload
        self.params = dict(params)
        self._generator = generator
        self._stream: Optional[UpdateStream] = None

    def to_stream(self) -> UpdateStream:
        """The generated stream (building it on first use)."""
        if self._stream is None:
            self._stream = self._generator(**self.params)
        return self._stream

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.to_stream())

    def __len__(self) -> int:
        return len(self.to_stream())

    def __repr__(self) -> str:
        params = ", ".join(f"{key}={value!r}" for key, value in sorted(self.params.items()))
        return f"GeneratorSource({self.workload!r}, {params})"


class ReplaySource:
    """Lazy replay of a stream saved by :func:`repro.io.serialization.save_stream`.

    Each iteration re-opens the file and decodes one JSON line at a time
    (:func:`repro.io.serialization.iter_stream`), so replaying never loads the
    whole stream into memory.  Use :meth:`to_stream` when a materialized
    :class:`UpdateStream` is needed.  A damaged record raises a
    :class:`~repro.exceptions.ConfigurationError` naming the path and line
    number.

    A write-ahead log written by
    :class:`~repro.durability.wal.WriteAheadLog` is *not* a replay file: it
    holds one CRC-framed record per committed window, which
    :func:`repro.durability.wal.replay_wal` reads.
    """

    def __init__(self, path) -> None:
        from pathlib import Path

        self.path = Path(path)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        from repro.io.serialization import iter_stream

        return iter_stream(self.path)

    def to_stream(self) -> UpdateStream:
        return UpdateStream(self)

    def __repr__(self) -> str:
        return f"ReplaySource({str(self.path)!r})"


class TupleFeedSource:
    """Database tuple updates encoded as layer-tagged general edge updates.

    ``relations`` names the cyclic chain in order (defaults to the paper's
    ``A``/``B``/``C``/``D``); relation ``i`` connects layer ``i+1`` to layer
    ``i+2`` (wrapping), and a tuple ``R_i(left, right)`` becomes the edge
    ``{(layer_i, left), (layer_{i+1}, right)}``.  Works for any feed whose
    elements expose ``relation``/``left``/``right``/``is_insert`` —
    :class:`~repro.db.ivm.TupleUpdate` and
    :class:`~repro.graph.updates.LayeredEdgeUpdate` both do.
    """

    def __init__(self, updates: Iterable, relations: Sequence[str] = RELATION_NAMES) -> None:
        if len(relations) != len(RELATION_NAMES):
            raise ConfigurationError(
                f"a cyclic chain needs exactly {len(RELATION_NAMES)} relations, "
                f"got {len(relations)}"
            )
        if len(set(relations)) != len(relations):
            raise ConfigurationError(f"relation names must be distinct, got {tuple(relations)}")
        self._updates = updates
        #: relation name -> (left layer tag, right layer tag)
        self._layers = {
            name: (f"L{index + 1}", f"L{(index + 1) % len(relations) + 1}")
            for index, name in enumerate(relations)
        }

    def encode(self, update) -> EdgeUpdate:
        """The general-graph edge update for one tuple update."""
        layers = self._layers.get(getattr(update, "relation", None))
        if layers is None:
            raise InvalidUpdateError(
                f"tuple update targets unknown relation {getattr(update, 'relation', None)!r}; "
                f"expected one of {tuple(self._layers)}"
            )
        left_layer, right_layer = layers
        constructor = EdgeUpdate.insert if update.is_insert else EdgeUpdate.delete
        return constructor((left_layer, update.left), (right_layer, update.right))

    def __iter__(self) -> Iterator[EdgeUpdate]:
        for update in self._updates:
            yield self.encode(update)

    def to_stream(self) -> UpdateStream:
        return UpdateStream(self)
