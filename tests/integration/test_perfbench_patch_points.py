"""The layer boundaries the traced benchmark run wraps still exist.

``perfbench/tracing.py`` wraps about thirty functions and methods of the
package by name, and ``Tracer.install`` resolves each one the way this test
does: ``owner.__dict__[attribute]`` for a class (so the attribute must be
defined on that very class, not inherited) and ``getattr`` for a module.  A
rename or deletion in ``src/`` would otherwise surface only as a
``KeyError`` in a traced benchmark run, which the test suite never starts.
The benchmark file is imported by path and left untouched.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_under_test", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _patch_points():
    tracer = tracing.Tracer()
    return [
        (group, owner, attribute)
        for group, patches in (
            ("timed", tracing.timed_phase_patches(tracer)),
            ("recovery", tracing.recovery_patches(tracer)),
        )
        for owner, attribute, _ in patches
    ]


PATCH_POINTS = _patch_points()


def test_every_patch_table_is_non_trivial():
    groups = {group for group, _, _ in PATCH_POINTS}
    assert groups == {"timed", "recovery"}
    assert len(PATCH_POINTS) >= 30


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for _, owner, attribute in PATCH_POINTS],
    ids=[f"{group}:{owner.__name__}.{attribute}" for group, owner, attribute in PATCH_POINTS],
)
def test_patch_point_resolves_as_install_resolves_it(owner, attribute):
    if isinstance(owner, type):
        original = owner.__dict__[attribute]
    else:
        original = getattr(owner, attribute)
    assert callable(original) or isinstance(original, (staticmethod, classmethod))


def test_served_read_request_exists():
    import repro.service.app as service_app

    assert callable(service_app.read_request)
    assert callable(tracing.traced_read_request)
