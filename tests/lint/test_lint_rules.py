"""Fixture-driven tests for every repro-lint rule.

Each rule gets the same treatment: its ``bad`` fixture must fire on every
seeded violation, its ``good`` fixture (guarded, pragma-annotated, or simply
out of scope) must stay silent.  The fixtures are real parseable python so
the corpus doubles as executable documentation of what each rule means.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import DEFAULT_RULES, lint_paths, load_module, run_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(relative: str):
    """Active findings for one fixture file, all default rules."""
    path = FIXTURES / relative
    return lint_paths([path], DEFAULT_RULES).findings


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestExactnessRule:
    def test_bad_fixture_fires_on_every_unguarded_cast(self):
        findings = lint_fixture("rep101/bad.py")
        assert rules_of(findings) == ["REP101"] * 4
        messages = " ".join(finding.message for finding in findings)
        assert "astype" in messages
        assert "bincount" in messages
        assert "dtype=float" in messages

    def test_good_fixture_is_silent(self):
        assert lint_fixture("rep101/good.py") == []

    def test_guard_variable_is_recognized(self, tmp_path):
        guarded = tmp_path / "guarded.py"
        guarded.write_text(
            "import numpy as np\n"
            "BOUND_EXACT_BOUND = float(2**53)\n"
            "def f(keys, values):\n"
            "    ok = abs(values).max() < BOUND_EXACT_BOUND\n"
            "    if ok:\n"
            "        return np.bincount(keys, weights=values)\n"
            "    return None\n"
        )
        assert lint_paths([guarded], DEFAULT_RULES).findings == []

    def test_unguarded_variant_fires(self, tmp_path):
        unguarded = tmp_path / "unguarded.py"
        unguarded.write_text(
            "import numpy as np\n"
            "def f(keys, values):\n"
            "    if len(values) > 0:\n"
            "        return np.bincount(keys, weights=values)\n"
            "    return None\n"
        )
        assert rules_of(lint_paths([unguarded], DEFAULT_RULES).findings) == ["REP101"]


class TestLayeringRule:
    def test_bad_fixture_fires_on_both_upward_imports(self):
        findings = lint_fixture("rep102/bad/repro/graph/up_import.py")
        assert rules_of(findings) == ["REP102", "REP102"]
        assert "upward import" in findings[0].message
        assert "'core'" in findings[0].message
        assert "'api'" in findings[1].message

    def test_good_fixture_is_silent(self):
        # Downward imports, TYPE_CHECKING imports, and function-local late
        # imports are all sanctioned.
        assert lint_fixture("rep102/good/repro/core/down_import.py") == []

    def test_unknown_package_is_itself_a_finding(self, tmp_path):
        rogue = tmp_path / "repro" / "newpkg" / "module.py"
        rogue.parent.mkdir(parents=True)
        rogue.write_text("import os\n")
        findings = lint_paths([rogue], DEFAULT_RULES).findings
        assert rules_of(findings) == ["REP102"]
        assert "layer table" in findings[0].message

    def test_fixture_outside_repro_tree_is_out_of_scope(self, tmp_path):
        outside = tmp_path / "free.py"
        outside.write_text("import repro.api\n")
        assert lint_paths([outside], DEFAULT_RULES).findings == []


class TestHotPathRule:
    def test_bad_fixture_fires_on_every_dict_use(self):
        findings = lint_fixture("rep103/bad.py")
        assert rules_of(findings) == ["REP103"] * 4
        assert all("_rebuild" in finding.message for finding in findings)

    def test_good_fixture_is_silent(self):
        assert lint_fixture("rep103/good.py") == []

    def test_manifest_path_suffix_registers_hot_function(self, tmp_path):
        # A file whose display path ends with a manifest suffix makes the
        # manifest qualname hot even though the name is not in the hot list.
        hot_file = tmp_path / "repro" / "core" / "base.py"
        hot_file.parent.mkdir(parents=True)
        hot_file.write_text(
            "class DynamicFourCycleCounter:\n"
            "    def apply(self, update):\n"
            "        return {u: 1 for u in update}\n"
            "    def cold(self, update):\n"
            "        return {u: 1 for u in update}\n"
        )
        findings = lint_paths([hot_file], DEFAULT_RULES, root=tmp_path).findings
        assert rules_of(findings) == ["REP103"]
        assert "DynamicFourCycleCounter.apply" in findings[0].message


class TestShardSafetyRule:
    def test_bad_fixture_fires_on_lambda_closure_and_bound_method(self):
        findings = lint_fixture("rep104/bad.py")
        assert rules_of(findings) == ["REP104"] * 3
        messages = " ".join(finding.message for finding in findings)
        assert "lambda" in messages
        assert "closure" in messages
        assert "bound-method" in messages

    def test_good_fixture_is_silent(self):
        assert lint_fixture("rep104/good.py") == []


class TestBroadExceptRule:
    def test_bad_fixture_fires_on_every_silent_handler(self):
        findings = lint_fixture("rep105/bad.py")
        assert rules_of(findings) == ["REP105"] * 3

    def test_good_fixture_is_silent(self):
        assert lint_fixture("rep105/good.py") == []

    def test_reraise_excuses_broad_handler(self, tmp_path):
        module = tmp_path / "reraise.py"
        module.write_text(
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    except Exception as error:\n"
            "        raise ValueError('no') from error\n"
        )
        assert lint_paths([module], DEFAULT_RULES).findings == []


class TestPragmaMechanics:
    def test_pragma_without_reason_is_rep100(self, tmp_path):
        module = tmp_path / "noreason.py"
        module.write_text(
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    except Exception:  # repro-lint: broad-except-ok\n"
            "        return None\n"
        )
        findings = lint_paths([module], DEFAULT_RULES).findings
        # The missing-reason pragma is flagged AND does not suppress.
        assert sorted(rules_of(findings)) == ["REP100", "REP105"]

    def test_unknown_slug_is_rep100(self, tmp_path):
        module = tmp_path / "unknown.py"
        module.write_text("x = 1  # repro-lint: no-such-rule because reasons\n")
        findings = lint_paths([module], DEFAULT_RULES).findings
        assert rules_of(findings) == ["REP100"]
        assert "unknown" in findings[0].message

    def test_wrong_slug_does_not_suppress(self, tmp_path):
        module = tmp_path / "wrong.py"
        module.write_text(
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    # repro-lint: exact-ok wrong rule for this finding\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert rules_of(lint_paths([module], DEFAULT_RULES).findings) == ["REP105"]

    def test_rule_code_works_as_slug(self, tmp_path):
        module = tmp_path / "bycode.py"
        module.write_text(
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    # repro-lint: REP105 cleanup helper must never propagate\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert lint_paths([module], DEFAULT_RULES).findings == []

    def test_pragma_in_docstring_is_inert(self, tmp_path):
        module = tmp_path / "docstring.py"
        module.write_text(
            '"""Docs may show ``# repro-lint: exact-ok like this`` safely."""\n'
            "x = 1\n"
        )
        assert lint_paths([module], DEFAULT_RULES).findings == []

    def test_suppressed_findings_are_tracked_separately(self, tmp_path):
        module = tmp_path / "tracked.py"
        module.write_text(
            "def f(task):\n"
            "    try:\n"
            "        return task()\n"
            "    # repro-lint: broad-except-ok teardown-safe cleanup\n"
            "    except Exception:\n"
            "        return None\n"
        )
        context = load_module(module, "tracked.py")
        active, suppressed = run_rules(context, DEFAULT_RULES)
        assert active == []
        assert rules_of(suppressed) == ["REP105"]


def test_every_rule_has_distinct_code_and_slug():
    codes = [rule.code for rule in DEFAULT_RULES]
    slugs = [rule.slug for rule in DEFAULT_RULES]
    assert len(set(codes)) == len(codes) == 5
    assert len(set(slugs)) == len(slugs) == 5
    assert codes == ["REP101", "REP102", "REP103", "REP104", "REP105"]
