"""The CI guard that every removed test id is listed in the removed-tests list."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_removed_tests", ROOT / ".github/scripts/check_removed_tests.py")
guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(guard)


def entry(test_id, renamed_to=None):
    return {"id": test_id, "reason": "why", "renamed_to": renamed_to}


def test_a_test_that_stays_or_is_listed_passes():
    before = {"t.py::a", "t.py::b", "t.py::c"}
    after = {"t.py::a", "t.py::c2"}
    assert guard.problems(before, after, [
        entry("t.py::b"), entry("t.py::c", renamed_to="t.py::c2")]) == []


def test_an_unlisted_removal_fails():
    assert guard.problems({"t.py::a", "t.py::b"}, {"t.py::a"}, []) == [
        "removed without an entry in the list: t.py::b"]


def test_a_rename_to_an_id_not_collected_fails():
    [problem] = guard.problems({"t.py::a"}, set(),
                               [entry("t.py::a", renamed_to="t.py::gone")])
    assert "t.py::gone" in problem


def test_a_malformed_list_fails():
    assert guard.malformed([entry("t.py::a"), entry("t.py::b")]) == []
    [twice] = guard.malformed([entry("t.py::a"), entry("t.py::a")])
    assert "t.py::a" in twice
    [no_reason] = guard.malformed([{"id": "t.py::a", "reason": "",
                                    "renamed_to": None}])
    assert "t.py::a" in no_reason
