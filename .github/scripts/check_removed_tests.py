"""Fail when a test disappeared without an entry in the removed-tests list.

Usage::

    python .github/scripts/check_removed_tests.py BASE_COMMIT LIST_JSON

LIST_JSON is the repository's list of removed test ids: a JSON list of
``{"id", "reason", "renamed_to"}`` objects.  The script collects the ids of
``tests/`` (``pytest --collect-only -q``) at BASE_COMMIT, from a
``git archive`` of it in a temporary directory, and in the working tree.
It fails when the list is malformed, when an id collected at BASE_COMMIT is
gone and no entry names it, or when such an entry's ``renamed_to`` is not
collected in the working tree.  Needs git, pytest and the repository's own
dependencies only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def collected(root: Path) -> set[str]:
    """Test ids pytest collects under ``root/tests`` with ``root/src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests"],
        cwd=root, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"collection failed in {root}:\n{result.stdout}"
                         f"{result.stderr}")
    return {line.strip() for line in result.stdout.splitlines()
            if "::" in line}


def malformed(entries: list[dict]) -> list[str]:
    """What is wrong with the list itself: duplicate ids, missing fields."""
    found = []
    seen = set()
    for entry in entries:
        if not (set(entry) >= {"id", "reason", "renamed_to"} and entry["reason"]):
            found.append(f"entry without an id, a reason or renamed_to: {entry}")
        elif entry["id"] in seen:
            found.append(f"listed twice: {entry['id']}")
        seen.add(entry.get("id"))
    return found


def problems(before: set[str], after: set[str], entries: list[dict]) -> list[str]:
    """What is wrong with the ids that disappeared from ``before``."""
    listed = {entry["id"]: entry for entry in entries}
    found = []
    for test_id in sorted(before - after):
        entry = listed.get(test_id)
        if entry is None:
            found.append(f"removed without an entry in the list: {test_id}")
        elif entry.get("renamed_to") and entry["renamed_to"] not in after:
            found.append(f"{test_id} renamed to an id that is not collected: "
                         f"{entry['renamed_to']}")
    return found


def main(base: str, list_path: str) -> int:
    entries = json.loads(Path(list_path).read_text())
    found = malformed(entries)
    if found:
        for line in found:
            print(line)
        return 1
    if not base.strip("0"):
        print("no base commit (a new branch): nothing to compare")
        return 0
    archive = subprocess.run(["git", "archive", "--format=tar", base],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as base_tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        before = collected(Path(base_tree))
    after = collected(ROOT)
    found = problems(before, after, entries)
    for line in found:
        print(line)
    print(f"{len(before)} tests at {base[:12]}, {len(after)} now, "
          f"{len(before - after)} gone, {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
