"""function-coverage: every function in ``src/repro`` is entered by tier-1.

Runs the tier-1 suite in this process with a profile hook installed on the
main thread (:func:`sys.setprofile`) and on every thread started afterwards
(:func:`threading.setprofile`), recording each code object that is entered.
Then it walks ``src/repro`` with :mod:`ast` and fails, listing them, when a
top-level function or a method of a top-level class was never entered.

A function tier-1 cannot enter in-process (one run only in a child
process, an abstract stub, a debugging ``__repr__``) is exempt when its
``def`` line carries ``# pragma: no cover - <reason>``: the marker coverage
already honours is the allowlist, and the reason is mandatory.

Usage::

    python scripts/function_coverage.py [pytest arguments ...]

with ``src`` on ``PYTHONPATH`` (``make function-coverage``).  Without
arguments it runs the tier-1 command, ``pytest -x -q``.  The profile hook
costs about as much again as the suite itself, which is why this is a CI
step of its own and not part of tier-1.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: The allowlist marker: a ``def`` line ending in a pragma with a reason.
PRAGMA = re.compile(r"#\s*pragma: no cover - \S")


class EnteredCode:
    """A pytest plugin that records every code object entered in-process."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def pytest_sessionstart(self, session) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def locations(self) -> set[tuple[str, int]]:
        """``(resolved file, first line)`` of every code object entered."""
        return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in self.codes}


def functions(package: Path = PACKAGE):
    """``(file, first line, def line, qualified name)`` of every function in scope.

    The first line is the one a code object reports: the first decorator's,
    or the ``def`` line itself.
    """
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(node, "") for node in tree.body]
        scopes += [
            (child, f"{node.name}.")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for child in node.body
        ]
        for node, prefix in scopes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                yield path.resolve(), first, node.lineno, prefix + node.name


def never_entered(entered: set[tuple[str, int]], found: list) -> list[str]:
    """One ``file:line: name`` report per unexempted function never entered."""
    missing = []
    for path, first, line, name in found:
        if (str(path), first) in entered:
            continue
        def_line = path.read_text(encoding="utf-8").splitlines()[line - 1]
        if PRAGMA.search(def_line):
            continue
        missing.append(f"{path.relative_to(REPO_ROOT)}:{line}: {name}")
    return missing


def main(argv: list[str]) -> int:
    plugin = EnteredCode()
    status = pytest.main(argv or ["-x", "-q"], plugins=[plugin])
    if status != 0:
        print(f"function-coverage: the test run failed (exit {int(status)})", file=sys.stderr)
        return int(status)
    found = list(functions())
    missing = never_entered(plugin.locations(), found)
    for report in missing:
        print(f"{report} never entered in-process")
    print(
        f"function-coverage: {len(found) - len(missing)} of {len(found)} functions entered "
        f"or marked '# pragma: no cover - <reason>'"
    )
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
