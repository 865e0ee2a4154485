"""docs-check: run every ``python`` code block of a markdown file.

Extracts fenced ```python blocks from the given markdown files (default:
``README.md`` and ``docs/api.md``) and executes each one in a fresh
subprocess with ``src`` on ``PYTHONPATH`` — and with
``DeprecationWarning`` promoted to an error, so a documented snippet can
neither drift from the library's actual API nor quietly lean on a
deprecated one.  A block that exits non-zero fails the check.
Shell blocks (```bash) are not executed.

Also render-checks the docstring surface: ``python -m pydoc`` must be able
to render every module listed in ``PYDOC_MODULES`` without error, and every
``:mod:`repro…``` reference in what it renders must name a module that
imports, so a deleted module cannot linger in a docstring.  And every
symbol reference of the form `` `src/….py` (`symbol`) `` must name a ``def``
or ``class`` that file contains (dotted names: every part), so a rename or
a move cannot leave the docs pointing at nothing.  And the endpoint table
of ``docs/serving.md`` (its `` | `/path` | VERB | `` rows) must list
exactly the (path, verb) pairs of ``repro.serving.server.ROUTES``.

Usage::

    python scripts/check_readme.py [README.md docs/foo.md ...]
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files checked when none are given on the command line.
DEFAULT_FILES = ["README.md", "docs/api.md", "docs/serving.md", "docs/architecture.md"]

#: Modules whose pydoc rendering is part of the documentation contract.
PYDOC_MODULES = [
    "repro",
    "repro.client",
    "repro.methods",
    "repro.results",
    "repro.serving",
    "repro.serving.artifact",
    "repro.serving.canonical",
    "repro.serving.dispatch",
    "repro.serving.fleet",
    "repro.serving.router",
    "repro.serving.server",
    "repro.serving.session",
    "repro.subscribe",
    "repro.subscribe.evaluator",
    "repro.subscribe.registry",
    "repro.subscribe.sinks",
    "repro.mvindex.augmented",
    "repro.obdd.manager",
    "repro.core.engine",
]

#: The markdown file whose endpoint table is checked against the server's routes.
ENDPOINT_DOC = REPO_ROOT / "docs" / "serving.md"

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_SYMBOL_RE = re.compile(r"`(src/[\w/]+\.py)`\s+\(`([\w.]+)`")
_ENDPOINT_RE = re.compile(r"^\| `(/[^`]*)` \| ([A-Z]+) \|", re.MULTILINE)
_MODULE_REF_RE = re.compile(r":mod:`~?(repro[\w.]*)`")


def python_blocks(markdown: str) -> list[str]:
    """The contents of every fenced ```python block, in order."""
    return [match.group(1) for match in _BLOCK_RE.finditer(markdown)]


def run_block(source: str, label: str, env: dict[str, str]) -> bool:
    """Execute one block in a subprocess; report and return success."""
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", source],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    if completed.returncode != 0:
        print(f"FAIL {label}")
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        return False
    print(f"ok   {label}")
    return True


def check_pydoc(env: dict[str, str]) -> bool:
    """Render every contract module with pydoc; any error fails the check."""
    ok = True
    for module in PYDOC_MODULES:
        completed = subprocess.run(
            [sys.executable, "-m", "pydoc", module],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        rendered = completed.returncode == 0 and module.rsplit(".", 1)[-1] in completed.stdout
        print(f"{'ok  ' if rendered else 'FAIL'} pydoc {module}")
        ok = ok and rendered
        for reference in sorted(set(_MODULE_REF_RE.findall(completed.stdout))):
            if not module_imports(reference):
                print(f"FAIL pydoc {module}: :mod:`{reference}` does not import")
                ok = False
    return ok


def module_imports(name: str) -> bool:
    """Whether ``name`` imports from ``src`` (a docstring's ``:mod:`` target)."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def check_symbols(path: Path, markdown: str) -> bool:
    """Every `` `src/….py` (`symbol`) `` reference resolves to a def/class."""
    ok = True
    references = _SYMBOL_RE.findall(markdown)
    for file_name, symbol in references:
        source = REPO_ROOT / file_name
        text = source.read_text(encoding="utf-8") if source.is_file() else ""
        found = all(
            re.search(rf"^\s*(?:def|class)\s+{re.escape(part)}\b", text, re.MULTILINE)
            for part in symbol.split(".")
        )
        if not found:
            print(f"FAIL {path}: `{file_name}` does not define `{symbol}`")
            ok = False
    if ok and references:
        print(f"ok   {path}: {len(references)} symbol references")
    return ok


def check_endpoints(path: Path, markdown: str) -> bool:
    """The documented (path, verb) rows are exactly the server's route table."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serving.server import ROUTES

    routed = {(route, verb) for verb, routes in ROUTES.items() for route in routes}
    documented = set(_ENDPOINT_RE.findall(markdown))
    for route, verb in sorted(routed - documented):
        print(f"FAIL {path}: the endpoint table lacks `{route}` {verb}")
    for route, verb in sorted(documented - routed):
        print(f"FAIL {path}: the endpoint table lists `{route}` {verb}, which server.py lacks")
    if routed != documented:
        return False
    print(f"ok   {path}: {len(routed)} endpoints match server.py")
    return True


def main(argv: list[str]) -> int:
    files = [Path(name) for name in argv] or [REPO_ROOT / name for name in DEFAULT_FILES]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    ok = True
    for path in files:
        markdown = path.read_text(encoding="utf-8")
        ok = check_symbols(path, markdown) and ok
        if path.resolve() == ENDPOINT_DOC:
            ok = check_endpoints(path, markdown) and ok
        blocks = python_blocks(markdown)
        if not blocks:
            print(f"warn {path}: no python blocks found")
        for index, block in enumerate(blocks, start=1):
            ok = run_block(block, f"{path}#python-block-{index}", env) and ok
    ok = check_pydoc(env) and ok
    if not ok:
        print("docs-check failed", file=sys.stderr)
        return 1
    print("docs-check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
