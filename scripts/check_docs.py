"""Documentation checks: doctest the examples, link-check the markdown.

Two failure modes rot documentation silently: docstring examples that
drift from the code, and references to files or anchors that moved —
from markdown links or from citations in Python docstrings.  This
script catches both, and runs as the CI ``docs`` job and
as a tier-1 test (``tests/test_docs.py``):

* every module in :data:`DOCTEST_MODULES` has its doctests executed
  (``python -m doctest`` semantics, via :func:`doctest.testmod`);
* every relative link and image in the repo's ``*.md`` files must
  resolve to an existing file (http/https/mailto and pure anchors are
  skipped; fragments are stripped before checking);
* every markdown file a Python file under :data:`CITING_DIRS` names
  (a path ending in ``.md`` in a docstring or comment) must exist next
  to that file or at the repo root.

Usage::

    PYTHONPATH=src python scripts/check_docs.py
    make docs
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: modules whose docstring examples are part of the documented API
#: surface (the PR 1–3 public layer); add to this list when adding
#: examples elsewhere.
DOCTEST_MODULES = [
    "repro.runtime.kernel",
    "repro.runtime.sinks",
    "repro.giraf.environments",
    "repro.weakset.protocol",
    "repro.weakset.transport",
    "repro.weakset.sharding",
    "repro.sim.runner",
    "repro.sim.workloads",
]

#: markdown link/image syntax: [text](target) / ![alt](target)
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: directories never scanned for markdown
_SKIP_DIRS = {".git", ".hypothesis", ".pytest_cache", ".benchmarks", ".claude"}

#: top-level directories whose Python files' doc citations are checked
CITING_DIRS = ("src", "tests", "scripts", "benchmarks")

#: a markdown file named in Python text: a name or path ending in .md
_CITATION = re.compile(r"\b\w[\w./-]*\.md\b")


def run_doctests() -> list[str]:
    """Run every registered module's doctests; return failure summaries."""
    failures: list[str] = []
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.failed:
            failures.append(
                f"{name}: {result.failed}/{result.attempted} doctest(s) failed"
            )
        elif result.attempted == 0:
            failures.append(f"{name}: no doctests found (examples removed?)")
    return failures


def markdown_files() -> list[Path]:
    """Every markdown file in the repo outside the skip list."""
    return sorted(
        path
        for path in REPO_ROOT.rglob("*.md")
        if not any(part in _SKIP_DIRS for part in path.parts)
    )


def check_markdown_links() -> list[str]:
    """Verify every relative markdown link resolves; return errors."""
    errors: list[str] = []
    for path in markdown_files():
        text = path.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (path.parent / target_path).resolve()
            if not resolved.exists():
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{line}: broken link "
                    f"-> {target}"
                )
    return errors


def check_doc_citations(root: Path = REPO_ROOT) -> list[str]:
    """Verify every markdown file a Python file names exists next to
    that file or at ``root``; return errors."""
    errors: list[str] = []
    for top in CITING_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for match in _CITATION.finditer(text):
                name = match.group(0)
                if (path.parent / name).exists() or (root / name).exists():
                    continue
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{path.relative_to(root)}:{line}: cites {name}, which "
                    "exists neither next to it nor at the repo root"
                )
    return errors


def main() -> int:
    problems = run_doctests() + check_markdown_links() + check_doc_citations()
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print(
        f"docs ok: {len(DOCTEST_MODULES)} modules doctested, "
        f"{len(markdown_files())} markdown files link-checked, "
        "doc citations in Python files resolved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
