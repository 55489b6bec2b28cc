"""Documentation stays true: doctests pass, doc references resolve.

Runs the same checks as the CI ``docs`` job (``make docs`` /
``scripts/check_docs.py``) so doc rot fails tier-1 locally, not just
in CI.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_doctest_modules_pass():
    assert check_docs.run_doctests() == []


def test_markdown_links_resolve():
    assert check_docs.check_markdown_links() == []


def test_doc_citations_resolve():
    assert check_docs.check_doc_citations() == []


def test_missing_doc_citation_is_reported(tmp_path):
    # names built by concatenation, so this file cites none of them
    at_root, beside, missing = ("TOUR" + ".md", "NOTES" + ".md", "GONE" + ".md")
    (tmp_path / at_root).write_text("# tour\n")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / beside).write_text("# notes\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        f'"""See {at_root}, {beside} and {missing}."""\n'
    )
    assert check_docs.check_doc_citations(tmp_path) == [
        f"src/pkg/mod.py:1: cites {missing}, which exists neither next to "
        "it nor at the repo root"
    ]


def test_main_exit_code_and_summary(capsys):
    assert check_docs.main() == 0
    assert "docs ok" in capsys.readouterr().out
