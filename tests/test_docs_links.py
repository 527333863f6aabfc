"""Internal links in the documentation must resolve.

Scans README.md and every docs/*.md for markdown links; relative links
(no scheme) must point at a file or directory that exists, anchor
fragments stripped. External http(s) links are not fetched. Every
``*.md`` file a module under ``src/`` names must exist too.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files():
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    return [REPO_ROOT / "README.md", *docs]


def relative_links(path: Path):
    for target in _LINK.findall(path.read_text()):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
            continue
        if target.startswith("#"):  # in-page anchor
            continue
        yield target


def test_docs_directory_is_populated():
    names = {p.name for p in doc_files()}
    assert {"architecture.md", "paper_map.md", "serving.md"} <= names


@pytest.mark.parametrize("doc", doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in relative_links(doc):
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.relative_to(REPO_ROOT)} has broken links: {broken}"


@pytest.mark.parametrize("doc", doc_files(), ids=lambda p: p.name)
def test_backticked_repo_paths_exist(doc):
    """Paths named in backticks like `src/repro/...` or `tests/...` must
    exist — docs that cite modules rot fastest."""
    text = doc.read_text()
    cited = re.findall(
        r"`((?:src|tests|docs|benchmarks|examples)/[\w./-]+?)`", text
    )
    missing = sorted(
        {c for c in cited if not (REPO_ROOT / c.split("::")[0]).exists()}
    )
    assert not missing, (
        f"{doc.relative_to(REPO_ROOT)} cites paths that do not exist: "
        f"{missing}"
    )


def test_markdown_files_named_under_src_exist():
    """A docstring or comment saying "see FOO.md" must have a FOO.md to
    see: paths resolve from the repo root, as the citing text writes them."""
    missing = sorted(
        f"{source.relative_to(REPO_ROOT)}: {name}"
        for source in (REPO_ROOT / "src").rglob("*.py")
        for name in set(re.findall(r"[\w./-]*\w\.md\b", source.read_text()))
        if not (REPO_ROOT / name).is_file()
    )
    assert not missing, f"modules cite markdown files that do not exist: {missing}"
