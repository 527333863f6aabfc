"""The README's quickstart snippets must be copy-paste runnable.

Doctest-style guard against documentation drift: every fenced
``python`` block in README.md is executed in a subprocess exactly as a
reader would paste it (only ``PYTHONPATH=src`` set, as the quickstart
instructs). A snippet that imports a renamed symbol, or silently relies
on state the reader doesn't have, fails this test.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_snippets():
    return _FENCE.findall(README.read_text())


def test_readme_has_python_snippets():
    assert len(python_snippets()) >= 2


@pytest.mark.parametrize(
    "idx", range(len(_FENCE.findall(README.read_text())))
)
def test_readme_snippet_runs(idx):
    snippet = python_snippets()[idx]
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"README python snippet #{idx} is not copy-paste runnable:\n"
        f"--- snippet ---\n{snippet}\n--- stderr ---\n{proc.stderr}"
    )


def test_readme_documents_figure_and_serve_commands():
    text = README.read_text()
    assert "repro figure" in text
    assert "repro loadgen" in text


def test_readme_quickstart_cli_lines_point_at_real_modules():
    """Every `python -m repro...` invocation in the README names an
    importable module (catches renamed CLIs without running them)."""
    import importlib.util

    text = README.read_text()
    modules = set(re.findall(r"python -m ([\w.]+)", text))
    assert modules  # the quickstart must show module invocations
    for mod in modules:
        assert importlib.util.find_spec(mod) is not None, (
            f"README references `python -m {mod}` but that module "
            "does not exist"
        )
