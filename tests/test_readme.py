"""The README's library example runs as written against the installed package."""

import re
import types
from pathlib import Path

import pytest

import gradcut
from gradcut.engine import SolveStatus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use():
    """The README's "Library use" section."""
    return README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs_as_written(capsys):
    section = library_use()
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    outcome = namespace["outcome"]
    assert outcome.status is SolveStatus.EPS_OPTIMAL
    assert outcome.f_best == pytest.approx(1.0, abs=1e-9)
    assert capsys.readouterr().out.startswith(f"{outcome.f_best} ")


def test_library_use_names_exactly_the_public_top_level():
    # the names the example imports from gradcut, and the class and constant
    # names the prose quotes, are the package's public names, its submodules
    # aside
    section = library_use()
    imported = re.search(r"from gradcut import \((.*?)\)", section, re.DOTALL).group(1)
    named = set(re.findall(r"\w+", imported))
    named |= set(re.findall(r"`([A-Z]\w*)`", section))
    public = {
        name
        for name, value in vars(gradcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert named == public
