"""The README's library example runs as written against the installed package."""

import re
from pathlib import Path

import pytest

from gradcut.engine import SolveStatus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_as_written(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    outcome = namespace["outcome"]
    assert outcome.status is SolveStatus.EPS_OPTIMAL
    assert outcome.f_best == pytest.approx(1.0, abs=1e-9)
    assert capsys.readouterr().out.startswith(f"{outcome.f_best} ")
