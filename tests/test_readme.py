"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the quick start has no python block"
    return match.group(1)


def test_quick_start_runs(capsys):
    scope = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    # the names the quick start builds are what the text says they are
    assert scope["sol"].feasible
    assert scope["tuned"].feasible
    assert scope["floor"] < scope["tuned"].d_avg
    assert scope["stats"].energy_residual <= 1e-6
    assert len(capsys.readouterr().out.splitlines()) == 2
