"""The README's library quick start runs as written, and its CLI config loads."""

import re
from pathlib import Path

from ehjscc.cli import load_run_config

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


def test_command_line_config_loads(tmp_path):
    # the config the command-line section shows is one the CLI accepts
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    match = re.search(r"```yaml\n(.*?)```", section, re.DOTALL)
    assert match, "the command-line section has no yaml block"
    path = tmp_path / "run.yaml"
    path.write_text(match.group(1))
    cfg = load_run_config(str(path))
    assert cfg.policy_kind == "adaptive" and cfg.constants is not None
