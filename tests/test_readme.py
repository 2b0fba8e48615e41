"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    steps, mean_interval, saturated = capsys.readouterr().out.split()
    assert int(steps) >= 3 and float(mean_interval) > 0 and saturated in ("True", "False")
