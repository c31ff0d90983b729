"""The README's code blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first ```python block after a level-2 heading."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library use"), str(README), "exec"),
         namespace)
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) <= 1e-8
    assert printed[1].startswith("ErrorReport(l2_error=")
    assert namespace["data"].exact_u is not None
