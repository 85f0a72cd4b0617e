"""The README's quick example runs as written and prints what it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example(capsys):
    example = re.search(r"Quick example:\s*```python\n(.*?)```", README.read_text(), re.S)
    assert example is not None, "README has no python quick example"
    exec(compile(example.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1.2554823251787535", "1.1631508098056809"]
