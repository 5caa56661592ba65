"""README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_one_oracle_call(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the section holds one python block"
    exec(compile(blocks[0], f"{README}:Library example", "exec"), {})
    assert capsys.readouterr().out == "1\n"
