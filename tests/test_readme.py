"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # each block may use the names the blocks before it defined; a failure
    # reports the README's own line
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL))
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        padded = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(padded, str(README), "exec"), namespace)
