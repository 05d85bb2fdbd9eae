"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    want = [line.rsplit("#", 1)[1].strip()
            for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
