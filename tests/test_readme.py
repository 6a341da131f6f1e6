"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    # a renamed function, field or parameter in the library shows here as
    # an error, instead of as a stale example in the docs
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], f"{README.name} quick start", "exec"), {})
