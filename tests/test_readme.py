import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_sketch_runs():
    """The README's Python sketch runs as written, so it cannot drift from
    the code it shows.  It is compiled with asserts kept, so its checks also
    run under ``python -O``."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec", optimize=0), {})
