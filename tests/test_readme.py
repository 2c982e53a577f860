"""The README's Python quickstart runs as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        out: list[str] = []
        test = parser.get_doctest(block, {}, f"README.md[{i}]", str(README), 0)
        failed, attempted = runner.run(test, out=out.append)
        assert attempted and not failed, "".join(out)
