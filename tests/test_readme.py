"""The README's Python quickstart runs as a doctest, and its command-line block runs."""

import doctest
import re
import shlex
from pathlib import Path

import assocspectra as a
from assocspectra.cli import main

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


def test_command_line_block(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Command line\n\n```sh\n(.*?)```",
                      README.read_text(encoding="utf-8"), flags=re.S).group(1)
    monkeypatch.chdir(tmp_path)
    # the block's last command reads this file
    Path("prefix.txt").write_text(a.format_spectrum_prefix(a.build_prefix(a.tau, 5)),
                                  encoding="utf-8")
    values = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "assocspectra", line
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if comment.strip().isdigit():  # a plain value is the exact output
            assert out == comment.strip() + "\n", line
            values.append(comment.strip())
    assert values == ["12", "5"]
