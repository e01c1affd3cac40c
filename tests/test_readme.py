"""The README's library quick start runs as written, so a name it cites
cannot be deleted from the package unnoticed, and its API list names every
export."""

import re
from pathlib import Path

import trusslab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for block in blocks:
        # pad so that a traceback names the README's own line numbers
        pad = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(pad + block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_lists_every_export():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^ +- `(\w+)`:", section, re.M))
    assert listed == set(trusslab.__all__)
