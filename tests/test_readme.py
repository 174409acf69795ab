"""The README's Python and command-line examples run as written."""

import re
import shlex
from pathlib import Path

from qcurves import load_guinea_pigs
from qcurves.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# the study example asks for 10,000 replicates per cell, minutes of work;
# 20 replicates make the same calls
STUDY_REPLICATIONS = ("replications=10_000", "replications=20")


def test_readme_python_blocks_run_in_order():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 5
    assert text.count(STUDY_REPLICATIONS[0]) == 1
    namespace = {"data": load_guinea_pigs()["control"]}
    for block in blocks:
        code = block.replace(*STUDY_REPLICATIONS)
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].replications == 20


def test_readme_command_line_block_runs(tmp_path, capsys):
    # every line of the block exits 0, with lifetimes.txt the control group
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL).group(1)
    data = tmp_path / "lifetimes.txt"
    data.write_text("".join(f"{float(v)!r}\n" for v in load_guinea_pigs()["control"]))
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 9
    for command in commands:
        assert command[0] == "qcurves"
        args = [str(data) if arg == "lifetimes.txt" else arg for arg in command[1:]]
        assert main(args) == 0, command
        assert capsys.readouterr().err == ""
