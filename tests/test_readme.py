"""The README's Python examples run as written."""

import re
from pathlib import Path

from qcurves import load_guinea_pigs

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
