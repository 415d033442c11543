import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_compare_outputs_names_the_largest_difference(tmp_path):
    """Two output directories whose reports differ by 2e-16 in one float:
    one difference, the summary names its size and place, exit 1."""
    for name, first in (("a", 1.0), ("b", 1.0000000000000002)):
        (tmp_path / name).mkdir()
        report = {"results": {"matrix": [first, 0.5], "label": "x"}}
        (tmp_path / name / "run.report.json").write_text(json.dumps(report), encoding="utf-8")
        (tmp_path / name / "table.csv").write_text("tau,s\n1.0,0.25\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_outputs.py"),
         str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == (
        "1 difference(s) over 2 file(s); largest absolute difference "
        "2.220446049250313e-16 at run.report.json.results.matrix[0]"
    )
