import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_datasets.py"
CSV = 'phi,entropy_bits,input_label\r\n0.1,0.5,"1,1"\r\n0.2,0.75,"1,1"\r\n'
RECORDS = [{"volume": 1.0, "best_input": "1,0", "maximal": True}]


@pytest.mark.parametrize(
    "name, old_text, new_text, code, report",
    [
        ("a.csv", CSV, CSV, 0, "a.csv  entropy_bits  max_abs_diff=0  differing=0"),
        ("a.csv", CSV, CSV.replace("0.75", "0.7500000000001"), 0, "entropy_bits  max_abs_diff=1e-13  differing=1"),
        ("a.csv", CSV, CSV.replace("0.75", "0.750001"), 1, "entropy_bits  max_abs_diff=1e-06  differing=1"),
        ("a.csv", CSV, CSV.replace('0.75,"1,1"', '0.75,"2,0"'), 1, "input_label  max_abs_diff=inf  differing=1"),
        ("a.csv", CSV, CSV.replace("input_label", "label"), 1, "a.csv: columns differ"),
        ("a.csv", CSV, CSV.rsplit("0.2", 1)[0], 1, "a.csv: row counts differ: 2 vs 1"),
        ("a.csv", CSV, None, 1, "a.csv: only in"),
        ("v.json", json.dumps(RECORDS), json.dumps([{**RECORDS[0], "maximal": False}]), 1,
         "v.json  maximal  max_abs_diff=inf  differing=1"),
    ],
    ids=["identical", "within-tolerance", "beyond-tolerance", "label", "columns", "rows", "missing-file", "json"],
)
def test_exit_code_and_report(tmp_path, name, old_text, new_text, code, report):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / name).write_text(old_text, newline="")
    if new_text is not None:
        (new / name).write_text(new_text, newline="")
    cp = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True)
    assert cp.returncode == code, cp.stdout + cp.stderr
    assert report in cp.stdout
