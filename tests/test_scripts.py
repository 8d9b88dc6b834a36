"""The experiment scripts run end to end at a tiny budget: each exits 0 and its
``--out`` reports round-trip through ``load_reports`` with storage figures that
match their config echoes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from codepress.reporting import load_reports, verify_accounting

ROOT = Path(__file__).resolve().parent.parent

# script -> (tiny-budget arguments, report rows it writes)
TINY = {
    "run_ablation.py": (
        ["--vocab-size", "40", "--embed-dim", "4", "--clusters", "4", "--alphabet", "4",
         "--length", "2", "--digit-dim", "4", "--epochs", "1", "--batch-size", "16"],
        6,
    ),
    "run_compression_table.py": (
        ["--vocab-size", "60", "--embed-dim", "4", "--docs", "40", "--doc-len", "5",
         "--alphabet", "4", "--length", "2", "--subspaces", "2", "--centroids", "4",
         "--epochs", "1", "--batch-size", "16"],
        4,
    ),
}


@pytest.mark.parametrize("script", sorted(TINY))
def test_script_writes_verified_reports(tmp_path, script):
    args, rows = TINY[script]
    out = tmp_path / "reports.jsonl"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reports = load_reports(out)
    assert len(reports) == rows
    for report in reports:
        verify_accounting(report)
        assert report.method in proc.stdout
