"""The experiment scripts run end to end at a tiny budget: each exits 0 and its
``--out`` reports round-trip through ``load_reports`` with storage figures that
match their config echoes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from codepress.reporting import load_reports

ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = (
    "vocab_size=40\nembed_dim=4\nsynthetic_clusters=4\nalphabet_size=4\n"
    "code_length=2\ndigit_dim=4\nepochs=1\nbatch_size=16\n"
)

# script -> (tiny-budget arguments, report rows it writes); "{config}" is a
# config file holding TINY_CONFIG
TINY = {
    "run_ablation.py": (["{config}"], 6),
    "run_compression_table.py": (
        ["--vocab-size", "60", "--embed-dim", "4", "--docs", "40", "--doc-len", "5",
         "--alphabet", "4", "--length", "2", "--subspaces", "2", "--centroids", "4",
         "--epochs", "1", "--batch-size", "16"],
        4,
    ),
}


@pytest.mark.parametrize("script", sorted(TINY))
def test_script_writes_verified_reports(tmp_path, script):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    args, rows = TINY[script]
    args = [arg.format(config=config) for arg in args]
    out = tmp_path / "reports.jsonl"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reports = load_reports(out)  # rejects storage figures that disagree with their echo
    assert len(reports) == rows
    for report in reports:
        assert report.method in proc.stdout
