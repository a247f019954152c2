"""The scripts under tools/ run against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bit_identity_prints_one_named_digest_per_artifact():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "bit_identity.py")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    first, *lines = proc.stdout.splitlines()
    assert re.fullmatch(r"numpy \S+ scipy \S+", first)
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    # five benchmarks x ten seeds (posteriors, L-BFGS-B runs and bound constants), five
    # constructions (four variance, one random) and one pool scored in blocks, ten CLI files
    assert sum(n.startswith("table2/") and n.endswith("/posterior") for n in names) == 50
    assert sum(n.startswith("lbfgs/") for n in names) == 50
    assert sum(n.startswith("bounds/") for n in names) == 50
    assert sum(n.startswith("design/") for n in names) == 11
    assert sum(n.startswith("cli/") for n in names) == 10
    # the artifacts that predict or score in more than one block of PREDICT_ROWS
    assert {"cli/predict-blocks/predictions.csv", "pendulum/seed0/predict-blocks",
            "design/seed2200/select-blocks"} <= set(names)
    # the query file the csv reader reads predicts as the one np.loadtxt reads
    digests = dict(line.split() for line in lines)
    assert digests["cli/predict-checked/predictions.csv"] == digests["cli/predict/predictions.csv"]
