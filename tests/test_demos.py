"""The demos import only names the package defines; each, and README's Quick start and Command
line blocks, runs to exit 0.

The import check names a removed or renamed name directly; the run catches
everything else, warnings included.
"""

import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from resgp.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def resgp_imports(path):
    """(module, name) for every name the file imports from resgp or its submodules."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "resgp":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "resgp":
                    yield alias.name, None


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(resgp_imports(path))
    assert imports, f"{path.name} imports nothing from resgp"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


def run_script(path, cwd):
    """Run a script as its reader would, warnings as errors, in the directory cwd."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(path)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # a demo may write files into its working directory (error_bounds.py writes
    # bound_curve.csv), so each runs in a fresh one
    run_script(path, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    run_script(script, tmp_path)


# the files README's table lists for each command, as the Command line block runs it
README_COMMAND_FILES = {
    "train": {"model.json", "record.json", "dataset.csv", "dataset_meta.json"},
    "predict": {"predictions.csv"},
    "active": {"model.json", "record.json", "audit.jsonl"},
    "bounds": {"bounds.json", "curve.csv"},
    "bench": {"summary.json", "results.csv"},
}


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    lines = iter(section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines())
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in lines:
        if line.startswith("cat > "):  # a heredoc: cat > name <<'EOF' ... EOF
            body = "".join(f"{text}\n" for text in iter(lines.__next__, "EOF"))
            (tmp_path / line.split()[2]).write_text(body)
        elif line.startswith("resgp "):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            out = tmp_path / argv[argv.index("--out") + 1]
            assert README_COMMAND_FILES[argv[0]] <= {p.name for p in out.iterdir()}, line
            commands.append(argv[0])
        else:
            assert line == "" or line.startswith("#"), line
    assert commands == list(README_COMMAND_FILES)
