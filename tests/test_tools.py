"""The scripts under tools/ run from the command line."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *args):
    proc = subprocess.run([sys.executable, str(TOOLS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_replicates_prints_the_row_of_one_case():
    header, rule, line = run_tool("replicates.py", "--case", "crofton-ellipsoid-0",
                                  "--seeds", "0:3")
    assert header.startswith("| case | estimates |") and rule.startswith("|---")
    assert line.startswith("| crofton-ellipsoid-0 | 3 |")


def test_code_lines_total_is_the_sum_of_its_modules():
    *modules, total = (line.split() for line in run_tool("code_lines.py"))
    assert total[0] == "total" and len(modules) > 1
    assert int(total[1]) == sum(int(count) for _, count in modules)
