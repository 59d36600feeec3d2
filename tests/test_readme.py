"""The README's checkable claims: the Quick tour block, the exit codes, and
the test each numerical claim names."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from qtomo import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# Expressions the Quick tour comments on: (comment prefix, value, tolerance).
QUICK_TOUR_CLAIMS = {
    "qttf_single(math.pi)": ("2/3", 2.0 / 3.0, 1e-12),
    "qttf_circuit(REFERENCE_OPTIMUM)": ("about 8.0", 8.0, 1e-3),
}


def _quick_tour() -> str:
    section = README.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_and_its_commented_values_hold():
    block = _quick_tour()
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(out.getvalue().splitlines()) == 6  # one line per Pauli eigenstate
    comments = dict(re.findall(r"^(\S.*?\))\s+# (.*)$", block, re.M))
    for expression, (claim, value, tol) in QUICK_TOUR_CLAIMS.items():
        assert comments[expression].startswith(claim), expression
        assert eval(expression, namespace) == pytest.approx(value, abs=tol), expression


def _readme_exit_codes() -> dict:
    table = README.split("Exit codes:", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\|\s*(\d+)\s*\|\s*(.*?)\s*\|$", table, re.M)
    return {int(code): meaning for code, meaning in rows}


def _cli_exit_codes() -> dict:
    text = " ".join(cli.__doc__.split("Exit codes:", 1)[1].split(".", 1)[0].split())
    return {int(code): meaning for code, meaning in re.findall(r"(\d+) ([^,]+)", text)}


def test_readme_exit_codes_match_the_cli():
    readme, documented = _readme_exit_codes(), _cli_exit_codes()
    assert sorted(readme) == sorted(documented) == [0, 1, 2, 3]
    for code, meaning in documented.items():
        assert readme[code].startswith(meaning), code


def test_every_cited_test_is_defined_in_its_file():
    cited = re.findall(r"\b(tests/\w+\.py)::(\w+)", README)
    assert len(cited) >= 30
    for path, name in cited:
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"


def test_readme_quotes_no_timing_figure():
    # speeds come from the committed BENCH_*.json files, not the README
    assert re.findall(r"\d\s*(?:us|ms)\b", README) == []
