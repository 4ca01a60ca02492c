"""The project files agree with the package: the version, the README examples,
the index limit and the code names the README states."""

import importlib
import re
from pathlib import Path

import pytest

import charlier
from charlier import cli
from charlier.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


@pytest.mark.filterwarnings("ignore:.*beta")  # setuptools before 66 marks the table beta
def test_pyproject_reads_the_one_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == charlier.__version__


def test_readme_poly_commands_print_their_comments(capsys):
    examples = re.findall(r"^charlier (poly \S+ \d+) +# (.+)$", README, re.MULTILINE)
    assert len(examples) >= 2
    for argv, expected in examples:
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == expected + "\n"


def test_readme_quick_start_reprs():
    examples = re.findall(r"^(\S.*?) +# (Poly\('[^']*'\))", README, re.MULTILINE)
    assert len(examples) >= 5
    for expression, expected in examples:
        assert repr(eval(expression, vars(charlier))) == expected, expression


def test_readme_states_the_index_limit():
    stated = re.findall(r"`cli\.INDEX_LIMIT` = (\d+)", README)
    assert stated and all(int(limit) == cli.INDEX_LIMIT for limit in stated)


def test_readme_names_only_code_that_exists():
    modules = "cli|verify|diffeq|classical|pointmass|polynomials"
    named = re.findall(rf"`({modules})\.(\w+)", README)
    assert len(named) >= 10
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"charlier.{module}"), name)]
    assert missing == []
