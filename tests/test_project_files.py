"""The project files agree with the package: the version and the README examples."""

import re
from pathlib import Path

import pytest

import charlier
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
