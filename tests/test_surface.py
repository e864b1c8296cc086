"""The package's public surface: ``__all__`` and README's entry points."""

import re
from pathlib import Path

import lamlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    assert len(lamlab.__all__) == len(set(lamlab.__all__))
    missing = [name for name in lamlab.__all__ if not hasattr(lamlab, name)]
    assert missing == []


def test_readme_entry_points_are_exported():
    text = README.read_text()
    # the bulleted list that follows the heading line
    section = text.split("Key entry points:", 1)[1].split("\n\n")[1]
    names = set(re.findall(r"`([A-Za-z_]\w*)", section))
    assert {"build_model", "quasi_newton_continue", "run_suite"} <= names
    assert sorted(names - set(lamlab.__all__)) == []
