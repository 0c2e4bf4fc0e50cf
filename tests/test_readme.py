"""The README's *Library* section names only what ``cumuldyn`` exports."""

from __future__ import annotations

import ast
import builtins
import keyword
import re
from pathlib import Path

import pytest

import cumuldyn

README = Path(__file__).resolve().parents[1] / "README.md"


def library_spans() -> list[str]:
    """The backticked spans of the *Library* section, line breaks as spaces."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", section)]


def documented_names() -> set[str]:
    """Each span that is a Python call gives its callee (``name`` or
    ``Dotted.name``); each CapWords span that is not a keyword gives itself.
    Math such as ``r(1+q)^n/q`` is not a call and gives nothing.
    """
    names = set()
    for span in library_spans():
        try:
            node = ast.parse(span, mode="eval").body
        except SyntaxError:
            continue
        if isinstance(node, ast.Call):
            names.add(ast.unparse(node.func))
        elif re.fullmatch(r"[A-Z]\w*[a-z]\w*", span) and not keyword.iskeyword(span):
            names.add(span)
    return names


def resolves(name: str) -> bool:
    """Whether ``name`` is an attribute path from ``cumuldyn`` or a builtin."""
    head, *rest = name.split(".")
    obj = getattr(cumuldyn, head, getattr(builtins, head, None))
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_the_section_names_calls_and_types():
    names = documented_names()
    assert {"measure_checkpoints", "Checkpoint", "Corpus.class_mask", "SeriesPoint"} <= names


@pytest.mark.parametrize("name", sorted(documented_names()))
def test_documented_name_resolves(name):
    assert resolves(name), f"README names {name!r}, which cumuldyn does not export"


@pytest.mark.parametrize(
    "name", ["cumulativeness_series", "class_grouping", "DistributionFit", "np.diff"]
)
def test_unexported_names_do_not_resolve(name):
    assert not resolves(name)
