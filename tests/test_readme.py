"""The README's *Library* section names only what ``cumuldyn`` exports, and its
*Command line* section names every flag."""

from __future__ import annotations

import ast
import builtins
import keyword
import re
from pathlib import Path

import pytest

import cumuldyn

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_spans() -> list[str]:
    """The backticked spans of the *Library* section, line breaks as spaces."""
    return [span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", library_section())]


def named_tuples() -> list[str]:
    """The types listed by the section's sentence "The types are named tuples…"."""
    sentence = re.search(r"The types are named tuples.*?:(.*?)\.\s", library_section(), re.S)
    return re.findall(r"`([A-Z]\w*)`", sentence.group(1))


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
    assert {
        "measure_checkpoints", "measure_series", "Checkpoint", "Corpus.class_mask", "SeriesPoint"
    } <= names


def test_the_listed_named_tuples_are_tuples():
    names = named_tuples()
    assert {"ModelParams", "TechnologyQuery", "BacklinkDistribution", "Corpus"} <= set(names)
    assert [name for name in names if not issubclass(getattr(cumuldyn, name), tuple)] == []
    assert "KnowledgeGraph" not in names
    assert not issubclass(cumuldyn.KnowledgeGraph, tuple)


@pytest.mark.parametrize("name", sorted(documented_names()))
def test_documented_name_resolves(name):
    assert resolves(name), f"README names {name!r}, which cumuldyn does not export"


@pytest.mark.parametrize(
    "name", ["cumulativeness_series", "class_grouping", "DistributionFit", "np.diff"]
)
def test_unexported_names_do_not_resolve(name):
    assert not resolves(name)


def command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def long_flags() -> list[tuple[str, str]]:
    """Each (subcommand, long flag) of the CLI's parser."""
    from cumuldyn.cli import _build_parser

    commands = next(a.choices for a in _build_parser()._actions if a.dest == "command")
    return [
        (name, flag) for name, parser in commands.items()
        for flag in parser._option_string_actions if flag.startswith("--")
    ]


@pytest.mark.parametrize("command, flag", long_flags())
def test_command_line_section_names_every_flag(command, flag):
    assert re.search(re.escape(flag) + r"(?![\w-])", command_line_section()), (
        f"README's *Command line* does not name {command} {flag}"
    )
