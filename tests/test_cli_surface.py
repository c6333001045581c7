"""The CLI surface snapshot: every verb, sub-verb and option of
``build_parser()`` as structure (not ``--help`` text, which differs
across Python versions), compared with the committed
``tests/snapshots/cli_surface.json``.

A refactor of ``cli.py`` must leave this file untouched: that is the
"zero verbs or flags lost" clause of the ROADMAP diet, checked.  After a
*deliberate* surface change regenerate with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).parent / "snapshots" / "cli_surface.json"


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """``{"options": [...], "verbs": {name: surface}}`` for one parser:
    positionals in declaration order (their order is surface), then
    flags sorted by name (theirs is not)."""
    options = []
    verbs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                verbs[name] = parser_surface(sub)
            continue
        choices = action.choices
        options.append({
            "strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "choices": None if choices is None else list(choices),
            "nargs": action.nargs,
            "required": action.required,
            "type": getattr(action.type, "__name__", None),
            "action": type(action).__name__,
        })
    options.sort(key=lambda o: (bool(o["strings"]), o["strings"]))
    return {"options": options, "verbs": verbs}


def render(surface: dict) -> str:
    return json.dumps(surface, indent=1, sort_keys=True) + "\n"


def test_cli_surface_matches_snapshot():
    assert render(parser_surface(build_parser())) == SNAPSHOT.read_text(), (
        "the CLI surface changed; if that is deliberate, regenerate "
        "tests/snapshots/cli_surface.json (see this module's docstring)"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(render(parser_surface(build_parser())))
    print(f"wrote {SNAPSHOT}")
