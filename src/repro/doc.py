"""The one document boundary: every ``repro-*/1`` file passes through here.

Ten schemas leave and enter the program (DESIGN.md "Documents" has
the table).  This module is the only one that knows

1. the two on-disk **spellings** -- :func:`compact` (sorted keys, no
   spaces: JSONL records, bundle headers) and :func:`pretty`
   (sorted keys, two-space indent, trailing newline: whole documents);
2. **reading** -- path -> text -> JSON -> object -> ``schema`` tag, for
   whole files (:func:`read`) and JSON Lines (:func:`read_jsonl`),
   failing with one :class:`DocError` whose message is
   ``<path>[:<line>]: <reason>``;
3. the declarative **shape check** (:func:`check`): a nested
   ``{key: type | (types) | [shape] | {shape}}`` table, returning the
   list of problems;
4. the **wall quarantine** in its two styles: a ``wall`` key
   (:func:`strip_wall`: events, findings) and named fields
   (:func:`strip_named`: bench).

The owners (``bench/schema.py``, ``obs/*``, ``policy/tune.py``,
``profile/source.py``, ``workloads/spec.py``, ``replay/bundle.py`` ...)
keep a shape table and whatever is genuinely semantic; their error
classes subclass :class:`DocError`, which the CLI turns into
``repro <verb>: <reason>`` and exit 2 in exactly one place.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Optional, Union

#: the key holding every wall-clock-dependent field of a record or
#: document in the ``events`` and ``findings`` schemas
WALL_KEY = "wall"


class DocError(ValueError):
    """An unreadable or misshapen document; one line, no traceback."""


# -- spelling ------------------------------------------------------------------

#: one line, sorted keys, no spaces
compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_pretty = json.JSONEncoder(sort_keys=True, indent=2).encode


def pretty(doc: Any) -> str:
    """A whole document: sorted keys, two-space indent, trailing
    newline -- writing the same document twice yields the same bytes."""
    return _pretty(doc) + "\n"


def jsonl(records) -> str:
    """One compact line per record."""
    return "".join(compact(record) + "\n" for record in records)


def write(path: Union[str, Path], text: str) -> Path:
    """Write a spelled document, creating its directory; returns the
    path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# -- the shape check -----------------------------------------------------------

_NAMES = {dict: "an object", list: "a list", str: "a string",
          int: "an integer", float: "a number", bool: "true or false",
          None: "null", type(None): "null", object: "a value"}


def _got(value: Any) -> str:
    return _NAMES.get(type(value), type(value).__name__)


def _is(value: Any, kind) -> bool:
    if kind is None:
        return value is None
    if isinstance(value, bool):  # JSON true is not the integer 1
        return kind in (bool, object)
    return isinstance(value, kind)


def check(value: Any, shape, where: str = "") -> list[str]:
    """Problems of ``value`` against ``shape`` (empty list == conforms).

    A shape is a type (``str``, ``int``, ``dict`` ..., ``object`` for
    anything, ``None`` for null), a tuple of types, a one-element list
    ``[shape]`` (a list of such items) or a dict ``{key: shape}`` (an
    object with at least those keys; ``"key?"`` is optional and ``"*"``
    applies to every value).  Never raises on a JSON value.
    """
    problems: list[str] = []
    _check(value, shape, where, problems)
    return problems


def _check(value: Any, shape, where: str, out: list[str]) -> None:
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            out.append(f"{where or 'document'}: expected an object, "
                       f"got {_got(value)}")
            return
        for key, sub in shape.items():
            if key == "*":
                for name, item in value.items():
                    _check(item, sub, _join(where, name), out)
                continue
            name = key.rstrip("?")
            if name in value:
                _check(value[name], sub, _join(where, name), out)
            elif name == key:
                out.append((f"{where}: " if where else "")
                           + f"missing required key {name!r}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            out.append(f"{where or 'document'}: expected a list, "
                       f"got {_got(value)}")
            return
        for i, item in enumerate(value):
            _check(item, shape[0], f"{where}[{i}]", out)
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        if not any(_is(value, kind) for kind in kinds):
            out.append(
                f"{where or 'document'}: expected "
                + " or ".join(_NAMES[kind] for kind in kinds)
                + f", got {_got(value)}")


def _join(where: str, key: str) -> str:
    # the key is the checked document's: one that is not a plain token
    # is spelled as JSON, so no problem string carries a control
    # character (or a forged second line) out of a hostile file
    if not key.isascii() or not key.replace("_", "a").replace(
            "-", "a").isalnum():
        key = compact(key)
    return f"{where}.{key}" if where else key


# -- reading -------------------------------------------------------------------

def parse(text: Union[str, bytes], where, error=DocError,
          line: bool = True) -> Any:
    """``text`` -> JSON value, or ``error("<where>: not JSON (...)")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        at = f" at line {exc.lineno} column {exc.colno}" if line else ""
        raise error(f"{where}: not JSON ({exc.msg}{at})") from None
    except UnicodeDecodeError:
        raise error(f"{where}: not JSON (not UTF-8 text)") from None
    except RecursionError:
        raise error(f"{where}: not JSON (nested too deeply)") from None


def expect(value: Any, where, schema: Optional[str] = None, shape=None,
           error=DocError) -> dict:
    """``value`` must be an object, carry the ``schema`` tag (when
    given) and conform to ``shape`` (when given); returns it."""
    if not isinstance(value, dict):
        raise error(f"{where}: expected an object, "
                    f"got {_got(value)}")
    if schema is not None and value.get("schema") != schema:
        raise error(f"{where}: not a {schema} document "
                    f"(schema {value.get('schema')!r})")
    if shape is not None:
        problems = check(value, shape)
        if problems:
            more = f" (and {len(problems) - 1} more)" \
                if len(problems) > 1 else ""
            raise error(f"{where}: {problems[0]}{more}")
    return value


def read_bytes(path: Union[str, Path], error=DocError) -> bytes:
    """The file's bytes, or ``error("<path>: cannot read (...)")``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(
            f"{path}: cannot read ({exc.strerror or exc})") from None


def read(path: Union[str, Path], schema: Optional[str] = None,
         shape=None, error=DocError) -> dict:
    """Read one whole-file document: an object with the ``schema`` tag
    and the ``shape``, or one ``error`` naming the path."""
    return expect(parse(read_bytes(path, error), path, error),
                  path, schema, shape, error)


def tag(path: Union[str, Path]) -> Optional[str]:
    """The ``schema`` tag a file announces -- as a whole document, or in
    the first record of a JSON Lines file -- else ``None``.  Never
    raises: what announces nothing is for its loader to refuse.  Only
    the first line of a (possibly long) JSON Lines file is read."""
    try:
        with open(path, "rb") as stream:
            head = stream.readline()
            try:
                value = json.loads(head)
            except ValueError:
                value = json.loads(head + stream.read())
    except (OSError, ValueError, RecursionError):
        return None
    return value.get("schema") if isinstance(value, dict) else None


def read_jsonl(path: Union[str, Path], *, torn_tail: bool = False,
               error=DocError) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for every non-blank line of a JSON
    Lines file.  ``torn_tail`` tolerates (drops) a last line that is
    not JSON -- what a writer killed mid-record leaves behind."""
    lines = read_bytes(path, error).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse(line, f"{path}:{lineno}", error, line=False)
        except error:
            if torn_tail and lineno == len(lines):
                return
            raise
        yield lineno, expect(record, f"{path}:{lineno}", error=error)


# -- the wall quarantine -------------------------------------------------------

def strip_wall(record: dict) -> dict:
    """A copy of a record or document without its ``wall`` key; what
    remains is byte-stable across reruns of the same command."""
    return {k: v for k, v in record.items() if k != WALL_KEY}


def strip_named(doc: dict, fields, items: str, item_fields) -> dict:
    """A deep copy (through JSON, so in-memory and re-read documents
    compare equal) without the named wall-clock ``fields``, and without
    ``item_fields`` in each object of the list ``doc[items]``."""
    out = json.loads(json.dumps(doc))
    for name in fields:
        out.pop(name, None)
    rows = out.get(items)
    for row in rows if isinstance(rows, list) else ():
        if isinstance(row, dict):
            for name in item_fields:
                row.pop(name, None)
    return out
