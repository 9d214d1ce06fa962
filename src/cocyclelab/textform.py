"""Structured text form shared by word sources, cocycle tables, and
scenario configs.

Grammar (line oriented, ``#`` outside a quoted literal starts a comment):

    name {
      key = <python literal>     # numbers, quoted strings, lists, ...
      nested {
        ...
      }
    }

A document is one named top-level block; values round-trip through
``repr``/``ast.literal_eval``. Nested blocks map to nested dicts.
"""

from __future__ import annotations

import ast
import math
import numbers
from typing import Mapping, get_args, get_origin

from .errors import ConfigError


# what a kind accepts besides its own instances (a bool is never a number)
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, list: (list, tuple)}


def typed(key: str, value, kind):
    """value as a `kind`, else ConfigError naming the key: the one type rule
    for scenario overrides and description fields. A list kind may name its
    items' kind, as list[float] or list[list[float]]; each item is then read
    by the same rule under the key key[i]."""
    origin = get_origin(kind) or kind
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS.get(origin, origin)):
        name = kind.__name__ if origin is kind else str(kind)
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    if origin is not kind:
        (item,) = get_args(kind)
        return [typed(f"{key}[{i}]", x, item) for i, x in enumerate(value)]
    return kind(value)


def field(d: Mapping, key: str, kind):
    """d[key] read by `typed`, or ConfigError naming the missing field."""
    if key not in d:
        raise ConfigError(f"description has no {key!r} field")
    return typed(key, d[key], kind)


def _emit(data: Mapping, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, Mapping):
            lines.append(f"{pad}{key} {{")
            _emit(value, indent + 1, lines)
            lines.append(f"{pad}}}")
        else:
            _check_finite(key, value)
            lines.append(f"{pad}{key} = {value!r}")


def _check_finite(key, value) -> None:
    """inf and nan have no literal form, so loads could not read them back."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{key}: non-finite float {value!r} cannot be written")
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _check_finite(key, item)
    elif isinstance(value, dict):
        for item in value.items():
            _check_finite(key, item)


def dumps(name: str, data: Mapping) -> str:
    if not name or any(ch in name for ch in " {}=#"):
        raise ConfigError(f"bad block name {name!r}")
    lines = [f"{name} {{"]
    _emit(data, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> tuple[str, dict]:
    """Parse one top-level block; returns (name, contents)."""
    stack: list[dict] = []
    names: list[str] = []
    root_name = None
    root: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # A '#' may sit inside a quoted literal, so the comment is cut here
        # only to classify the line; literal_eval reads an assignment's raw
        # right-hand side and skips a trailing comment itself.
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            if not stack:
                raise ConfigError(f"line {lineno}: assignment outside any block")
            key, _, rhs = raw.partition("=")
            try:
                value = ast.literal_eval(rhs.strip())
            except (ValueError, SyntaxError) as exc:
                raise ConfigError(f"line {lineno}: bad literal {rhs.strip()!r}") from exc
            stack[-1][key.strip()] = value
            continue
        if line == "}":
            if not stack:
                raise ConfigError(f"line {lineno}: unmatched '}}'")
            stack.pop()
            names.pop()
            continue
        if line.endswith("{"):
            key = line[:-1].strip()
            if not key:
                raise ConfigError(f"line {lineno}: block needs a name")
            block: dict = {}
            if stack:
                stack[-1][key] = block
            else:
                if root is not None:
                    raise ConfigError(f"line {lineno}: multiple top-level blocks")
                root_name, root = key, block
            stack.append(block)
            names.append(key)
            continue
        raise ConfigError(f"line {lineno}: cannot parse {raw!r}")
    if stack:
        raise ConfigError(f"unclosed block {names[-1]!r}")
    if root is None:
        raise ConfigError("empty document")
    return root_name, root
