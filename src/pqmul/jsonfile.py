"""The JSON file convention (UTF-8, two-space indent, one trailing LF) and
_need, the one reader of JSON fields, whose errors name the field's path."""

from __future__ import annotations

import json
import sys

from .errors import RuleTableError


def read_json(path, parse, error):
    """parse(the JSON value in the file at path); a file that is not valid
    JSON or UTF-8, or a value parse rejects, raises error after the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, too many digits
            raise error(f"{path}: not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def write_json(data, path) -> None:
    """Write data to path as UTF-8 JSON, two-space indent, trailing LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _need(obj: dict, key: str, kind, where: str, error=RuleTableError):
    """obj[key] if it has JSON type kind (float: any finite number), else
    raise error naming the field path.  A bool is not a number."""
    if not isinstance(obj, dict) or key not in obj:
        raise error(f"{where}.{key}: missing")
    val = obj[key]
    if kind is float:
        # json reads NaN and Infinity; "not <=" also rejects NaN
        if (not isinstance(val, (int, float)) or isinstance(val, bool)
                or not abs(val) <= sys.float_info.max):
            raise error(
                f"{where}.{key}: expected a finite number, got {val!r}")
        return float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise error(f"{where}.{key}: expected {kind.__name__}, got {val!r}")
    return val
