"""Exception classes shared across the package, and the rules every
JSON input is read by.

Five classes, each told apart by some caller:

- ``ClimbgenError``: the base of every error the package raises;
- ``ValidationError``: bad arguments, configuration or file contents;
  the CLI exits 2;
- ``DataError``: well-formed inputs whose data cannot support the
  operation; the CLI exits 3, and ``fit`` and ``evaluate`` skip the one
  type whose work raised it;
- ``DomainError``: a ``ValidationError`` that is also a ``ValueError``,
  for a numeric input outside the modeled domain; the scenario reader
  catches it to name the type at fault;
- ``InfeasibleClimbError``: a ``DataError`` for a climb whose rate falls
  to the feasibility floor, carrying the ``altitude_m`` where it did.

The performance catalog, the scenario and the model file are read by
``read_json``, which hands the parsed document to the reader's builder
and raises every way the file can fail, the builder's ``ClimbgenError``
included, as a ``ValidationError`` that names the file.  A builder
checks its document with three rules, each of which raises
``ValidationError`` naming the key at fault:

- ``json_object``: an object holds every required key and no other;
- ``json_number`` and ``json_numbers``: a number is a finite JSON
  number (not ``true``, text, ``null``, ``NaN``, ``Infinity`` or an
  integer past the float range), and ``json_numbers`` reads each entry
  of an array of numbers by ``json_number``;
- ``json_count``: a count is a JSON integer of at least 1.

``check_type_code`` is the rule for a type code, and ``write_json``
writes every JSON artifact, as ``pipeline.write_blocks`` does every CSV.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Collection

import numpy as np

_TYPE_CODE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class ClimbgenError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClimbgenError):
    """Invalid arguments, configuration, or file contents."""


class DataError(ClimbgenError):
    """Well-formed inputs whose content cannot support the operation."""


class DomainError(ValidationError, ValueError):
    """Numeric input outside the modeled domain."""


class InfeasibleClimbError(DataError):
    """Climb rate fell to or below the feasibility floor.

    ``altitude_m`` records where the climb first became infeasible.
    """

    def __init__(self, message: str, altitude_m: float):
        super().__init__(message)
        self.altitude_m = altitude_m


def read_json(path: Path, what: str, build: Callable):
    """``build`` of the parsed content of a UTF-8 JSON file.

    A missing, unreadable (e.g. a directory) or non-UTF-8 file, text
    that is not JSON, or a ``ClimbgenError`` that ``build`` raises on the
    content, raises ``ValidationError`` naming ``what`` and the path.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    except ValueError as exc:   # JSONDecodeError, or an integer past int_max_str_digits
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return build(doc)
    except ClimbgenError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from None


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as a JSON artifact: keys sorted, indent 1, a final
    newline, UTF-8, making the file's directory if it is missing.  The same
    document always gives the same bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)   # written as encoded, never held whole
        fh.write("\n")


def _shown(value) -> str:
    """``value`` as JSON text, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def json_object(doc, where: str, required: Collection[str], optional: Collection[str] = ()
                ) -> None:
    """Raise ``ValidationError`` naming ``where`` (nothing at the top
    level) unless ``doc`` is a JSON object that holds every key of
    ``required`` and no key outside ``required`` and ``optional``."""
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ValidationError(f"{at}expected a JSON object, got {_shown(doc)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValidationError(f"{at}missing key(s) {', '.join(missing)}")
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise ValidationError(f"{at}unknown key(s) {', '.join(unknown)}")


def json_number(value, where: str) -> float:
    """``value``, read from a JSON input, as a float.  Raise
    ``ValidationError`` naming ``where`` unless it is a finite JSON number."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"{where} must be a finite number, got {_shown(value)}")


def json_numbers(value, where: str, depth: int = 1) -> np.ndarray:
    """``value``, read from a JSON input, as a float array of ``depth``
    dimensions.  Raise ``ValidationError`` naming ``where`` unless it is an
    array of finite JSON numbers or, at depth 2, of such arrays of one
    length.  Each entry is read by ``json_number``, and one that it
    refuses is named as an entry."""
    what = " of ".join(["an array"] + ["equal-length arrays"] * (depth - 1)) + " of finite numbers"
    flat, shape = [value], []
    for _ in range(depth):
        for row in flat:
            if type(row) is not list:
                raise ValidationError(f"{where} must be {what}, got {_shown(row)}")
        lengths = set(map(len, flat))
        if len(lengths) > 1:
            raise ValidationError(f"{where} must be {what}, got lengths {sorted(lengths)}")
        shape.append(lengths.pop() if lengths else 0)
        flat = list(chain.from_iterable(flat))
    return np.array([json_number(v, f"{where} entry") for v in flat], float).reshape(shape)


def json_count(value, where: str) -> int:
    """``value``, read from a JSON input, as a count.  Raise
    ``ValidationError`` naming ``where`` unless it is a JSON integer >= 1
    (``true`` is not, although ``bool`` is an ``int``)."""
    if type(value) is int and value >= 1:
        return value
    raise ValidationError(f"{where} must be a JSON integer >= 1, got {_shown(value)}")


def check_type_code(code, where: str) -> None:
    """Raise ``ValidationError`` naming ``where`` unless ``code`` can name
    files such as ``model_<type>.json``: a string that ``_TYPE_CODE``
    matches whole."""
    if not isinstance(code, str) or not _TYPE_CODE.fullmatch(code):
        raise ValidationError(f"{where} must match {_TYPE_CODE.pattern}, got {_shown(code)}")
