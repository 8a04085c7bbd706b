"""Exception hierarchy shared across the package.

Two broad families matter to the CLI: ``ValidationError`` (bad inputs,
bad files, bad configuration; exit code 2) and ``DataError`` (the inputs
were well formed but the data cannot support the requested operation;
exit code 3).  ``read_json`` maps every way a JSON input can fail to be
read onto one of these classes, with the path in the message, and
``json_number`` is the one rule for a number in one.  ``write_json``
writes every JSON artifact, as ``pipeline.write_columns`` does every CSV.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

_TYPE_CODE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class ClimbgenError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClimbgenError):
    """Invalid configuration, parameters, or file contents."""


class DataError(ClimbgenError):
    """Well-formed inputs whose content cannot support the operation."""


class DomainError(ValidationError, ValueError):
    """Numeric input outside the modeled domain."""


class ModelValidityError(ValidationError):
    """A physical model produced a value outside its validity envelope."""


class DegenerateConditionError(ValidationError):
    """A flight condition makes the requested inversion singular."""


class ModelFileError(ValidationError):
    """Model file is corrupted, truncated, or has an unknown schema."""


class ScenarioError(ValidationError):
    """A simulation scenario cannot produce feasible flights."""


class FlightRejectedError(DataError):
    """A flight has too little usable data to fit a thrust profile."""


class TooFewFlightsError(DataError):
    """Too few of a type's flights give a thrust profile to fit a model."""


class InfeasibleClimbError(DataError):
    """Climb rate fell to or below the feasibility floor.

    ``altitude_m`` records where the climb first became infeasible.
    """

    def __init__(self, message: str, altitude_m: float):
        super().__init__(message)
        self.altitude_m = altitude_m


class DegenerateModelError(DataError):
    """Fitted thrust profiles, or a coordinate of their weights, have no
    variance."""


class DegenerateNodeError(DataError):
    """All basis modes vanish at the requested grid node."""


def read_json(path: Path, what: str, error: type[ClimbgenError]):
    """The parsed content of a UTF-8 JSON file.

    A missing, unreadable (e.g. a directory) or non-UTF-8 file, or text
    that is not JSON, raises ``error`` naming ``what`` and the path.
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:   # JSONDecodeError, or an integer past int_max_str_digits
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as a JSON artifact: keys sorted, indent 1, a final
    newline, UTF-8, making the file's directory if it is missing.  The same
    document always gives the same bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)   # written as encoded, never held whole
        fh.write("\n")


def json_number(value, where: str) -> float:
    """``value``, read from a JSON input, as a float.  Raise ``ValueError``
    naming ``where`` unless it is a finite JSON number: ``true``, text,
    ``null``, ``NaN``, ``Infinity`` and integers past the float range are not."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{where} must be a finite number, got {json.dumps(value)}")


def check_type_code(code, where: str, error: type[ClimbgenError]) -> None:
    """Raise ``error`` naming ``where`` unless ``code`` can name files such
    as ``model_<type>.json``: a string that ``_TYPE_CODE`` matches whole."""
    if not isinstance(code, str) or not _TYPE_CODE.fullmatch(code):
        raise error(f"{where}: type_code must match {_TYPE_CODE.pattern}, got {json.dumps(code)}")
