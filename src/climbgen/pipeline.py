"""Radar-blip ingestion, climb filtering, train/test splitting, the
synthetic fleet simulator used for verification, and the CSV writer that
every artifact goes through.

CSV schema (UTF-8, header required)::

    flight_id,type_code,t_s,alt_ft[,lat,lon]

The file is read in the one dialect ``write_columns`` writes: a row is
one line of fields joined by commas, and a field holds no comma, no quote
and no line break.  Lines are split as ``str.splitlines`` splits them,
and a line with a quote or the wrong number of commas is a malformed row.
The file is read ``BLOCK_LINES`` lines at a time and never held whole;
each block is split into columns and validated as arrays, so no object is
built per row.  Malformed rows are logged by line number and skipped;
lat/lon must parse when present but are not kept.

Blips are grouped by flight, sorted by time and deduplicated (first blip
per timestamp wins, which is the earliest line in the file).  A flight
whose blips carry more than one type code, or that has fewer than 2
distinct timestamps, is dropped with a warning.

``filter_climbs`` keeps the flights that climb through the one modeled
window, ``learning.INTERVAL_FL``, and of each only the blips inside it
that climb at ``ROCD_MIN_FPM`` or more, by the climb rates
``learning.derive_rocd`` gives on the whole flight.

``simulate_fleet`` simulates one type at a time and writes its blips as
soon as the type is done.

Every CSV the package writes goes through ``write_columns``: whole
columns, not rows, are formatted.  A number is written as
``repr(float(x))``, the shortest text that reads back to the same float,
and each distinct bit pattern in a column is formatted once, so the few
values radar columns repeat (scan times, quantized altitudes, the grid)
cost one ``repr`` each.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import operator
from dataclasses import dataclass
from itertools import chain, compress, groupby, islice, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .atmosphere import FT, fl_to_m
from .dynamics import integrate_climb
from .errors import DataError, DomainError, InfeasibleClimbError, ScenarioError, read_json
from .learning import INTERVAL_FL, MIN_PROFILE_BLIPS, ThrustProfile, derive_rocd, median3
from .performance import AircraftPerformance, nominal_thrust

logger = logging.getLogger(__name__)

_HEADER = ["flight_id", "type_code", "t_s", "alt_ft"]
_HEADER_LATLON = _HEADER + ["lat", "lon"]
ALT_MAX_FT = 60000.0
BLOCK_LINES = 1 << 15   # lines per parse or write block: bounds the strings held at once
MAX_REDRAWS = 100
ROCD_MIN_FPM = 500.0    # climb-rate floor of a kept blip
TRUTH_GRID_SIZE = 200
TRAIN_SHARE = 2.0 / 3.0


@dataclass(eq=False)
class Trajectory:
    """Time-ordered blips of one flight."""

    flight_id: str
    type_code: str
    t_s: np.ndarray
    alt_ft: np.ndarray

    def __post_init__(self):
        self.t_s = np.asarray(self.t_s, dtype=float)
        self.alt_ft = np.asarray(self.alt_ft, dtype=float)
        if np.any(np.diff(self.t_s) <= 0.0):
            raise DomainError(f"flight {self.flight_id}: timestamps not strictly increasing")

    @property
    def n_blips(self) -> int:
        return self.t_s.size


@dataclass(eq=False)
class DatasetSplit:
    """Disjoint train/test partition of a trajectory set, split by flight."""

    train: list[Trajectory]
    test: list[Trajectory]


def _float_texts(values) -> list[str]:
    """``repr(float(v))`` of each value: the shortest decimal that reads
    back to the same float.

    Each distinct bit pattern is formatted once and the texts gathered by
    the inverse index, so a column that repeats a few values (scan times,
    quantized altitudes, a shared grid) costs one sort, not one ``repr``
    per row.  Comparing bit patterns keeps ``-0.0`` apart from ``0.0``.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def repeat_each(texts: Sequence[str], counts: Sequence[int]) -> list[str]:
    """A text column holding ``texts[i]`` ``counts[i]`` times in a row."""
    column: list[str] = []
    for text, count in zip(texts, counts):
        column += [text] * count
    return column


def write_columns(path: str | Path, header: str, *columns) -> None:
    """Write equal-length columns as a CSV file under a ``header`` line.

    A column is a list of ready texts or an array of numbers, written as
    ``_float_texts`` gives it.  Every line, the last one included, ends in
    a newline; no rows give exactly ``header + "\\n"``.  Rows are joined
    and written ``BLOCK_LINES`` at a time, so the whole file's text is
    never held at once.
    """
    if header.count(",") + 1 != len(columns):
        raise ValueError(f"header {header!r} does not name {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of {header!r} differ in length")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        _write_rows(fh, *columns)


def _write_rows(fh, *columns) -> None:
    """Write equal-length columns, as ``write_columns`` takes them, to an
    open file as CSV rows, ``BLOCK_LINES`` rows at a time."""
    texts = [c if isinstance(c, list) else _float_texts(c) for c in columns]
    rows = map(",".join, zip(*texts))
    while block := list(islice(rows, BLOCK_LINES)):
        fh.write("\n".join(block) + "\n")


def _line_blocks(path: Path) -> Iterator[list[str]]:
    """The lines of a blip file, as ``read_text().splitlines()`` gives
    them, in blocks; the whole file is never held.

    A block is ``BLOCK_LINES`` lines of the file that end in ``b"\\n"``,
    decoded as UTF-8 and split by ``str.splitlines``.  No multibyte UTF-8
    character holds the byte ``b"\\n"``, and a block ends only after one,
    so every character and every ``"\\r\\n"`` pair lies inside one block,
    and the other separators of ``str.splitlines`` split lines within it.
    """
    try:
        with open(path, "rb") as fh:
            offset = 0
            while data := b"".join(islice(fh, BLOCK_LINES)):
                try:
                    lines = data.decode("utf-8").splitlines()
                except UnicodeDecodeError as exc:
                    raise DataError(f"blip file {path} is not UTF-8 text: {exc.reason} "
                                    f"at byte {offset + exc.start}") from None
                offset += len(data)
                del data   # only the lines are held while the block is parsed
                yield lines
    except FileNotFoundError:
        raise DataError(f"blip file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read blip file {path}: {exc.strerror or exc}") from None


def _split_block(block: list[str], n_fields: int
                 ) -> tuple[list[list[str]], np.ndarray, list[tuple[int, str]]]:
    """Field columns of the rows of one block, the index in the block of
    each row's line, and the malformed lines' indices and reasons.

    A row is a line of exactly ``n_fields - 1`` commas and no quote, split
    on its commas; any other non-blank line is malformed.
    """
    n = len(block)
    quoted = np.fromiter(map(str.__contains__, block, repeat('"')), bool, n)
    rows = (np.fromiter(map(str.count, block, repeat(",")), int, n) == n_fields - 1) & ~quoted
    row_lines = block if rows.all() else list(compress(block, rows))
    fields = ",".join(row_lines).split(",") if row_lines else []
    errors = [(i, 'a field holds a quote (")' if quoted[i]
               else f"expected {n_fields} fields, got {block[i].count(',') + 1}")
              for i in np.flatnonzero(~rows).tolist() if block[i]]
    return [fields[k::n_fields] for k in range(n_fields)], np.flatnonzero(rows), errors


def _floats(fields: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Python ``float`` of each field (NaN where it fails) and the mask of
    fields that do not parse."""
    n = len(fields)
    try:
        return np.fromiter(map(float, fields), float, n), np.zeros(n, bool)
    except ValueError:
        pass
    values, bad = np.full(n, np.nan), np.zeros(n, bool)
    for i, field in enumerate(fields):
        try:
            values[i] = float(field)
        except ValueError:
            bad[i] = True
    return values, bad


def _empty(fields: list[str]) -> np.ndarray:
    return np.fromiter(map(operator.not_, fields), bool, len(fields))


def _row_error(row: list[str]) -> str:
    """The first check a rejected row fails, in the order they are made:
    numbers parse (time, altitude, then any non-empty lat/lon), id and
    type are non-empty, time is finite, altitude is in range."""
    try:
        t_s, alt_ft = float(row[2]), float(row[3])
        for field in row[4:]:
            if field:
                float(field)
    except ValueError as exc:
        return str(exc)
    if not row[0] or not row[1]:
        return "blip needs a flight_id and type_code"
    if not math.isfinite(t_s):
        return "blip time must be finite"
    return f"blip altitude {alt_ft} outside [0, {ALT_MAX_FT:.0f}] ft"


def _codes(names: list[str], index: dict[str, int]) -> np.ndarray:
    """Integer code of each name, adding unseen names to ``index``."""
    for name in dict.fromkeys(names):
        index.setdefault(name, len(index))
    return np.fromiter(map(index.__getitem__, names), np.int32, len(names))


def _parse_block(path: Path, lines: list[str], first_line_no: int, n_fields: int,
                 flight_index: dict[str, int], type_index: dict[str, int]
                 ) -> tuple[tuple[np.ndarray, ...], int]:
    """The flight and type codes, times and altitudes of the valid rows of
    one block, in line order, and the number of rows skipped.  Each skipped
    row is logged with its line number, in line order.  The block's field
    strings are freed when this returns, before the next block is read."""
    columns, row_line, errors = _split_block(lines, n_fields)
    flight_ids, type_codes = columns[0], columns[1]
    t_s, bad = _floats(columns[2])
    alt_ft, bad_alt = _floats(columns[3])
    bad |= bad_alt
    for column in columns[4:]:   # lat/lon: checked where present, not kept
        bad |= _floats([field or "0" for field in column])[1]
    bad |= _empty(flight_ids) | _empty(type_codes) | ~np.isfinite(t_s)
    bad |= ~((alt_ft >= 0.0) & (alt_ft <= ALT_MAX_FT))
    if bad.any():
        errors += [(int(row_line[i]), _row_error([column[i] for column in columns]))
                   for i in np.flatnonzero(bad).tolist()]
        keep = ~bad
        flight_ids = list(compress(flight_ids, keep))
        type_codes = list(compress(type_codes, keep))
        t_s, alt_ft = t_s[keep], alt_ft[keep]
    for i, reason in sorted(errors):
        logger.warning("%s line %d: %s; row skipped", path, first_line_no + i, reason)
    return (_codes(flight_ids, flight_index), _codes(type_codes, type_index),
            t_s, alt_ft), len(errors)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """The parts joined into one array; the list is emptied, so each part
    is freed as soon as it is copied."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def ingest(csv_path: str | Path) -> list[Trajectory]:
    """Read a blip CSV into per-flight trajectories.

    The file is read ``BLOCK_LINES`` lines at a time and never held whole;
    each block is parsed into numeric columns, and no object is built per
    row.  A row is a line of fields joined by commas, none of them quoted,
    as ``write_columns`` writes it.  Malformed rows are logged with their
    line number, skipped, and counted; an unreadable or empty file, or one
    whose first line is not the header, raises ``DataError``.
    """
    path = Path(csv_path)
    blocks = _line_blocks(path)
    lines = next(blocks, None)
    if lines is None:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if header not in (_HEADER, _HEADER_LATLON):
        raise DataError(
            f"{path}: header must be exactly {','.join(_HEADER)} "
            f"or {','.join(_HEADER_LATLON)}"
        )

    flight_index: dict[str, int] = {}
    type_index: dict[str, int] = {}
    # one list of per-block arrays for each of flight, type, time and altitude
    parts: tuple[list[np.ndarray], ...] = ([], [], [], [])
    skipped = 0
    first_line_no = 2
    for lines in chain([lines[1:]], blocks):
        columns, n_skipped = _parse_block(path, lines, first_line_no, len(header),
                                          flight_index, type_index)
        first_line_no += len(lines)
        skipped += n_skipped
        for part, values in zip(parts, columns):
            part.append(values)
    if skipped:
        logger.warning("%s: skipped %d malformed row(s)", path, skipped)
    if not flight_index:
        raise DataError(f"{path}: no valid blip rows")

    # rank the flight codes in sorted() order of their ids
    flight_ids = sorted(flight_index)
    rank = np.empty(len(flight_ids), np.int32)
    rank[[flight_index[f] for f in flight_ids]] = np.arange(len(flight_ids))
    flight, type_code, t_s, alt_ft = map(_concat, parts)
    flight = rank[flight]
    # the rows are in line order and the sort by flight, then time, is
    # stable, so the first blip of a timestamp is the earliest line.  Each
    # column is gathered on its own, so one copy at a time is made.
    order = np.lexsort((t_s, flight))
    flight = flight[order]
    type_code = type_code[order]
    t_s = t_s[order]
    alt_ft = alt_ft[order]
    del order
    type_names = list(type_index)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(flight)) + 1, [flight.size])).tolist()

    trajectories = []
    for flight_id, a, b in zip(flight_ids, bounds[:-1], bounds[1:]):
        if np.any(type_code[a:b] != type_code[a]):
            types = sorted(type_names[c] for c in np.unique(type_code[a:b]))
            logger.warning("flight %s: mixed type codes %s; dropped", flight_id, ", ".join(types))
            continue
        t_arr, alt_arr = t_s[a:b], alt_ft[a:b]
        keep = np.concatenate(([True], np.diff(t_arr) > 0.0))
        t_arr, alt_arr = t_arr[keep], alt_arr[keep]
        if t_arr.size < 2:
            logger.warning("flight %s: fewer than 2 distinct blips; dropped", flight_id)
            continue
        trajectories.append(Trajectory(flight_id, type_names[type_code[a]], t_arr, alt_arr))
    if not trajectories:
        raise DataError(f"{path}: no usable flights")
    return trajectories


def write_trajectories_csv(trajectories: Sequence[Trajectory], path: str | Path) -> None:
    """Write trajectories back out in the ingest schema (4-column form),
    sorted by flight id.

    Whole flights go through ``_write_rows`` a group at a time: a group is
    the flights whose first row falls in the same ``BLOCK_LINES`` rows, so
    the whole file's text columns are never held at once.
    """
    ordered = sorted(trajectories, key=lambda t: t.flight_id)
    first_rows = np.cumsum([0] + [tr.n_blips for tr in ordered[:-1]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for _, pairs in groupby(zip((first_rows // BLOCK_LINES).tolist(), ordered),
                                key=operator.itemgetter(0)):
            group = [tr for _, tr in pairs]
            counts = [tr.n_blips for tr in group]
            _write_rows(fh, repeat_each([tr.flight_id for tr in group], counts),
                        repeat_each([tr.type_code for tr in group], counts),
                        np.concatenate([tr.t_s for tr in group]),
                        np.concatenate([tr.alt_ft for tr in group]))


def _climbed_through(raw_alt: np.ndarray, med_alt: np.ndarray,
                     low_ft: float, high_ft: float) -> bool:
    tol = 1e-6
    idx = np.flatnonzero(med_alt >= low_ft)
    if idx.size == 0:
        return False
    enter = int(idx[0])
    if med_alt[enter] < high_ft:
        later = np.flatnonzero(med_alt[enter:] >= high_ft)
        if later.size:
            j = enter + int(later[0])
            return not np.any(med_alt[enter:j] < low_ft)
    # No observed crossing of the top boundary.  Monotone-overall climbs
    # that lie entirely inside the interval are retained: these are partial
    # radar pickups or the output of a previous filter pass (this keeps the
    # filter idempotent).
    return (
        raw_alt.min() >= low_ft - tol
        and raw_alt.max() <= high_ft + tol
        and med_alt[-1] > med_alt[0]
    )


def filter_climbs(trajectories: Sequence[Trajectory]) -> list[Trajectory]:
    """Keep flights that climb through the modeled window
    ``learning.INTERVAL_FL`` and, within each, the blips inside the window
    whose climb rate, derived on the whole flight, is >= ``ROCD_MIN_FPM``.

    A flight that lies wholly inside the window, a partial pickup or a
    flight this filter has cut, keeps every blip: its end rates are
    one-sided, and cutting by them would make a second pass cut blips the
    first one kept.  A flight needs ``learning.MIN_PROFILE_BLIPS`` kept
    blips, the number its thrust profile needs."""
    low_ft, high_ft = INTERVAL_FL[0] * 100.0, INTERVAL_FL[1] * 100.0
    kept = []
    for tr in trajectories:
        if not _climbed_through(tr.alt_ft, median3(tr.alt_ft), low_ft, high_ft):
            continue
        keep = (tr.alt_ft >= low_ft) & (tr.alt_ft <= high_ft)
        if not keep.all():
            keep &= derive_rocd(tr.t_s, tr.alt_ft) >= ROCD_MIN_FPM
        if int(np.count_nonzero(keep)) >= MIN_PROFILE_BLIPS:
            kept.append(Trajectory(tr.flight_id, tr.type_code, tr.t_s[keep], tr.alt_ft[keep]))
    logger.info("filter_climbs: kept %d of %d flights", len(kept), len(trajectories))
    return kept


def split(trajectories: Sequence[Trajectory], seed: int = 0) -> DatasetSplit:
    """Random flight-level train/test partition, ``TRAIN_SHARE`` of the
    flights for training, deterministic per seed."""
    if not trajectories:
        raise DataError("cannot split an empty trajectory set")
    ordered = sorted(trajectories, key=lambda tr: tr.flight_id)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    n_train = int(round(TRAIN_SHARE * len(ordered)))
    train_idx = set(perm[:n_train].tolist())
    train = [tr for i, tr in enumerate(ordered) if i in train_idx]
    test = [tr for i, tr in enumerate(ordered) if i not in train_idx]
    return DatasetSplit(train=train, test=test)


@dataclass(frozen=True)
class TypeScenario:
    """Ground-truth deviation family for one aircraft type.

    ``weight_dist`` selects the draw family: "normal", "student_t" (scaled
    to the target deviations), or "contaminated" (a Gaussian scale mixture:
    a ``contam_frac`` share of flights get ``contam_scale`` times the base
    deviation, mimicking the occasional off-profile operation seen in real
    traffic).
    """

    count: int
    thrust_bias_n: float = 0.0
    mode_sds: tuple[float, ...] = ()
    weight_dist: str = "normal"
    t_dof: float = 6.0
    contam_frac: float = 0.1
    contam_scale: float = 3.0

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("count must be at least 1")
        if self.weight_dist not in ("normal", "student_t", "contaminated"):
            raise DomainError(f"unknown weight_dist {self.weight_dist!r}")
        if self.weight_dist == "student_t" and self.t_dof <= 2.0:
            raise DomainError("t_dof must exceed 2 for finite variance")
        if not 0.0 <= self.contam_frac < 1.0 or self.contam_scale <= 0.0:
            raise DomainError("contamination parameters out of range")


@dataclass(frozen=True)
class FleetScenario:
    """Synthetic fleet description: counts, truth family, and sampling."""

    types: dict[str, TypeScenario]
    fl_start: float = 140.0
    fl_end: float = 335.0
    blip_interval_s: float = 6.0
    alt_noise_ft: float = 0.0
    quantization_ft: float = 25.0
    delta_t_k: float = 0.0

    def __post_init__(self):
        if not self.types:
            raise DomainError("scenario must define at least one type")
        if not self.fl_start < self.fl_end:
            raise DomainError("need fl_start < fl_end")
        if self.blip_interval_s <= 0.0:
            raise DomainError("blip_interval_s must be positive")


def _count(code: str, spec: dict) -> int:
    count = spec["count"]
    # bool is an int subclass, but JSON true is not a count
    if type(count) is not int:
        raise TypeError(f'type {code}: "count" must be a JSON integer, got {json.dumps(count)}')
    return count


def _check_keys(where: str, doc, cls) -> None:
    """Raise unless ``doc`` is a JSON object whose keys all name fields of
    the dataclass ``cls``."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")


# how a scenario value becomes its field; every other field is a float
_FIELD_TYPES = {"mode_sds": lambda sds: tuple(float(s) for s in sds), "weight_dist": str}


def _given_fields(doc: dict, skip: str) -> dict:
    """The keys ``doc`` gives, but ``skip``, as dataclass field values: a
    key the file leaves out takes its default from the dataclass."""
    return {key: _FIELD_TYPES.get(key, float)(value) for key, value in doc.items() if key != skip}


def load_scenario(path: str | Path) -> FleetScenario:
    """Load a scenario file.  Its top-level keys are the fields of
    :class:`FleetScenario` and each type's keys those of
    :class:`TypeScenario`; an unknown key raises ``ScenarioError``."""
    path = Path(path)
    doc = read_json(path, "scenario file", ScenarioError)
    try:
        _check_keys("the scenario", doc, FleetScenario)
        specs = doc["types"]
        if not isinstance(specs, dict):
            raise TypeError('"types" must be a JSON object')
        for code, spec in specs.items():
            _check_keys(f"type {code}", spec, TypeScenario)
        types = {code: TypeScenario(count=_count(code, spec), **_given_fields(spec, "count"))
                 for code, spec in specs.items()}
        return FleetScenario(types=types, **_given_fields(doc, "types"))
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ScenarioError(f"scenario file {path} is invalid: {exc}") from None


def truth_modes(grid: np.ndarray, n_modes: int) -> np.ndarray:
    """Orthonormal deviation shapes on the grid's span (rows are modes).

    The first mode is a flat thrust offset (the dominant real-world
    misspecification: mass / thrust setting); higher modes are cosine
    harmonics.  Unit quadrature norm: integral of psi_i psi_j dh = delta_ij.
    """
    if n_modes == 0:
        return np.zeros((0, grid.size))
    h0, h1 = grid[0], grid[-1]
    length = h1 - h0
    u = (grid - h0) / length
    shapes = [np.full(grid.size, 1.0 / np.sqrt(length))]
    shapes += [np.sqrt(2.0 / length) * np.cos(i * np.pi * u) for i in range(1, n_modes)]
    return np.stack(shapes)


def _draw_weights(spec: TypeScenario, rng: np.random.Generator) -> np.ndarray:
    sds = np.asarray(spec.mode_sds, dtype=float)
    if sds.size == 0:
        return np.zeros(0)
    if spec.weight_dist == "normal":
        return sds * rng.standard_normal(sds.size)
    if spec.weight_dist == "contaminated":
        scale = spec.contam_scale if rng.random() < spec.contam_frac else 1.0
        return scale * sds * rng.standard_normal(sds.size)
    # Student t scaled to unit variance, so sds are the target deviations
    z = rng.standard_t(spec.t_dof, size=sds.size)
    return sds * z / np.sqrt(spec.t_dof / (spec.t_dof - 2.0))


def _simulate_type(perf: AircraftPerformance, type_code: str, scenario: FleetScenario,
                   rng: np.random.Generator, truth: dict[str, dict]
                   ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The flight id, time and altitude columns of one type's blips; each
    flight's ground truth is added to ``truth``."""
    spec = scenario.types[type_code]
    h0, h1 = fl_to_m(scenario.fl_start), fl_to_m(scenario.fl_end)
    grid = np.linspace(h0, h1, TRUTH_GRID_SIZE)
    base = nominal_thrust(perf, grid) + spec.thrust_bias_n
    modes = truth_modes(grid, len(spec.mode_sds))
    flight_ids: list[str] = []
    times, alts = [], []
    for i in range(spec.count):
        flight_id = f"{type_code}-{i:05d}"
        for attempt in range(MAX_REDRAWS + 1):
            weights = _draw_weights(spec, rng)
            values = base + weights @ modes if weights.size else base.copy()
            try:
                traj = integrate_climb(
                    perf, perf.nominal_mass, ThrustProfile(grid, values),
                    h0, h1, delta_T=scenario.delta_t_k,
                )
            except InfeasibleClimbError:
                if attempt == MAX_REDRAWS:
                    raise ScenarioError(
                        f"{type_code}: no feasible thrust draw in {MAX_REDRAWS} attempts"
                    ) from None
                continue
            break
        t_blips = np.arange(0.0, traj.t[-1], scenario.blip_interval_s)
        alt = np.interp(t_blips, traj.t, traj.h) / FT
        if scenario.alt_noise_ft > 0.0:
            alt = alt + scenario.alt_noise_ft * rng.standard_normal(alt.size)
        if scenario.quantization_ft > 0.0:
            alt = np.round(alt / scenario.quantization_ft) * scenario.quantization_ft
        flight_ids += [flight_id] * t_blips.size
        times.append(t_blips)
        alts.append(alt)
        truth[flight_id] = {
            "type_code": type_code,
            "thrust_bias_n": spec.thrust_bias_n,
            "weights": [float(w) for w in weights],
        }
    return flight_ids, np.concatenate(times), np.concatenate(alts)


def simulate_fleet(
    catalog: dict[str, AircraftPerformance],
    scenario: FleetScenario,
    seed: int,
    csv_path: str | Path,
    truth_path: str | Path,
) -> dict[str, int]:
    """Generate a synthetic radar CSV plus a ground-truth sidecar.

    Each flight draws a true thrust profile (nominal + bias + weighted
    cosine modes), is integrated through [fl_start, fl_end], and sampled
    at the blip interval with optional Gaussian noise and altitude
    quantization.  Infeasible draws are retried up to 100 times.  Output
    is byte-identical for a fixed seed.

    Types are simulated in sorted order, and each type's blips are written
    as soon as the type is done, so only one type's columns are held at a
    time.  A ``ScenarioError`` leaves no blip file.
    """
    missing = sorted(set(scenario.types) - set(catalog))
    if missing:
        raise ScenarioError(f"scenario types missing from the catalog: {', '.join(missing)}")
    rng = np.random.default_rng(seed)
    truth: dict[str, dict] = {}
    csv_path = Path(csv_path)
    # written beside the blip file and renamed over it once complete, so a
    # failed run leaves no partial blip file
    partial = csv_path.with_name(csv_path.name + ".part")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(",".join(_HEADER) + "\n")
            for type_code in sorted(scenario.types):
                flight_ids, t_s, alt_ft = _simulate_type(catalog[type_code], type_code,
                                                         scenario, rng, truth)
                _write_rows(fh, flight_ids, [type_code] * len(flight_ids), t_s, alt_ft)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(csv_path)
    Path(truth_path).write_text(
        json.dumps({"seed": seed, "flights": truth}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    return {type_code: scenario.types[type_code].count for type_code in sorted(scenario.types)}
