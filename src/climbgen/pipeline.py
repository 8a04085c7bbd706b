"""Radar-blip ingestion, climb filtering, train/test splitting, the
synthetic fleet simulator used for verification, and the CSV writer that
every artifact goes through.

CSV schema (UTF-8, header required)::

    flight_id,type_code,t_s,alt_ft[,lat,lon]

The file is read in the one dialect ``write_blocks`` writes: a row is
one line of fields joined by commas, and a field holds no comma, no quote
and no line break.  A line ends at ``"\\n"``, ``"\\r\\n"`` or ``"\\r"``, as
Python's universal newlines end it, and no other byte ends a line; a
line with a quote or the wrong number of commas is a malformed row.
The file is read through Python's text layer in blocks of whole lines of
at most ``BLOCK_CHARS`` characters, a longer line a block of its own.  Each
block is read by one ``np.loadtxt`` call, numpy's C reader, into id and
type byte strings and float64 numbers.  numpy reads a number with the C
parser ``float`` uses and refuses one that is not ASCII or holds an
underscore, so every value it reads is ``float``'s.  A block goes to a
short per-line path instead, each line split on its commas and each number
read by ``float``, when numpy would read it otherwise or a row is not a
valid blip: when it holds a byte of ``_REFUSED_BYTES`` or no data line,
when numpy refuses a field or a line's field count (an empty lat or lon,
``float``'s underscores and non-ASCII digits), or when a row fails a blip
check.  So does a block whose columns, every row as wide as its widest
field, would take over 8 times its bytes (a few long ids among many short
rows).  An id or type equal to the row's before shares its code, so only
the head of each run is decoded.  Malformed rows are logged by line number
and skipped; lat/lon must parse when present but are not kept.

Blips are grouped by flight, sorted by time and deduplicated (first blip
per timestamp wins, which is the earliest line in the file).  A flight
whose blips carry more than one type code, or that has fewer than 2
distinct timestamps, is dropped with a warning.  Neither check loops over
flights: types are checked a block at a time as the rows are read, and
timestamps in one vectorized pass over the sorted columns.
``ingest`` holds the flight-code, time and altitude columns plus one block
of at most ``BLOCK_CHARS`` characters and one line, whatever the line
length, and what either path makes of a block is a small multiple of its
bytes.  Each block is parsed into columns sized from the file's bytes, and
the rows are sorted only when they are out of flight and time order.  No
column of types is held: a flight takes the type of its first row, and
only a mixed flight's types are kept, for its warning.  Every file this
module writes is in that order, so it is read without a sort.

``filter_climbs`` keeps the flights that climb through the one modeled
window, ``learning.INTERVAL_FL``, and of each only the blips in it (by
``learning.in_window``) that climb at ``ROCD_MIN_FPM`` or more, by the
climb rates ``learning.derive_rocd`` gives on the whole flight.  It
works on the blocks of ``flight_blocks``: runs of whole flights of at most
``BLOCK_LINES`` blips, with their offsets into the joined ``t_s`` and
``alt_ft`` columns.  Each block takes one ``median3`` and one
``derive_rocd``, each within the flights, so the arrays held at once stay
bounded however large the fleet.  A kept flight's arrays may be views of
its input flight's arrays: a flight whose kept blips are one run of its
blips keeps a slice of them, and only a flight that the rate rule cuts in
the middle is copied, so the filter holds no second copy of the flights.
``write_trajectories_csv`` writes the same blocks.

``simulate_fleet`` simulates one type at a time, a block of
``dynamics.BLOCK_CLIMBS`` draws at a time: the truth stage integrates the
block's climbs and the radar stage samples the feasible ones into blips
for the writer, so the blips and climbs held do not grow with the flights.
Every climb flies ``SIMULATED_FL``, the modeled window with 10 FL to spare
on each side, and "student_t" weights are drawn with ``STUDENT_T_DOF``
degrees of freedom; no scenario key changes either.  A climb that
``filter_climbs`` would drop for too few blips in the window is refused.

Every CSV artifact goes through ``write_blocks``, and every JSON
artifact through ``errors.write_json``; each makes its file's directory
when it is missing, so a failure before the first write leaves no output
directory behind.  The writer checks each block of columns before it
writes the block's rows, then slices ``BLOCK_LINES`` rows at a time from
every column and formats only those, so one block's texts are held at
once.  A number is written as ``repr(float(x))``, the shortest
text that reads back to the same float, and each distinct bit pattern in
a block is formatted once, so the few values radar columns repeat (scan
times, quantized altitudes, the grid) cost one ``repr`` each per block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .atmosphere import FT, fl_to_m
# integrate_climb is bound here only because the benchmark's span table
# (bench/spans.py REQUIRED_BINDINGS) requires it; the simulator integrates
# with integrate_climb_block
from .dynamics import BLOCK_CLIMBS, integrate_climb, integrate_climb_block  # noqa: F401
from .errors import (DataError, DomainError, ValidationError, json_count, json_number,
                     json_numbers, json_object, read_json, write_json)
from .learning import INTERVAL_FL, MIN_PROFILE_BLIPS, derive_rocd, in_window, median3
from .performance import AircraftPerformance, nominal_thrust

logger = logging.getLogger(__name__)

_HEADER = ["flight_id", "type_code", "t_s", "alt_ft"]
_HEADER_LATLON = _HEADER + ["lat", "lon"]
ALT_MAX_FT = 60000.0
BLOCK_CHARS = 1 << 16   # characters per block of a blip file read: bounds the text held
BLOCK_LINES = 1 << 13   # rows per write or flight block: bounds the rows held at once
BLIP_INTERVAL_MIN_S = 0.1   # s, under any radar or ADS-B update interval
MAX_REDRAWS = 100
ROCD_MIN_FPM = 500.0    # climb-rate floor of a kept blip
SIMULATED_FL = (INTERVAL_FL[0] - 10.0, INTERVAL_FL[1] + 10.0)   # brackets the modeled window
STUDENT_T_DOF = 6.0     # degrees of freedom of "student_t" weight draws
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
        if not np.all(self.t_s[1:] > self.t_s[:-1]):   # NaN fails
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
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def repeat_each(texts: Sequence[str], counts: Sequence[int]) -> list[str]:
    """A text column holding ``texts[i]`` ``counts[i]`` times in a row."""
    column: list[str] = []
    for text, count in zip(texts, counts):
        column += [text] * count
    return column


def write_blocks(path: str | Path, header: str, blocks: Iterable[Sequence]) -> None:
    """Write a CSV file under a ``header`` line from blocks of rows, one
    after the other; a one-block file is ``[(column, ...)]``.

    A block is a tuple of equal-length columns, one per name in
    ``header``; a column is a list of ready texts or an array of numbers,
    written as ``_float_texts`` gives it.  Each block is checked before any
    of its rows is written, then sliced, formatted and written
    ``BLOCK_LINES`` rows at a time.  Only one block is asked for at a time,
    so a generator of blocks bounds what is held however long the file.
    Every line, the last one included, ends in a newline; no rows give
    exactly ``header + "\\n"``.  The file's directory is made if it is
    missing.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            if header.count(",") + 1 != len(columns):
                raise ValueError(f"header {header!r} does not name {len(columns)} columns")
            if len({len(c) for c in columns}) > 1:
                raise ValueError(f"columns of {header!r} differ in length")
            for start in range(0, len(columns[0]), BLOCK_LINES):
                texts = [c[start:start + BLOCK_LINES] if isinstance(c, list)
                         else _float_texts(c[start:start + BLOCK_LINES]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


# bytes that send a block to the per-line path: numpy's reader keeps a quote
# inside a field, its byte-string columns drop trailing NULs (so "A" and
# "A\x00" would be one id), and it strips "\x1c"-"\x1f" around a number as
# space, which float() refuses
_REFUSED_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _blocks(path: Path) -> Iterator[bytes]:
    """The UTF-8 bytes of a blip file in blocks of whole lines, each ended
    by ``b"\\n"``, read through Python's text layer: its UTF-8 decoding
    and universal newlines.  Each read takes ``BLOCK_CHARS`` characters
    less the line begun before it and is cut at its last newline, so a
    block holds at most ``BLOCK_CHARS`` characters but for a longer line,
    read on to its end as a block of its own.  A missing or unreadable
    file is a ``ValidationError``, text that is not UTF-8 a ``DataError``
    naming the offset of its first bad byte.
    """
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            rest = ""
            try:
                while text := rest + fh.read(BLOCK_CHARS - len(rest)):
                    if not (cut := text.rfind("\n") + 1):
                        text += fh.readline()
                        cut = len(text)
                    block, rest = text[:cut], text[cut:]
                    yield (block if block.endswith("\n") else block + "\n").encode()
            except UnicodeDecodeError as exc:   # exc.object: any bytes held, then this read's
                offset = fh.buffer.tell() - len(exc.object) + exc.start
                raise DataError(f"blip file {path} is not UTF-8 text: {exc.reason} "
                                f"at byte {offset}") from None
    except FileNotFoundError:
        raise ValidationError(f"blip file not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read blip file {path}: {exc.strerror or exc}") from None


def _read_block(data: bytes, n_fields: int) -> tuple[np.ndarray, ...] | None:
    """The id, type, time and altitude columns of one block, read by one
    ``np.loadtxt`` call, or None when the block must be read a line at a
    time: it holds a byte of ``_REFUSED_BYTES`` or no data line (numpy
    warns on those), its columns would take over 8 times its bytes, numpy
    refuses it, or a row is not a valid blip.

    The block's bytes are read as Latin-1, so the ``S`` id and type columns
    hold their UTF-8 bytes unchanged; each is as wide as the block's widest
    field, so no id or type is cut, and a few long fields among many short
    rows go to the per-line path, each row at its own length.  numpy reads a
    number with the C parser ``float`` uses, and refuses any that is not
    ASCII or holds an underscore, so a value read here is ``float``'s.
    """
    if any(byte in data for byte in _REFUSED_BYTES) or not data.strip(b"\n"):
        return None
    units = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((units == ord(",")) | (units == ord("\n")))
    width = int(np.diff(ends, prepend=-1).max())   # the widest field and its end
    dtype = np.dtype([("id", f"S{width}"), ("type", f"S{width}")]
                     + [(f"x{k}", np.float64) for k in range(n_fields - 2)])
    if dtype.itemsize * (ends.size // n_fields) > 8 * len(data):   # a read row has n_fields ends
        return None
    try:
        rows = np.loadtxt(data.decode("latin-1").split("\n"), dtype, delimiter=",",
                          comments=None, ndmin=1)
    except ValueError:
        return None
    ids, types, t_s, alt_ft = (rows[name] for name in dtype.names[:4])
    valid = ((ids != b"") & (types != b"") & np.isfinite(t_s)
             & (alt_ft >= 0.0) & (alt_ft <= ALT_MAX_FT))
    return (ids, types, t_s, alt_ft) if valid.all() else None


def _blip(row: list[str]) -> tuple[float, float]:
    """The time and altitude of a row of fields, or a ``ValueError`` for
    the first check it fails, in the order they are made: numbers parse
    (time, altitude, then any non-empty lat/lon), id and type are
    non-empty, time is finite, altitude is in range."""
    t_s, alt_ft = float(row[2]), float(row[3])
    for field in row[4:]:
        if field:
            float(field)
    if not row[0] or not row[1]:
        raise ValueError("blip needs a flight_id and type_code")
    if not math.isfinite(t_s):
        raise ValueError("blip time must be finite")
    if not 0.0 <= alt_ft <= ALT_MAX_FT:
        raise ValueError(f"blip altitude {alt_ft} outside [0, {ALT_MAX_FT:.0f}] ft")
    return t_s, alt_ft


def _read_lines(path: Path, text: str, first_line_no: int, n_fields: int
                ) -> tuple[tuple[np.ndarray, ...], int]:
    """The id, type, time and altitude columns of the valid rows of one
    block's text, read a line at a time, and the number of rows skipped.
    A row is a non-blank line of ``n_fields`` fields and no quote whose
    blip passes ``_blip``; every other non-blank line is logged with its
    line number and skipped."""
    rows, skipped = [], 0
    for i, line in enumerate(text.split("\n")):
        if not line:
            continue
        fields = line.split(",")
        try:
            if '"' in line:
                raise ValueError('a field holds a quote (")')
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            rows.append((fields[0], fields[1], *_blip(fields)))
        except ValueError as exc:
            logger.warning("%s line %d: %s; row skipped", path, first_line_no + i, exc)
            skipped += 1
    ids, types, t_s, alt_ft = zip(*rows) if rows else ((),) * 4
    return (np.array(ids, object), np.array(types, object), np.array(t_s, np.float64),
            np.array(alt_ft, np.float64)), skipped


def _codes(column: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """Integer code of each text of a column of UTF-8 ``bytes`` or of
    ``str``, adding unseen texts to ``index``.  A text equal to the one
    before it takes its code, so only the head of each run is decoded and
    looked up."""
    head = np.ones(column.size, bool)
    np.not_equal(column[1:], column[:-1], out=head[1:])
    texts = column[head].tolist()
    if column.dtype.kind == "S":
        texts = [text.decode() for text in texts]
    codes = np.array([index.setdefault(text, len(index)) for text in texts], np.int32)
    return codes[np.cumsum(head) - 1]


def _parse_block(path: Path, data: bytes, first_line_no: int, n_fields: int,
                 flight_index: dict[str, int], type_index: dict[str, int]
                 ) -> tuple[tuple[np.ndarray, ...], int]:
    """The flight and type codes, times and altitudes of the valid rows of
    one block, in line order, and the number of rows skipped: by
    ``_read_block`` when it reads the block, else by ``_read_lines``,
    which logs each skipped row with its line number, in line order."""
    columns, skipped = _read_block(data, n_fields), 0
    if columns is None:
        columns, skipped = _read_lines(path, data.decode(), first_line_no, n_fields)
    ids, types, t_s, alt_ft = columns
    return (_codes(ids, flight_index), _codes(types, type_index), t_s, alt_ft), skipped


def _resize(columns: list[np.ndarray], size: int) -> None:
    """Resize each column in place to ``size`` rows, keeping its leading
    rows.  The buffer is reallocated, which the C library can do for a
    large one by remapping its pages instead of copying them.  No view of
    a column may exist."""
    for column in columns:
        column.resize(size, refcheck=False)


def _in_flight_order(flight: np.ndarray, t_s: np.ndarray) -> bool:
    """Whether consecutive rows are in (flight code, time) order.  Codes are
    numbered in order of first appearance, so codes that never fall make
    each flight one run."""
    return bool(np.all(flight[1:] >= flight[:-1])
                and np.all((t_s[1:] >= t_s[:-1]) | (flight[1:] != flight[:-1])))


def _note_types(flight: np.ndarray, types: np.ndarray, flight_type: np.ndarray,
                mixed: dict[int, set[int]]) -> np.ndarray:
    """``flight_type``, each flight's type code by flight code, extended by
    the flights a block of rows starts, given the rows' flight and type
    codes in line order; the type of a row that differs from its flight's
    is added to the flight's set in ``mixed``.

    A flight takes the type of its first row.  Flight codes are numbered
    in order of first appearance, so a row is its flight's first when its
    code is above every code before it, and those rows come in code order.
    """
    first = flight > np.maximum.accumulate(np.concatenate(([flight_type.size - 1], flight[:-1])))
    flight_type = np.concatenate((flight_type, types[first]))
    differs = np.flatnonzero(types != flight_type[flight])
    for f, code in set(zip(flight[differs].tolist(), types[differs].tolist())):
        mixed.setdefault(f, {int(flight_type[f])}).add(code)
    return flight_type


def ingest(csv_path: str | Path) -> list[Trajectory]:
    """Read a blip CSV into per-flight trajectories.

    The file is read in blocks of whole lines (``_blocks``) and never held
    whole.  Each block is read by one ``np.loadtxt`` call (``_read_block``)
    or, for the reasons the module docstring lists, a line at a time
    (``_read_lines``); only run heads of ids and types are decoded into
    strings.  Every value and every rejection is ``float``'s.  Malformed
    rows are logged with their line number, skipped, and counted.  A
    missing or unreadable file is a ``ValidationError``; non-UTF-8 text,
    an empty file or a wrong header a ``DataError``.

    What is held is the flight-code, time and altitude columns, one block
    of at most ``BLOCK_CHARS`` characters and one line, however long the
    lines are, and on either path a small multiple of the block's bytes.
    A flight's type is that of its first row in line order; a row of
    another type marks its flight mixed, and only the types of mixed
    flights are kept, for their warning.  Each block is parsed into the
    columns in place; they are sized from the file's size and the bytes
    per line read so far, grown when that falls short and trimmed at the
    end.  A file whose rows already come in flight and time order, each
    flight one run and the flights in ``sorted()`` order of their ids, as
    every file ``write_trajectories_csv`` and ``simulate_fleet`` write, is
    checked block by block and not sorted; any other file takes one
    stable sort of its rows in line order.
    """
    path = Path(csv_path)
    blocks = _blocks(path)
    data = next(blocks, None)
    if data is None:
        raise DataError(f"{path}: empty file")
    header_bytes, data = data.split(b"\n", 1)
    header_line = header_bytes.decode()
    header = header_line.split(",")
    if header not in (_HEADER, _HEADER_LATLON):
        mark = (" (the file starts with a UTF-8 byte-order mark)" if header_line[:1] == "\ufeff"
                else "")
        raise DataError(
            f"{path}: header must be exactly {','.join(_HEADER)} "
            f"or {','.join(_HEADER_LATLON)}{mark}"
        )
    try:
        file_bytes = path.stat().st_size
    except OSError:   # gone since it was opened: the columns grow as they fill
        file_bytes = 0

    flight_index: dict[str, int] = {}
    type_index: dict[str, int] = {}
    # flight code, time and altitude, filled a block at a time
    columns = [np.empty(0, np.int32), np.empty(0), np.empty(0)]
    # each flight's type code, and each mixed flight's type codes
    flight_type = np.empty(0, np.int32)
    mixed_types: dict[int, set[int]] = {}
    n = skipped = 0
    in_order = True
    first_line_no = 2
    read = len(header_bytes) + 1
    for data in chain([data], blocks):
        (flight, types, *values), n_skipped = _parse_block(path, data, first_line_no,
                                                           len(header), flight_index, type_index)
        first_line_no += data.count(b"\n")
        read += len(data)
        skipped += n_skipped
        flight_type = _note_types(flight, types, flight_type, mixed_types)
        stop = n + flight.size
        if stop > columns[0].size:
            # the file's lines at the bytes per line read so far and a 64th
            # more, or an eighth more rows than before if that is more
            lines = max(stop, (first_line_no - 1) * file_bytes // read)
            _resize(columns, max(lines + lines // 64, columns[0].size * 9 // 8))
        for column, part in zip(columns, (flight, *values)):
            column[n:stop] = part
        # the row before the block too, so the check spans block bounds
        in_order = in_order and _in_flight_order(columns[0][max(n - 1, 0):stop],
                                                 columns[1][max(n - 1, 0):stop])
        n = stop
    _resize(columns, n)
    if skipped:
        logger.warning("%s: skipped %d malformed row(s)", path, skipped)
    if not flight_index:
        raise DataError(f"{path}: no valid blip rows")

    flight, t_s, alt_ft = columns
    del columns
    flight_ids = sorted(flight_index)
    codes = [flight_index[f] for f in flight_ids]   # each flight's code, in sorted() order
    if not (in_order and flight_ids == list(flight_index)):
        # rank the flight codes in sorted() order of their ids.  The rows are
        # in line order and the sort by flight, then time, is stable, so the
        # first blip of a timestamp is the earliest line.  Each column is
        # gathered on its own, so one copy at a time is made.
        rank = np.empty(len(flight_ids), np.int32)
        rank[codes] = np.arange(len(flight_ids))
        flight = rank[flight]
        order = np.lexsort((t_s, flight))
        flight = flight[order]
        t_s = t_s[order]
        alt_ft = alt_ft[order]
        del order
    # flight codes now run 0, 1, ... in row order, one run per flight
    type_names = list(type_index)
    mixed = np.zeros(len(flight_ids), bool)
    mixed[list(mixed_types)] = True
    mixed = mixed[codes]
    mask = np.empty(n, bool)
    mask[0] = True
    np.not_equal(flight[1:], flight[:-1], out=mask[1:])
    bounds = np.append(np.flatnonzero(mask), n)
    # then whether a row repeats the timestamp before it in its flight; the
    # first blip of a timestamp is kept
    np.less_equal(t_s[1:], t_s[:-1], out=mask[1:])
    mask[bounds[:-1]] = False
    repeats = np.flatnonzero(mask)
    del mask
    counts = np.diff(bounds) - np.bincount(flight[repeats], minlength=len(flight_ids))
    usable = ~mixed & (counts >= 2)
    for f in np.flatnonzero(~usable).tolist():
        if mixed[f]:
            types = sorted(type_names[c] for c in mixed_types[codes[f]])
            logger.warning("flight %s: mixed type codes %s; dropped", flight_ids[f],
                           ", ".join(types))
        else:
            logger.warning("flight %s: fewer than 2 distinct blips; dropped", flight_ids[f])
    if not usable.any():
        raise DataError(f"{path}: no usable flights")
    flight_types = flight_type[codes][usable].tolist()
    if repeats.size or not usable.all():
        keep = usable[flight]
        keep[repeats] = False
        del flight
        t_s = t_s[keep]
        alt_ft = alt_ft[keep]
    stops = np.cumsum(counts[usable]).tolist()
    return [Trajectory(flight_id, type_names[code], t_s[a:b], alt_ft[a:b])
            for flight_id, code, a, b in zip(compress(flight_ids, usable), flight_types,
                                             [0] + stops[:-1], stops)]


def _joined(block: list[Trajectory]) -> tuple[list[Trajectory], np.ndarray, np.ndarray, np.ndarray]:
    return (block, np.cumsum([0] + [tr.n_blips for tr in block]),
            np.concatenate([tr.t_s for tr in block]), np.concatenate([tr.alt_ft for tr in block]))


def flight_blocks(trajectories: Iterable[Trajectory]
                  ) -> Iterator[tuple[list[Trajectory], np.ndarray, np.ndarray, np.ndarray]]:
    """Consecutive runs of whole flights, each of at most ``BLOCK_LINES``
    blips (a longer flight is a block of its own), with the flights'
    first indices into the block's joined ``t_s`` and ``alt_ft`` columns
    followed by their length, and those two columns."""
    block: list[Trajectory] = []
    n_blips = 0
    for tr in trajectories:
        if block and n_blips + tr.n_blips > BLOCK_LINES:
            yield _joined(block)
            block, n_blips = [], 0
        block.append(tr)
        n_blips += tr.n_blips
    if block:
        yield _joined(block)


def write_trajectories_csv(trajectories: Sequence[Trajectory], path: str | Path) -> None:
    """Write trajectories back out in the ingest schema (4-column form),
    sorted by flight id.

    Whole flights go to ``write_blocks`` a block of ``flight_blocks`` at a
    time, so the text columns of the whole file are never held at once.
    """
    def rows(block, offsets, t_s, alt_ft):
        counts = np.diff(offsets).tolist()
        return (repeat_each([tr.flight_id for tr in block], counts),
                repeat_each([tr.type_code for tr in block], counts), t_s, alt_ft)

    write_blocks(path, ",".join(_HEADER),
                 (rows(*block) for block in flight_blocks(sorted(trajectories,
                                                                 key=lambda t: t.flight_id))))


def _climbed_through(raw_alt: np.ndarray, med_alt: np.ndarray, offsets: np.ndarray,
                     flight: np.ndarray) -> np.ndarray:
    """Whether each flight of a block climbs through the window ``INTERVAL_FL``,
    ``[low_ft, high_ft]``: once its median altitude reaches ``low_ft`` it reaches
    ``high_ft`` without falling back under ``low_ft``.  A flight that lies wholly
    inside the window (to 1e-6 ft) and ends higher than it starts also counts.
    ``flight`` is each blip's flight in the block."""
    low_ft, high_ft = (fl * 100.0 for fl in INTERVAL_FL)
    starts, last = offsets[:-1], offsets[1:] - 1
    index = np.arange(raw_alt.size)
    none = raw_alt.size
    enter = np.minimum.reduceat(np.where(med_alt >= low_ft, index, none), starts)
    entered = enter < none
    after = index >= enter[flight]
    top = np.minimum.reduceat(np.where(after & (med_alt >= high_ft), index, none), starts)
    crossed = entered & (med_alt[np.minimum(enter, none - 1)] < high_ft) & (top < none)
    dipped = np.logical_or.reduceat(after & (index < top[flight]) & (med_alt < low_ft), starts)
    # No observed crossing of the top boundary.  Monotone-overall climbs
    # that lie entirely inside the interval are retained: these are partial
    # radar pickups or the output of a previous filter pass (this keeps the
    # filter idempotent).
    within = ((np.minimum.reduceat(raw_alt, starts) >= low_ft - 1e-6)
              & (np.maximum.reduceat(raw_alt, starts) <= high_ft + 1e-6)
              & (med_alt[last] > med_alt[starts]))
    return entered & np.where(crossed, ~dipped, within)


def filter_climbs(trajectories: Sequence[Trajectory]) -> list[Trajectory]:
    """Keep flights that climb through the modeled window
    ``learning.INTERVAL_FL`` and, within each, the blips inside the window
    whose climb rate, derived on the whole flight, is >= ``ROCD_MIN_FPM``.

    A flight that lies wholly inside the window, a partial pickup or a
    flight this filter has cut, keeps every blip: its end rates are
    one-sided, and cutting by them would make a second pass cut blips the
    first one kept.  A flight needs ``learning.MIN_PROFILE_BLIPS`` kept
    blips, the number its thrust profile needs.

    The flights are filtered a block of ``flight_blocks`` at a time, by one
    ``median3`` and one ``derive_rocd`` per block, each within the flights.
    A kept flight's arrays may be views of its input flight's arrays: when
    its kept blips are one run of its blips, it holds that slice of them;
    only a flight cut in the middle gets a copy."""
    kept = []
    # a flight of fewer than 2 blips neither climbs nor has a rate
    for block, offsets, t_s, alt_ft in flight_blocks(tr for tr in trajectories if tr.n_blips >= 2):
        flight = np.repeat(np.arange(len(block)), np.diff(offsets))
        climbed = _climbed_through(alt_ft, median3(alt_ft, offsets), offsets, flight)
        keep = in_window(alt_ft)
        whole = np.logical_and.reduceat(keep, offsets[:-1])
        keep &= whole[flight] | (derive_rocd(t_s, alt_ft, offsets) >= ROCD_MIN_FPM)
        keep &= climbed[flight]
        counts = np.bincount(flight[keep], minlength=len(block))
        accepted = counts >= MIN_PROFILE_BLIPS
        keep &= accepted[flight]
        # each accepted flight's first and last kept blip in the block: its
        # kept blips are one run of its own when they number last - first + 1
        rows = np.flatnonzero(keep)
        n_kept = counts[accepted]
        stops = np.cumsum(n_kept)
        first, last = rows[stops - n_kept], rows[stops - 1]
        run = last - first + 1 == n_kept
        for tr, start, a, b, is_run in zip(compress(block, accepted),
                                           offsets[:-1][accepted].tolist(),
                                           first.tolist(), last.tolist(), run.tolist()):
            own = slice(a - start, b - start + 1) if is_run else keep[start:start + tr.n_blips]
            kept.append(Trajectory(tr.flight_id, tr.type_code, tr.t_s[own], tr.alt_ft[own]))
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
    mode_sds: tuple[float, ...] = ()   # a sequence of numbers, held as a tuple of floats
    weight_dist: str = "normal"
    contam_frac: float = 0.1
    contam_scale: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "mode_sds", tuple(map(float, self.mode_sds)))
        if self.count < 1:
            raise DomainError("count must be at least 1")
        if self.weight_dist not in ("normal", "student_t", "contaminated"):
            raise DomainError(f"unknown weight_dist {self.weight_dist!r}")
        if not 0.0 <= self.contam_frac < 1.0 or self.contam_scale <= 0.0:
            raise DomainError("contamination parameters out of range")


@dataclass(frozen=True)
class FleetScenario:
    """Synthetic fleet description: counts, truth family, and sampling."""

    types: dict[str, TypeScenario]
    blip_interval_s: float = 6.0
    alt_noise_ft: float = 0.0
    quantization_ft: float = 25.0
    delta_t_k: float = 0.0

    def __post_init__(self):
        if not self.types:
            raise DomainError("scenario must define at least one type")
        if not self.blip_interval_s >= BLIP_INTERVAL_MIN_S:
            raise DomainError(f"blip_interval_s must be at least {BLIP_INTERVAL_MIN_S} s")
        for name in ("alt_noise_ft", "quantization_ft"):   # bounded, the radar stage stays finite
            value = getattr(self, name)
            if not (value == 0.0 or ALT_MAX_FT * 2**-52 <= value <= ALT_MAX_FT):
                raise DomainError(f"{name} must not be negative, and if positive must lie in "
                                  f"[{ALT_MAX_FT * 2**-52:.3g}, {ALT_MAX_FT:.0f}] ft, got {value}")


def _keys(cls) -> list[str]:
    """The keys a scenario object of dataclass ``cls`` may hold: its fields."""
    return [f.name for f in dataclasses.fields(cls)]


# the rule by which a scenario key becomes its field; every other field is one number
_FIELD_RULES = {"count": json_count, "mode_sds": json_numbers,
                "weight_dist": lambda text, where: str(text)}


def _given_fields(doc: dict, where: str, skip: str = "") -> dict:
    """The keys ``doc`` gives, but ``skip``, as dataclass field values,
    each checked by its rule naming ``where`` and the key."""
    return {key: _FIELD_RULES.get(key, json_number)(value, f'{where}"{key}"')
            for key, value in doc.items() if key != skip}


def _scenario(doc) -> FleetScenario:
    json_object(doc, "", ["types"], _keys(FleetScenario))
    if not isinstance(doc["types"], dict):
        raise ValidationError('"types" must be a JSON object of type codes')
    types = {}
    for code, spec in doc["types"].items():
        json_object(spec, f"type {code}", ["count"], _keys(TypeScenario))
        try:
            types[code] = TypeScenario(**_given_fields(spec, f"type {code}: "))
        except DomainError as exc:
            raise ValidationError(f"type {code}: {exc}") from None
    return FleetScenario(types=types, **_given_fields(doc, "", skip="types"))


def load_scenario(path: str | Path) -> FleetScenario:
    """Load a scenario file.  Its top-level keys are the fields of
    :class:`FleetScenario` and each type's keys those of
    :class:`TypeScenario`; ``types`` and each type's ``count`` are
    required, and any other key left out takes the dataclass default.
    Every error is a ``ValidationError`` naming the file (``errors.read_json``)."""
    return read_json(Path(path), "scenario file", _scenario)


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
    z = rng.standard_t(STUDENT_T_DOF, size=sds.size)
    return sds * z / np.sqrt(STUDENT_T_DOF / (STUDENT_T_DOF - 2.0))


def _truth_blocks(perf: AircraftPerformance, type_code: str, scenario: FleetScenario,
                  rng: np.random.Generator, truth: dict[str, dict]
                  ) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
    """The truth stage of one type: for each block of draws with a feasible
    climb, the feasible climbs' flight ids, one row of times per climb and
    the altitudes they share.  Each flight's ground truth is added to
    ``truth`` as the flight is made.

    Weights are drawn from ``rng``, as many as the flights still missing
    and at most ``dynamics.BLOCK_CLIMBS``, and their climbs integrated as
    one block.  The draws are taken in order: a feasible one is the next
    flight, an infeasible one that flight's redraw, up to ``MAX_REDRAWS``
    in a row.  No draw is made that the flights do not need, so the next
    type's draws come from the same place in ``rng``.  A thrust draw that
    is not finite is a ``ValidationError`` naming the type and its keys."""
    spec = scenario.types[type_code]
    h0, h1 = fl_to_m(SIMULATED_FL[0]), fl_to_m(SIMULATED_FL[1])
    grid = np.linspace(h0, h1, TRUTH_GRID_SIZE)
    base = nominal_thrust(perf, grid) + spec.thrust_bias_n
    modes = truth_modes(grid, len(spec.mode_sds))
    n_flights = redraws = 0
    while n_flights < spec.count:
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            draws = [_draw_weights(spec, rng) for _ in range(min(BLOCK_CLIMBS, spec.count - n_flights))]
            values = np.array([base + weights @ modes if weights.size else base for weights in draws])
        if not np.isfinite(values).all():
            raise ValidationError(f"type {type_code}: a thrust draw is not finite; "
                                  "lower mode_sds, contam_scale or thrust_bias_n")
        climbs = integrate_climb_block(perf, perf.nominal_mass, grid, values, h0, h1,
                                       delta_T=scenario.delta_t_k)
        flight_ids = []
        for weights, feasible in zip(draws, climbs.feasible.tolist()):
            if not feasible:
                if redraws == MAX_REDRAWS:
                    raise ValidationError(f"{type_code}: no feasible thrust draw in "
                                          f"{MAX_REDRAWS} attempts")
                redraws += 1
                continue
            redraws = 0
            flight_ids.append(f"{type_code}-{n_flights:05d}")
            n_flights += 1
            truth[flight_ids[-1]] = {"type_code": type_code, "thrust_bias_n": spec.thrust_bias_n,
                                     "weights": weights.tolist()}
        if flight_ids:
            yield flight_ids, climbs.t[climbs.feasible], climbs.h


def _radar(t: np.ndarray, h: np.ndarray, scenario: FleetScenario, radar: np.random.Generator
           ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The radar stage: the blips of a block of climbs, one row of times
    ``t`` per climb at the altitudes ``h`` they share, as each climb's
    number of blips and the blips' times and altitudes (ft), climb after
    climb.  Each climb is sampled at the blip interval from t = 0; the
    block then takes one draw of altitude noise from ``radar``, one per
    blip, and one rounding to the altitude step.  An altitude they put
    outside ``[0, ALT_MAX_FT]``, or make not finite, is returned as it is
    for the caller to refuse."""
    times = [np.arange(0.0, row[-1], scenario.blip_interval_s) for row in t]
    alt = np.concatenate([np.interp(t_blips, row, h) for t_blips, row in zip(times, t)]) / FT
    with np.errstate(over="ignore", invalid="ignore"):   # refused by the caller
        if scenario.alt_noise_ft > 0.0:
            alt = alt + scenario.alt_noise_ft * radar.standard_normal(alt.size)
        if scenario.quantization_ft > 0.0:
            alt = np.round(alt / scenario.quantization_ft) * scenario.quantization_ft
    return [t_blips.size for t_blips in times], np.concatenate(times), alt


def simulate_fleet(
    catalog: dict[str, AircraftPerformance],
    scenario: FleetScenario,
    seed: int,
    csv_path: str | Path,
    truth_path: str | Path,
) -> dict[str, int]:
    """Generate a synthetic radar CSV plus a ground-truth sidecar.

    Each flight draws a true thrust profile (nominal + bias + weighted
    cosine modes), is integrated through ``SIMULATED_FL``, and sampled
    at the blip interval with optional Gaussian noise and altitude
    quantization.  An infeasible draw is redrawn, up to ``MAX_REDRAWS``
    times in a row.  The climbs of a type's draws are integrated a block
    at a time by ``dynamics.integrate_climb_block``, which gives each
    climb bit for bit as ``integrate_climb`` does.  The noise comes from
    a generator spawned from the seed's, so ``truth.json`` depends only
    on the types, ``delta_t_k`` and the seed.  Output is byte-identical
    for a fixed seed.

    Types are simulated in sorted order, a block of draws at a time
    (``_truth_blocks``, then ``_radar``), and a block's blips are written
    before the next block is drawn, so no more than one block's climbs and
    blips are held however many flights a type has.  A blip altitude
    outside ``[0, ALT_MAX_FT]``, the range ``ingest`` reads, is a
    ``ValidationError`` naming its type, flight and altitude.  A climb of
    fewer than ``learning.MIN_PROFILE_BLIPS`` blips in the window by
    ``in_window``, which no later stage can use, is a ``ValidationError``
    naming its type, flight and window count.  A ``ValidationError`` leaves
    no blip file and no directory that this call made.
    """
    missing = sorted(set(scenario.types) - set(catalog))
    if missing:
        raise ValidationError(f"scenario types missing from the catalog: {', '.join(missing)}")
    rng = np.random.default_rng(seed)
    radar = rng.spawn(1)[0]   # leaves rng's own stream as it is
    truth: dict[str, dict] = {}

    def blocks():   # the blip columns of each block of climbs
        for type_code in sorted(scenario.types):
            for flight_ids, t, h in _truth_blocks(catalog[type_code], type_code, scenario, rng,
                                                  truth):
                counts, t_s, alt_ft = _radar(t, h, scenario, radar)
                flight = np.repeat(np.arange(len(counts)), counts)
                outside = ~((alt_ft >= 0.0) & (alt_ft <= ALT_MAX_FT))   # NaN is outside
                if outside.any():
                    at = int(np.argmax(outside))
                    raise ValidationError(
                        f"type {type_code}: flight {flight_ids[flight[at]]} has a blip at "
                        f"{float(alt_ft[at])} ft, outside the [0, {ALT_MAX_FT:.0f}] ft that "
                        "ingest reads; lower alt_noise_ft or quantization_ft")
                inside = np.bincount(flight[in_window(alt_ft)], minlength=len(counts))
                for flight_id, n in zip(flight_ids, inside.tolist()):
                    if n < MIN_PROFILE_BLIPS:
                        raise ValidationError(
                            f"type {type_code}: flight {flight_id} has {n} blip(s) in the modeled "
                            f"window, fewer than the {MIN_PROFILE_BLIPS} a thrust profile needs; "
                            "lower blip_interval_s, mode_sds, contam_scale or thrust_bias_n")
                yield repeat_each(flight_ids, counts), [type_code] * t_s.size, t_s, alt_ft
    csv_path = Path(csv_path)
    # written beside the blip file and renamed over it once complete, so a
    # failed run leaves no partial blip file, nor a directory made for it
    partial = csv_path.with_name(csv_path.name + ".part")
    made = [d for d in (partial.parent, *partial.parent.parents) if not d.exists()]
    try:
        write_blocks(partial, ",".join(_HEADER), blocks())
    except BaseException:
        partial.unlink(missing_ok=True)
        for directory in made:   # deepest first
            with contextlib.suppress(OSError):   # something else wrote there
                directory.rmdir()
        raise
    partial.replace(csv_path)
    write_json(truth_path, {"seed": seed, "flights": truth})
    return {type_code: scenario.types[type_code].count for type_code in sorted(scenario.types)}
