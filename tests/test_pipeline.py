"""Ingestion, climb filtering, splitting, and fleet simulation tests."""

import io
import json
import logging
import math
import re
import tracemalloc
from itertools import cycle, product
from pathlib import Path

import numpy as np
import pytest

from climbgen import evaluation, learning, pipeline
from climbgen.atmosphere import FT
from climbgen.dynamics import integrate_climb, integrate_climb_block
from climbgen.errors import (DataError, DomainError, InfeasibleClimbError, ValidationError,
                             write_json)
from climbgen.learning import (INTERVAL_FL, MIN_PROFILE_BLIPS, ThrustProfile, default_grid,
                               derive_rocd, median3, profile_from_flight)
from climbgen.pipeline import (
    FleetScenario,
    Trajectory,
    TypeScenario,
    filter_climbs,
    flight_blocks,
    ingest,
    load_scenario,
    simulate_fleet,
    split,
    truth_modes,
    write_columns,
    write_trajectories_csv,
)

HEADER = "flight_id,type_code,t_s,alt_ft"
HEADER_LATLON = HEADER + ",lat,lon"


def csv_file(tmp_path, lines, name="blips.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def ramp_flight(flight_id, alt0, alt1, rate_fpm, dt=10.0, t0=0.0, type_code="NBJT"):
    """CSV rows for a constant-rate altitude ramp."""
    rate_fps = rate_fpm / 60.0
    steps = int((alt1 - alt0) / (rate_fps * dt)) + 1
    return [
        f"{flight_id},{type_code},{t0 + k * dt},{alt0 + k * dt * rate_fps}"
        for k in range(steps)
    ]


def level_rows(flight_id, alt, t_start, duration, dt=10.0, type_code="NBJT"):
    return [
        f"{flight_id},{type_code},{t_start + k * dt},{alt}"
        for k in range(int(duration / dt) + 1)
    ]


def reference_ingest(csv_path):
    """The row-by-row ingest that the columnar one replaced, in the one
    dialect write_columns writes: the text read with universal newlines,
    so a line ends at "\\n", "\\r\\n" or "\\r", each line split on its
    commas, a line with a quote malformed, and one validated blip per row,
    grouped in a dict.  A flight whose rows carry more than one type is
    dropped.  Returns the trajectories and the warnings it logged, in
    order."""
    path = Path(csv_path)
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    has_latlon = len(header) == 6
    warnings = []
    flights = {}
    skipped = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            if '"' in line:
                raise DomainError('a field holds a quote (")')
            if len(row) != len(header):
                raise DomainError(f"expected {len(header)} fields, got {len(row)}")
            t_s, alt_ft = float(row[2]), float(row[3])
            if has_latlon and row[4]:
                float(row[4])
            if has_latlon and row[5]:
                float(row[5])
            if not row[0] or not row[1]:
                raise DomainError("blip needs a flight_id and type_code")
            if not math.isfinite(t_s):
                raise DomainError("blip time must be finite")
            if not math.isfinite(alt_ft) or not 0.0 <= alt_ft <= pipeline.ALT_MAX_FT:
                raise DomainError(f"blip altitude {alt_ft} outside [0, 60000] ft")
        except (DomainError, ValueError) as exc:
            warnings.append(f"{path} line {line_no}: {exc}; row skipped")
            skipped += 1
            continue
        flights.setdefault(row[0], []).append((t_s, alt_ft, row[1]))
    if skipped:
        warnings.append(f"{path}: skipped {skipped} malformed row(s)")
    if not flights:
        raise DataError(f"{path}: no valid blip rows")
    trajectories = []
    for flight_id in sorted(flights):
        types = sorted({b[2] for b in flights[flight_id]})
        if len(types) > 1:
            warnings.append(f"flight {flight_id}: mixed type codes {', '.join(types)}; dropped")
            continue
        blips = sorted(flights[flight_id], key=lambda b: b[0])
        t_arr = np.array([b[0] for b in blips])
        alt_arr = np.array([b[1] for b in blips])
        keep = np.concatenate(([True], np.diff(t_arr) > 0.0))
        t_arr, alt_arr = t_arr[keep], alt_arr[keep]
        if t_arr.size < 2:
            warnings.append(f"flight {flight_id}: fewer than 2 distinct blips; dropped")
            continue
        trajectories.append(Trajectory(flight_id=flight_id, type_code=blips[0][2], t_s=t_arr,
                                       alt_ft=alt_arr))
    return trajectories, warnings


# Rows that every ingest must reject, by check; "{f}" and "{c}" are a flight
# id and its type.  4- and 6-column forms.
MALFORMED = {
    4: ["{f},{c},5.0", "{f},{c},5.0,1000,7", "{f},{c},abc,1000", "{f},{c},5.0,1O00",
        ",{c},5.0,1000", "{f},,5.0,1000", "{f},{c},inf,1000", "{f},{c},nan,1000",
        "{f},{c},-inf,1000", "{f},{c},5.0,-25", "{f},{c},5.0,60000.5", "{f},{c},5.0,inf",
        "{f},{c},5.0,nan", '{f},{c},"5,0",1000', ",{c},abc,-5", ",{c},inf,1000",
        "{f},{c},nan,abc", "{f},,inf,-5", " ", '""', '"{f},{c}",1,2'],
    6: ["{f},{c},5.0,1000", "{f},{c},5.0,1000,1,2,3", "{f},{c},abc,1000,1,2",
        "{f},{c},5.0,1000,north,2", "{f},{c},5.0,1000,1,east", "{f},{c},5.0,1000,,x",
        ",{c},5.0,1000,,", "{f},,5.0,1000,1,", "{f},{c},nan,1000,1,2", "{f},{c},5.0,70000,,",
        '{f},{c},"5,0",1000,,', ",{c},5.0,-1,x,", "{f},{c},inf,1000,x,", "{f},{c},5.0,abc,x,",
        "{f},{c},5.0,1000,x,y", ",{c},inf,1000,,", "{f},{c},inf,-5,,"],
}


def reference_write(path, header, *columns):
    """The row loop that write_columns replaced: one ``repr(float(x))``
    call per number, rows joined by newlines, one trailing newline."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(x if isinstance(x, str) else repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# values whose text is easy to get wrong: signed zeros, NaN payloads,
# infinities, either side of repr's switch to exponent form, subnormals
AWKWARD = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-5,
     5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308, 0.1, 1 / 3, 25.0, 6.0],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
             dtype=np.uint64).view(np.float64),
])


# plain decimal texts, ``-?D+.D+``, at the edges of exact reading: at most
# 16 digits whose digits read as an integer are at most 2**53 ...
FAST_TEXTS = ["-0.0", "0.0", "007.50", "900719925474099.2", "-900719925474099.2",
              "1234567890.123456", "0.333333333333333", "0.0001", "25000.0", "6.0"]
# ... and texts past those edges: 17 digits, 2**53 + 1, 16 digits above
# 2**53, 22 and 23 fraction digits, and no -?D+.D+ form
SLOW_TEXTS = ["1234567890.1234567", "0.3333333333333333", "900719925474099.3", "9999999999.999999",
              "0.0000000000000000000001", "0.00000000000000000000001", "1.", ".5", "-.5",
              "+1.5", "1_0.5", " 1.5", "1.5 ", "1e-05", "١.٥", "nan", "-inf", "1", "-",
              "1.2.3", "--1.5", "1-.5", "abc", ""]
# the texts of both that np.loadtxt refuses, or whose rows fail a blip check
# as a time, so only float() reads them
REFUSED_TEXTS = ["1_0.5", "١.٥", "nan", "-inf", "-", "1.2.3", "--1.5", "1-.5", "abc", ""]


def random_float_column(rng, n):
    """Repeats of a small pool (like scan times and quantized altitudes),
    awkward values and fresh random floats, shuffled together."""
    pool = np.round(rng.uniform(0.0, 40000.0, 7) / 25.0) * 25.0
    values = np.concatenate([rng.choice(pool, n // 2), rng.choice(AWKWARD, n // 4),
                             rng.standard_normal(n - n // 2 - n // 4) * 10.0 ** rng.integers(-20, 20)])
    return rng.permutation(values)


def random_blip_file(tmp_path, seed, latlon):
    """A shuffled blip file with blank lines, duplicate timestamps, one-blip
    flights and every malformed kind; no flight mixes types.  Some fields
    are quoted, as csv.writer would quote them, and some ids hold a comma
    (``F,{k}``) or a quote (``F"{k}``): no field of the one dialect does,
    so those lines test the rejection path."""
    rng = np.random.default_rng(seed)
    rows, types = [], []
    for k in range(int(rng.integers(3, 7))):
        flight_id = ["F{k}", "F,{k}", 'F"{k}'][k % 3].format(k=k)
        type_code = ["NBJT", "WBJT"][int(rng.integers(2))]
        types.append(type_code)
        n = 1 if k == 1 else int(rng.integers(2, 40))
        t = np.round(rng.uniform(0.0, 3000.0) + np.cumsum(rng.choice([0.5, 4.0, 6.0], n)), 1)
        alt = np.round((rng.uniform(5000.0, 30000.0) + 30.0 * (t - t[0])) / 25.0) * 25.0
        dup = rng.random(n) < 0.15
        t = np.concatenate([t, t[dup]])
        alt = np.concatenate([alt, alt[dup] + 25.0])
        for ti, ai in zip(t, alt):
            fields = [flight_id, type_code, repr(float(ti)), repr(float(ai))]
            if latlon:
                fields += [repr(float(x)) if rng.random() < 0.8 else "" for x in rng.normal(size=2)]
            quote = rng.random(len(fields)) < 0.05
            if "," in flight_id:
                quote[0] = True
            rows.append(",".join('"' + x.replace('"', '""') + '"' if q else x
                                 for x, q in zip(fields, quote)))
    rows += [bad.format(f="F0", c=types[0]) for bad in MALFORMED[6 if latlon else 4]]
    rows += [""] * 5
    lines = [HEADER_LATLON if latlon else HEADER] + [rows[i] for i in rng.permutation(len(rows))]
    return csv_file(tmp_path, lines, f"random{seed}.csv")


# the line separators of str.splitlines that end no line of a blip file
FORMER_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# text that no field of the one dialect holds (a comma, quotes, the line
# ends of universal newlines) and text that any field may hold (multibyte
# characters, spaces, controls and the other separators of str.splitlines)
BENIGN = ["é", "✈", "𝔉", " ", "  ", "\t", "\x1f", "\x00"] + FORMER_SEPARATORS
HOSTILE = [",", '"', '""', '"Q', 'Q"', "\r\n", "\r", "\n"] + BENIGN


def hostile_blip_file(tmp_path, seed):
    """A shuffled blip file in which each ``HOSTILE`` text sits at the
    start, middle or end of three flights' fields: of one id, of one id
    then quoted as csv.writer quotes it, and of one type."""
    rng = np.random.default_rng(seed)

    def insert(text, piece):
        at = [0, len(text) // 2, len(text)][int(rng.integers(3))]
        return text[:at] + piece + text[at:]

    rows = []
    for j, piece in enumerate(HOSTILE):
        quoted = '"' + insert(f"F{3 * j + 1}", piece).replace('"', '""') + '"'
        flights = [(insert(f"F{3 * j}", piece), "NBJT"), (quoted, "NBJT"),
                   (f"F{3 * j + 2}", insert("WBJT", piece))]
        for flight_id, type_code in flights:
            t = np.round(rng.uniform(0.0, 3000.0) + np.cumsum(rng.choice([0.5, 4.0, 6.0], 12)), 1)
            alt = np.round((rng.uniform(5000.0, 30000.0) + 30.0 * (t - t[0])) / 25.0) * 25.0
            rows += [f"{flight_id},{type_code},{ti!r},{ai!r}"
                     for ti, ai in zip(t.tolist(), alt.tolist())]
    lines = [HEADER] + [rows[i] for i in rng.permutation(len(rows))]
    path = tmp_path / f"hostile{seed}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return path


# block sizes, in characters, that cut the small files below into many
# blocks: a line a block, each read ending inside its line, and a line or
# a few lines a block
SMALL_BLOCKS = [1, 32, 96]


class ShortReads(io.BufferedReader):
    """A binary file that gives Python's text layer at most ``size`` bytes
    a read, so its reads end inside characters and ``"\\r\\n"`` pairs."""

    def __init__(self, path, size):
        super().__init__(io.FileIO(path))
        self.size = size

    def read1(self, n=-1):
        return super().read1(self.size if n < 0 else min(n, self.size))


def read_in_short_reads(monkeypatch, size):
    """Make ``ingest`` read a blip file through ``ShortReads`` of ``size``."""
    monkeypatch.setattr(pipeline, "open", lambda path, **kwargs: io.TextIOWrapper(
        ShortReads(path, size), **kwargs), raising=False)


def fuzz_blip_file(tmp_path, seed):
    """A seeded blip file under a 4- or 6-column header, of flights whose
    ids and types hold ``HOSTILE`` texts or none, some number texts of
    ``FAST_TEXTS`` and ``SLOW_TEXTS``, quoted fields, duplicate
    timestamps, one-blip and mixed-type flights, blank and ``MALFORMED``
    rows, in flight order or shuffled, with "\\n", "\\r\\n", "\\r" or
    mixed line ends and maybe no last newline.  Flight ``F-OK`` is valid,
    so some flight is always usable."""
    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    def hostile(text):
        at = int(rng.integers(len(text) + 1))
        return text[:at] + pick(HOSTILE) + text[at:] if rng.random() < 0.2 else text

    latlon = rng.random() < 0.5
    rows = []
    for k in range(int(rng.integers(2, 7))):
        flight_id = "F-OK" if k == 0 else hostile(f"F{k}")
        types = ["NBJT"] if k == 0 else [hostile(pick(["NBJT", "WBJT", "Wé", "NB\u2028JT"]))]
        if k and rng.random() < 0.15:
            types.append("AJET")
        n = int(rng.integers(2 if k == 0 else 1, 25))
        t = np.round(rng.uniform(0.0, 3000.0) + np.cumsum(rng.choice([0.0, 0.5, 6.0], n)), 1)
        t[0] -= 1.0   # so F-OK has two distinct timestamps
        alt = np.round((rng.uniform(5000.0, 30000.0) + 30.0 * (t - t[0])) / 25.0) * 25.0
        for i, (ti, ai) in enumerate(zip(t.tolist(), alt.tolist())):
            fields = [flight_id, types[i % len(types)], repr(ti), repr(ai)]
            if latlon:
                fields += [pick(["", "1.5", repr(float(rng.normal()))]) for _ in range(2)]
            if k and rng.random() < 0.1:
                fields[int(rng.integers(2, len(fields)))] = pick(FAST_TEXTS + SLOW_TEXTS)
            if k and rng.random() < 0.01:
                at = int(rng.integers(len(fields)))
                fields[at] = f'"{fields[at]}"'
            rows.append(",".join(fields))
    bad = MALFORMED[6 if latlon else 4]
    rows += [pick(bad).format(f="F1", c="NBJT") for _ in range(int(rng.integers(-3, 4)))]
    rows += [""] * int(rng.integers(0, 4))
    if rng.random() < 0.5:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    ends = pick(["\n", "\r\n", "\r", "mixed"])
    text = HEADER_LATLON if latlon else HEADER
    for row in rows:
        text += (pick(["\n", "\r\n", "\r"]) if ends == "mixed" else ends) + row
    if rng.random() < 0.7:
        text += "\n" if ends == "mixed" else ends
    path = tmp_path / f"fuzz{seed}.csv"
    path.write_bytes(text.encode())
    return path


def assert_same_trajectories(got, want):
    assert [t.flight_id for t in got] == [t.flight_id for t in want]
    for a, b in zip(got, want):
        assert a.type_code == b.type_code
        for field in ("t_s", "alt_ft"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def assert_ingest_matches_reference(path, caplog):
    """``ingest`` gives ``reference_ingest``'s trajectories and warnings;
    returns the trajectories."""
    want, want_warnings = reference_ingest(path)
    with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
        got = ingest(path)
    assert_same_trajectories(got, want)
    assert [r.getMessage() for r in caplog.records] == want_warnings
    return got


def long_id_rows():
    """Rows whose ids (201 units) and types (101 units) have equal widths
    and agree well past any fixed width an id could be cut to, with the
    rows of the 6 flights interleaved."""
    flights = [ramp_flight("F" * 200 + str(k), 15000, 20000, 2000, type_code="T" * 100 + str(k % 2))
               for k in range(6)]
    return [row for group in zip(*flights) for row in group]


def run_head_rows():
    """Rows of which none has the id or the type of the row before: equal
    widths a unit apart, prefixes of each other, a non-ASCII id, and a
    malformed row between."""
    flights = [("F01", "NBJT"), ("F02", "WBJT"), ("F0", "NBJX"), ("F012", "WBJ"), ("é1", "WBJX")]
    ramps = [[f"{f},{c},{row.split(',', 2)[2]}" for row in ramp_flight("x", 15000, 20000, 2000)]
             for f, c in flights]
    rows = [row for group in zip(*ramps) for row in group]
    rows.insert(6, "F01,NBJT,abc,1000")
    return rows


class TestIngest:
    def test_two_flight_file(self, tmp_path):
        lines = [HEADER] + ramp_flight("A", 10000, 20000, 2000) + ramp_flight("B", 5000, 15000, 1500)
        trajectories = ingest(csv_file(tmp_path, lines))
        assert [t.flight_id for t in trajectories] == ["A", "B"]
        assert trajectories[0].n_blips == len(ramp_flight("A", 10000, 20000, 2000))

    def test_constant_ramp_rocd(self, tmp_path):
        lines = [HEADER] + ramp_flight("A", 10000, 30000, 2000)
        traj = ingest(csv_file(tmp_path, lines))[0]
        assert derive_rocd(traj.t_s, traj.alt_ft, np.array([0, traj.n_blips]))[1:-1] == pytest.approx(
            2000.0, abs=1.0)

    def test_shuffled_rows_identical(self, tmp_path):
        rows = ramp_flight("A", 10000, 20000, 2000) + ramp_flight("B", 5000, 15000, 1500)
        rng = np.random.default_rng(1)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        sorted_trajs = ingest(csv_file(tmp_path, [HEADER] + rows, "a.csv"))
        shuffled_trajs = ingest(csv_file(tmp_path, [HEADER] + shuffled, "b.csv"))
        for a, b in zip(sorted_trajs, shuffled_trajs):
            assert a.flight_id == b.flight_id
            assert np.array_equal(a.t_s, b.t_s)
            assert np.array_equal(a.alt_ft, b.alt_ft)

    def test_malformed_rows_skipped_with_line_numbers(self, tmp_path, caplog):
        lines = [HEADER] + ramp_flight("A", 10000, 20000, 2000)
        lines.insert(3, "A,NBJT,not_a_number,12000")
        lines.insert(5, "A,NBJT,50.0")   # wrong field count
        lines.append("B,NBJT,0.0,99999")  # altitude out of range
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            trajectories = ingest(csv_file(tmp_path, lines))
        assert len(trajectories) == 1
        messages = " ".join(r.message for r in caplog.records)
        assert "line 4" in messages
        assert "line 6" in messages
        assert "skipped 3 malformed row(s)" in messages

    def test_duplicate_timestamps_keep_first(self, tmp_path):
        lines = [HEADER, "A,NBJT,0.0,10000", "A,NBJT,10.0,10400",
                 "A,NBJT,10.0,99990", "A,NBJT,20.0,10800"]
        traj = ingest(csv_file(tmp_path, lines))[0]
        assert traj.n_blips == 3
        assert traj.alt_ft[1] == 10400.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            ingest(path)

    def test_header_only_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest(csv_file(tmp_path, [HEADER]))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError):
            ingest(csv_file(tmp_path, ["time,altitude", "0,10"]))

    def test_write_ingest_identity(self, tmp_path):
        lines = [HEADER] + ramp_flight("A", 9000, 34000, 2100) + ramp_flight("B", 8000, 35000, 1700)
        original = ingest(csv_file(tmp_path, lines))
        write_trajectories_csv(original, tmp_path / "copy.csv")
        again = ingest(tmp_path / "copy.csv")
        assert len(again) == len(original)
        for a, b in zip(original, again):
            assert a.flight_id == b.flight_id
            assert np.array_equal(a.t_s, b.t_s)
            assert np.array_equal(a.alt_ft, b.alt_ft)

    @pytest.mark.parametrize("block_chars", [None, *SMALL_BLOCKS])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_ingest(self, tmp_path, caplog, monkeypatch, seed, block_chars):
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        path = random_blip_file(tmp_path, seed, latlon=seed % 2 == 1)
        want, want_warnings = reference_ingest(path)
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            got = ingest(path)
        assert_same_trajectories(got, want)
        assert [r.getMessage() for r in caplog.records] == want_warnings
        assert len(want_warnings) > len(MALFORMED[6 if seed % 2 else 4])

    @pytest.mark.parametrize("block_chars", [None, *SMALL_BLOCKS])
    @pytest.mark.parametrize("line_end", ["\r\n", "\r", "mixed"])
    def test_every_line_end_reads_as_a_newline(self, tmp_path, caplog, monkeypatch, line_end,
                                               block_chars):
        # a line ends at "\n", "\r\n" or "\r", as universal newlines end it,
        # and each ends a line of a block: a file of one of them or of a mix,
        # with blank lines and no last newline, read 3 bytes at a time, is
        # cut into the blocks of its "\n" copy, so it too is never held
        # whole, and gives its trajectories, warnings and line numbers
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        read_in_short_reads(monkeypatch, 3)
        rows = []
        for k, flight_id in enumerate(["Fé", "F✈", "F𝔉", "Ωmega"]):
            rows += ramp_flight(flight_id, 15000 + 1000 * k, 20000 + 1000 * k, 2000)[:6]
        rows.insert(7, "F✈,NBJT,abc,1000")
        path = tmp_path / "line_ends.csv"
        read = []
        for ends in (["\n"], ["\r\n", "\r", "\n"] if line_end == "mixed" else [line_end]):
            ends = cycle(ends)
            pieces = [HEADER]
            for i, row in enumerate(rows):
                pieces += [next(ends) * (2 if i % 5 == 0 else 1), row]
            path.write_text("".join(pieces), encoding="utf-8", newline="")
            caplog.clear()
            read.append((list(pipeline._blocks(path)), assert_ingest_matches_reference(path, caplog),
                         [r.getMessage() for r in caplog.records]))
        data = path.read_bytes()
        assert not data.endswith(b"\n")
        assert any(data[end - 1] == ord("\r") for end in range(3, len(data), 3))
        (want_blocks, want, want_warnings), (got_blocks, got, got_warnings) = read
        assert got_blocks == want_blocks
        assert [t.flight_id for t in want] == ["Fé", "F✈", "F𝔉", "Ωmega"]
        assert_same_trajectories(got, want)
        assert got_warnings == want_warnings and len(want_warnings) == 2
        assert " line 11: " in want_warnings[0]

    @pytest.mark.parametrize("read_by", ["loadtxt", "lines"])
    @pytest.mark.parametrize("block_chars", [1, 64, 96])
    @pytest.mark.parametrize("separator", FORMER_SEPARATORS)
    def test_a_former_line_separator_is_a_field_character(self, tmp_path, caplog, monkeypatch,
                                                          separator, block_chars, read_by):
        # the separators of str.splitlines that universal newlines do not
        # know end no line: ids and types holding one round-trip through the
        # writer and ingest.  With read_by "lines" a quoted row before each
        # row and after the last sends every block of two or more lines to
        # the per-line path, and at 64 characters or more every block holds
        # two or more of these lines, each under 32 characters.  "\x1c"-"\x1e"
        # send their blocks there anyway
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        k = np.arange(6.0)
        flights = [Trajectory(flight_id=flight_id, type_code=type_code, t_s=6.0 * k,
                              alt_ft=15000.0 + 200.0 * k)
                   for flight_id, type_code in sorted([(f"{separator}A", "NBJT"),
                                                       (f"B{separator}", f"NB{separator}JT"),
                                                       (f"C{separator}C", separator)])]
        written = tmp_path / "written.csv"
        write_trajectories_csv(flights, written)
        lines = written.read_text(encoding="utf-8").split("\n")[:-1]
        if read_by == "lines":
            quoted = '"Q",NBJT,0.0,15000.0'
            lines[1:] = [x for line in lines[1:] for x in (quoted, line)] + [quoted]
        per_line = []
        read_lines = pipeline._read_lines
        monkeypatch.setattr(pipeline, "_read_lines",
                            lambda path, text, *args: per_line.append(text)
                            or read_lines(path, text, *args))
        got = assert_ingest_matches_reference(csv_file(tmp_path, lines), caplog)
        assert_same_trajectories(got, flights)
        rows_read_by_lines = sum(separator in line for text in per_line
                                 for line in text.split("\n"))
        by_lines = (read_by == "lines" and block_chars > 1) or separator in "\x1c\x1d\x1e"
        assert rows_read_by_lines == (18 if by_lines else 0)
        write_trajectories_csv(got, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    def test_a_last_line_without_its_newline(self, tmp_path, caplog, monkeypatch, block_chars):
        # a plain "\n" file whose last line lacks its newline reads as the
        # same file with it: the last line, a valid blip, is kept
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = ramp_flight("A", 15000, 20000, 2000) + ramp_flight("B", 15000, 21000, 2500)
        rows.insert(5, "A,NBJT,abc,1000")
        data = ("\n".join([HEADER] + rows) + "\n").encode()
        path = tmp_path / "blips.csv"
        read = []
        for text in (data, data[:-1]):
            path.write_bytes(text)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
                read.append((ingest(path), [r.getMessage() for r in caplog.records]))
        assert not path.read_bytes().endswith(b"\n")
        assert b"\r" not in data
        (got, got_warnings), (want, want_warnings) = read[1], read[0]
        assert_same_trajectories(got, want)
        assert got_warnings == want_warnings and len(want_warnings) == 2
        assert got[-1].t_s[-1] == float(rows[-1].split(",")[2])

    @pytest.mark.parametrize("block_chars", [None, *SMALL_BLOCKS])
    @pytest.mark.parametrize("seed", range(4))
    def test_hostile_ids_survive_write_and_ingest(self, tmp_path, caplog, monkeypatch, seed,
                                                  block_chars):
        # every flight ingest returns has an id and type that write_columns
        # writes back on one line, field for field
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        first = assert_ingest_matches_reference(hostile_blip_file(tmp_path, seed), caplog)
        for text in BENIGN:
            assert any(text in tr.flight_id for tr in first)
            assert any(text in tr.type_code for tr in first)
        write_trajectories_csv(first, tmp_path / "once.csv")
        again = ingest(tmp_path / "once.csv")
        assert_same_trajectories(again, first)
        write_trajectories_csv(again, tmp_path / "twice.csv")
        assert (tmp_path / "twice.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()

    def test_bad_byte_in_a_later_block_gives_its_offset_in_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", 32)
        lines = [HEADER] + ramp_flight("A", 15000, 20000, 2000)
        data = ("\n".join(lines) + "\n").encode() + b"B,NBJT,0.0,1\xff00\n"
        path = tmp_path / "blips.csv"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        assert whole.value.start == offset and offset > 2 * pipeline.BLOCK_CHARS
        with pytest.raises(DataError, match=f"not UTF-8 text: invalid start byte at byte {offset}$"):
            ingest(path)

    @pytest.mark.parametrize("read_bytes", [1, 3, 8192])
    @pytest.mark.parametrize("final_newline", [False, True])
    def test_blocks_are_whole_lines_of_at_most_block_chars(self, tmp_path, monkeypatch,
                                                           final_newline, read_bytes):
        # each block is whole lines, each ended by "\n", of at most
        # BLOCK_CHARS characters, or one longer line; it takes every line
        # that fits, so a block and the next block's first line are longer
        # than BLOCK_CHARS; and the blocks join to the file's text, with a
        # last newline added where the file lacks it
        read_in_short_reads(monkeypatch, read_bytes)
        rows = [f"{f},NBJT,{k}.5,1{k}00.0" for k in range(40) for f in ("Fé", "F✈", "F𝔉")]
        rows[7] = "F" * 150 + rows[7]
        data = ("\r\n".join([HEADER] + rows[:50]) + "\r" + "\n".join(rows[50:])).encode()
        data += b"\n" if final_newline else b""
        path = tmp_path / "blips.csv"
        path.write_bytes(data)
        # the lone "\r" after rows[49] ends a line too
        lines = [line.decode() + "\n" for line in re.split(rb"\r\n|\r|\n", data.removesuffix(b"\n"))]
        assert len(lines) == 1 + len(rows)
        for block_chars in (1, 2, 3, 5, 64, 1 << 20):
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
            blocks = [block.decode() for block in pipeline._blocks(path)]
            assert "".join(blocks) == "".join(lines)
            for block in blocks:
                assert block.endswith("\n")
                assert len(block) <= block_chars or block.count("\n") == 1
            if final_newline:
                for block, after in zip(blocks, blocks[1:]):
                    assert len(block) + after.index("\n") + 1 > block_chars
        assert len(blocks) == (1 if final_newline else 2)   # at 1 << 20 characters

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    @pytest.mark.parametrize("block_chars", [None, 1, 96])
    @pytest.mark.parametrize("read_bytes", [3, 7])
    def test_reads_that_end_inside_a_character_or_a_crlf_pair(self, tmp_path, caplog, monkeypatch,
                                                              block_chars, read_bytes, line_end):
        # Python's text layer is given the file read_bytes at a time
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        read_in_short_reads(monkeypatch, read_bytes)
        rows = []
        for k, flight_id in enumerate(["Fé", "F✈", "F𝔉", "Ωmega"]):
            rows += ramp_flight(flight_id, 15000 + 1000 * k, 20000 + 1000 * k, 2000)
        rows.insert(9, "F✈,NBJT,abc,1000")
        path = tmp_path / "crlf.csv"
        path.write_bytes((line_end.join([HEADER] + rows) + line_end).encode())
        data = path.read_bytes()
        reads = range(read_bytes, len(data), read_bytes)
        assert any(data[end - 1] == ord("\r") for end in reads)   # inside a pair, if "\r\n"
        assert any(data[end] & 0xC0 == 0x80 for end in reads)   # the next read starts mid-character
        got = assert_ingest_matches_reference(path, caplog)
        assert [t.flight_id for t in got] == ["Fé", "F✈", "F𝔉", "Ωmega"]
        assert "line 11:" in caplog.records[0].getMessage()
        # a bad byte still reports its offset in the file
        path.write_bytes(data + "Ω,NBJT,0.0,1".encode() + b"\xff0" + line_end.encode())
        offset = len(data) + len("Ω,NBJT,0.0,1".encode())
        with pytest.raises(DataError, match=f"invalid start byte at byte {offset}$"):
            ingest(path)

    @pytest.mark.parametrize("block_chars", [None, 1024])
    @pytest.mark.parametrize("where", ["after a character", "inside a character", "after a pair"])
    def test_a_bad_byte_gives_the_offset_bytes_decode_gives(self, tmp_path, monkeypatch, where,
                                                            block_chars):
        # Python's text layer reads the file in chunks of 8 KiB or, for a
        # block of 64 Ki characters, more: a bad byte at offsets either side
        # of such chunks' ends gives bytes.decode's reason and offset
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        head = {"after a character": "é".encode(), "inside a character": b"x\xc3",
                "after a pair": b"\r\n"}[where]
        row = b"F,NBJT,0.0,15000.0\r\n"
        clean = (HEADER + "\r\n").encode() + row * (70000 // len(row))
        path = tmp_path / "bad.csv"
        for offset in (5, 8190, 8191, 8192, 8193, 16384, 20000, 65535, 65536, 65537):
            data = bytearray(clean)
            data[offset - 2:offset + 1] = head + (b"(" if where == "inside a character" else b"\xff")
            path.write_bytes(data)
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            assert whole.value.start == offset - (where == "inside a character")
            with pytest.raises(DataError, match=f": {whole.value.reason} at byte "
                                                f"{whole.value.start}$"):
                ingest(path)

    def test_seeded_fuzz_matches_reference_ingest(self, tmp_path, caplog, monkeypatch):
        # each file, read at the default block size and at a few characters,
        # gives reference_ingest's trajectories, warnings and line numbers
        sizes = [pipeline.BLOCK_CHARS, 1, 2, 3, 5, 8]
        for seed in range(300):
            path = fuzz_blip_file(tmp_path, seed)
            want, want_warnings = reference_ingest(path)
            for block_chars in (sizes[0], sizes[1 + seed % 5]):
                monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
                    got = ingest(path)
                assert_same_trajectories(got, want)
                assert [r.getMessage() for r in caplog.records] == want_warnings, (seed, block_chars)

    def test_long_lines_hold_a_few_blocks_not_the_file(self, tmp_path):
        # 2000 six-column rows of 2 KB, a 4 MB file: the traced peak is the
        # columns and copies of one block, however long the lines: the text
        # read, the block's text and UTF-8 bytes, and np.loadtxt's copies,
        # about 11 blocks of 64 KiB here.  Blocks of 8192 lines held the
        # whole file, several times over
        lat = "45." + "1" * 1000
        rows = [f"F{k // 100:02d},NBJT,{6.0 * (k % 100)!r},{15000.0 + 25.0 * (k % 100)!r},{lat},{lat}"
                for k in range(2000)]
        path = csv_file(tmp_path, [HEADER_LATLON] + rows)
        tracemalloc.start()
        try:
            trajectories = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tr.n_blips for tr in trajectories) == len(rows)
        assert path.stat().st_size > 4e6
        assert peak < 16 * pipeline.BLOCK_CHARS + 20 * len(rows), f"{peak / 2**20:.2f} MiB"

    def test_peak_memory_is_one_block_plus_the_columns(self, tmp_path):
        # in-order rows are parsed into the returned columns in place and not
        # sorted, and the file's text is never held: the traced peak is the
        # flight, time and altitude columns (20 B/row) and one block, about
        # 29 B/row here.  A type column as well took about 33, and joining
        # per-block parts and sorting them about 41
        n = 32 * pipeline.BLOCK_LINES
        k = np.arange(n)
        path = tmp_path / "blips.csv"
        write_columns(path, HEADER, [f"F{i:04d}" for i in (k // 1000).tolist()], ["NBJT"] * n,
                      (k % 1000) * 6.0, 15000.0 + (k % 1000) * 25.0)
        tracemalloc.start()
        try:
            trajectories = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tr.n_blips for tr in trajectories) == n
        assert peak / n < 31.0, f"{peak / n:.1f} B/row"

    def test_stray_quote_skips_only_its_line(self, tmp_path, caplog):
        lines = ([HEADER] + ramp_flight("A", 10000, 20000, 2000)[:10]
                 + ['B,NBJT,0.0,"10000.0'] + ramp_flight("C", 10000, 30000, 250, dt=4.0)[:500])
        assert len(lines) == 512
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            trajectories = ingest(csv_file(tmp_path, lines))
        assert [(t.flight_id, t.n_blips) for t in trajectories] == [("A", 10), ("C", 500)]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert 'line 12: a field holds a quote ("); row skipped' in messages[0]
        assert "skipped 1 malformed row(s)" in messages[1]

    def test_field_over_csv_size_limit_skipped(self, tmp_path, caplog):
        # no size limit applies to a field; this one, longer than csv's
        # default limit, is skipped for its quote, and only its line
        rows = ramp_flight("A", 10000, 20000, 2000)
        lines = [HEADER] + rows[:3] + [f'A,NBJT,"{"9" * 200000}",1'] + rows[3:]
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            trajectories = ingest(csv_file(tmp_path, lines))
        assert [(t.flight_id, t.n_blips) for t in trajectories] == [("A", len(rows))]
        assert [r.getMessage() for r in caplog.records] == [
            f'{tmp_path / "blips.csv"} line 5: a field holds a quote ("); row skipped',
            f"{tmp_path / 'blips.csv'}: skipped 1 malformed row(s)"]

    @pytest.mark.parametrize("block_chars", [None, 96])
    @pytest.mark.parametrize("seed", range(3))
    def test_numbers_read_as_float_reads_them(self, tmp_path, caplog, monkeypatch, seed,
                                              block_chars):
        # every number text, read by np.loadtxt or by float(), gives float()'s
        # bits, and a rejected one float()'s message: each text is one
        # flight's time and another's altitude
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(seed)
        write_columns(tmp_path / "values.csv", "v", np.concatenate([
            random_float_column(rng, 300), AWKWARD, -AWKWARD, rng.uniform(0.0, 60000.0, 50)]))
        texts = (tmp_path / "values.csv").read_text().splitlines()[1:] + FAST_TEXTS + SLOW_TEXTS
        rows = []
        for i, text in enumerate(texts):
            rows += [f"T{i},NBJT,{text},1000.0", f"T{i},NBJT,-1.0,1000.0",
                     f"A{i},NBJT,1.0,{text}", f"A{i},NBJT,2.0,1000.0"]
        lines = [HEADER] + [rows[i] for i in rng.permutation(len(rows))]
        assert_ingest_matches_reference(csv_file(tmp_path, lines), caplog)

    def test_only_blocks_that_np_loadtxt_refuses_reach_float(self, tmp_path, caplog,
                                                             monkeypatch):
        # each text is one flight's first time, in a block with the flight's
        # second row and no other: every row's id is padded to a line of 64
        # characters, so a block of 128 holds two rows, or the header and
        # the first.  Both rows' altitude tags the block.  The blocks
        # np.loadtxt reads give float() no text, the others give it each of
        # theirs, and every text gets float()'s answer
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", 128)
        texts = FAST_TEXTS + SLOW_TEXTS
        tags = [repr(1000.0 + i) for i in range(len(texts))]
        rows = ["G,NBJT,0.0,999.0"] + [
            row for i, text in enumerate(texts)
            for row in (f"F{i},NBJT,{text},{tags[i]}", f"F{i},NBJT,-1.0,{tags[i]}")]
        lines = [HEADER] + [row.replace(",", "_" * (63 - len(row)) + ",", 1) for row in rows]
        assert {len(line) for line in lines[1:]} == {63}
        given = []

        class Float(float):   # float, and a record of the texts it is given
            def __new__(cls, text):
                given.append(text)
                return float(text)

        path = csv_file(tmp_path, lines)
        assert [block.count(b"\n") for block in pipeline._blocks(path)] == [2] * (len(texts) + 1)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "float", Float, raising=False)
            ingest(path)
        caplog.clear()
        assert_ingest_matches_reference(path, caplog)
        refused = [i for i, text in enumerate(texts) if text in REFUSED_TEXTS]
        assert len(refused) == len(REFUSED_TEXTS)
        assert set(given) == {"-1.0"} | {x for i in refused for x in (texts[i], tags[i])}

    # each test below holds rows that np.loadtxt reads without an error
    # and that pass its block's blip checks, yet that float() or the one
    # dialect read otherwise: a guard sends their blocks to the per-line path

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    def test_a_quote_np_loadtxt_keeps_in_a_field_skips_its_row(self, tmp_path, caplog,
                                                               monkeypatch, block_chars):
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = ramp_flight("A", 15000, 20000, 2000)[:6]
        for flight_id, type_code in (('F"1', "NBJT"), ('"B"', "NBJT"), ("C", 'NBJT"')):
            rows += [f"{flight_id},{type_code},{6.0 * k},{15000.0 + 100.0 * k}" for k in range(3)]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [t.flight_id for t in got] == ["A"]
        assert caplog.records[-1].getMessage().endswith("skipped 9 malformed row(s)")

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    def test_texts_that_differ_by_a_trailing_nul_stay_apart(self, tmp_path, caplog,
                                                            monkeypatch, block_chars):
        # np.loadtxt's byte-string columns drop trailing NULs
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = (ramp_flight("A", 15000, 20000, 2000)[:4]
                + ramp_flight("A\x00", 15000, 20000, 2000, t0=3.0)[:4]
                + ramp_flight("B", 15000, 20000, 2000)[:4])
        rows[-1] = rows[-1].replace("NBJT", "NBJT\x00")
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [(t.flight_id, t.n_blips) for t in got] == [("A", 4), ("A\x00", 4)]

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    def test_a_block_of_blank_lines_only(self, tmp_path, caplog, monkeypatch, block_chars):
        # np.loadtxt warns on a block with no data line
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        blank = [""] * (2 * pipeline.BLOCK_CHARS)
        lines = ([HEADER] + ramp_flight("A", 15000, 20000, 2000)[:5] + blank
                 + ramp_flight("B", 15000, 20000, 2000)[:5])
        got = assert_ingest_matches_reference(csv_file(tmp_path, lines), caplog)
        assert [t.flight_id for t in got] == ["A", "B"] and not caplog.records

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    def test_empty_lat_and_lon_are_kept(self, tmp_path, caplog, monkeypatch, block_chars):
        # np.loadtxt refuses an empty number; the per-line path allows an
        # empty lat or lon
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = [row + latlon for row, latlon in
                zip(ramp_flight("A", 15000, 20000, 2000)[:9], cycle([",,", ",1.5,", ",,-2.5"]))]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER_LATLON] + rows), caplog)
        assert [t.n_blips for t in got] == [9] and not caplog.records

    @pytest.mark.parametrize("block_chars", [None, 1, 32])
    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_a_unit_separator_around_a_number_skips_its_row(self, tmp_path, caplog,
                                                            monkeypatch, separator, block_chars):
        # np.loadtxt strips "\x1c"-"\x1f" around a number as space; float()
        # does not.  In an id or a type each is any other character
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = (ramp_flight("A", 15000, 20000, 2000)[:6]
                + ramp_flight(f"F{separator}", 15000, 20000, 2000,
                              type_code=f"{separator}NBJT")[:6])
        flight_id, type_code, t_s, alt_ft = rows[1].split(",")
        rows[1] = f"{flight_id},{type_code},{separator}{t_s},{alt_ft}"
        rows[4] = rows[4] + separator
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [(t.flight_id, t.n_blips) for t in got] == [("A", 4), (f"F{separator}", 6)]

    @pytest.mark.parametrize("block_chars", [None, 40, 700])
    @pytest.mark.parametrize("make_rows", [long_id_rows, run_head_rows])
    def test_id_and_type_runs_match_reference_ingest(self, tmp_path, caplog, monkeypatch,
                                                     make_rows, block_chars):
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = make_rows()
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert len(got) == len({row.split(",", 1)[0] for row in rows})

    def test_mixed_type_flight_dropped(self, tmp_path, caplog):
        mixed = ramp_flight("M", 10000, 20000, 2000)
        mixed[3] = mixed[3].replace("NBJT", "WBJT")
        lines = [HEADER] + ramp_flight("A", 10000, 20000, 2000) + mixed
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            trajectories = ingest(csv_file(tmp_path, lines))
        assert [t.flight_id for t in trajectories] == ["A"]
        assert [r.getMessage() for r in caplog.records] == [
            "flight M: mixed type codes NBJT, WBJT; dropped"]


def flight_rows(flight_id, n, type_code="NBJT", t0=0.0):
    """``n`` rows of one flight in time order, 6 s and 25 ft apart."""
    return [f"{flight_id},{type_code},{t0 + 6.0 * i!r},{15000.0 + 25.0 * i!r}" for i in range(n)]


def in_order_rows(n_flights=6, n_blips=40):
    """Rows in flight and time order, as write_trajectories_csv and simulate
    write them: each flight one run, the flights in sorted() order of ids."""
    return [row for k in range(n_flights) for row in flight_rows(f"F{k:02d}", n_blips)]


class TestIngestOrder:
    """``ingest`` sorts only rows that are out of flight and time order, and
    gives ``reference_ingest``'s flights and warnings either way."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        """The row count of each ``np.lexsort`` call."""
        calls = []
        lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        return calls

    def test_in_order_rows_are_not_sorted(self, tmp_path, caplog, sorts):
        rows = in_order_rows()
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert len(got) == 6 and sorts == []

    @pytest.mark.parametrize("block_chars", [None, 96])
    def test_shuffled_rows_are_sorted(self, tmp_path, caplog, monkeypatch, sorts, block_chars):
        if block_chars:
            monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = in_order_rows()
        shuffled = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + shuffled), caplog)
        assert sorts == [len(rows)]
        want = ingest(csv_file(tmp_path, [HEADER] + rows, "in_order.csv"))
        assert_same_trajectories(got, want)

    def test_a_flight_split_into_two_runs_is_sorted(self, tmp_path, caplog, sorts):
        rows = in_order_rows()
        # the second half of F02 comes after F04, each half in time order
        rows = rows[:100] + rows[120:200] + rows[100:120] + rows[200:]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [t.n_blips for t in got] == [40] * 6 and sorts == [len(rows)]

    @pytest.mark.parametrize("block_chars", [64, 96, 16000])
    def test_a_backward_time_step_at_a_block_boundary_is_sorted(self, tmp_path, caplog,
                                                                monkeypatch, sorts, block_chars):
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        rows = in_order_rows(n_flights=4, n_blips=500)
        # row r starts the third block, the first holding the header;
        # swapping rows r - 1 and r, of one length, keeps the blocks' bounds
        # and makes r's time the only one that falls
        first, second, *_ = pipeline._blocks(csv_file(tmp_path, [HEADER] + rows))
        r = first.count(b"\n") - 1 + second.count(b"\n")
        assert len(rows[r - 1]) == len(rows[r])
        rows[r - 1], rows[r] = rows[r], rows[r - 1]
        path = csv_file(tmp_path, [HEADER] + rows)
        first, second, third, *_ = pipeline._blocks(path)
        assert second.endswith((rows[r - 1] + "\n").encode())
        assert third.startswith(rows[r].encode())
        got = assert_ingest_matches_reference(path, caplog)
        assert [t.n_blips for t in got] == [500] * 4 and sorts == [len(rows)]

    def test_ids_first_seen_out_of_sorted_order_are_sorted(self, tmp_path, caplog, sorts):
        # one run per flight, times in order, but sorted() puts "F10" first
        rows = [row for flight_id in ("F8", "F9", "F10", "F11") for row in flight_rows(flight_id, 30)]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [t.flight_id for t in got] == ["F10", "F11", "F8", "F9"]
        assert sorts == [len(rows)]

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_duplicate_timestamps_and_a_mixed_type_flight(self, tmp_path, caplog, sorts, shuffle):
        rows = in_order_rows()
        rows[130] = rows[130].replace("NBJT", "WBJT")   # F03 mixes types
        # repeats of a timestamp with another altitude, right after the first
        # blip of it, so the rows stay in order; one flight keeps one blip
        for i in (205, 41, 40, 3):
            flight_id, type_code, t_s, _ = rows[i].split(",")
            rows.insert(i + 1, f"{flight_id},{type_code},{t_s},30000.0")
        rows += ["G,NBJT,6.0,15000.0", "G,NBJT,6.0,15025.0"]
        if shuffle:
            rows = [rows[i] for i in np.random.default_rng(2).permutation(len(rows))]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [t.flight_id for t in got] == ["F00", "F01", "F02", "F04", "F05"]
        assert all(t.n_blips == 40 for t in got)
        if not shuffle:   # the first line of a timestamp wins
            assert 30000.0 not in np.concatenate([t.alt_ft for t in got])
        assert [r.getMessage() for r in caplog.records] == [
            "flight F03: mixed type codes NBJT, WBJT; dropped",
            "flight G: fewer than 2 distinct blips; dropped"]
        assert sorts == ([len(rows)] if shuffle else [])

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("block_chars", [64, 96, 14000])
    def test_a_type_first_seen_in_a_later_block_marks_its_flight_mixed(
            self, tmp_path, caplog, monkeypatch, block_chars, shuffle):
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", block_chars)
        # the flights' types alternate, so a flight read with another's
        # type would be dropped as mixed
        rows = [row if k // 100 % 2 == 0 else row.replace("NBJT", "WBJT")
                for k, row in enumerate(in_order_rows(n_flights=12, n_blips=100))]
        # F06's last row, blocks after its first, has a type no row of F06
        # before it has; F03 starts with a third type and has NBJT later
        rows[699] = rows[699].replace("NBJT", "WBJT")
        rows[300] = rows[300].replace("WBJT", "AJET")
        rows[350] = rows[350].replace("WBJT", "NBJT")
        if shuffle:
            rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert [(t.flight_id, t.type_code) for t in got] == [
            (f"F{k:02d}", "WBJT" if k % 2 else "NBJT") for k in range(12) if k not in (3, 6)]
        assert [r.getMessage() for r in caplog.records] == [
            "flight F03: mixed type codes AJET, NBJT, WBJT; dropped",
            "flight F06: mixed type codes NBJT, WBJT; dropped"]

    @pytest.mark.parametrize("long_first", [True, False])
    def test_columns_grow_when_the_first_block_underestimates_the_rows(self, tmp_path, caplog,
                                                                      monkeypatch, sorts,
                                                                      long_first):
        # the columns are sized from the first block's bytes per line: long
        # lines there make the estimate short, and the columns grow
        monkeypatch.setattr(pipeline, "BLOCK_CHARS", 2048)
        sizes = []
        resize = pipeline._resize

        def spy(columns, size):
            sizes.append(size)
            resize(columns, size)

        monkeypatch.setattr(pipeline, "_resize", spy)
        long_id = ("A" if long_first else "Z") * 300
        flights = [flight_rows(long_id, 63)] + [flight_rows(f"F{k:02d}", 100) for k in range(30)]
        if not long_first:
            flights = flights[1:] + flights[:1]
        rows = [row for flight in flights for row in flight]
        got = assert_ingest_matches_reference(csv_file(tmp_path, [HEADER] + rows), caplog)
        assert sum(t.n_blips for t in got) == len(rows) == sizes[-1] and sorts == []
        if long_first:
            assert sizes[0] < len(rows) and len(sizes) > 2
        else:
            assert sizes[0] > len(rows) and len(sizes) == 2


class TestWriteColumns:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_write(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        ids = [f"F{i}" for i in rng.integers(0, 5, n)]
        columns = (
            ids,
            random_float_column(rng, n),
            random_float_column(rng, n).astype(np.float32),
            rng.integers(-2**62, 2**62, n) // 10 ** rng.integers(0, 19, n),
            ["25000.0", "32500.0"] * (n // 2) + ["x"] * (n % 2),
            random_float_column(rng, n)[::-1],   # a strided view
        )
        header = "id,a,b,c,d,e"
        write_columns(tmp_path / "new.csv", header, *columns)
        reference_write(tmp_path / "old.csv", header, *columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_signed_zero_and_nan_payloads_keep_their_text(self, tmp_path):
        write_columns(tmp_path / "z.csv", "v", AWKWARD)
        reference_write(tmp_path / "r.csv", "v", AWKWARD)
        text = (tmp_path / "z.csv").read_text()
        assert text == (tmp_path / "r.csv").read_text()
        assert text.splitlines()[1:3] == ["0.0", "-0.0"]
        assert "1e+16" in text and "0.0001" in text and "5e-324" in text

    def test_zero_rows_write_only_the_header(self, tmp_path):
        write_columns(tmp_path / "e.csv", "a,b", [], np.empty(0))
        reference_write(tmp_path / "r.csv", "a,b", [], np.empty(0))
        assert (tmp_path / "e.csv").read_bytes() == b"a,b\n" == (tmp_path / "r.csv").read_bytes()
        write_trajectories_csv([], tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == HEADER + "\n"

    def test_trajectories_csv_peak_memory_is_one_group_of_flights(self, tmp_path):
        # flights are written a group of about BLOCK_LINES rows at a time:
        # the traced peak is one group's texts, about 24 B/row here; the
        # whole file's text columns at once take about 82
        k = np.arange(1000.0)
        trajectories = [Trajectory(f"F{i:04d}", "NBJT", k * 6.0, 15000.0 + k * 25.0)
                        for i in range(8 * pipeline.BLOCK_LINES // 1000)]
        n = 1000 * len(trajectories)
        tracemalloc.start()
        try:
            write_trajectories_csv(trajectories, tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 40.0, f"{peak / n:.0f} B/row"

    def test_header_and_lengths_must_match(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "x.csv", "a,b", np.zeros(2))
        with pytest.raises(ValueError):
            write_columns(tmp_path / "x.csv", "a,b", np.zeros(2), np.zeros(3))

    def test_trajectories_csv_matches_reference_write(self, tmp_path):
        lines = [HEADER] + ramp_flight("B", 8000, 35000, 1700) + ramp_flight("A", 9000, 34000, 2100)
        trajectories = ingest(csv_file(tmp_path, lines))
        write_trajectories_csv(trajectories, tmp_path / "new.csv")
        rows = [(tr.flight_id, tr.type_code, t, a)
                for tr in sorted(trajectories, key=lambda tr: tr.flight_id)
                for t, a in zip(tr.t_s, tr.alt_ft)]
        reference_write(tmp_path / "old.csv", HEADER, *map(list, zip(*rows)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def kept_rates(flight, kept):
    """The climb rates of the whole flight at the blips ``filter_climbs`` kept."""
    rates = derive_rocd(flight.t_s, flight.alt_ft, np.array([0, flight.n_blips]))
    return rates[np.isin(flight.t_s, kept.t_s)]


def reference_filter_climbs(trajectories):
    """The flight-by-flight filter that the block one replaced."""
    low_ft, high_ft = (fl * 100.0 for fl in INTERVAL_FL)
    kept = []
    for tr in trajectories:
        one_flight = np.array([0, tr.n_blips])
        raw, med = tr.alt_ft, median3(tr.alt_ft, one_flight)
        entered = np.flatnonzero(med >= low_ft)
        if entered.size == 0:
            continue
        enter = int(entered[0])
        top = np.flatnonzero(med[enter:] >= high_ft)
        if med[enter] < high_ft and top.size:
            climbed = not np.any(med[enter:enter + int(top[0])] < low_ft)
        else:
            climbed = (raw.min() >= low_ft - 1e-6 and raw.max() <= high_ft + 1e-6
                       and med[-1] > med[0])
        if not climbed:
            continue
        keep = (raw >= low_ft) & (raw <= high_ft)
        if not keep.all():
            keep &= derive_rocd(tr.t_s, raw, one_flight) >= pipeline.ROCD_MIN_FPM
        if np.count_nonzero(keep) >= MIN_PROFILE_BLIPS:
            kept.append(Trajectory(tr.flight_id, tr.type_code, tr.t_s[keep], raw[keep]))
    return kept


class TestFilterClimbs:
    def make(self, tmp_path, rows, name):
        return ingest(csv_file(tmp_path, [HEADER] + rows, name))

    def test_through_climber_kept(self, tmp_path):
        trajs = self.make(tmp_path, ramp_flight("A", 9000, 35000, 2000), "a.csv")
        kept = filter_climbs(trajs)
        assert len(kept) == 1
        assert np.all(kept[0].alt_ft >= 15000.0)
        assert np.all(kept[0].alt_ft <= 32500.0)
        assert np.all(kept_rates(trajs[0], kept[0]) >= 500.0)

    def test_topping_out_excluded(self, tmp_path):
        rows = ramp_flight("A", 9000, 30000, 2000) + level_rows("A", 30000, 700.0, 300.0)
        trajs = self.make(tmp_path, rows, "b.csv")
        assert filter_climbs(trajs) == []

    def test_level_off_kept_with_blips_dropped(self, tmp_path):
        up1 = ramp_flight("A", 9000, 25000, 2000)
        t_level = 490.0
        level = level_rows("A", 25000, t_level, 200.0)
        up2 = ramp_flight("A", 25000, 35000, 2000, t0=t_level + 210.0)
        trajs = self.make(tmp_path, up1 + level[1:] + up2[1:], "c.csv")
        kept = filter_climbs(trajs)
        assert len(kept) == 1
        # the level blips inside the interval are gone
        assert np.all(kept_rates(trajs[0], kept[0]) >= 500.0)
        assert kept[0].n_blips < trajs[0].n_blips

    def test_flight_inside_the_window_kept_whole(self, tmp_path):
        # a partial pickup, like a flight this filter has cut, has one-sided
        # end rates, so none of its blips is cut by rate, level ones included
        up1 = ramp_flight("A", 16000, 22000, 2000)
        level = level_rows("A", 22000, 190.0, 100.0)
        up2 = ramp_flight("A", 22000, 30000, 2000, t0=300.0)
        trajs = self.make(tmp_path, up1 + level + up2[1:], "w.csv")
        assert np.any(derive_rocd(trajs[0].t_s, trajs[0].alt_ft, np.array([0, trajs[0].n_blips]))
                      < 500.0)
        kept = filter_climbs(trajs)
        assert len(kept) == 1
        assert np.array_equal(kept[0].t_s, trajs[0].t_s)
        assert np.array_equal(kept[0].alt_ft, trajs[0].alt_ft)

    def test_a_run_of_kept_blips_is_a_view_and_a_cut_flight_a_copy(self, tmp_path):
        # A is cut only at the window's ends, so its kept blips are one run
        # of its own arrays; B levels off mid-window, where its rate falls
        # under the floor, so its kept blips are copied
        t_level = 490.0
        rows = (ramp_flight("A", 9000, 35000, 2000) + ramp_flight("B", 9000, 25000, 2000)
                + level_rows("B", 25000, t_level, 200.0)[1:]
                + ramp_flight("B", 25000, 35000, 2000, t0=t_level + 210.0)[1:])
        trajs = self.make(tmp_path, rows, "v.csv")
        kept = filter_climbs(trajs)
        assert_same_trajectories(kept, reference_filter_climbs(trajs))
        assert [k.n_blips < tr.n_blips for k, tr in zip(kept, trajs)] == [True, True]
        for got, flight, view in zip(kept, trajs, (True, False)):
            for field in ("t_s", "alt_ft"):
                assert np.shares_memory(getattr(got, field), getattr(flight, field)) == view

    def test_a_mode_c_fleet_takes_both_paths(self, catalog, tmp_path):
        # 100 ft altitude steps and 30 ft noise, as Mode C radar reports
        # altitude: the rate rule cuts some flights mid-window, which are
        # copied, and keeps one run of the others, which are views
        scenario = FleetScenario(
            types={"NBJT": TypeScenario(count=90, thrust_bias_n=-2500.0,
                                        mode_sds=(9e4, 5e4, 3e4))},
            alt_noise_ft=30.0, quantization_ft=100.0,
        )
        simulate_fleet(catalog, scenario, seed=7, csv_path=tmp_path / "blips.csv",
                       truth_path=tmp_path / "truth.json")
        flights = ingest(tmp_path / "blips.csv")
        kept = filter_climbs(flights)
        assert_same_trajectories(kept, reference_filter_climbs(flights))
        by_id = {tr.flight_id: tr for tr in flights}
        views = [np.shares_memory(k.t_s, by_id[k.flight_id].t_s) for k in kept]
        assert any(views) and not all(views)

    def test_descending_flight_excluded(self, tmp_path):
        trajs = self.make(tmp_path, ramp_flight("A", 35000, 9000, -2000), "d.csv")
        assert filter_climbs(trajs) == []

    def test_idempotent(self, catalog, tmp_path):
        scenario = FleetScenario(
            types={"NBJT": TypeScenario(count=25, mode_sds=(1.0e5, 5e4))},
            alt_noise_ft=30.0, quantization_ft=25.0,
        )
        simulate_fleet(catalog, scenario, seed=9, csv_path=tmp_path / "f.csv",
                       truth_path=tmp_path / "t.json")
        once = filter_climbs(ingest(tmp_path / "f.csv"))
        twice = filter_climbs(once)
        assert len(twice) == len(once)
        for a, b in zip(once, twice):
            assert a.flight_id == b.flight_id
            assert np.array_equal(a.t_s, b.t_s)
            assert np.array_equal(a.alt_ft, b.alt_ft)

    @pytest.mark.parametrize("block_lines", [400, 3000])
    def test_blocks_filter_each_flight_as_it_is_filtered_alone(self, radar_fleet, monkeypatch,
                                                              block_lines):
        monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        assert len(list(flight_blocks(radar_fleet))) >= 3
        together = filter_climbs(radar_fleet)
        assert_same_trajectories(together, [kept for tr in radar_fleet
                                            for kept in filter_climbs([tr])])
        assert_same_trajectories(together, reference_filter_climbs(radar_fleet))
        # climbs are cut, pickups inside the window kept whole, short flights dropped
        by_id = {tr.flight_id: tr for tr in radar_fleet}
        assert any(kept.n_blips < np.count_nonzero((by_id[kept.flight_id].alt_ft >= 15000.0)
                                                   & (by_id[kept.flight_id].alt_ft <= 32500.0))
                   for kept in together)
        pickups = [kept for kept in together if kept.flight_id.endswith("/in")]
        assert pickups and all(kept.n_blips == by_id[kept.flight_id].n_blips for kept in pickups)
        assert not any(kept.flight_id.endswith(("/2a", "/2b", "/3")) for kept in together)

    def test_peak_memory_is_one_block_plus_the_kept_blips(self):
        # the flights are filtered a block of BLOCK_LINES blips at a time,
        # and a flight whose kept blips are one run is a view of its own
        # arrays: the traced peak is one block's arrays, about 10 B per blip
        # here.  A copy of the kept blips took about 15, and the whole fleet
        # in one block about 74
        k = np.arange(1000.0)
        trajectories = [Trajectory(f"F{i:04d}", "NBJT", k * 4.0, 5000.0 + k * (40.0 + i % 7))
                        for i in range(8 * pipeline.BLOCK_LINES // 1000)]
        n = 1000 * len(trajectories)
        tracemalloc.start()
        try:
            kept = filter_climbs(trajectories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == len(trajectories)
        assert peak / n < 12.0, f"{peak / n:.1f} B/blip"

    def test_median3(self):
        x = np.array([1.0, 9.0, 2.0, 3.0])
        assert np.array_equal(median3(x, np.array([0, 4])), np.array([1.0, 2.0, 3.0, 3.0]))

    def test_median3_equals_np_median(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 2, 3, 4, 50, 1000):
            for x in (rng.normal(size=n), rng.integers(-3, 4, size=n) * 25.0):
                want = x.copy()
                if n >= 3:
                    want[1:-1] = np.median(np.vstack([x[:-2], x[1:-1], x[2:]]), axis=0)
                # one flight of n blips; no flight when n is 0
                offsets = np.array([0, n] if n else [0])
                assert median3(x, offsets).tobytes() == want.tobytes()


class TestTrajectory:
    @pytest.mark.parametrize("t_s", [[0.0, math.nan, 12.0], [math.nan, 6.0], [0.0, 6.0, 6.0],
                                     [0.0, 12.0, 6.0]],
                             ids=["nan-inside", "nan-first", "repeated", "backwards"])
    def test_timestamps_not_strictly_increasing_refused(self, t_s):
        with pytest.raises(DomainError, match="flight A: timestamps not strictly increasing"):
            Trajectory("A", "NBJT", t_s, [15000.0 + 100.0 * k for k in range(len(t_s))])


class TestTheWindow:
    def test_filter_profiles_and_coverage_take_the_same_blips(self, nbjt, count_calls):
        # a climb through the window with a blip on each edge and one on the
        # float just outside each: prepare keeps, fit inverts and evaluate
        # scores the same blips, the ones in_window takes
        alt_ft = np.concatenate(([np.nextafter(15000.0, 0.0)], np.arange(15000.0, 32501.0, 500.0),
                                 [np.nextafter(32500.0, np.inf)]))
        flight = Trajectory("F1", "NBJT", np.arange(alt_ft.size) * 15.0, alt_ft)
        (kept,) = filter_climbs([flight])
        assert np.array_equal(kept.alt_ft, alt_ft[1:-1])
        inverted = count_calls(learning, "invert_thrust")
        values, errors = learning.flight_profiles(nbjt, ["F1"], flight.t_s, flight.alt_ft,
                                                  [0, flight.n_blips])
        assert values.shape[0] == 1 and not errors
        assert np.array_equal(inverted[0][3], kept.alt_ft * FT)

        class Band:   # holds every time, and records the altitudes it is read at
            def __init__(self, t):
                self.t, self.read = t, []

            def time_at(self, h):
                self.read.append(h)
                return np.full(h.shape, self.t)

        slow, fast = Band(1e9), Band(-1e9)
        assert evaluation.coverage([flight], slow, fast) == 100.0
        assert np.array_equal(slow.read[0], kept.alt_ft * FT)


class TestSplit:
    def make_trajs(self, n):
        return [
            Trajectory(flight_id=f"F{i:04d}", type_code="NBJT",
                       t_s=np.array([0.0, 10.0]), alt_ft=np.array([10000.0, 10300.0]))
            for i in range(n)
        ]

    def test_exact_counts(self):
        result = split(self.make_trajs(300), seed=1)
        assert len(result.train) == 200
        assert len(result.test) == 100

    def test_deterministic_for_seed(self):
        a = split(self.make_trajs(100), seed=4)
        b = split(self.make_trajs(100), seed=4)
        assert [t.flight_id for t in a.train] == [t.flight_id for t in b.train]

    def test_different_seeds_differ(self):
        a = split(self.make_trajs(100), seed=4)
        b = split(self.make_trajs(100), seed=5)
        assert [t.flight_id for t in a.train] != [t.flight_id for t in b.train]

    def test_partition_properties(self):
        trajs = self.make_trajs(50)
        result = split(trajs, seed=2)
        train_ids = {t.flight_id for t in result.train}
        test_ids = {t.flight_id for t in result.test}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {t.flight_id for t in trajs}

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            split([], seed=0)


class TestSimulateFleet:
    def test_fixed_seed_byte_identical(self, catalog, tmp_path):
        scenario = FleetScenario(
            types={"NBJT": TypeScenario(count=5, mode_sds=(1e5,))},
            alt_noise_ft=20.0,
        )
        for name in ("run1", "run2"):
            (tmp_path / name).mkdir()
            simulate_fleet(catalog, scenario, seed=77,
                           csv_path=tmp_path / name / "blips.csv",
                           truth_path=tmp_path / name / "truth.json")
        assert (tmp_path / "run1/blips.csv").read_bytes() == (tmp_path / "run2/blips.csv").read_bytes()
        assert (tmp_path / "run1/truth.json").read_bytes() == (tmp_path / "run2/truth.json").read_bytes()

    def test_noise_free_recovery_within_half_percent(self, catalog, tmp_path):
        # noise off, quantization off, dense blips: extracted profiles match
        # the drawn ground truth.  The schedule's speed transition is kept
        # just above the fit interval: the finite-difference climb-rate
        # estimator genuinely smears the rate jump there (it shows up as a
        # localized basis mode on the standard schedules), and this test
        # isolates the estimator's accuracy on the smooth region.
        import dataclasses

        from climbgen.atmosphere import SpeedSchedule

        fast = dataclasses.replace(catalog["NBJT"], type_code="FSTJ",
                                   schedule=SpeedSchedule(154.33, 0.84),
                                   c_t1=158000.0)
        test_catalog = {"FSTJ": fast}
        # deviations kept small enough that every flight clears the 500 ft/min
        # blip filter to the top of the interval (otherwise the clamped
        # extrapolation, not the estimator, dominates the comparison)
        scenario = FleetScenario(
            types={"FSTJ": TypeScenario(count=6, thrust_bias_n=-1500.0,
                                        mode_sds=(5e4, 3e4))},
            blip_interval_s=2.0, alt_noise_ft=0.0, quantization_ft=0.0,
        )
        simulate_fleet(test_catalog, scenario, seed=3, csv_path=tmp_path / "b.csv",
                       truth_path=tmp_path / "t.json")
        truth = json.loads((tmp_path / "t.json").read_text())["flights"]
        grid = default_grid()
        span = np.linspace(*map(pipeline.fl_to_m, pipeline.SIMULATED_FL), pipeline.TRUTH_GRID_SIZE)
        modes = truth_modes(span, 2)
        base = pipeline.nominal_thrust(fast, span) - 1500.0
        for tr in filter_climbs(ingest(tmp_path / "b.csv")):
            recovered = profile_from_flight(fast, tr)
            w = np.array(truth[tr.flight_id]["weights"])
            reference = np.interp(grid, span, base + w @ modes)
            rms = np.sqrt(np.mean((recovered.values - reference) ** 2))
            assert rms / np.sqrt(np.mean(reference**2)) < 0.005

    def test_every_climb_brackets_the_modeled_window(self, catalog, tmp_path):
        scenario = FleetScenario(types={"NBJT": TypeScenario(count=3, mode_sds=(1e5,))})
        simulate_fleet(catalog, scenario, seed=2, csv_path=tmp_path / "b.csv",
                       truth_path=tmp_path / "t.json")
        low, high = (fl * 100.0 for fl in pipeline.INTERVAL_FL)
        for tr in ingest(tmp_path / "b.csv"):
            assert tr.alt_ft[0] < low and tr.alt_ft[-1] > high
            assert evaluation.arrival_times(tr) is not None

    def test_zero_variance_spread_below_one_second(self, catalog, tmp_path):
        scenario = FleetScenario(
            types={"NBJT": TypeScenario(count=8, mode_sds=())},
            alt_noise_ft=0.0, quantization_ft=0.0,
        )
        simulate_fleet(catalog, scenario, seed=5, csv_path=tmp_path / "b.csv",
                       truth_path=tmp_path / "t.json")
        times = []
        for tr in ingest(tmp_path / "b.csv"):
            # first crossing time of FL325
            above = np.flatnonzero(tr.alt_ft >= 32500.0)
            i = above[0]
            frac = (32500.0 - tr.alt_ft[i - 1]) / (tr.alt_ft[i] - tr.alt_ft[i - 1])
            times.append(tr.t_s[i - 1] + frac * (tr.t_s[i] - tr.t_s[i - 1]))
        assert np.ptp(times) < 1.0

    def test_infeasible_scenario_errors(self, catalog, tmp_path):
        scenario = FleetScenario(
            types={"NBJT": TypeScenario(count=2, thrust_bias_n=-80000.0)},
        )
        with pytest.raises(ValidationError, match="^NBJT: no feasible thrust draw in"):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")

    def test_infeasible_second_type_leaves_no_blip_file(self, catalog, tmp_path):
        # the first type's blips are written before the second fails
        scenario = FleetScenario(types={"NBJT": TypeScenario(count=2),
                                        "WBJT": TypeScenario(count=2, thrust_bias_n=-1e6)})
        with pytest.raises(ValidationError, match="WBJT: no feasible thrust draw"):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["NBJT", "WBJT"])
    def test_infeasible_type_leaves_no_directory(self, catalog, tmp_path, failing):
        types = {"NBJT": TypeScenario(count=2), "WBJT": TypeScenario(count=2)}
        types[failing] = TypeScenario(count=1, thrust_bias_n=-1e6)
        with pytest.raises(ValidationError, match=f"{failing}: no feasible thrust draw"):
            simulate_fleet(catalog, FleetScenario(types=types), seed=1,
                           csv_path=tmp_path / "out" / "sim" / "b.csv",
                           truth_path=tmp_path / "out" / "sim" / "t.json")
        assert not (tmp_path / "out").exists()

    def test_unknown_type_rejected(self, catalog, tmp_path):
        scenario = FleetScenario(types={"ZZZZ": TypeScenario(count=1)})
        with pytest.raises(ValidationError, match="scenario types missing from the catalog: ZZZZ"):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")


def reference_simulate_type(perf, type_code, scenario, rng, radar, truth, draws=None):
    """The per-flight simulator that the block one replaced: draw weights
    from ``rng``, integrate the climb with ``integrate_climb``, and redraw
    while it is infeasible; then draw the flight's altitude noise from
    ``radar``.  Appends each draw's feasibility to ``draws``."""
    spec = scenario.types[type_code]
    h0, h1 = pipeline.fl_to_m(pipeline.SIMULATED_FL[0]), pipeline.fl_to_m(pipeline.SIMULATED_FL[1])
    grid = np.linspace(h0, h1, pipeline.TRUTH_GRID_SIZE)
    base = pipeline.nominal_thrust(perf, grid) + spec.thrust_bias_n
    modes = truth_modes(grid, len(spec.mode_sds))
    flight_ids, times, alts = [], [], []
    for i in range(spec.count):
        flight_id = f"{type_code}-{i:05d}"
        for attempt in range(pipeline.MAX_REDRAWS + 1):
            weights = pipeline._draw_weights(spec, rng)
            values = base + weights @ modes if weights.size else base.copy()
            try:
                traj = integrate_climb(perf, perf.nominal_mass, ThrustProfile(grid, values),
                                       h0, h1, delta_T=scenario.delta_t_k)
            except InfeasibleClimbError:
                if draws is not None:
                    draws.append(False)
                if attempt == pipeline.MAX_REDRAWS:
                    raise ValidationError(f"{type_code}: no feasible thrust draw in "
                                          f"{pipeline.MAX_REDRAWS} attempts") from None
                continue
            if draws is not None:
                draws.append(True)
            break
        t_blips, alt = reference_radar(traj.t, traj.h, scenario, radar)
        flight_ids += [flight_id] * t_blips.size
        times.append(t_blips)
        alts.append(alt)
        truth[flight_id] = {"type_code": type_code, "thrust_bias_n": spec.thrust_bias_n,
                            "weights": [float(w) for w in weights]}
    return flight_ids, np.concatenate(times), np.concatenate(alts)


def reference_radar(t, h, scenario, radar):
    """The per-flight radar: one climb's blip times from t = 0 at the blip
    interval, and their altitudes (ft) with the climb's own draw of noise
    from ``radar``, then rounded to the altitude step."""
    t_blips = np.arange(0.0, t[-1], scenario.blip_interval_s)
    alt = np.interp(t_blips, t, h) / pipeline.FT
    if scenario.alt_noise_ft > 0.0:
        alt = alt + scenario.alt_noise_ft * radar.standard_normal(alt.size)
    if scenario.quantization_ft > 0.0:
        alt = np.round(alt / scenario.quantization_ft) * scenario.quantization_ft
    return t_blips, alt


def reference_simulate_fleet(catalog, scenario, seed, out):
    """The per-flight simulator's ``blips.csv`` and ``truth.json`` under
    ``out``: ``reference_simulate_type`` for each type in sorted order, from
    the two streams ``simulate_fleet`` makes from ``seed``."""
    rng, radar = streams(seed)
    truth, columns = {}, []
    for code in sorted(scenario.types):
        flight_ids, t_s, alt_ft = reference_simulate_type(catalog[code], code, scenario, rng,
                                                          radar, truth)
        columns.append((flight_ids, [code] * len(flight_ids), t_s, alt_ft))
    ids, codes, t_s, alt_ft = zip(*columns)
    write_columns(out / "blips.csv", HEADER, sum(ids, []), sum(codes, []),
                  np.concatenate(t_s), np.concatenate(alt_ft))
    write_json(out / "truth.json", {"seed": seed, "flights": truth})


def streams(seed):
    """The truth and radar generators ``simulate_fleet`` makes from ``seed``."""
    rng = np.random.default_rng(seed)
    return rng, rng.spawn(1)[0]


def two_stages(perf, type_code, scenario, rng, radar, truth):
    """One type's flight id, time and altitude columns from the truth
    stage's blocks, each sampled by the radar stage, joined."""
    flight_ids, times, alts = [], [], []
    for block_ids, t, h in pipeline._truth_blocks(perf, type_code, scenario, rng, truth):
        counts, t_s, alt_ft = pipeline._radar(t, h, scenario, radar)
        flight_ids += pipeline.repeat_each(block_ids, counts)
        times.append(t_s)
        alts.append(alt_ft)
    return flight_ids, np.concatenate(times), np.concatenate(alts)


def infeasible_fleet(weight_dist="normal", count=150, **fleet):
    """Two types whose draws are infeasible about 30% of the time (NBJT,
    simulated first) and about 25% (CPJT), so redraws fall inside and
    across the blocks of draws of both types, which share one stream."""
    return FleetScenario(types={
        "NBJT": TypeScenario(count=count, thrust_bias_n=-9000.0, mode_sds=(9e4, 5e4, 3e4),
                             weight_dist=weight_dist),
        "CPJT": TypeScenario(count=count // 2, thrust_bias_n=-1600.0,
                             mode_sds=(9e4, 5e4, 3e4), weight_dist=weight_dist),
    }, **fleet)


class TestSimulateMatchesPerFlightReference:
    """``simulate_fleet`` writes the bytes of the per-flight simulator."""

    def simulate(self, catalog, scenario, out, reference):
        if reference:
            reference_simulate_fleet(catalog, scenario, 11, out)
        else:
            simulate_fleet(catalog, scenario, seed=11, csv_path=out / "blips.csv",
                           truth_path=out / "truth.json")
        return [(out / name).read_bytes() for name in ("blips.csv", "truth.json")]

    @pytest.mark.parametrize("scenario", [
        infeasible_fleet("normal"),
        infeasible_fleet("student_t", delta_t_k=-12.0),
        infeasible_fleet("contaminated", quantization_ft=0.0),
        infeasible_fleet("normal", count=40, alt_noise_ft=30.0),
        infeasible_fleet("contaminated", count=40, alt_noise_ft=30.0, delta_t_k=10.0),
        FleetScenario(types={"NBJT": TypeScenario(count=70, thrust_bias_n=-3000.0),
                             "WBJT": TypeScenario(count=70, mode_sds=(1.7e5, 8e4))}),
    ], ids=["normal", "student_t", "contaminated", "noise", "noise_contaminated", "no_modes"])
    def test_blips_and_truth_byte_for_byte(self, catalog, tmp_path, scenario):
        want = self.simulate(catalog, scenario, tmp_path / "reference", True)
        got = self.simulate(catalog, scenario, tmp_path / "block", False)
        assert got == want
        draws = []
        reference_simulate_type(catalog["NBJT"], "NBJT", scenario, *streams(11), {}, draws)
        if scenario.types["NBJT"].mode_sds:
            assert 0.2 < draws.count(False) / len(draws) < 0.45
        else:
            assert all(draws)

    def test_truth_does_not_depend_on_the_radar(self, catalog, tmp_path):
        # the radar settings change the blips but no draw of the truth: the
        # noise comes from the radar stream, and every scenario integrates
        # the same blocks of draws
        truths, blips = set(), set()
        for noise, step, interval in product((0.0, 30.0), (0.0, 25.0, 100.0), (6.0, 12.0)):
            out = tmp_path / f"{noise}-{step}-{interval}"
            scenario = infeasible_fleet(count=40, alt_noise_ft=noise, quantization_ft=step,
                                        blip_interval_s=interval)
            simulate_fleet(catalog, scenario, seed=11, csv_path=out / "blips.csv",
                           truth_path=out / "truth.json")
            truths.add((out / "truth.json").read_bytes())
            blips.add((out / "blips.csv").read_bytes())
        assert len(truths) == 1 and len(blips) == 12

    def test_noise_is_the_radar_streams_draws_in_blip_order(self, catalog, tmp_path):
        # exact altitudes plus 30 ft times the spawned stream's normals, one
        # per blip in file order, give the noisy fleet's altitudes bit for bit
        columns = []
        for noise in (0.0, 30.0):
            scenario = infeasible_fleet(count=40, alt_noise_ft=noise, quantization_ft=0.0)
            simulate_fleet(catalog, scenario, seed=11, csv_path=tmp_path / f"{noise}.csv",
                           truth_path=tmp_path / f"{noise}.json")
            flights = ingest(tmp_path / f"{noise}.csv")
            columns.append([np.concatenate([getattr(tr, f) for tr in flights])
                            for f in ("t_s", "alt_ft")])
        (exact_t, exact_alt), (noisy_t, noisy_alt) = columns
        _, radar = streams(11)
        assert np.array_equal(noisy_t, exact_t)
        assert np.array_equal(noisy_alt, exact_alt + 30.0 * radar.standard_normal(exact_alt.size))

    @pytest.mark.parametrize("alt_noise_ft, quantization_ft", [(0.0, 25.0), (30.0, 100.0)])
    def test_every_scenario_integrates_in_blocks(self, catalog, monkeypatch, count_calls,
                                                 alt_noise_ft, quantization_ft):
        # each block holds as many draws as the flights still missing, at
        # most BLOCK_CLIMBS, whatever the radar settings; the reference's
        # feasibility of each draw replays how many flights each block made
        monkeypatch.setattr(pipeline, "BLOCK_CLIMBS", 8)
        scenario = infeasible_fleet(count=40, alt_noise_ft=alt_noise_ft,
                                    quantization_ft=quantization_ft)
        calls = count_calls(pipeline, "integrate_climb_block")
        got = two_stages(catalog["NBJT"], "NBJT", scenario, *streams(3), {})
        draws = []
        want = reference_simulate_type(catalog["NBJT"], "NBJT", scenario, *streams(3), {}, draws)
        assert got[0] == want[0] and np.array_equal(got[2], want[2])
        assert draws.count(False) > 5
        missing, sizes = 40, [len(args[3]) for args in calls]
        for size in sizes:
            assert size == min(8, missing)
            missing -= draws[:size].count(True)
            del draws[:size]
        assert missing == 0 and draws == [] and sizes[0] == 8

    @pytest.mark.parametrize("seed", range(4))
    def test_redraw_limit_stops_at_the_same_flight(self, catalog, monkeypatch, seed):
        # three infeasible draws in a row are likely somewhere in 150 flights
        monkeypatch.setattr(pipeline, "MAX_REDRAWS", 2)
        scenario = infeasible_fleet()
        outcomes, columns = [], []
        for simulate_type in (reference_simulate_type, two_stages):
            truth = {}
            try:
                columns.append(simulate_type(catalog["NBJT"], "NBJT", scenario, *streams(seed),
                                             truth))
                outcomes.append((None, truth))
            except ValidationError as exc:
                outcomes.append((str(exc), truth))
        assert outcomes[0] == outcomes[1]
        if seed == 0:
            assert outcomes[0][0] == "NBJT: no feasible thrust draw in 2 attempts"
        if len(columns) == 2:
            (want_ids, *want), (got_ids, *got) = columns
            assert got_ids == want_ids
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("alt_noise_ft", [0.0, 30.0])
    def test_blocks_are_whole_flights_of_one_truth_block(self, catalog, monkeypatch,
                                                          alt_noise_ft):
        # each truth block yields the feasible climbs of at most BLOCK_CLIMBS
        # draws, and the radar stage makes each block's blips, so every
        # flight's blips are written in the one block that made its climb
        monkeypatch.setattr(pipeline, "BLOCK_CLIMBS", 8)
        scenario = infeasible_fleet(count=40, alt_noise_ft=alt_noise_ft)
        rng, radar = streams(3)
        blocks = list(pipeline._truth_blocks(catalog["NBJT"], "NBJT", scenario, rng, {}))
        assert len(blocks) > 5
        assert all(1 <= len(ids) == len(t) <= 8 and t.shape[1] == h.size for ids, t, h in blocks)
        assert any(len(ids) < 8 for ids, _, _ in blocks[:-1])   # a block that redrew
        assert sum((ids for ids, _, _ in blocks), []) == [f"NBJT-{k:05d}" for k in range(40)]
        flight_ids, times, alts = [], [], []
        for ids, t, h in blocks:
            counts, t_s, alt_ft = pipeline._radar(t, h, scenario, radar)
            assert len(counts) == len(ids) and min(counts) > 0
            assert sum(counts) == t_s.size == alt_ft.size
            flight_ids += pipeline.repeat_each(ids, counts)
            times.append(t_s)
            alts.append(alt_ft)
        want = reference_simulate_type(catalog["NBJT"], "NBJT", scenario, *streams(3), {})
        assert flight_ids == want[0]
        assert np.array_equal(np.concatenate(times), want[1])
        assert np.array_equal(np.concatenate(alts), want[2])

    def test_radar_stage_on_a_block_is_the_per_flight_radar(self, catalog):
        # a block of draws, some of them infeasible, integrated at once; the
        # radar stage samples its feasible climbs with one draw of noise and
        # one rounding, bit for bit as the per-flight radar samples each
        perf = catalog["NBJT"]
        scenario = infeasible_fleet(alt_noise_ft=30.0, quantization_ft=100.0)
        spec = scenario.types["NBJT"]
        grid = np.linspace(*map(pipeline.fl_to_m, pipeline.SIMULATED_FL),
                           pipeline.TRUTH_GRID_SIZE)
        base = pipeline.nominal_thrust(perf, grid) + spec.thrust_bias_n
        modes = truth_modes(grid, len(spec.mode_sds))
        rng = np.random.default_rng(5)
        values = [base + pipeline._draw_weights(spec, rng) @ modes for _ in range(64)]
        climbs = integrate_climb_block(perf, perf.nominal_mass, grid, values, grid[0], grid[-1])
        assert 5 < np.count_nonzero(~climbs.feasible) < 40
        t = climbs.t[climbs.feasible]
        counts, t_s, alt_ft = pipeline._radar(t, climbs.h, scenario, np.random.default_rng(9))
        radar = np.random.default_rng(9)
        want_t, want_alt = zip(*(reference_radar(row, climbs.h, scenario, radar) for row in t))
        assert counts == [t_blips.size for t_blips in want_t]
        assert np.array_equal(t_s, np.concatenate(want_t))
        assert np.array_equal(alt_ft, np.concatenate(want_alt))
        assert np.all(alt_ft % 100.0 == 0.0)

    def test_peak_memory_does_not_grow_with_the_flights(self, catalog, tmp_path):
        # a type's climbs and blips are held a block of BLOCK_CLIMBS draws
        # at a time, so 4x the flights peak within 1.5x; holding the whole
        # type's columns and their text peaks at about 4x
        def peak(count):
            scenario = FleetScenario(types={"NBJT": TypeScenario(count=count,
                                                                 mode_sds=(9e4, 5e4))})
            tracemalloc.start()
            try:
                simulate_fleet(catalog, scenario, seed=2, csv_path=tmp_path / f"{count}.csv",
                               truth_path=tmp_path / f"{count}.json")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)   # builds the cached climb kernel, which a first run would count
        one, four = peak(300), peak(1200)
        assert four <= 1.5 * one, (one, four)


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        doc = {
            "types": {"NBJT": {"count": 10, "thrust_bias_n": -2000.0,
                               "mode_sds": [1e5, 5e4], "weight_dist": "student_t"}},
            "blip_interval_s": 4.0,
            "alt_noise_ft": 15.0,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        assert scenario.types["NBJT"].count == 10
        assert scenario.types["NBJT"].weight_dist == "student_t"
        assert scenario.blip_interval_s == 4.0
        assert scenario.quantization_ft == 25.0    # default

    def test_left_out_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"types": {"NBJT": {"count": 3}}}))
        assert load_scenario(path) == FleetScenario(types={"NBJT": TypeScenario(count=3)})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="scenario file not found"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ValidationError, match="scenario file .* is not valid JSON"):
            load_scenario(path)

    def test_invalid_field(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"types": {"NBJT": {"count": 0}}}))
        with pytest.raises(ValidationError,
                           match='scenario file .*"count" must be a JSON integer >= 1, got 0'):
            load_scenario(path)
