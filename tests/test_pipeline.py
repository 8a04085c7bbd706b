"""Ingestion, climb filtering, splitting, and fleet simulation tests."""

import json
import logging
import math
import re
import tracemalloc
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest

from climbgen import evaluation, pipeline
from climbgen.dynamics import integrate_climb
from climbgen.errors import DataError, DomainError, InfeasibleClimbError, ScenarioError
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
    dialect write_columns writes: each line split on its commas, a line
    with a quote malformed, and one validated blip per row, grouped in a
    dict.  Returns the trajectories and the warnings it logged, in order."""
    path = Path(csv_path)
    lines = path.read_text(encoding="utf-8").splitlines()
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


# number texts at the edges of ingest's decimal fast path, ``-?D+.D+`` of at
# most 16 digits whose digits read as an integer are at most 2**53 ...
FAST_TEXTS = ["-0.0", "0.0", "007.50", "900719925474099.2", "-900719925474099.2",
              "1234567890.123456", "0.333333333333333", "0.0001", "25000.0", "6.0"]
# ... and texts that only float() reads: 17 digits, 2**53 + 1, 16 digits
# above 2**53, 22 and 23 fraction digits, and no -?D+.D+ form
SLOW_TEXTS = ["1234567890.1234567", "0.3333333333333333", "900719925474099.3", "9999999999.999999",
              "0.0000000000000000000001", "0.00000000000000000000001", "1.", ".5", "-.5",
              "+1.5", "1_0.5", " 1.5", "1.5 ", "1e-05", "١.٥", "nan", "-inf", "1", "-",
              "1.2.3", "--1.5", "1-.5", "abc", ""]


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


# text that no field of the one dialect holds (a comma, quotes, every line
# separator of str.splitlines) and text that any field may hold (multibyte
# characters, spaces and controls that separate no lines)
BENIGN = ["é", "✈", "𝔉", " ", "  ", "\t", "\x1f", "\x00"]
HOSTILE = [",", '"', '""', '"Q', 'Q"', "\r\n", "\r", "\n", "\v", "\f", "\x1c", "\x1d",
           "\x1e", "\x85", "\u2028", "\u2029"] + BENIGN


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
    and agree well past any width the parser compares in place, with the
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
        assert derive_rocd(traj.t_s, traj.alt_ft)[1:-1] == pytest.approx(2000.0, abs=1.0)

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

    @pytest.mark.parametrize("block_lines", [None, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_ingest(self, tmp_path, caplog, monkeypatch, seed, block_lines):
        if block_lines:
            monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        path = random_blip_file(tmp_path, seed, latlon=seed % 2 == 1)
        want, want_warnings = reference_ingest(path)
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            got = ingest(path)
        assert_same_trajectories(got, want)
        assert [r.getMessage() for r in caplog.records] == want_warnings
        assert len(want_warnings) > len(MALFORMED[6 if seed % 2 else 4])

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    def test_every_line_separator_matches_reference_ingest(self, tmp_path, caplog, monkeypatch,
                                                           block_lines):
        # blocks are cut after b"\n" only; every other separator that
        # str.splitlines knows must still split lines inside a block
        monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        separators = cycle(["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                            "\u2028", "\u2029", "\n"])
        rows = []
        for k, flight_id in enumerate(["Fé", "F✈", "F𝔉", "Ωmega"]):
            rows += ramp_flight(flight_id, 15000 + 1000 * k, 20000 + 1000 * k, 2000)[:6]
        rows.insert(7, "F✈,NBJT,abc,1000")
        pieces = [HEADER]
        for i, row in enumerate(rows):
            pieces += [next(separators) * (2 if i % 5 == 0 else 1), row]
        path = tmp_path / "separators.csv"
        path.write_text("".join(pieces), encoding="utf-8", newline="")
        assert not path.read_bytes().endswith(b"\n")
        want, want_warnings = reference_ingest(path)
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            got = ingest(path)
        assert [t.flight_id for t in want] == ["Fé", "F✈", "F𝔉", "Ωmega"]
        assert_same_trajectories(got, want)
        assert [r.getMessage() for r in caplog.records] == want_warnings
        assert len(want_warnings) == 2

    @pytest.mark.parametrize("separator", ["\r", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_one_kind_of_separator_per_block_matches_reference_ingest(self, tmp_path, caplog,
                                                                      monkeypatch, separator):
        # blocks of ASCII rows whose only separator besides "\n" is one
        # kind, multibyte or not, and one malformed row
        monkeypatch.setattr(pipeline, "BLOCK_LINES", 2)
        rows = ramp_flight("A", 15000, 20000, 2000)[:8] + ramp_flight("B", 16000, 21000, 2000)[:8]
        rows[5] = "A,NBJT,abc,1000"
        pairs = [rows[k] + separator + rows[k + 1] for k in range(0, len(rows), 2)]
        path = tmp_path / "blips.csv"
        path.write_bytes(("\n".join([HEADER] + pairs) + "\n").encode())
        got = assert_ingest_matches_reference(path, caplog)
        assert [t.n_blips for t in got] == [7, 8]

    @pytest.mark.parametrize("block_lines", [None, 1, 2])
    def test_a_last_line_without_its_newline(self, tmp_path, caplog, monkeypatch, block_lines):
        # a plain "\n" file whose last line lacks its newline reads as the
        # same file with it: the last line, a valid blip, is kept
        if block_lines:
            monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
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
        assert not any(s in data.decode() for s in ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e"))
        (got, got_warnings), (want, want_warnings) = read[1], read[0]
        assert_same_trajectories(got, want)
        assert got_warnings == want_warnings and len(want_warnings) == 2
        assert got[-1].t_s[-1] == float(rows[-1].split(",")[2])

    @pytest.mark.parametrize("block_lines", [None, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_hostile_ids_survive_write_and_ingest(self, tmp_path, caplog, monkeypatch, seed,
                                                  block_lines):
        # every flight ingest returns has an id and type that write_columns
        # writes back on one line, field for field
        if block_lines:
            monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        with caplog.at_level(logging.WARNING, logger="climbgen.pipeline"):
            first = ingest(hostile_blip_file(tmp_path, seed))
        for text in BENIGN:
            assert any(text in tr.flight_id for tr in first)
            assert any(text in tr.type_code for tr in first)
        write_trajectories_csv(first, tmp_path / "once.csv")
        again = ingest(tmp_path / "once.csv")
        assert_same_trajectories(again, first)
        write_trajectories_csv(again, tmp_path / "twice.csv")
        assert (tmp_path / "twice.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()

    def test_bad_byte_in_a_later_block_gives_its_offset_in_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_LINES", 2)
        lines = [HEADER] + ramp_flight("A", 15000, 20000, 2000)
        data = ("\n".join(lines) + "\n").encode() + b"B,NBJT,0.0,1\xff00\n"
        path = tmp_path / "blips.csv"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        assert whole.value.start == offset and len(lines) > 2 * pipeline.BLOCK_LINES
        with pytest.raises(DataError, match=f"not UTF-8 text: invalid start byte at byte {offset}$"):
            ingest(path)

    @pytest.mark.parametrize("block_lines", [1, 2, 700])
    def test_blocks_are_whole_lines_wherever_a_read_ends(self, tmp_path, monkeypatch,
                                                              block_lines):
        monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        rows = [f"{f},NBJT,{k}.5,1{k}00.0" for k in range(40) for f in ("Fé", "F✈", "F𝔉")]
        data = ("\r\n".join([HEADER] + rows[:50]) + "\r" + "\n".join(rows[50:])).encode()
        path = tmp_path / "blips.csv"
        path.write_bytes(data)
        assert not data.endswith(b"\n")
        lines = re.findall(rb"[^\n]*\n|[^\n]+\Z", data)
        want = [b"".join(lines[i:i + block_lines]) for i in range(0, len(lines), block_lines)]
        for read_bytes in (1, 2, 3, 5, 64, 1 << 20):
            monkeypatch.setattr(pipeline, "READ_BYTES", read_bytes)
            got, rest = [], b""
            with open(path, "rb", buffering=0) as fh:
                while (block := pipeline._next_block(fh, rest))[0]:
                    got.append(block[0])
                    rest = block[1]
                    assert len(rest) < read_bytes
            assert got == want

    @pytest.mark.parametrize("block_lines", [2, 700])
    @pytest.mark.parametrize("read_bytes", [3, 7])
    def test_reads_that_end_inside_a_character_or_a_crlf_pair(self, tmp_path, caplog, monkeypatch,
                                                              block_lines, read_bytes):
        monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
        monkeypatch.setattr(pipeline, "READ_BYTES", read_bytes)
        rows = []
        for k, flight_id in enumerate(["Fé", "F✈", "F𝔉", "Ωmega"]):
            rows += ramp_flight(flight_id, 15000 + 1000 * k, 20000 + 1000 * k, 2000)
        rows.insert(9, "F✈,NBJT,abc,1000")
        path = tmp_path / "crlf.csv"
        path.write_bytes(("\r\n".join([HEADER] + rows) + "\r\n").encode())
        data = path.read_bytes()
        reads = range(read_bytes, len(data), read_bytes)
        assert any(data[end - 1:end + 1] == b"\r\n" for end in reads)
        assert any(data[end] & 0xC0 == 0x80 for end in reads)   # the next read starts mid-character
        got = assert_ingest_matches_reference(path, caplog)
        assert [t.flight_id for t in got] == ["Fé", "F✈", "F𝔉", "Ωmega"]
        assert "line 11:" in caplog.records[0].getMessage()
        # a bad byte still reports its offset in the file
        path.write_bytes(data + "Ω,NBJT,0.0,1".encode() + b"\xff0\r\n")
        offset = len(data) + len("Ω,NBJT,0.0,1".encode())
        with pytest.raises(DataError, match=f"invalid start byte at byte {offset}$"):
            ingest(path)

    def test_peak_memory_is_one_block_plus_the_columns(self, tmp_path):
        # the file's text and line list are never held: the traced peak is
        # the parsed columns plus one block's strings, about 86 B/row here;
        # holding the whole text and its line list as well takes about 234
        n = 8 * pipeline.BLOCK_LINES
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
        assert peak / n < 128.0, f"{peak / n:.0f} B/row"

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

    @pytest.mark.parametrize("block_lines", [None, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_numbers_read_as_float_reads_them(self, tmp_path, caplog, monkeypatch, seed,
                                              block_lines):
        # every number text, read by position or by float(), gives float()'s
        # bits, and a rejected one float()'s message: each text is one
        # flight's time and another's altitude
        if block_lines:
            monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
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

    def test_only_numbers_off_the_fast_path_reach_float(self, tmp_path, monkeypatch):
        texts = FAST_TEXTS + SLOW_TEXTS
        lines = [HEADER] + [row for i, text in enumerate(texts)
                            for row in (f"F{i},NBJT,{text},1000.0", f"F{i},NBJT,-1.0,1000.0")]
        given = []

        class Float(float):   # float, and a record of the texts it is given
            def __new__(cls, text):
                given.append(text)
                return float(text)

        monkeypatch.setattr(pipeline, "float", Float, raising=False)
        ingest(csv_file(tmp_path, lines))
        assert not set(given) & set(FAST_TEXTS)
        assert set(SLOW_TEXTS) <= set(given)

    @pytest.mark.parametrize("block_lines", [None, 2])
    @pytest.mark.parametrize("make_rows", [long_id_rows, run_head_rows])
    def test_id_and_type_runs_match_reference_ingest(self, tmp_path, caplog, monkeypatch,
                                                     make_rows, block_lines):
        if block_lines:
            monkeypatch.setattr(pipeline, "BLOCK_LINES", block_lines)
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
    return derive_rocd(flight.t_s, flight.alt_ft)[np.isin(flight.t_s, kept.t_s)]


def reference_filter_climbs(trajectories):
    """The flight-by-flight filter that the block one replaced."""
    low_ft, high_ft = (fl * 100.0 for fl in INTERVAL_FL)
    kept = []
    for tr in trajectories:
        raw, med = tr.alt_ft, median3(tr.alt_ft)
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
            keep &= derive_rocd(tr.t_s, raw) >= pipeline.ROCD_MIN_FPM
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
        assert np.any(derive_rocd(trajs[0].t_s, trajs[0].alt_ft) < 500.0)
        kept = filter_climbs(trajs)
        assert len(kept) == 1
        assert np.array_equal(kept[0].t_s, trajs[0].t_s)
        assert np.array_equal(kept[0].alt_ft, trajs[0].alt_ft)

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
        # the flights are filtered a block of BLOCK_LINES blips at a time:
        # the traced peak is the kept blips plus one block's arrays, about
        # 15 B per blip here; the whole fleet in one block takes about 74
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
        assert peak / n < 32.0, f"{peak / n:.0f} B/blip"

    def test_median3(self):
        x = np.array([1.0, 9.0, 2.0, 3.0])
        assert np.array_equal(median3(x), np.array([1.0, 2.0, 3.0, 3.0]))

    def test_median3_equals_np_median(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 2, 3, 4, 50, 1000):
            for x in (rng.normal(size=n), rng.integers(-3, 4, size=n) * 25.0):
                want = x.copy()
                if n >= 3:
                    want[1:-1] = np.median(np.vstack([x[:-2], x[1:-1], x[2:]]), axis=0)
                assert median3(x).tobytes() == want.tobytes()


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
        with pytest.raises(ScenarioError):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")

    def test_infeasible_second_type_leaves_no_blip_file(self, catalog, tmp_path):
        # the first type's blips are written before the second fails
        scenario = FleetScenario(types={"NBJT": TypeScenario(count=2),
                                        "WBJT": TypeScenario(count=2, thrust_bias_n=-1e6)})
        with pytest.raises(ScenarioError, match="WBJT: no feasible thrust draw"):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["NBJT", "WBJT"])
    def test_infeasible_type_leaves_no_directory(self, catalog, tmp_path, failing):
        types = {"NBJT": TypeScenario(count=2), "WBJT": TypeScenario(count=2)}
        types[failing] = TypeScenario(count=1, thrust_bias_n=-1e6)
        with pytest.raises(ScenarioError, match=f"{failing}: no feasible thrust draw"):
            simulate_fleet(catalog, FleetScenario(types=types), seed=1,
                           csv_path=tmp_path / "out" / "sim" / "b.csv",
                           truth_path=tmp_path / "out" / "sim" / "t.json")
        assert not (tmp_path / "out").exists()

    def test_unknown_type_rejected(self, catalog, tmp_path):
        scenario = FleetScenario(types={"ZZZZ": TypeScenario(count=1)})
        with pytest.raises(ScenarioError):
            simulate_fleet(catalog, scenario, seed=1, csv_path=tmp_path / "b.csv",
                           truth_path=tmp_path / "t.json")


def reference_simulate_type(perf, type_code, scenario, rng, truth, draws=None):
    """The per-flight simulator that the block one replaced: draw weights,
    integrate the climb with ``integrate_climb``, and redraw while it is
    infeasible.  Appends each draw's feasibility to ``draws``."""
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
                    raise ScenarioError(f"{type_code}: no feasible thrust draw in "
                                        f"{pipeline.MAX_REDRAWS} attempts") from None
                continue
            if draws is not None:
                draws.append(True)
            break
        t_blips = np.arange(0.0, traj.t[-1], scenario.blip_interval_s)
        alt = np.interp(t_blips, traj.t, traj.h) / pipeline.FT
        if scenario.alt_noise_ft > 0.0:
            alt = alt + scenario.alt_noise_ft * rng.standard_normal(alt.size)
        if scenario.quantization_ft > 0.0:
            alt = np.round(alt / scenario.quantization_ft) * scenario.quantization_ft
        flight_ids += [flight_id] * t_blips.size
        times.append(t_blips)
        alts.append(alt)
        truth[flight_id] = {"type_code": type_code, "thrust_bias_n": spec.thrust_bias_n,
                            "weights": [float(w) for w in weights]}
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

    def simulate(self, catalog, scenario, out, monkeypatch, reference):
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(pipeline, "_simulate_type", reference_simulate_type)
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
    def test_blips_and_truth_byte_for_byte(self, catalog, tmp_path, monkeypatch, scenario):
        want = self.simulate(catalog, scenario, tmp_path / "reference", monkeypatch, True)
        got = self.simulate(catalog, scenario, tmp_path / "block", monkeypatch, False)
        assert got == want
        draws = []
        reference_simulate_type(catalog["NBJT"], "NBJT", scenario, np.random.default_rng(11),
                                {}, draws)
        if scenario.types["NBJT"].mode_sds:
            assert 0.2 < draws.count(False) / len(draws) < 0.45
        else:
            assert all(draws)

    @pytest.mark.parametrize("seed", range(4))
    def test_redraw_limit_stops_at_the_same_flight(self, catalog, monkeypatch, seed):
        # three infeasible draws in a row are likely somewhere in 150 flights
        monkeypatch.setattr(pipeline, "MAX_REDRAWS", 2)
        scenario = infeasible_fleet()
        outcomes = []
        for simulate_type in (reference_simulate_type, pipeline._simulate_type):
            truth = {}
            try:
                simulate_type(catalog["NBJT"], "NBJT", scenario, np.random.default_rng(seed),
                              truth)
                outcomes.append((None, truth))
            except ScenarioError as exc:
                outcomes.append((str(exc), truth))
        assert outcomes[0] == outcomes[1]
        if seed == 0:
            assert outcomes[0][0] == "NBJT: no feasible thrust draw in 2 attempts"


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
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_invalid_field(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"types": {"NBJT": {"count": 0}}}))
        with pytest.raises(ScenarioError):
            load_scenario(path)
