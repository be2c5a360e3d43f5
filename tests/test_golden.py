"""Golden CLI output: every pinned command's stdout, checked byte for byte.

``tests/golden/commands.txt`` lists the commands and ``tests/golden/`` holds
each one's recorded stdout; only ``tests/record_golden.py`` writes there.
A mismatch names the first differing JSON path or CSV cell and the largest
absolute and relative move of any number.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import zip_longest
from math import inf

import pytest

from corrspace import measurement
from record_golden import COMMANDS, GOLDEN, ROOT, commands, golden_files, golden_name, run

PINNED = commands()
_MISSING = object()


# ---------------------------------------------------------------------------
# Mismatch report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mismatch:
    """Where two outputs first differ, and how far the numbers moved."""

    where: str
    detail: str
    abs_move: float
    abs_at: str  # "" when no number moved
    rel_move: float
    rel_at: str

    def __str__(self) -> str:
        text = f"first difference at {self.where}: {self.detail}"
        if not self.abs_at:
            return text + "; no number moved"
        return (f"{text}; largest absolute move {self.abs_move:.3g} at {self.abs_at}"
                f", largest relative move {self.rel_move:.3g} at {self.rel_at}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _show(x) -> str:
    return "nothing" if x is _MISSING else repr(x)


def _first_json_difference(want, got, path: str):
    if isinstance(want, dict) and isinstance(got, dict):
        for i, (kw, kg) in enumerate(zip_longest(want, got, fillvalue=_MISSING)):
            if kw != kg:
                key = kg if kw is _MISSING else kw
                return (f"{path}.{key}",
                        f"key {i} is {_show(kg)}, want {_show(kw)}")
            found = _first_json_difference(want[kw], got[kg], f"{path}.{kw}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (w, g) in enumerate(zip_longest(want, got, fillvalue=_MISSING)):
            if w is _MISSING or g is _MISSING:
                return f"{path}[{i}]", f"got {_show(g)}, want {_show(w)}"
            found = _first_json_difference(w, g, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(want) is not type(got) or want != got:
        return path, f"got {got!r}, want {want!r}"
    return None


def _json_numbers(want, got, path: str):
    """(path, want, got) for every number at the same place in both."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want:
            if key in got:
                yield from _json_numbers(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from _json_numbers(w, g, f"{path}[{i}]")
    elif _is_number(want) and _is_number(got):
        yield path, want, got


def _csv_cells(text: str) -> dict[tuple[int, int], tuple[str, str]]:
    """Cells by (line, column), with the column named from the header row."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    return {
        (line, col): (f"line {line}, column {header[col]!r}" if col < len(header)
                      else f"line {line}, column {col + 1}", cell)
        for line, row in enumerate(rows, start=1)
        for col, cell in enumerate(row)
    }


def _csv_difference(want: str, got: str):
    w_cells, g_cells = _csv_cells(want), _csv_cells(got)
    for key in sorted(w_cells.keys() | g_cells.keys()):
        w, g = w_cells.get(key), g_cells.get(key)
        if w is None or g is None or w[1] != g[1]:
            name = (w or g)[0]
            return name, (f"got {g[1] if g else 'nothing'!r}, "
                          f"want {w[1] if w else 'nothing'!r}")
    return None


def _csv_numbers(want: str, got: str):
    g_cells = _csv_cells(got)
    for key, (name, w) in _csv_cells(want).items():
        if key in g_cells:
            try:
                yield name, float(w), float(g_cells[key][1])
            except ValueError:
                pass


def _text_difference(want: str, got: str):
    w_lines, g_lines = want.splitlines(True), got.splitlines(True)
    for line, (w, g) in enumerate(zip_longest(w_lines, g_lines, fillvalue=""), start=1):
        if w != g:
            col = next((i for i, (a, b) in enumerate(zip(w, g)) if a != b),
                       min(len(w), len(g)))
            return f"line {line}, column {col + 1}", f"got {g!r}, want {w!r}"
    return "end of output", "the outputs are equal"


def mismatch_report(want: bytes, got: bytes) -> Mismatch:
    """Compare two outputs as JSON when both parse, else as CSV or as text."""
    w_text, g_text = want.decode("ascii", "replace"), got.decode("ascii", "replace")
    try:
        w_json, g_json = json.loads(w_text), json.loads(g_text)
    except ValueError:
        w_json = g_json = None
    if w_json is not None:
        found = _first_json_difference(w_json, g_json, "$")
        numbers = _json_numbers(w_json, g_json, "$")
    elif not w_text.startswith("{"):
        found = _csv_difference(w_text, g_text)
        numbers = _csv_numbers(w_text, g_text)
    else:
        found, numbers = None, ()
    where, detail = found or _text_difference(w_text, g_text)
    moves = {}
    for at, w, g in numbers:
        if w == g:
            continue
        rel = abs(g - w) / abs(w) if w else inf
        for kind, move in (("abs", abs(g - w)), ("rel", rel)):
            if move > moves.get(kind, (0.0, ""))[0]:
                moves[kind] = (move, at)
    abs_move, abs_at = moves.get("abs", (0.0, ""))
    rel_move, rel_at = moves.get("rel", (0.0, ""))
    return Mismatch(where, detail, abs_move, abs_at, rel_move, rel_at)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", PINNED)
def test_golden_output(command):
    path = golden_files().get(golden_name(command))
    assert path is not None, f"no recorded output for {command!r}"
    want, got = path.read_bytes(), run(command)
    if got != want:
        pytest.fail(f"{command}: {mismatch_report(want, got)}", pytrace=False)


def _is_warmable(command: str) -> bool:
    words = command.split()
    return words[:2] == ["curve", "fig2"] or (
        words[:2] == ["protocol", "compensate"] and "--enumerate" in words)


def _memo_counts() -> tuple[int, int]:
    """Hits and misses of the shared ``basis_B`` bases and stacks together."""
    infos = (measurement._shared_basis_B.cache_info(),
             measurement._shared_basis_B_stack.cache_info())
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


@pytest.mark.parametrize("command", [c for c in PINNED if _is_warmable(c)])
def test_golden_output_when_repeated_from_shared_bases(command):
    want = golden_files()[golden_name(command)].read_bytes()
    measurement._shared_basis_B.cache_clear()
    measurement._shared_basis_B_stack.cache_clear()
    cold = run(command)
    hits, misses = _memo_counts()
    warm = run(command)
    for kind, got in (("cold", cold), ("warm", warm)):
        if got != want:
            pytest.fail(f"{command} ({kind}): {mismatch_report(want, got)}", pytrace=False)
    # the second run builds no basis and no stack: every one comes from the memo
    assert _memo_counts()[1] == misses and _memo_counts()[0] > hits


def test_every_command_has_one_file_and_every_file_a_command():
    names = [golden_name(command) for command in PINNED]
    assert len(set(names)) == len(names), "two commands share a file name"
    files = [path for path in GOLDEN.iterdir() if path != COMMANDS]
    stems = [path.stem for path in files]
    assert len(set(stems)) == len(stems), "two files hold one command's output"
    assert set(stems) - set(names) == set(), "files with no command"
    assert set(names) - set(stems) == set(), "commands with no file"
    assert all(path.suffix in (".json", ".csv") for path in files)


def test_perfbench_digests_are_golden_files():
    # the cli workload checks its outputs against these digests; they must
    # name the same bytes as the registry until it reads the files itself
    digests = json.loads((ROOT / "perfbench" / "cli_digests.json").read_text())
    files = golden_files()
    for command, digest in digests.items():
        assert command in PINNED
        output = files[golden_name(command)].read_bytes()
        assert hashlib.sha256(output).hexdigest() == digest, command


# ---------------------------------------------------------------------------
# The report itself
# ---------------------------------------------------------------------------

def test_report_names_the_moved_json_number():
    want = {"a": 1, "b": {"c": [0.5, 2.0], "d": "x"}, "e": True}
    got = {"a": 1, "b": {"c": [0.5, 2.5], "d": "x"}, "e": True}
    report = mismatch_report(json.dumps(want).encode(), json.dumps(got).encode())
    assert report.where == "$.b.c[1]"
    assert (report.abs_move, report.abs_at) == (0.5, "$.b.c[1]")
    assert (report.rel_move, report.rel_at) == (0.25, "$.b.c[1]")
    assert "$.b.c[1]: got 2.5, want 2.0" in str(report)


def test_report_names_the_moved_csv_cell():
    want = "alpha,p_success\n0,0.75\n1.5,0.5\n3,0.25\n"
    got = "alpha,p_success\n0,0.75\n1.5,0.4\n3,0.25\n"
    report = mismatch_report(want.encode(), got.encode())
    assert report.where == "line 3, column 'p_success'"
    assert report.abs_move == pytest.approx(0.1, abs=1e-15)
    assert report.rel_move == pytest.approx(0.2, abs=1e-15)
    assert report.rel_at == "line 3, column 'p_success'"


@pytest.mark.parametrize("got, where", (
    ('{"b": [1, 2], "a": 1}', "$.a"),            # keys reordered
    ('{"a": 1, "b": [1, 2], "c": "new"}', "$.c"),  # a field added
    ('{"a": 1, "b": [1, 2, 3]}', "$.b[2]"),       # an item added
    ('{"a": 1, "b": [1, 2]}\nmore', "line 2, column 1"),  # text after the JSON
))
def test_report_finds_the_first_difference_when_no_number_moved(got, where):
    report = mismatch_report(b'{"a": 1, "b": [1, 2]}\n', got.encode())
    assert report.where == where
    assert (report.abs_move, report.rel_move, report.abs_at) == (0.0, 0.0, "")
    assert str(report).endswith("no number moved")
