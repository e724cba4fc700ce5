"""Canonical serialization and rendering of atlases and sweep statistics.

Endpoint listings use ASCII direction marks: ``>r`` means the boundary
rational r belongs to the proper interval on its right, ``<r`` to the one on
its left, and a bare r is a singleton interval (the final boundary 2 is
always bare; it is the open right edge).  JSON, CSV and SVG output is
byte-deterministic for fixed inputs and package version.

The JSON format is decided by the writer alone, `atlas_json_chunks`: the
reader, `atlas_from_json`, accepts exactly the bytes the writer writes for
the atlas it reads, and keeps no field checks of its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from array import array
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .constraints import Word, pack_word
from .intervals import Interval, parse_rational
from .partition import PartitionAtlas, ShellStats, SweepReport


class _LetterText(dict):
    """Letter value -> its decimal text, made on first use and kept if the letter fits 2 bytes.

    The reader formats letters from outside the program, so the memo keeps
    at most the 65,536 texts of 2-byte letters whatever a file holds.
    """

    def __missing__(self, letter: int) -> str:
        text = str(letter)
        if -32768 <= letter < 32768:
            self[letter] = text
        return text


# Formatted once per process rather than once per occurrence.  Words are
# joined from these texts wherever they are printed: the JSON writer,
# `atlas_table_lines` and the command line's words.
_LETTER_TEXT = _LetterText()


def word_text(word: Sequence[int], separator: str = ", ") -> str:
    """The letters of ``word`` as decimal text joined by ``separator``."""
    return separator.join(map(_LETTER_TEXT.__getitem__, word))


def render_endpoint_listing(atlas: PartitionAtlas) -> str:
    """Ascending boundary rationals of the body, each with its direction mark.

    Every boundary point belongs to exactly one entry, which owns its mark;
    boundary points owned by no proper interval (singletons, and the open
    right edge 2) stay bare.
    """
    values: set[Fraction] = set()
    marks: dict[Fraction, str] = {}
    for ival, _ in atlas.body:
        values.update((ival.lo, ival.hi))
        if not ival.is_singleton:
            if ival.lo_closed:
                marks[ival.lo] = ">"
            if ival.hi_closed:
                marks[ival.hi] = "<"
    return " ".join(f"{marks.get(v, '')}{v}" for v in sorted(values))


def atlas_table_lines(atlas: PartitionAtlas) -> Iterator[str]:
    """Human-oriented per-entry view of one atlas, line by line, without newlines."""
    yield f"initial pair ({atlas.a0},{atlas.a1})  label {atlas.tail.label}"
    yield f"tail {atlas.tail.interval}"
    yield (
        f"body {atlas.tail.body_range}: {atlas.interval_count} intervals, "
        f"{atlas.singleton_count} singletons"
    )
    yield f"endpoints: {render_endpoint_listing(atlas)}"
    for ival, word in atlas.body:
        yield f"  {str(ival):>22}  len {len(word):>4}  ({word_text(word)})"


def _json_entry(ival: Interval, word: Word) -> str:
    cycle = word_text(word, ",\n        ")
    cycle = f"[\n        {cycle}\n      ]" if word else "[]"
    return (
        "    {\n"
        f'      "interval": "{ival}",\n'
        f'      "lo": "{ival.lo}",\n'
        f'      "lo_closed": {"true" if ival.lo_closed else "false"},\n'
        f'      "hi": "{ival.hi}",\n'
        f'      "hi_closed": {"true" if ival.hi_closed else "false"},\n'
        f'      "cycle": {cycle},\n'
        f'      "length": {len(word)}\n'
        "    }"
    )


def atlas_json_chunks(atlas: PartitionAtlas) -> Iterator[str]:
    """`atlas_to_json`'s text in order: the head, each body entry, the end."""
    tail = atlas.tail
    label = tail.label
    yield (
        "{\n"
        f'  "a0": {atlas.a0},\n'
        f'  "a1": {atlas.a1},\n'
        f'  "s": {label.s},\n'
        f'  "d": {label.d},\n'
        f'  "K": {"null" if label.K is None else label.K},\n'
        '  "tail": {\n'
        f'    "lo": "{tail.interval.lo}",\n'
        f'    "hi": "{tail.interval.hi}",\n'
        f'    "kind": "{tail.kind}"\n'
        "  },\n"
        '  "body": '
    )
    if not atlas.body:
        yield "[]\n}\n"
        return
    separator = "[\n"
    for ival, word in atlas.body:
        yield separator
        yield _json_entry(ival, word)
        separator = ",\n"
    yield "\n  ]\n}\n"


def atlas_to_json(atlas: PartitionAtlas) -> str:
    """The canonical JSON form: what ``json.dumps(..., indent=2)`` writes.

    Formatted directly for the fixed schema, one string per cycle rather
    than one encoder chunk per letter.
    """
    return "".join(atlas_json_chunks(atlas))


def _rational(text, key: str) -> Fraction:
    """The value of an endpoint text in the writer's form (`parse_rational`).

    A text of that form that the writer would not write for its value
    (``"2/4"``, ``"-0"``) is left to the comparison with the writer's text.
    """
    if type(text) is str:
        with contextlib.suppress(ValueError):
            return parse_rational(text)
    raise ValueError(f"field {key!r} is not a rational as the writer writes it: {text!r}")


def _freeze_cycle(record: dict) -> dict:
    """An ``object_hook``: an entry's ``cycle`` list becomes its packed word as the object closes.

    A list that `pack_word` cannot pack (a letter that is no integer, or
    one outside 64 bits) stays a list, which `atlas_from_json` rejects.
    Converting after the whole parse would keep every list alive at once
    and put the words among their freed arrays, where the process's peak
    memory varied by over 10 MB between runs of the same work.
    """
    cycle = record.get("cycle")
    if type(cycle) is list:
        with contextlib.suppress(OverflowError, TypeError):
            record["cycle"] = pack_word(cycle)
    return record


def _first_difference(text: str, chunks: Iterable[str]) -> int:
    """Where ``text`` first departs from the joined ``chunks``, or -1 if it is exactly them."""
    pos = 0
    for chunk in chunks:
        if not text.startswith(chunk, pos):
            return pos + len(os.path.commonprefix([text[pos : pos + len(chunk)], chunk]))
        pos += len(chunk)
    return -1 if pos == len(text) else pos


def atlas_from_json(text: str) -> PartitionAtlas:
    """Rebuild an atlas from its JSON form, which must be exactly the writer's text.

    The atlas is built from the fields that fix it: ``a0``, ``a1``
    (integers, checked before `tail_of` runs) and each entry's ``lo``,
    ``hi`` (rationals in the writer's form, checked before any arithmetic),
    ``lo_closed``, ``hi_closed`` and ``cycle`` (integer letters within 64
    bits).  A text from which no atlas can be built is a ValueError
    naming the pair and the body entry.  Then one rule decides: the text
    must be what `atlas_json_chunks` writes for that atlas, byte for byte,
    compared chunk by chunk, so the label, the tail, each entry's
    ``interval`` and ``length``, the letters' JSON types, the layout, the
    key order and every spelling are checked without a check of their
    own.  Any other text is a ValueError naming the pair, the first line
    that differs and that line as the file has it.

    Each word is packed as its entry is parsed (`_freeze_cycle`), so the
    parse tree holds the letters of one cycle as ints at a time, and
    entries leave the parse tree as they are converted; the tree is gone
    before the comparison.  An entry whose ``lo`` text is the previous
    entry's ``hi`` text reuses that Fraction, so, as in a marched atlas,
    each inner boundary is one object shared by the two intervals that
    meet there.
    """
    data = json.loads(text, object_hook=_freeze_cycle)
    a0, a1 = (data.get("a0"), data.get("a1")) if type(data) is dict else (None, None)
    if type(a0) is not int or type(a1) is not int:
        raise ValueError(f"initial pair 'a0', 'a1' = ({a0!r},{a1!r}) is not a pair of integers")
    entries = data.get("body")
    del data  # the tree is held by `entries` alone, which empties as it is read
    if type(entries) is not list:
        raise ValueError(f"atlas of ({a0},{a1}) has no body array")
    entries.reverse()  # popped from the end, so in file order
    body = []
    try:
        while entries:
            entry = entries.pop()
            if type(entry) is not dict:
                raise ValueError("not an object")
            lo_text = entry.get("lo")
            lo = hi if body and lo_text == hi_text else _rational(lo_text, "lo")
            hi_text = entry.get("hi")
            hi = _rational(hi_text, "hi")
            word = entry.get("cycle")
            if type(word) is not array:  # left unpacked by `_freeze_cycle`
                raise ValueError("field 'cycle' is not an array of integers within 64 bits")
            body.append((Interval(lo, hi, entry.get("lo_closed"), entry.get("hi_closed")), word))
    except ValueError as exc:
        raise ValueError(f"body entry {len(body)} of ({a0},{a1}): {exc}") from None
    atlas = PartitionAtlas(a0, a1, tuple(body))
    pos = _first_difference(text, atlas_json_chunks(atlas))
    if pos < 0:
        return atlas
    start = text.rfind("\n", 0, pos) + 1
    line = text[start : start + 80].partition("\n")[0]
    number = text.count("\n", 0, start) + 1
    raise ValueError(
        f"atlas of ({a0},{a1}) is not the writer's text: line {number} reads {line!r}"
    )


def _write_atomically(path: str, chunks: Iterable[str]) -> str:
    """Write the text ``chunks`` to ``path`` atomically; return the path.

    The chunks are streamed into a temporary file in the same directory
    (created if missing), which then replaces the target: a reader sees the
    old file or the new one, never a part, and a failed write leaves the
    old file and no temporary behind.
    """
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path


def write_atlas_json(atlas: PartitionAtlas, out_dir: str) -> str:
    """Write ``atlas_A0_A1.json`` under ``out_dir`` atomically; return its path.

    The text is streamed entry by entry, never built whole.
    """
    path = os.path.join(out_dir, f"atlas_{atlas.a0}_{atlas.a1}.json")
    return _write_atomically(path, atlas_json_chunks(atlas))


def _format_avg(value: Fraction) -> str:
    return f"{float(value):.6g}"


def sweep_summary_csv(report: SweepReport) -> str:
    """Per-point sweep summary: m, a0, a1, intervals, singletons, max_len, avg_len."""
    rows = [["m", "a0", "a1", "intervals", "singletons", "max_len", "avg_len"]]
    rows += (
        [p.shell, p.a0, p.a1, p.intervals, p.singletons, p.max_len, _format_avg(p.avg_len)]
        for p in report.points
    )
    return _csv_text(rows)


def write_sweep_csv(report: SweepReport, out_dir: str) -> str:
    """Write `sweep_summary_csv` to ``sweep_mM.csv`` under ``out_dir`` atomically."""
    path = os.path.join(out_dir, f"sweep_m{report.max_m}.csv")
    return _write_atomically(path, [sweep_summary_csv(report)])


def _table_rows_cardinality(shells: Iterable[ShellStats]) -> list[list[str]]:
    rows = [["m", "max at (a0,a1)", "intervals", "singletons"]]
    for s in shells:
        rows.append(
            [
                str(s.m),
                f"({s.card_point[0]},{s.card_point[1]})",
                str(s.cardinality),
                str(s.singletons),
            ]
        )
    return rows


def _table_rows_length(shells: Iterable[ShellStats]) -> list[list[str]]:
    rows = [
        ["m", "max at (a0,a1)", "interval", "max length", "avg (all atlases)", "avg (max point)"]
    ]
    for s in shells:
        rows.append(
            [
                str(s.m),
                f"({s.len_point[0]},{s.len_point[1]})",
                s.max_len_interval,
                str(s.max_len),
                _format_avg(s.avg_len_pooled),
                _format_avg(s.avg_len_at_max_point),
            ]
        )
    return rows


def _align(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    )


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def render_tables(report: SweepReport, fmt: str = "table") -> str:
    """The two sweep statistics tables, as aligned text or CSV."""
    shells = report.shells()
    card = _table_rows_cardinality(shells)
    length = _table_rows_length(shells)
    if fmt == "csv":
        return _csv_text(card) + "\n" + _csv_text(length)
    return (
        "partition cardinality per shell\n"
        + _align(card)
        + "\n\ncycle length per shell\n"
        + _align(length)
        + "\n"
    )


# --- diagram -----------------------------------------------------------------

_SVG_WIDTH = 900
_SVG_HEIGHT = 120
_MARGIN = 30
_BAR_Y = 40
_BAR_H = 28


def _x(value: Fraction) -> float:
    # (value + 2)/4 in integers: int / int rounds correctly, as float(Fraction) does
    n, d = value.numerator, value.denominator
    return round(_MARGIN + ((n + 2 * d) / (4 * d)) * (_SVG_WIDTH - 2 * _MARGIN), 2)


def _color(length: int, max_length: int) -> str:
    # Hue runs blue (short cycles) to red (long); rendered edge only.
    ratio = math.log(length) / math.log(max_length) if max_length > 1 else 0.0
    hue = round(240 * (1 - ratio))
    return f"hsl({hue},70%,50%)"


def emit_diagram(atlas: PartitionAtlas) -> str:
    """A deterministic SVG number line of the atlas.

    Proper intervals are colored segments (color keyed to cycle length),
    singletons are tick marks, and the tail is a hatched region.  Geometry is
    computed from exact rationals; rounding happens only at rendering.
    """
    max_len = max(len(word) for _, word in atlas.body)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        "<defs>"
        '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#888" stroke-width="1.5"/>'
        "</pattern></defs>",
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN}" y="20" font-size="13" font-family="monospace">'
        f"initial pair ({atlas.a0},{atlas.a1})</text>",
    ]
    # hatch the tail region left of the body; none when the tail is everything
    tail = atlas.tail
    if tail.kind != "full":
        x0, x1 = _x(tail.interval.lo), _x(tail.interval.hi)
        parts.append(
            f'<rect x="{x0}" y="{_BAR_Y}" width="{round(x1 - x0, 2)}" '
            f'height="{_BAR_H}" fill="url(#hatch)"/>'
        )
    for ival, word in atlas.body:
        if ival.is_singleton:
            x = _x(ival.lo)
            parts.append(
                f'<line x1="{x}" y1="{_BAR_Y - 6}" x2="{x}" y2="{_BAR_Y + _BAR_H + 6}" '
                f'stroke="black" stroke-width="1"/>'
            )
        else:
            x0, x1 = _x(ival.lo), _x(ival.hi)
            parts.append(
                f'<rect x="{x0}" y="{_BAR_Y}" width="{round(x1 - x0, 2)}" '
                f'height="{_BAR_H}" fill="{_color(len(word), max_len)}"/>'
            )
    axis_y = _BAR_Y + _BAR_H + 24
    for v in (-2, -1, 0, 1, 2):
        x = _x(Fraction(v))
        parts.append(
            f'<text x="{x}" y="{axis_y}" font-size="12" font-family="monospace" '
            f'text-anchor="middle">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
