import dataclasses
import hashlib
import json
import os
import random
import re
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotatlas import compute_atlas, report, sweep
from rotatlas.dynamics import orbit_bounds
from rotatlas.report import (
    atlas_from_json,
    atlas_to_json,
    atlas_table_lines,
    emit_diagram,
    render_endpoint_listing,
    render_tables,
    sweep_summary_csv,
    write_atlas_json,
    write_sweep_csv,
)
from reference import svg_x

# The benchmark's digests of atlas_to_json and emit_diagram, recorded with
# the outputs that every change must reproduce byte for byte; read only.
BENCH_REFERENCE = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "reference.json")


def atlas_to_dict(atlas):
    """Oracle: the JSON schema as a dict, for ``json.dumps(..., indent=2)``."""
    label = atlas.tail.label
    kind = "triangular" if label.d > 0 else ("full" if label.s == 0 else "constant")
    return {
        "a0": atlas.a0,
        "a1": atlas.a1,
        "s": label.s,
        "d": label.d,
        "K": label.K,
        "tail": {
            "lo": str(atlas.tail.interval.lo),
            "hi": str(atlas.tail.interval.hi),
            "kind": kind,
        },
        "body": [
            {
                "interval": str(ival),
                "lo": str(ival.lo),
                "lo_closed": ival.lo_closed,
                "hi": str(ival.hi),
                "hi_closed": ival.hi_closed,
                "cycle": list(word),
                "length": len(word),
            }
            for ival, word in atlas.body
        ],
    }


def test_listings_match_the_reference_tables(atlas, paper_listings):
    assert len(paper_listings) == 24
    for (a0, a1), expected in paper_listings.items():
        assert render_endpoint_listing(atlas(a0, a1)) == expected, (a0, a1)


def test_json_round_trip(atlas):
    for pair in ((-1, -1), (2, 3), (0, 0), (1, 1)):
        at = atlas(*pair)
        assert atlas_from_json(atlas_to_json(at)) == at


def test_reader_packs_each_word_as_its_entry_is_parsed(atlas, monkeypatch):
    # the parse tree never holds the cycle lists of the whole file at once
    seen = []
    freeze = report._freeze_cycle

    def spy(record):
        seen.append(type(record.get("cycle")))
        return freeze(record)

    monkeypatch.setattr(report, "_freeze_cycle", spy)
    at = atlas(-2, -2)
    parsed = atlas_from_json(atlas_to_json(at))
    assert parsed == at
    assert seen.count(list) == len(at.body) and seen.count(type(None)) == 2
    assert all(type(word) is array and word.typecode == "h" for _, word in parsed.body)


def _written(data):
    """``data`` in the writer's layout: the encoder oracle's text."""
    return json.dumps(data, indent=2) + "\n"


def _differs_at(text, line):
    """The reader's message for ``text``, whose first line off the writer's is ``line``."""
    number = text.split("\n").index(line) + 1
    return f"is not the writer's text: line {number} reads {line!r}"


def test_parsed_atlas_shares_each_inner_boundary(atlas, monkeypatch):
    parses = []
    parse = report._rational

    def counted_parse(text, key):
        parses.append(text)
        return parse(text, key)

    monkeypatch.setattr(report, "_rational", counted_parse)
    text = atlas_to_json(atlas(-9, -10))
    body = atlas_from_json(text).body
    assert len(body) > 100 and len(parses) == len(body) + 1
    assert all(cur.hi is nxt.lo for (cur, _), (nxt, _) in zip(body, body[1:]))
    # a value has one text, so a lower edge written otherwise than the
    # previous upper one is refused, not parsed anew
    data = json.loads(text)
    entry = data["body"][5]
    entry["lo"] = " " + entry["lo"]
    message = "body entry 5 of (-9,-10): field 'lo' is not a rational"
    with pytest.raises(ValueError, match=re.escape(message)):
        atlas_from_json(_written(data))


# Endpoint texts the writer never writes, each with the value it spells or
# None.  Read by `Fraction` alone, each one that spells an endpoint of the
# (-1,-1) atlas reads as that atlas, "1_0" and "1e400" as 10 and 10**400,
# and "1e1000000" takes 0.2 s to fail on Python's int-string limit, with an
# error that names no field.  The form check refuses all but the last
# three, which have the writer's form but are not the writer's text of
# their value (1/2, 0, 1): the comparison with the writer's text refuses
# those.
ENDPOINT_SPELLINGS = {
    "decimal": ("0.5", F(1, 2)),
    "leading-space": (" -1/2", F(-1, 2)),
    "plus-sign": ("+1", F(1)),
    "non-ascii-digit": ("\uff11", F(1)),
    "underscore": ("1_0", None),
    "exponent": ("1e400", None),
    "zero-denominator": ("1/0", None),
    "unreduced": ("2/4", F(1, 2)),
    "negative-zero": ("-0", F(0)),
    "unit-denominator": ("1/1", F(1)),
}
WRITER_FORM_SPELLINGS = {"unreduced", "negative-zero", "unit-denominator"}


@pytest.mark.parametrize("field", ["lo", "hi"])
@pytest.mark.parametrize("kind", sorted(ENDPOINT_SPELLINGS))
def test_json_reads_endpoints_only_as_the_writer_writes_them(atlas, field, kind):
    spelling, value = ENDPOINT_SPELLINGS[kind]
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    k = next((k for k, e in enumerate(data["body"]) if e[field] == str(value)), 3)
    data["body"][k][field] = spelling
    text = _written(data)
    if kind in WRITER_FORM_SPELLINGS:
        message = _differs_at(text, f'      "{field}": "{spelling}",')
    else:
        message = f"body entry {k} of (-1,-1): field '{field}' is not a rational"
    with pytest.raises(ValueError, match=re.escape(message)):
        atlas_from_json(text)


def test_json_schema_fields(atlas):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    assert set(data) == {"a0", "a1", "s", "d", "K", "tail", "body"}
    assert data["tail"] == {"lo": "-2", "hi": "-1", "kind": "triangular"}
    entry = data["body"][0]
    assert set(entry) == {"interval", "lo", "lo_closed", "hi", "hi_closed", "cycle", "length"}
    assert entry["interval"] == "[-1]" and entry["length"] == len(entry["cycle"])
    assert json.loads(atlas_to_json(atlas(0, 0)))["tail"]["kind"] == "full"
    assert json.loads(atlas_to_json(atlas(1, 1)))["tail"]["kind"] == "constant"
    assert json.loads(atlas_to_json(atlas(1, 1)))["K"] is None


def _oracle_json(at):
    return _written(atlas_to_dict(at))


def test_json_matches_the_encoder_oracle(atlas):
    pairs = [(a0, a1) for a0 in range(-3, 4) for a1 in range(-3, 4)]
    # tails full, constant (K null) and triangular (K set)
    pairs += [(0, 0), (1, 1), (-4, -4)]
    for pair in pairs:
        at = atlas(*pair)
        assert atlas_to_json(at) == _oracle_json(at), pair


def test_json_of_empty_lists_matches_the_encoder_oracle(atlas):
    at = atlas(-1, -1)
    empty_word = dataclasses.replace(at, body=((at.body[0][0], ()),) + at.body[1:])
    for edited in (empty_word, dataclasses.replace(at, body=())):
        assert atlas_to_json(edited) == _oracle_json(edited)
        assert '[]' in atlas_to_json(edited)


@pytest.mark.parametrize(
    "field, value, line",
    [("interval", "[0,1]", '      "interval": "[0,1]",'), ("length", 99, '      "length": 99')],
    ids=["interval", "length"],
)
def test_json_rejects_an_inconsistent_entry(atlas, field, value, line):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    data["body"][0][field] = value
    text = _written(data)
    with pytest.raises(ValueError, match=re.escape(_differs_at(text, line))):
        atlas_from_json(text)


# Letters that are not JSON integers.  Read as they are, a string makes
# `verify_atlas` raise TypeError, and floats give an atlas equal to the
# computed one, which verifies and re-emits different bytes.  A packed
# word takes ``true`` as 1, which the writer writes as 1: the comparison
# refuses it at its line, and `pack_word` refuses the others.
LETTER_REWRITES = {
    "string": lambda cycle: ["x"] + cycle[1:],
    "floats": lambda cycle: [float(b) for b in cycle],
    "one-float": lambda cycle: cycle[:1] + [1.0] + cycle[2:],
    "boolean": lambda cycle: [True] + cycle[1:],
}
NOT_A_WORD = "body entry 3 of (-1,-1): field 'cycle' is not an array of integers within 64 bits"


@pytest.mark.parametrize("kind", sorted(LETTER_REWRITES))
def test_json_rejects_a_non_integer_letter(atlas, kind):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    entry = data["body"][3]
    entry["cycle"] = LETTER_REWRITES[kind](entry["cycle"])
    text = _written(data)
    message = _differs_at(text, "        true,") if kind == "boolean" else NOT_A_WORD
    with pytest.raises(ValueError, match=re.escape(message)):
        atlas_from_json(text)


def _with_cycle(data, cycle):
    """``data`` with body entry 3's cycle replaced, its length field kept in step."""
    entry = data["body"][3]
    entry["cycle"], entry["length"] = cycle, len(cycle)
    return entry


def test_json_reads_a_wide_letter_into_a_wide_word(atlas):
    marched, _ = orbit_bounds(F(0), False, (40000, 0))
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    _with_cycle(data, list(marched))
    word = atlas_from_json(_written(data)).body[3][1]
    assert word.typecode == "q" and word == marched


@pytest.mark.parametrize("letter", [2**63, -(2**63) - 1, 10**30])
def test_json_rejects_a_letter_outside_64_bits(atlas, letter):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    _with_cycle(data, [-1, -1, letter])
    with pytest.raises(ValueError, match=re.escape(NOT_A_WORD)):
        atlas_from_json(_written(data))


@pytest.mark.parametrize("field", ["a0", "a1"])
@pytest.mark.parametrize("value", [-1.0, "x", True], ids=["float", "string", "boolean"])
def test_json_rejects_a_non_integer_pair(atlas, field, value):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    data[field] = value
    with pytest.raises(ValueError, match="not a pair of integers"):
        atlas_from_json(_written(data))


def _edit_entry(data, drop=None, **fields):
    entry = data["body"][3]
    entry.update(fields)
    if drop is not None:
        del entry[drop]
    return data


def _without(data, *keys):
    return {k: v for k, v in data.items() if k not in keys}


def _line(n, text):
    return f"atlas of (-1,-1) is not the writer's text: line {n} reads {text!r}"


# Structural faults: each maps the parsed document to the one to write, with
# the reader's message.  Read without the checks, an object body parsed as
# an empty body, "cycle": 5 and a top-level array raised TypeError, a
# missing field KeyError, and "lo": 1 AttributeError.  A fault in a field
# the atlas is not built from is refused at the first line that differs
# from the writer's text: the field's own line or, where it is missing, a
# line next to where it belongs.
STRUCTURE_REWRITES = {
    "top-level-array": (
        lambda data: [data], "initial pair 'a0', 'a1' = (None,None) is not a pair of integers"
    ),
    "object-body": (lambda data: {**data, "body": {}}, "atlas of (-1,-1) has no body array"),
    "integer-cycle": (lambda data: _edit_entry(data, cycle=5), NOT_A_WORD),
    "no-cycle": (lambda data: _edit_entry(data, drop="cycle"), NOT_A_WORD),
    "no-tail": (lambda data: _without(data, "tail"), _line(7, '  "body": [')),
    "integer-lo": (
        lambda data: _edit_entry(data, lo=1),
        "body entry 3 of (-1,-1): field 'lo' is not a rational as the writer writes it: 1",
    ),
    "no-length": (lambda data: _edit_entry(data, drop="length"), _line(84, "      ]")),
    "no-closure": (
        lambda data: _edit_entry(data, drop="hi_closed"), _line(73, '      "cycle": [')
    ),
    "no-pair": (
        lambda data: _without(data, "a1"),
        "initial pair 'a0', 'a1' = (-1,None) is not a pair of integers",
    ),
    "array-entry": (
        lambda data: {**data, "body": data["body"][:3] + [[]] + data["body"][4:]},
        "body entry 3 of (-1,-1): not an object",
    ),
    # The label and the tail kind must be the pair's.  Read without the
    # checks, each of these files parsed as the (-1,-1) atlas.
    "wrong-s": (lambda data: {**data, "s": 7}, _line(4, '  "s": 7,')),
    "string-d": (lambda data: {**data, "d": "x"}, _line(5, '  "d": "x",')),
    "boolean-d": (lambda data: {**data, "d": True}, _line(5, '  "d": true,')),
    "null-K": (lambda data: {**data, "K": None}, _line(6, '  "K": null,')),
    "wrong-kind": (
        lambda data: {**data, "tail": {**data["tail"], "kind": "bogus"}},
        _line(10, '    "kind": "bogus"'),
    ),
    "no-s": (lambda data: _without(data, "s"), _line(4, '  "d": 1,')),
    "no-d": (lambda data: _without(data, "d"), _line(5, '  "K": 1,')),
    "no-K": (lambda data: _without(data, "K"), _line(6, '  "tail": {')),
    "no-kind": (
        lambda data: {**data, "tail": _without(data["tail"], "kind")}, _line(9, '    "hi": "-1"')
    ),
    "bogus-label": (
        lambda data: {
            **data, "s": 7, "d": "x", "K": None, "tail": {**data["tail"], "kind": "bogus"}
        },
        _line(4, '  "s": 7,'),
    ),
    "no-label": (
        lambda data: {**_without(data, "s", "d", "K"), "tail": _without(data["tail"], "kind")},
        _line(4, '  "tail": {'),
    ),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURE_REWRITES))
def test_json_rejects_a_structural_fault(atlas, kind):
    rewrite, message = STRUCTURE_REWRITES[kind]
    data = rewrite(json.loads(atlas_to_json(atlas(-1, -1))))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        atlas_from_json(_written(data))


# Closure flags that are not JSON booleans.  Each replaces a proper entry's
# flag of the same truth value, so the entry's interval string still matches:
# read as they are, "yes" is re-emitted as true and 1 verifies.
FLAG_REWRITES = {"string": "yes", "one": 1, "zero": 0, "null": None}


@pytest.mark.parametrize("field", ["lo_closed", "hi_closed"])
@pytest.mark.parametrize("kind", sorted(FLAG_REWRITES))
def test_json_rejects_a_non_boolean_closure_flag(atlas, field, kind):
    value = FLAG_REWRITES[kind]
    data = json.loads(atlas_to_json(atlas(-2, -2)))
    entry = next(e for e in data["body"] if e["lo"] != e["hi"] and e[field] == bool(value))
    entry[field] = value
    text = _written(data)
    line = f'      "{field}": {json.dumps(value)},'
    with pytest.raises(ValueError, match=re.escape(_differs_at(text, line))):
        atlas_from_json(text)


# Texts the writer never writes, each of the (-1,-1) atlas, with the first
# line where each leaves the writer's text.  Each read as that atlas when
# the reader checked fields rather than the text.
OFF_TEXTS = {
    "compact": (lambda text: json.dumps(json.loads(text)), None),
    "reordered-keys": (lambda text: _written(dict(sorted(json.loads(text).items()))), '  "K": 1,'),
    "extra-field": (lambda text: _written({"note": 1, **json.loads(text)}), '  "note": 1,'),
    "extra-entry-field": (
        lambda text: text.replace('"length": 6\n', '"length": 6,\n      "note": 1\n', 1),
        '      "length": 6,',
    ),
    "duplicated-key": (
        lambda text: text.replace('  "s": 0,', '  "s": 5,\n  "s": 0,', 1), '  "s": 5,'
    ),
    "escaped-endpoint": (
        lambda text: text.replace('"lo": "-1",', '"lo": "\\u002d1",', 1),
        '      "lo": "\\u002d1",',
    ),
    "trailing-blank-line": (lambda text: text + "\n", ""),
}


@pytest.mark.parametrize("kind", sorted(OFF_TEXTS))
def test_json_reads_only_the_writers_text(atlas, kind):
    rewrite, line = OFF_TEXTS[kind]
    written = atlas_to_json(atlas(-1, -1))
    text = rewrite(written)
    assert text != written
    # the compact text is one line, shown up to its 80th character
    message = _line(1, text[:80]) if line is None else f"atlas of (-1,-1) {_differs_at(text, line)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        atlas_from_json(text)


MINUS_ONE_TEXT = atlas_to_json(compute_atlas(-1, -1))
# JSON's own characters, then any of the first 256 code points
EDIT_CHARACTERS = st.one_of(
    st.sampled_from('0123456789-/,:[]{}" \t\r\nfnrtu'), st.characters(max_codepoint=255)
)


@settings(max_examples=500)
@given(st.integers(0, len(MINUS_ONE_TEXT) - 1), EDIT_CHARACTERS)
def test_a_one_byte_edit_is_refused_or_read_as_written(at, character):
    # `cli.main` maps only ValueError to exit 2, so no other exception may escape
    edited = MINUS_ONE_TEXT[:at] + character + MINUS_ONE_TEXT[at + 1 :]
    try:
        parsed = atlas_from_json(edited)
    except ValueError:
        return
    assert atlas_to_json(parsed) == edited


def test_reading_wide_letters_leaves_the_letter_memo_bounded(atlas):
    # the comparison formats each of 200,000 distinct 13-digit letters;
    # the memo keeps only the texts of 2-byte letters
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    letters = range(10**12, 10**12 + 200_000)
    _with_cycle(data, list(letters))
    assert atlas_from_json(_written(data)).body[3][1] == array("q", letters)
    assert len(report._LETTER_TEXT) <= 65_536 and 10**12 not in report._LETTER_TEXT


def test_write_atlas_json(tmp_path, atlas):
    path = write_atlas_json(atlas(-1, -1), str(tmp_path))
    assert os.path.basename(path) == "atlas_-1_-1.json"
    with open(path) as fh:
        assert fh.read() == atlas_to_json(atlas(-1, -1))
    assert os.listdir(tmp_path) == ["atlas_-1_-1.json"]


def test_write_atlas_json_streams_the_text(tmp_path, atlas, monkeypatch):
    def whole_text(at):
        raise AssertionError("write_atlas_json built the whole text")

    expected = atlas_to_json(atlas(-2, -2))
    monkeypatch.setattr(report, "atlas_to_json", whole_text)
    path = write_atlas_json(atlas(-2, -2), str(tmp_path))
    with open(path) as fh:
        assert fh.read() == expected


class _FullDisk:
    """A file that takes half of the first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")


def _fail_midway(monkeypatch):
    monkeypatch.setattr(report, "open", lambda *args: _FullDisk(open(*args)), raising=False)


def _fail_on_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(report.os, "replace", replace)


@pytest.mark.parametrize("failure", [_fail_midway, _fail_on_replace], ids=["write", "replace"])
def test_failed_write_keeps_the_previous_file(tmp_path, atlas, monkeypatch, failure):
    old = write_atlas_json(atlas(-1, -1), str(tmp_path))
    with open(old) as fh:
        before = fh.read()
    new = dataclasses.replace(atlas(-1, -1), body=atlas(-1, -1).body[:3])
    failure(monkeypatch)
    with pytest.raises(OSError):
        write_atlas_json(new, str(tmp_path))
    monkeypatch.undo()
    with open(old) as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["atlas_-1_-1.json"]


@pytest.mark.parametrize("failure", [_fail_midway, _fail_on_replace], ids=["write", "replace"])
def test_failed_csv_write_keeps_the_previous_file(tmp_path, monkeypatch, failure):
    rep = sweep(1)
    old = write_sweep_csv(rep, str(tmp_path))
    assert os.path.basename(old) == "sweep_m1.csv"
    failure(monkeypatch)
    with pytest.raises(OSError):
        write_sweep_csv(dataclasses.replace(rep, points=rep.points[:3]), str(tmp_path))
    monkeypatch.undo()
    with open(old) as fh:
        assert fh.read() == sweep_summary_csv(rep)
    assert os.listdir(tmp_path) == ["sweep_m1.csv"]


def test_sweep_summary_csv():
    rep = sweep(1)
    lines = sweep_summary_csv(rep).splitlines()
    assert lines[0] == "m,a0,a1,intervals,singletons,max_len,avg_len"
    assert len(lines) == 10
    assert "1,-1,-1,22,11,38,16.6364" in lines


def test_render_tables_text_and_csv():
    rep = sweep(1)
    text = render_tables(rep)
    assert "(-1,-1)" in text and "22" in text and "[8/5]" in text and "9.8172" in text
    csv_text = render_tables(rep, "csv")
    assert "1,\"(-1,-1)\",22,11" in csv_text or "1,(-1,-1),22,11" in csv_text


def test_render_atlas_table(atlas):
    text = "\n".join(atlas_table_lines(atlas(-1, -1)))
    assert "label s=0 d=1 K=1" in text
    assert "22 intervals, 11 singletons" in text
    assert "[8/5]" in text


def test_diagram_is_deterministic_svg(atlas):
    at = atlas(-1, -1)
    svg = emit_diagram(at)
    assert svg == emit_diagram(at)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    # background + hatch + 11 proper intervals
    assert svg.count("<rect") == 13
    # 11 singleton ticks + 1 hatch pattern stroke
    assert svg.count("<line") == 12


def test_diagram_origin(atlas):
    svg = emit_diagram(atlas(0, 0))
    assert svg.count("<rect") == 2  # background + the single full-width segment


def test_diagram_x_is_the_fraction_formula_on_every_m4_boundary(atlas):
    values = set()
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            at = atlas(a0, a1)
            values.update((at.tail.interval.lo, at.tail.body_range.lo))
            for ival, _ in at.body:
                values.update((ival.lo, ival.hi))
    assert len(values) == 284
    for v in values:
        assert report._x(v) == svg_x(v), v


@given(st.integers(-2 * 10**12, 2 * 10**12), st.integers(1, 10**12))
def test_diagram_x_is_the_fraction_formula_on_random_rationals(n, d):
    v = F(n, d)
    assert report._x(v) == svg_x(v)


def test_diagram_x_is_the_fraction_formula_near_rounding_ties():
    # x = 30 + 210 * (v + 2) lands on a half-hundredth for these v
    rng = random.Random(7)
    for _ in range(2000):
        half = F(2 * rng.randint(0, 84000) + 1, 200)
        v = (half - 30) / 210 - 2 + F(rng.choice((-1, 0, 1)), rng.randint(10**6, 10**15))
        if -2 <= v <= 2:
            assert report._x(v) == svg_x(v), v


def test_word_text_matches_str():
    word = (0, -1, 7, -300, 10**20, -7, 0)
    assert report.word_text(word) == ", ".join(map(str, word))
    assert report.word_text(word, ",\n        ") == ",\n        ".join(map(str, word))
    assert report.word_text(()) == ""


def _reference_pairs():
    with open(BENCH_REFERENCE) as fh:
        pairs = json.load(fh)["pairs"]
    shell3 = [key for key in pairs if max(abs(int(v)) for v in key.split(",")) == 3]
    assert len(shell3) == 24
    return {key: pairs[key] for key in shell3 + ["-9,-10"]}


@pytest.mark.parametrize("key, expected", sorted(_reference_pairs().items()))
def test_json_and_svg_bytes_match_the_benchmark_reference(atlas, key, expected):
    at = atlas(*map(int, key.split(",")))
    assert hashlib.sha256(atlas_to_json(at).encode()).hexdigest() == expected["json"]
    assert hashlib.sha256(emit_diagram(at).encode()).hexdigest() == expected["svg"]
