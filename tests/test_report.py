import dataclasses
import hashlib
import json
import os
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotatlas import report, sweep
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


def test_reader_makes_each_word_a_tuple_as_its_entry_is_parsed(atlas, monkeypatch):
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
    assert all(type(word) is tuple for _, word in parsed.body)


def test_parsed_atlas_shares_each_inner_boundary(atlas, monkeypatch):
    parses = []
    parse = report.parse_rational

    def counted_parse(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(report, "parse_rational", counted_parse)
    text = atlas_to_json(atlas(-9, -10))
    body = atlas_from_json(text).body
    assert len(body) > 100 and len(parses) == len(body) + 1
    assert all(cur.hi is nxt.lo for (cur, _), (nxt, _) in zip(body, body[1:]))
    # a lower edge written otherwise than the previous upper one is parsed anew
    data = json.loads(text)
    data["body"][5]["lo"] = " " + data["body"][5]["lo"]
    body = atlas_from_json(json.dumps(data)).body
    assert body[4][0].hi == body[5][0].lo and body[4][0].hi is not body[5][0].lo
    assert body == atlas(-9, -10).body


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
    return json.dumps(atlas_to_dict(at), indent=2) + "\n"


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
    "field, value", [("interval", "[0,1]"), ("length", 99)], ids=["interval", "length"]
)
def test_json_rejects_an_inconsistent_entry(atlas, field, value):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    data["body"][0][field] = value
    with pytest.raises(ValueError):
        atlas_from_json(json.dumps(data))


# Letters that are not JSON integers.  Read as they are, a string makes
# `verify_atlas` raise TypeError, and floats give an atlas equal to the
# computed one, which verifies and re-emits different bytes.
LETTER_REWRITES = {
    "string": lambda cycle: ["x"] + cycle[1:],
    "floats": lambda cycle: [float(b) for b in cycle],
    "boolean": lambda cycle: [True] + cycle[1:],
}


@pytest.mark.parametrize("kind", sorted(LETTER_REWRITES))
def test_json_rejects_a_non_integer_letter(atlas, kind):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    entry = data["body"][3]
    entry["cycle"] = LETTER_REWRITES[kind](entry["cycle"])
    with pytest.raises(ValueError, match=re.escape(entry["interval"])):
        atlas_from_json(json.dumps(data))


@pytest.mark.parametrize("field", ["a0", "a1"])
@pytest.mark.parametrize("value", [-1.0, "x", True], ids=["float", "string", "boolean"])
def test_json_rejects_a_non_integer_pair(atlas, field, value):
    data = json.loads(atlas_to_json(atlas(-1, -1)))
    data[field] = value
    with pytest.raises(ValueError, match="not a pair of integers"):
        atlas_from_json(json.dumps(data))


def _edit_entry(data, drop=None, **fields):
    entry = data["body"][3]
    entry.update(fields)
    if drop is not None:
        del entry[drop]
    return data


def _without(data, *keys):
    return {k: v for k, v in data.items() if k not in keys}


# Structural faults: each maps the parsed document to the one to write, with
# the field the error must name.  Read without the checks, an object body
# parsed as an empty body, "cycle": 5 and a top-level array raised
# TypeError, a missing field KeyError, and "lo": 1 AttributeError.
STRUCTURE_REWRITES = {
    "top-level-array": (lambda data: [data], "not an object"),
    "object-body": (lambda data: {**data, "body": {}}, "'body'"),
    "integer-cycle": (lambda data: _edit_entry(data, cycle=5), "'cycle'"),
    "no-cycle": (lambda data: _edit_entry(data, drop="cycle"), "'cycle'"),
    "no-tail": (lambda data: _without(data, "tail"), "'tail'"),
    "integer-lo": (lambda data: _edit_entry(data, lo=1), "'lo'"),
    "no-length": (lambda data: _edit_entry(data, drop="length"), "'length'"),
    "no-closure": (lambda data: _edit_entry(data, drop="hi_closed"), "'hi_closed'"),
    "no-pair": (lambda data: _without(data, "a1"), "'a1'"),
    "array-entry": (
        lambda data: {**data, "body": data["body"][:3] + [[]] + data["body"][4:]},
        "body entry 3 ",
    ),
    # The label and the tail kind must be the pair's.  Read without the
    # checks, each of these files parsed as the (-1,-1) atlas.
    "wrong-s": (lambda data: {**data, "s": 7}, "'s'"),
    "string-d": (lambda data: {**data, "d": "x"}, "'d'"),
    "boolean-d": (lambda data: {**data, "d": True}, "'d'"),
    "null-K": (lambda data: {**data, "K": None}, "'K'"),
    "wrong-kind": (lambda data: {**data, "tail": {**data["tail"], "kind": "bogus"}}, "'kind'"),
    "no-s": (lambda data: _without(data, "s"), "'s'"),
    "no-d": (lambda data: _without(data, "d"), "'d'"),
    "no-K": (lambda data: _without(data, "K"), "'K'"),
    "no-kind": (lambda data: {**data, "tail": _without(data["tail"], "kind")}, "'kind'"),
    "bogus-label": (
        lambda data: {
            **data, "s": 7, "d": "x", "K": None, "tail": {**data["tail"], "kind": "bogus"}
        },
        "'s'",
    ),
    "no-label": (
        lambda data: {**_without(data, "s", "d", "K"), "tail": _without(data["tail"], "kind")},
        "'s'",
    ),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURE_REWRITES))
def test_json_rejects_a_structural_fault(atlas, kind):
    rewrite, field = STRUCTURE_REWRITES[kind]
    data = rewrite(json.loads(atlas_to_json(atlas(-1, -1))))
    with pytest.raises(ValueError, match=re.escape(field)):
        atlas_from_json(json.dumps(data))


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
    with pytest.raises(ValueError, match=re.escape(entry["interval"])):
        atlas_from_json(json.dumps(data))


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
            values.update((at.tail.interval.lo, at.body_range.lo))
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
