"""The output-identity dump of scripts/dump.py on one small design."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import tracepursuit as tp
import tracepursuit.nulldist as nulldist

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dump.py"


@pytest.fixture(scope="module")
def dump():
    spec = importlib.util.spec_from_file_location("dump", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lines(dump):
    records = dump.all_records(tp, nulldist, sizes=((14, 6, 0.0),), models=("I",), seeds=(7,))
    return [json.dumps(rec) for rec in records]


def test_records_hold_floats_as_hex(lines):
    records = [json.loads(line) for line in lines]
    keys = [rec["key"] for rec in records]
    assert len(keys) == len(set(keys))
    test = next(rec for rec in records if rec["key"] == "I/s7/n14p6r0.0/dr/test/f4")
    assert float.fromhex(test["statistic"]) > 0.0
    assert test["plain"][:2] == [test["statistic"], test["threshold"]]
    htp = next(rec for rec in records if rec["key"] == "I/s7/n14p6r0.0/sir/htp/a5.0")
    assert htp["error"].startswith("ValueError: alpha")


def test_compare_names_the_first_differing_record(dump, lines):
    assert dump.compare(lines, lines) == []
    changed = [json.loads(line) for line in lines]
    rec = next(r for r in changed if r["key"].endswith("/save/ftp"))
    rec["trace"][0] = (float.fromhex(rec["trace"][0]) * (1 + 2**-40)).hex()
    report = dump.compare(lines, [json.dumps(r) for r in changed])
    assert report[0] == f"first differing record: {rec['key']}"
    assert report[1].startswith("  trace: 1 records differ, largest relative difference 9.")
