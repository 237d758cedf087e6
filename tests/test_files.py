"""The CSV and JSON writers that every output file goes through."""

import ast
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greymatch import files
from greymatch.files import write_csv, write_json
from greymatch.simulate import (MonteCarloReport, Record, ScenarioConfig, SummaryRow,
                                verhulst_truth, write_report_csv, write_summary_csv)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "greymatch"


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestWriteCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("name", "count", "value", "other"),
                  [("a", 3, np.float64(0.1), 2.5), ("b", -1, np.float64(np.nan), np.inf)])
        # numpy 2 would write repr(np.float64(0.1)) as np.float64(0.1)
        assert path.read_bytes() == b"name,count,value,other\na,3,0.1,2.5\nb,-1,nan,inf\n"

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_floats_read_back_bit_for_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, ("i", "x", "x64"), [(i, v, np.float64(v)) for i, v in enumerate(values)])
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert [int(i) for i, _, _ in rows] == list(range(len(values)))
        for (_, x, x64), v in zip(rows, values):
            assert bits(float(x)) == bits(float(x64)) == bits(v)

    def test_report_rows_are_written_as_they_are(self, tmp_path):
        spec, truth = verhulst_truth()
        config = ScenarioConfig("small", spec, truth, T=1.0, h=0.5, noise_level=0.1,
                                replications=2, seed=0, estimators=("grey_twostep",))
        records = (Record("small", "grey_twostep", 0, "a", 1.25, "ok"),
                   Record("small", "grey_twostep", 0, "rmse", np.float64(0.1), "ok"),
                   Record("small", "grey_twostep", 1, "failure", float("nan"), "blow_up"))
        path = tmp_path / "report.csv"
        write_report_csv([MonteCarloReport(config, records[:2]),
                          MonteCarloReport(config, records[2:])], path)
        assert path.read_bytes() == (b"scenario_id,estimator,replication,name,value,status\n"
                                     b"small,grey_twostep,0,a,1.25,ok\n"
                                     b"small,grey_twostep,0,rmse,0.1,ok\n"
                                     b"small,grey_twostep,1,failure,nan,blow_up\n")

    def test_summary_rows_are_written_as_they_are(self, tmp_path):
        row = SummaryRow("small", "integral_matching", "a", 4, 1, -0.5, 0.25, 1.0, 1.5,
                         np.float64(2.0), 1.0, 0.1 + 0.2)
        path = tmp_path / "summary.csv"
        write_summary_csv([row, row._replace(name="eta", failures=0)], path)
        assert path.read_bytes() == (
            b"scenario_id,estimator,name,count,failures,min,q1,median,q3,max,mean,stddev\n"
            b"small,integral_matching,a,4,1,-0.5,0.25,1.0,1.5,2.0,1.0,0.30000000000000004\n"
            b"small,integral_matching,eta,4,0,-0.5,0.25,1.0,1.5,2.0,1.0,0.30000000000000004\n")


class TestWriteJson:
    def test_layout(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"a": [1, 2.5], "b": {"c": None, "d": True}}
        write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    def test_both_writers_fix_encoding_and_line_ends(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(kwargs)
            return open(*args, **kwargs)

        monkeypatch.setattr(files, "open", recording_open, raising=False)
        write_json(tmp_path / "doc.json", {"a": 1})
        write_csv(tmp_path / "out.csv", ("a",), [(1,)])
        assert opened == [{"encoding": "utf-8", "newline": "\n"}] * 2


def test_only_the_writers_open_files_for_writing():
    writers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(isinstance(m, ast.Constant) and set(m.value) & set("wax") for m in modes):
                    writers.append(path.name)
    assert writers == ["files.py", "files.py"]
