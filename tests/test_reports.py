import json

import numpy as np
import pytest

from sfrkit import FrequencyTrace, InvalidInputError
from sfrkit.reports import fmt, write_csv, write_json, write_trace_csv


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(-0.9740344404076423) == "-0.97403444"
        assert fmt(397.82941506384293) == "397.829415"
        assert fmt(0.0) == "0"
        assert fmt(2.7755575615628914e-15) == "2.77555756e-15"

    def test_trace_csv_bytes(self, tmp_path):
        trace = FrequencyTrace(dt=0.5, samples=np.array([0.0, -0.123456789123, -0.25]))
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == b"t_s,delta_f_hz\n0,0\n0.5,-0.123456789\n1,-0.25\n"

    def test_csv_writer_deterministic(self, tmp_path):
        rows = [(1.0, 2.0 / 3.0), (0.1 + 0.2, 1e-12)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ("x", "y"), rows)
        write_csv(b, ("x", "y"), rows)
        assert a.read_bytes() == b.read_bytes()

    def test_json_sorted_with_trailing_newline(self, tmp_path):
        path = tmp_path / "o.json"
        write_json(path, {"b": 1.5, "a": None})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": None, "b": 1.5}
        assert text.index('"a"') < text.index('"b"')

    def test_json_rejects_non_finite_without_writing(self, tmp_path):
        path = tmp_path / "o.json"
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                write_json(path, {"delta_f_nadir_hz": value})
            assert not path.exists()

    @pytest.mark.parametrize("bad, message", [
        (float("inf"), "^y at x = 0.5 is inf: "), (float("nan"), "^y at x = 0.5 is nan: "),
        (-float("inf"), "^y at x = 0.5 is -inf: "),
    ])
    def test_csv_rejects_non_finite_without_writing(self, tmp_path, bad, message):
        # a map or figure table is checked as a trace is: nothing is written
        path = tmp_path / "table.csv"
        rows = iter([(0.0, 1.0), (0.5, bad), (1.0, float("nan"))])
        with pytest.raises(InvalidInputError, match=message):
            write_csv(path, ("x", "y"), rows)
        assert not path.exists()

    def test_trace_csv_rejects_non_finite_without_writing(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = FrequencyTrace(dt=0.5, samples=np.array([0.0, -0.25, np.nan, -np.inf]))
        with pytest.raises(InvalidInputError, match=r"^delta_f_hz at t_s = 1\.0 is nan"):
            write_trace_csv(path, trace)
        assert not path.exists()
