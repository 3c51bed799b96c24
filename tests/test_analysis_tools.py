"""Unit tests for the analysis package (census + table rendering)."""

from repro.analysis import PAPER_TABLE1, format_table, parallelism_census
from repro.models import ModelGraph, Step, resnet18


class TestParallelismCensus:
    def test_units_and_jobs_accounted(self):
        g = ModelGraph(name="m", display_name="M")
        g.add(Step(kind="convbn", name="c1", procedure="ConvBN", level=5,
                   units=100, output_ciphertexts=4))
        g.add(Step(kind="convbn", name="c2", procedure="ConvBN", level=5,
                   units=300, output_ciphertexts=8))
        g.add(Step(kind="nonlinear", name="r", procedure="ReLU", level=5,
                   jobs=16, degree=9))
        g.add(Step(kind="bootstrap", name="b", procedure="Boot", level=10,
                   jobs=8))
        census = parallelism_census(g)
        assert census["ConvBN"]["min"] == 100
        assert census["ConvBN"]["max"] == 300
        assert census["Non-linear"]["min"] == 16
        # Ciphertext row merges boot jobs and layer outputs.
        assert census["Ciphertext"]["min"] == 4
        assert census["Ciphertext"]["max"] == 8

    def test_ops_attached_from_table1(self):
        census = parallelism_census(resnet18())
        ops = census["ConvBN"]["ops"]
        assert ops.totals() == {"rotation": 8, "pmult": 2, "hadd": 7}

    def test_paper_reference_complete(self):
        for model, rows in PAPER_TABLE1.items():
            for row, (lo, hi) in rows.items():
                assert lo <= hi, (model, row)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["A", "Bee"], [["x", 1.5], ["long", 2.0]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.50" in out
        assert "2.00" in out
        # All data lines share a width.
        assert len(lines[2]) == len(lines[1])

    def test_custom_float_format(self):
        out = format_table(["v"], [[3.14159]], float_fmt="{:.4f}")
        assert "3.1416" in out

    def test_integers_not_float_formatted(self):
        out = format_table(["v"], [[42]])
        assert "42" in out and "42.00" not in out
