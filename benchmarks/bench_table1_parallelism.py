"""Table I: application-level parallelism of FHE-based DL inference.

Regenerates the per-layer-type min/max parallelism census for all four
benchmarks together with the FHE operations per parallel unit, and checks
it against the paper's published ranges.
"""

from _harness import ALL_BENCHMARKS, BENCHMARK_LABELS

from repro.analysis import PAPER_TABLE1, format_table, parallelism_census
from repro.models import BENCHMARKS


def build_table1():
    rows = []
    for name in ALL_BENCHMARKS:
        census = parallelism_census(BENCHMARKS[name]())
        for layer, data in sorted(census.items()):
            ops = data["ops"]
            ops_text = (
                f"{ops.total('rotation')}R {ops.total('cmult')}C "
                f"{ops.total('pmult')}P {ops.total('hadd')}H"
                if ops is not None else "-"
            )
            ref = PAPER_TABLE1[name].get(layer)
            rows.append((
                BENCHMARK_LABELS[name], layer,
                f"{data['min']:,} / {data['max']:,}",
                f"{ref[0]:,} / {ref[1]:,}" if ref else "-",
                ops_text,
            ))
    return rows


def test_table1_parallelism(benchmark):
    rows = benchmark.pedantic(build_table1, rounds=1, iterations=1)
    print()
    print(format_table(
        ["Model", "Layer", "Min/Max (ours)", "Min/Max (paper)",
         "Ops per unit"],
        rows,
        title="Table I — application-level parallelism",
    ))
    # Shape checks: the measured maxima track the paper's.
    by_key = {(r[0], r[1]): r[2] for r in rows}
    assert by_key[("ResNet-18", "ConvBN")] == "384 / 1,024"
    assert by_key[("BERT-base", "PCMM")] == "98,304 / 393,216"
    assert by_key[("OPT-6.7B", "PCMM")] == "153,600 / 614,400"
