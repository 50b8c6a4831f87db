"""Unit tests: report tables and Gantt rendering."""

from repro.analysis.gantt import ninja_gantt, render_spans
from repro.analysis.report import render_table


def test_render_table_alignment():
    text = render_table(["a", "long-header"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    # All rows equally wide.
    assert len({len(l) for l in lines[2:]}) <= 2


def test_render_spans_basic():
    text = render_spans(
        [("row", [("migration", 0.0, 5.0), ("linkup", 5.0, 10.0)])], width=20
    )
    assert "m" in text and "L" in text
    assert "m=migration" in text
    # Migration occupies the left half, linkup the right.
    row_line = [l for l in text.splitlines() if l.startswith("row")][0]
    canvas = row_line.split()[-1]
    assert canvas.index("m") < canvas.index("L")


def test_render_spans_empty():
    assert render_spans([("x", [])]) == "(no spans)"


def test_ninja_gantt_end_to_end():
    from repro.core.plan import MigrationPlan
    from repro.core.ninja import NinjaMigration
    from repro.hardware.cluster import build_agc_cluster
    from repro.testbed import create_job, provision_vms
    from repro.units import GiB
    from tests.conftest import drive

    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")

    def busy(proc, comm):
        for _ in range(100_000):
            yield proc.vm.compute(0.2, nthreads=1)
            yield from comm.barrier()
        return None

    job.launch(busy)
    ninja = NinjaMigration(cluster)
    plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)

    def main(env):
        result = yield from ninja.execute(job, plan)
        return result

    result = drive(cluster.env, main(cluster.env))
    chart = ninja_gantt(result)
    assert "sequence" in chart
    assert "vm1" in chart and "vm2" in chart
    assert "m=migration" in chart
    # Migration dominates the fallback: most glyphs on the sequence row
    # are 'm'.
    seq_line = [l for l in chart.splitlines() if l.startswith("sequence")][0]
    assert seq_line.count("m") > len(seq_line) * 0.4
