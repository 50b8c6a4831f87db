"""Unit tests: the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Dell PowerEdge M610" in out
    assert "Mellanox M3601Q" in out


def test_table2_small(capsys):
    assert main(["table2", "--nvms", "1"]) == 0
    out = capsys.readouterr().out
    assert "ib->ib" in out and "eth->eth" in out
    assert "29.7" in out  # simulated link-up


def test_fig6_single_point(capsys):
    assert main(["fig6", "--sizes", "2", "--nvms", "1"]) == 0
    out = capsys.readouterr().out
    assert "migration" in out and "2 GB" in out


def test_fig7_class_c(capsys):
    assert main(["fig7", "--bench", "CG", "--npb-class", "C"]) == 0
    out = capsys.readouterr().out
    assert "CG.C" in out and "overhead" in out


def test_fig8_short(capsys):
    assert main(["fig8", "--ppv", "1", "--iterations", "8"]) == 0
    out = capsys.readouterr().out
    assert "phase means" in out
    assert "total migration overhead" in out


def test_fleet_small_drain(capsys, tmp_path):
    trace = tmp_path / "fleet.jsonl"
    assert main([
        "fleet", "--jobs", "2", "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet drain" in out
    assert "makespan" in out
    assert "completed" in out
    assert trace.exists()
    lines = trace.read_text().strip().splitlines()
    assert lines
    import json

    records = [json.loads(line) for line in lines]
    assert any(r["category"] == "fleet" for r in records)


def test_fleet_naive_mode(capsys):
    assert main(["fleet", "--jobs", "2", "--naive"]) == 0
    out = capsys.readouterr().out
    assert "naive (all at once)" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- exit codes and crash drills ----------------------------------------------


def test_demo_clean_run_exits_zero(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "fallback complete" in out


def test_demo_aborted_migration_exits_one(capsys):
    assert main(["demo", "--inject-phase", "attach"]) == 1
    out = capsys.readouterr().out
    assert "fallback ABORTED" in out


def test_demo_crash_without_recover_exits_two(capsys):
    assert main(["demo", "--crash-at", "migration"]) == 2
    out = capsys.readouterr().out
    assert "CONTROLLER CRASHED" in out
    assert "cluster is wedged" in out


def test_demo_crash_with_recover_exits_zero(capsys):
    assert main(["demo", "--crash-at", "migration", "--recover"]) == 0
    out = capsys.readouterr().out
    assert "CONTROLLER CRASHED" in out
    assert "roll-back" in out
    assert "fencing epoch now 2" in out


def test_demo_crash_after_commit_point_rolls_forward(capsys):
    assert main(["demo", "--crash-at", "linkup", "--recover"]) == 0
    out = capsys.readouterr().out
    assert "roll-forward" in out


def test_fleet_inject_fault_flags(capsys):
    assert main([
        "fleet", "--jobs", "2", "--inject-site", "ninja.attach",
        "--inject-nth", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet drain" in out


def test_fleet_crash_drill_exits_zero_when_recovered(capsys, tmp_path):
    trace = tmp_path / "crash.jsonl"
    assert main([
        "fleet", "--jobs", "2", "--crash-at-time", "5",
        "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "controller died" in out
    assert "fencing epoch bumped" in out
    assert "0 VM(s) still parked" in out
    assert trace.exists()


def test_fleet_crash_drill_without_recovery_exits_two(capsys):
    assert main([
        "fleet", "--jobs", "2", "--crash-at-time", "5", "--no-recover",
    ]) == 2
    out = capsys.readouterr().out
    assert "no recovery requested" in out


def test_incident_autonomous_drill(capsys, tmp_path):
    trace = tmp_path / "incident.jsonl"
    assert main([
        "incident", "--jobs", "2", "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "incident drill" in out
    assert "fiber-cut" in out
    assert "lost VMs:  none" in out
    assert "blacklist-links" in out
    assert trace.exists()


def test_incident_cut_flags_reach_the_drill(capsys):
    assert main([
        "incident", "--jobs", "2", "--cut-at", "8", "--heal-after", "60",
    ]) == 0
    assert "fiber cut: WAN dark at t+8s for 60s" in capsys.readouterr().out


def test_incident_baseline_diagnoses_only(capsys):
    assert main(["incident", "--jobs", "2", "--no-autonomous"]) == 0
    out = capsys.readouterr().out
    assert "diagnosis only (baseline)" in out
    assert "fiber-cut" in out
    assert "MTTR=-" in out


def test_incident_crash_drill_resumes(capsys):
    assert main(["incident", "--jobs", "2", "--crash-during-remediation"]) == 0
    out = capsys.readouterr().out
    assert "crash armed mid-remediation: fired" in out
    assert "double-executed steps: none" in out


def test_incident_host_failure_drill(capsys, tmp_path):
    trace = tmp_path / "hostfail.jsonl"
    assert main([
        "incident", "--jobs", "2", "--spares", "1",
        "--checkpoint-period", "20", "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "host-failure drill" in out
    assert "RPO:" in out and "restore RTO" in out
    assert "lost VMs:  none" in out
    assert "restored:  j0" in out
    assert trace.exists()


def test_incident_host_failure_crash_during_restore(capsys):
    assert main([
        "incident", "--jobs", "2", "--spares", "1", "--crash-during-restore",
    ]) == 0
    out = capsys.readouterr().out
    assert "host-failure drill" in out
    assert "crash armed at incident.restore" in out
    assert "lost VMs:  none" in out


@pytest.mark.parametrize("flags", [
    ["--naive"],
    ["--inject-site", "ninja.attach"],
    ["--inject-nth", "2"],
    ["--inject-transient"],
    ["--degrade", "drop@t=1+5"],
    ["--postcopy", "fallback"],
    ["--viability-floor-gbps", "0.5"],
])
def test_fleet_crash_drill_rejects_flags_it_ignores(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "--crash-at-time", "5", *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_fleet_no_recover_needs_crash_at_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "--no-recover"])
    assert exc.value.code == 2
    assert "--no-recover needs --crash-at-time" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--kill-host", "eth01"],
    ["--kill-at", "12"],
    ["--checkpoint-period", "20"],
    ["--crash-during-restore"],
])
def test_incident_host_failure_flags_reject_remediation_crash(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["incident", "--crash-during-remediation", *flags])
    assert exc.value.code == 2
    assert "--crash-during-remediation" in capsys.readouterr().err


def test_demo_postcopy_always_flag(capsys):
    assert main(["demo", "--postcopy", "always"]) == 0
    out = capsys.readouterr().out
    assert "fallback complete" in out
    assert "switchover" in out


def test_demo_degrade_flag(capsys):
    assert main([
        "demo", "--degrade", "loss=0.1@t=2,lat=0.05@t=1+20",
    ]) == 0
    out = capsys.readouterr().out
    assert "armed network chaos" in out
    assert "fallback complete" in out


def test_demo_rejects_bad_degrade_spec():
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        main(["demo", "--degrade", "zap=1@t=0"])


def test_fleet_degraded_path_flags(capsys):
    assert main([
        "fleet", "--jobs", "2", "--postcopy", "fallback",
        "--degrade", "bw=0.5@t=1+10", "--degrade-link", "wan:*",
        "--viability-floor-gbps", "0.01",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet drain" in out
    assert "completed" in out


def test_scale_command(capsys, tmp_path):
    trace = tmp_path / "scale.jsonl"
    assert main([
        "scale", "--vms", "16", "--k", "4", "--vms-per-host", "4",
        "--duration", "60", "--rate", "2", "--seed", "3",
        "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "scale campaign" in out
    assert "incremental solver" in out
    assert "events/s" in out
    assert "solver:" in out
    assert trace.exists()


def test_profile_flag_dumps_stats(capsys, tmp_path):
    import pstats

    prof = tmp_path / "demo.prof"
    assert main(["demo", "--profile", str(prof)]) == 0
    out = capsys.readouterr().out
    assert "wrote cProfile stats" in out
    assert prof.exists()
    # The dump must be loadable and non-trivial.
    stats = pstats.Stats(str(prof))
    assert stats.total_calls > 100
