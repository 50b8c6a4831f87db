"""Command-line interface: regenerate the paper's experiments.

::

    python -m repro table1
    python -m repro table2 [--nvms 8]
    python -m repro fig6   [--sizes 2,4,8,16] [--nvms 8]
    python -m repro fig7   [--bench BT,CG,FT,LU] [--npb-class C|D]
    python -m repro fig8   [--ppv 1] [--iterations 40]
    python -m repro demo   [--inject-phase PHASE] [--inject-nth N] [--inject-transient]
                           [--crash-at PHASE] [--recover] [--trace-out PATH]
                           [--degrade SPEC] [--degrade-link PATTERN]
                           [--postcopy {off,fallback,always}]
    python -m repro fleet  [--jobs 8] [--vms-per-job 1] [--naive]
                           [--wan-gbps 1.0] [--inject-site SITE] [--inject-nth N]
                           [--inject-transient] [--crash-at-time T] [--no-recover]
                           [--trace-out PATH] [--degrade SPEC]
                           [--degrade-link PATTERN] [--postcopy MODE]
                           [--viability-floor-gbps G]
    python -m repro incident [--jobs 4] [--vms-per-job 1] [--spares 2]
                           [--cut-at 6] [--heal-after 120] [--wan-gbps 1.0]
                           [--no-autonomous] [--crash-during-remediation]
                           [--kill-host H] [--kill-at 12]
                           [--checkpoint-period 20] [--crash-during-restore]
                           [--trace-out PATH]
    python -m repro scale  [--vms 256] [--k 8] [--vms-per-host 4]
                           [--duration 600] [--rate 8] [--rack-local 0.9]
                           [--max-concurrent 128] [--seed 0]
                           [--trace-out PATH]

``demo``, ``fleet``, ``incident``, and ``scale`` also accept
``--profile PATH``: the whole run executes under :mod:`cProfile` and the
pstats dump lands at PATH (inspect with ``python -m pstats PATH``).

Each command prints the paper-vs-simulated comparison the matching
benchmark produces; ``demo`` runs one end-to-end fallback migration with
the phase timeline.  The ``--inject-*`` flags arm the deterministic fault
injector so the demo exercises the transactional abort/rollback (or, with
``--inject-transient``, the retry/backoff) path.  ``--crash-at`` kills the
*controller* (not a component) at a journal boundary; with ``--recover``
the crash is followed by journal replay + reconciliation
(:mod:`repro.recovery`).  Exit status: 0 clean, 1 migration aborted,
2 controller crashed and was not (or could not be) cleanly recovered.

``fleet`` drains a whole IB sub-cluster through the fleet orchestrator
(one migration request per job) and reports makespan, per-wave
concurrency, and admission deferrals; ``--naive`` disables the
bandwidth-aware planner for an all-at-once baseline.  ``--crash-at-time``
runs the crash drill instead: the controller dies T simulated seconds
into the drain, a recovery manager reconciles, and a successor
orchestrator resubmits the orphaned requests; the crash drill takes no
``--naive``/``--inject-*``/``--degrade``/``--postcopy``/
``--viability-floor-gbps``, and ``--no-recover`` needs ``--crash-at-time``
(either mistake exits 2 with a usage error).  ``--trace-out`` dumps the
full simulation trace as JSON Lines.

``incident`` runs the mid-drain fiber-cut drill: the WAN goes dark
``--cut-at`` seconds into a fleet drain and the incident-response stack
(telemetry → detectors → correlator → runbook) must diagnose the cut and
route around it with zero lost VMs.  ``--no-autonomous`` is the
diagnosis-only baseline; ``--crash-during-remediation`` kills the
controller mid-runbook and a successor resumes from the journal.  Exit
status: 0 when no VM was lost and no request failed, 1 otherwise.

Any of ``--kill-host``/``--kill-at``/``--checkpoint-period``/
``--crash-during-restore`` switches ``incident`` to the *host-failure*
drill instead: a fleet checkpoint service snapshots every eligible job
each ``--checkpoint-period`` seconds while a host dies hard and
unannounced mid-drain (``--kill-host`` names the victim; by default the
drill waits for a host whose jobs all hold committed generations).  The
runbook restores the dead VMs from their last committed checkpoint on
leased spare capacity — the summary reports the measured RPO against
the period bound and the restore RTO.  Adding ``--cut-at`` overlaps a
fiber cut with the kill to exercise multi-incident spare arbitration;
``--crash-during-restore`` kills the controller mid-restore and the
successor must converge without double-restoring.  Both drills run
through one runner (:func:`repro.incident.scenario.run_drill`) and print
one summary; ``--crash-during-remediation`` is rejected with any
host-failure flag.

Degraded-path flags (``demo``/``fleet``): ``--degrade`` schedules network
chaos against the links matching ``--degrade-link`` — a comma-separated
list of ``kind[=value]@t=T[+D]`` tokens, e.g.
``--degrade "loss=0.2@t=2,drop@t=5+10"`` (packet loss from t+2, a 10 s
outage at t+5, times relative to the migration trigger).  ``--postcopy``
selects the migration policy: ``off`` is plain precopy, ``fallback``
adds auto-converge throttling with postcopy escalation when precopy
cannot converge, ``always`` switches over immediately.  The fleet's
``--viability-floor-gbps`` defers requests whose path has degraded below
that bottleneck bandwidth until it heals.

``scale`` runs the continuous-arrival campaign: open Poisson traffic
(churn / consolidation / drains) over a k-ary fat-tree for hundreds to
thousands of VMs, reporting simulator throughput (events/s), wall clock
per simulated hour, and flow-solver p50/p99.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.experiments import (
    run_fig6_memtest,
    run_fig7_npb,
    run_fig8_fallback_recovery,
    run_table2_all,
)
from repro.analysis.report import render_table
from repro.hardware.specs import table1_rows
from repro.units import GiB

#: Paper reference values used in comparison printouts.
_PAPER_TABLE2 = {
    "ib->ib": (3.88, 29.91),
    "ib->eth": (2.80, 0.00),
    "eth->ib": (1.15, 29.79),
    "eth->eth": (0.13, 0.00),
}


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table(["item", "value"], table1_rows(), title="Table I — AGC cluster specifications"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = []
    for result in run_table2_all(nvms=args.nvms):
        paper_hot, paper_link = _PAPER_TABLE2[result.scenario]
        rows.append([
            result.scenario,
            f"{paper_hot:.2f}", f"{result.hotplug_s:.2f}",
            f"{paper_link:.2f}", f"{result.linkup_s:.2f}",
        ])
    print(render_table(
        ["scenario", "hotplug paper", "hotplug sim", "linkup paper", "linkup sim"],
        rows, title=f"Table II — hotplug and link-up [s] ({args.nvms} VMs)",
    ))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for gib in sizes:
        breakdown = run_fig6_memtest(gib * GiB, nvms=args.nvms).breakdown
        rows.append([
            f"{gib} GB",
            f"{breakdown.migration_s:.1f}",
            f"{breakdown.hotplug_s:.1f}",
            f"{breakdown.linkup_s:.1f}",
            f"{breakdown.total_s:.1f}",
        ])
    print(render_table(
        ["array", "migration [s]", "hotplug [s]", "linkup [s]", "total [s]"],
        rows, title=f"Figure 6 — memtest Ninja overhead ({args.nvms} VMs)",
    ))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    rows = []
    # Class C jobs are ~16x shorter: trigger the migration early enough
    # to land inside the run (the paper's t+180 s is a class D setting).
    migrate_after = 180.0 if args.npb_class == "D" else 20.0
    for bench in args.bench.split(","):
        result = run_fig7_npb(
            bench.strip().upper(),
            class_name=args.npb_class,
            migrate_after_s=migrate_after,
        )
        b = result.breakdown
        rows.append([
            f"{result.bench}.{result.class_name}",
            f"{result.baseline_s:.1f}",
            f"{result.proposed_s:.1f}",
            f"{result.overhead_s:.1f}",
            f"{b.migration_s:.1f}",
            f"{b.hotplug_s:.1f}",
            f"{b.linkup_s:.1f}",
        ])
    print(render_table(
        ["bench", "baseline [s]", "proposed [s]", "overhead [s]",
         "migration [s]", "hotplug [s]", "linkup [s]"],
        rows, title="Figure 7 — NPB baseline vs proposed (one Ninja migration)",
    ))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    result = run_fig8_fallback_recovery(
        procs_per_vm=args.ppv, iterations=args.iterations
    )
    print(result.series.render())
    print("\nphase means [s/iteration]:")
    for phase, mean in result.series.phase_means().items():
        print(f"  {phase:<16} {mean:7.1f}")
    print(f"total migration overhead: {result.total_overhead_s:.1f} s")
    return 0


def _save_trace(tracer, path: Optional[str]) -> None:
    if path:
        count = tracer.save(path)
        print(f"wrote {count} trace records to {path}")


#: ``--crash-at`` phase → ``controller.crash.*`` site suffix.  The
#: migration phase crashes *mid-precopy* (the orphaned-stream case);
#: other phases crash at their intent boundary.
_CRASH_SITES = {
    "coordination": "coordination.intent",
    "detach": "detach.intent",
    "migration": "migration.inflight",
    "attach": "attach.intent",
    "confirm": "confirm.intent",
    "resume": "resume.intent",
    "linkup": "linkup.intent",
}


def _cmd_demo(args: argparse.Namespace) -> int:
    import repro
    from repro import workloads
    from repro.errors import ControllerCrashError, QmpError
    from repro.units import GB

    cluster = repro.build_agc_cluster(ib_nodes=4, eth_nodes=4)
    env = cluster.env

    chaos = None
    if args.degrade:
        from repro.network.degradation import chaos_from_spec

        chaos = chaos_from_spec(cluster, args.degrade, link_pattern=args.degrade_link)
        print(f"armed network chaos on {args.degrade_link!r}: {args.degrade}")
    if args.inject_phase:
        error = (
            QmpError("GenericError", "injected transient fault")
            if args.inject_transient
            else None  # default: non-transient FaultInjectionError → abort
        )
        cluster.faults.arm(
            f"ninja.{args.inject_phase}", error=error, nth=args.inject_nth
        )
        print(
            f"armed {'transient' if args.inject_transient else 'fatal'} fault "
            f"at ninja.{args.inject_phase} (call #{args.inject_nth})"
        )
    if args.crash_at:
        site = f"controller.crash.{_CRASH_SITES[args.crash_at]}"
        cluster.faults.arm(site, error=ControllerCrashError)
        print(f"armed controller crash at {site}")

    #: Exit code decided inside the experiment (0 ok, 1 aborted, 2 crash
    #: unrecovered).
    outcome = {"code": 0}

    def report_result(result, vms, job):
        if result.aborted:
            outcome["code"] = 1
            print(
                f"fallback ABORTED in {result.failed_phase!r}: {result.error}\n"
                f"  rollback: {' -> '.join(result.rollback_actions) or '(none)'}\n"
                f"  retries:  {result.retries or '(none)'}\n"
                f"  VMs now on: {sorted((q.vm.name, q.node.name) for q in vms)}"
            )
        else:
            print(f"fallback complete: {result.breakdown}")
            if result.retries:
                print(f"  transient faults absorbed by retry: {result.retries}")
            switchovers = cluster.tracer.count("migration", "postcopy_switchover")
            if switchovers:
                pauses = cluster.tracer.count("migration", "postcopy_pause")
                recovers = cluster.tracer.count("migration", "postcopy_recover")
                print(
                    f"  postcopy: {switchovers} switchover(s), "
                    f"{pauses} stream pause(s), {recovers} recover(s)"
                )
            kicks = cluster.tracer.count("migration", "auto_converge")
            if kicks:
                print(f"  auto-converge throttle kicks: {kicks}")
        print(result.timeline.render())

    def experiment():
        from repro.recovery.recovery import RecoveryManager

        vms = repro.provision_vms(cluster, ["ib01", "ib02", "ib03", "ib04"])
        job = repro.create_job(cluster, vms, procs_per_vm=1)
        yield from job.init()
        job.launch(workloads.BcastReduceLoop(iterations=6, bytes_per_node=8 * GB).rank_main)
        yield env.timeout(20.0)
        scheduler = repro.CloudScheduler(cluster)
        if args.postcopy != "off":
            from repro.vmm.policy import MigrationPolicy

            scheduler.ninja.migration_policy = MigrationPolicy.adaptive(
                postcopy=args.postcopy
            )
        if chaos is not None:
            # Chaos clock starts with the migration trigger, so ``t=``
            # offsets in the spec are relative to the drain itself.
            chaos.start()
        try:
            result = yield from scheduler.run_now(
                "demo", scheduler.plan_fallback(vms), job
            )
        except ControllerCrashError as err:
            parked = sum(1 for q in vms if q.vm.hypercall.parked)
            print(f"CONTROLLER CRASHED: {err}")
            print(f"  orphaned state: {parked} VM(s) parked, "
                  f"hosts {sorted(q.node.name for q in vms)}")
            if not args.recover:
                outcome["code"] = 2
                print("  no --recover: guests stay parked, cluster is wedged")
                return
            manager = RecoveryManager(cluster, scheduler.ninja.journal)
            report = yield from manager.recover(reason=f"demo crash at {args.crash_at}")
            for d in report.decisions:
                print(
                    f"  recovery[{d.mid}]: {d.decision} ({d.basis}); "
                    f"actions: {' -> '.join(d.actions) or '(none)'}"
                )
                print(f"    VMs now on: {sorted(d.final_hosts.items())}")
                if d.parked_after:
                    print(f"    STILL PARKED: {d.parked_after}")
            print(f"  fencing epoch now {report.epoch}"
                  f" (stale controller commands are rejected)")
            if not report.clean:
                outcome["code"] = 2
                return
        else:
            report_result(result, vms, job)
        yield env.timeout(5.0)
        print(f"transports: {job.transports_in_use()}")
        yield job.wait()

    env.process(experiment())
    env.run()
    _save_trace(cluster.tracer, args.trace_out)
    return outcome["code"]


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.orchestrator.scenario import run_fleet_scenario
    from repro.sim.trace import Tracer
    from repro.units import gbps

    tracer = Tracer()
    result = run_fleet_scenario(
        jobs=args.jobs,
        vms_per_job=args.vms_per_job,
        sequenced=not args.naive,
        wan_gbps=args.wan_gbps,
        tracer=tracer,
        inject_site=args.inject_site,
        inject_nth=args.inject_nth,
        inject_transient=args.inject_transient,
        degrade_spec=args.degrade,
        degrade_link=args.degrade_link,
        postcopy=args.postcopy,
        viability_floor_Bps=(
            gbps(args.viability_floor_gbps)
            if args.viability_floor_gbps is not None
            else None
        ),
        crash_at_s=args.crash_at_time,
        recover=not args.no_recover,
    )
    if args.crash_at_time is not None:
        code = _print_fleet_crash(result)
    else:
        code = _print_fleet_drain(result, naive=args.naive)
    _save_trace(tracer, args.trace_out)
    return code


def _print_fleet_drain(result, naive: bool) -> int:
    mode = "naive (all at once)" if naive else "sequenced (waves + swaps)"
    print(f"fleet drain — {result.jobs} jobs x {result.vms_per_job} VM(s), {mode}")
    print(f"  makespan:          {result.makespan_s:.1f} s")
    print(f"  wave concurrency:  {result.wave_concurrency}")
    print(f"  destination swaps: {result.destination_swaps}")
    deferred = ", ".join(f"{k}={v}" for k, v in sorted(result.deferred.items()))
    print(f"  deferrals:         {result.deferred_total} ({deferred or 'none'})")
    rows = [
        [
            o["job"], str(o["status"]), str(o["attempts"]),
            "-" if o["duration_s"] is None else f"{o['duration_s']:.1f}",
            " ".join(result.final_hosts[str(o["job"])]),
        ]
        for o in result.outcomes
    ]
    print(render_table(
        ["job", "status", "attempts", "duration [s]", "now on"],
        rows, title="per-job outcomes",
    ))
    return 0 if result.aborted + result.failed == 0 else 1


def _print_fleet_crash(result) -> int:
    print(f"fleet crash drill — {result.jobs} jobs x {result.vms_per_job} VM(s)")
    if not result.crashed:
        print(f"  controller outlived the drill (crash armed at "
              f"t+{result.crash_at_s:.1f}s, fleet settled first)")
    else:
        print(f"  controller died at t={result.crashed_at_s:.1f}s: {result.crash_error}")
        if not result.recovery_epoch:
            print("  no recovery requested: fleet left as the crash found it")
        else:
            print(f"  fencing epoch bumped to {result.recovery_epoch}")
            for d in result.decisions:
                print(f"  recovery[{d['mid']}]: {d['decision']} ({d['basis']})")
            print(f"  reservations re-seeded: {result.reseeded}; "
                  f"requests resubmitted: {result.resubmitted}")
    print(f"  outcomes: {result.completed} completed, {result.aborted} aborted, "
          f"{result.failed} failed; {len(result.lost_vms)} VM(s) still parked")
    print(f"  makespan: {result.makespan_s:.1f} s")
    rows = [[job, " ".join(hosts)] for job, hosts in sorted(result.final_hosts.items())]
    print(render_table(["job", "now on"], rows, title="final placement"))
    if result.lost_vms or (result.crashed and not result.recovered):
        return 2
    return 0 if result.aborted + result.failed == 0 else 1


def _cmd_incident(args: argparse.Namespace) -> int:
    from repro.incident.scenario import (
        CRASH_SITE,
        RESTORE_CRASH_SITE,
        crash_label,
        run_host_failure_scenario,
        run_incident_scenario,
    )
    from repro.sim.trace import Tracer

    tracer = Tracer()
    options = {
        "jobs": args.jobs,
        "vms_per_job": args.vms_per_job,
        "spares": args.spares,
        "heal_after_s": args.heal_after,
        "autonomous": not args.no_autonomous,
        "wan_gbps": args.wan_gbps,
        "tracer": tracer,
    }
    if args.crash_during_remediation:
        options["crash_site"] = CRASH_SITE
    if args.crash_during_restore:
        options["crash_site"] = RESTORE_CRASH_SITE
    # Flags left unset take the preset's default.
    for key, value in (("cut_at_s", args.cut_at), ("kill_at_s", args.kill_at),
                       ("kill_host", args.kill_host),
                       ("checkpoint_period_s", args.checkpoint_period)):
        if value is not None:
            options[key] = value
    drill = (run_host_failure_scenario if _host_failure_drill(args)
             else run_incident_scenario)
    result = drill(**options)

    mode = "diagnosis only (baseline)" if args.no_autonomous else "autonomous"
    title = "incident drill" if result.kill_at_s is None else "host-failure drill"
    print(f"{title} — {result.jobs} jobs x {result.vms_per_job} VM(s), {mode}")
    if result.cut_at_s is not None:
        print(f"  fiber cut: WAN dark at t+{result.cut_at_s:.0f}s "
              f"for {result.heal_after_s:.0f}s")
    if result.kill_at_s is not None:
        killed = ("-" if result.killed_at_s is None
                  else f"t+{result.killed_at_s:.1f}s")
        print(f"  kill:      {result.kill_host or '(none)'} at {killed} "
              f"({len(result.vms_lost_at_kill)} VM(s) down with the host)")
    if result.checkpoint_period_s is not None:
        rpo = "-" if result.rpo_s is None else f"{result.rpo_s:.2f}s"
        rto = ("-" if result.restore_rto_s is None
               else f"{result.restore_rto_s:.2f}s")
        print(f"  checkpoints: {result.generations_committed} generation(s) "
              f"committed every {result.checkpoint_period_s:.0f}s, "
              f"{result.checkpoint_skips} skip(s)")
        print(f"  RPO:       {rpo} (bound {result.rpo_bound_s:.0f}s)   "
              f"restore RTO: {rto}")
    if result.crash_injected:
        crashed = "fired" if result.crashed else "never fired"
        print(f"  controller crash armed {crash_label(result.crash_site)}: "
              f"{crashed}; successor resumed {result.resumed_incidents} "
              f"incident(s), double-executed steps: "
              f"{result.double_executed or 'none'}, adopted VMs: "
              f"{', '.join(result.adopted_vms) or 'none'}")
    # Headline: the first incident an injected fault opened (drain
    # congestion can open earlier ones), else the first incident.
    headline = next(
        (i for i in result.incidents if i["class"] in ("fiber-cut", "host-failure")),
        result.incidents[0] if result.incidents else None,
    )
    if headline is None:
        print(f"  diagnosis: (none)  alerts={result.alerts}")
    else:
        mttr = "-" if headline["mttr_s"] is None else f"{headline['mttr_s']:.2f}s"
        print(f"  diagnosis: {headline['class']}  MTTD={headline['mttd_s']:.2f}s"
              f"  MTTR={mttr}  alerts={result.alerts}")
        if headline["actions"]:
            print(f"  runbook:   {' -> '.join(headline['actions'])}")
    print(f"  outcomes:  {result.completed} completed, {result.aborted} aborted, "
          f"{result.failed} failed, {result.cancelled} cancelled, "
          f"{result.stranded} stranded; "
          f"evacuated: {', '.join(result.evacuated_jobs) or 'none'}")
    if result.checkpoint_period_s is not None:
        print(f"  restored:  {', '.join(result.restored_jobs) or 'none'}")
    print(f"  lost VMs:  {', '.join(result.lost_vms) or 'none'}")
    print(f"  makespan:  {result.makespan_s:.1f} s")
    rows = [
        [
            str(i["incident"]), str(i["class"]), str(i["status"]),
            "-" if i["mttd_s"] is None else f"{i['mttd_s']:.2f}",
            "-" if i["mttr_s"] is None else f"{i['mttr_s']:.2f}",
            " ".join(sorted(i["links"])) or "-",
            " ".join(sorted(set(i["hosts"]) | set(i["suspect_hosts"]))) or "-",
        ]
        for i in result.incidents
    ]
    if rows:
        print(render_table(
            ["incident", "class", "status", "MTTD [s]", "MTTR [s]", "links", "hosts"],
            rows, title="incidents",
        ))
    print(render_table(
        ["job", "now on"],
        [[job, " ".join(hosts)] for job, hosts in sorted(result.final_hosts.items())],
        title="final placement",
    ))
    _save_trace(tracer, args.trace_out)
    return 0 if not result.lost_vms and result.failed == 0 else 1


def _host_failure_drill(args: argparse.Namespace) -> bool:
    """Any host-failure flag switches ``incident`` to the host-kill preset."""
    return (args.kill_host is not None or args.kill_at is not None
            or args.checkpoint_period is not None or args.crash_during_restore)


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario
    from repro.sim.trace import Tracer
    from repro.units import fmt_bytes

    config = ScaleConfig(
        n_vms=args.vms,
        k=args.k,
        vms_per_host=args.vms_per_host,
        duration_s=args.duration,
        arrival_rate_per_s=args.rate,
        rack_local_frac=args.rack_local,
        max_concurrent=args.max_concurrent,
        seed=args.seed,
    )
    tracer = Tracer() if args.trace_out else None
    result = run_scale_scenario(config, tracer=tracer)
    requests = ", ".join(f"{k}={v}" for k, v in sorted(result.requests.items()))
    print(f"scale campaign — {result.n_vms} VMs on {result.n_hosts} hosts "
          f"(k={result.k} fat-tree), incremental solver")
    print(f"  simulated:       {result.duration_s:.0f} s "
          f"({sum(result.requests.values())} requests: {requests})")
    print(f"  wall clock:      {result.wall_s:.2f} s "
          f"({result.wall_s_per_sim_hour:.1f} s per simulated hour)")
    print(f"  throughput:      {result.events_per_s:,.0f} events/s "
          f"({result.sim_events:,} events)")
    print(f"  migrations:      {result.migrations_completed} completed / "
          f"{result.moves_requested} requested "
          f"({result.rejected} rejected at cap, {result.starved} starved)")
    rounds = (result.rounds_total / result.migrations_completed
              if result.migrations_completed else 0.0)
    print(f"  precopy:         {result.flows_started} flows, "
          f"{rounds:.2f} rounds/migration, {fmt_bytes(result.bytes_moved)} moved")
    print(f"  solver:          {result.solver_calls} calls, "
          f"p50={result.solver_p50_s * 1e6:.1f} us, "
          f"p99={result.solver_p99_s * 1e6:.1f} us, "
          f"total={result.solver_total_s:.2f} s")
    if tracer is not None:
        _save_trace(tracer, args.trace_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ninja Migration (IPDPSW 2013) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the testbed table").set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="hotplug/link-up self-migration table")
    p2.add_argument("--nvms", type=int, default=8)
    p2.set_defaults(func=_cmd_table2)

    p6 = sub.add_parser("fig6", help="memtest Ninja overhead sweep")
    p6.add_argument("--sizes", default="2,4,8,16", help="array sizes in GB, comma separated")
    p6.add_argument("--nvms", type=int, default=8)
    p6.set_defaults(func=_cmd_fig6)

    p7 = sub.add_parser("fig7", help="NPB baseline vs proposed")
    p7.add_argument("--bench", default="BT,CG,FT,LU")
    p7.add_argument("--npb-class", default="D", choices=("C", "D"))
    p7.set_defaults(func=_cmd_fig7)

    p8 = sub.add_parser("fig8", help="fallback/recovery iteration series")
    p8.add_argument("--ppv", type=int, default=1, choices=(1, 8))
    p8.add_argument("--iterations", type=int, default=40)
    p8.set_defaults(func=_cmd_fig8)

    pd = sub.add_parser("demo", help="one end-to-end fallback migration")
    pd.add_argument(
        "--inject-phase",
        choices=("coordination", "detach", "migration", "attach", "confirm", "linkup"),
        help="inject a fault into this Ninja phase (exercises rollback)",
    )
    pd.add_argument(
        "--inject-nth", type=int, default=1,
        help="fire on the Nth call of the injected site (default 1)",
    )
    pd.add_argument(
        "--inject-transient", action="store_true",
        help="make the injected fault transient (absorbed by retry/backoff)",
    )
    pd.add_argument(
        "--crash-at", choices=tuple(_CRASH_SITES),
        help="kill the controller at this phase's journal boundary "
             "(migration = mid-precopy)",
    )
    pd.add_argument(
        "--recover", action="store_true",
        help="after --crash-at, replay the journal and reconcile",
    )
    pd.add_argument(
        "--trace-out", metavar="PATH",
        help="write the simulation trace to PATH as JSON Lines",
    )
    _add_degraded_path_flags(pd, default_link="*")
    pd.set_defaults(func=_cmd_demo)

    pf = sub.add_parser("fleet", help="fleet-wide drain through the orchestrator")
    pf.add_argument("--jobs", type=int, default=8, help="number of MPI jobs to drain")
    pf.add_argument("--vms-per-job", type=int, default=1)
    pf.add_argument(
        "--naive", action="store_true",
        help="disable wave sequencing + destination swaps (baseline)",
    )
    pf.add_argument("--wan-gbps", type=float, default=1.0, help="WAN pipe to the backup site")
    pf.add_argument(
        "--inject-site", metavar="SITE",
        help="arm the deterministic fault injector at SITE "
             "(e.g. ninja.migration, qmp.device_del; fnmatch patterns OK)",
    )
    pf.add_argument(
        "--inject-nth", type=int, default=1,
        help="fire on the Nth call of the injected site (default 1)",
    )
    pf.add_argument(
        "--inject-transient", action="store_true",
        help="make the injected fault transient (absorbed by retry/backoff)",
    )
    pf.add_argument(
        "--crash-at-time", type=float, metavar="T",
        help="kill the controller T seconds into the drain, then recover "
             "(see --no-recover)",
    )
    pf.add_argument(
        "--no-recover", action="store_true",
        help="with --crash-at-time, skip recovery and report the wreckage",
    )
    pf.add_argument(
        "--trace-out", metavar="PATH",
        help="write the simulation trace to PATH as JSON Lines",
    )
    _add_degraded_path_flags(pf, default_link="wan:*")
    pf.add_argument(
        "--viability-floor-gbps", type=float, metavar="G",
        help="defer fleet requests whose migration path bottleneck has "
             "degraded below G Gbit/s (re-probed until it heals)",
    )
    pf.set_defaults(func=_cmd_fleet)

    pi = sub.add_parser(
        "incident",
        help="mid-drain fiber-cut drill through the incident-response stack",
    )
    pi.add_argument("--jobs", type=int, default=4, help="number of MPI jobs to drain")
    pi.add_argument("--vms-per-job", type=int, default=1)
    pi.add_argument("--spares", type=int, default=2,
                    help="empty primary-site hosts (evacuation headroom)")
    pi.add_argument("--cut-at", type=float, default=None, metavar="T",
                    help="cut the WAN fiber T seconds into the drain "
                         "(default 6; in the host-failure drill the fiber "
                         "is only cut when this flag is given)")
    pi.add_argument("--heal-after", type=float, default=120.0, metavar="D",
                    help="fiber stays dark for D seconds")
    pi.add_argument("--wan-gbps", type=float, default=1.0,
                    help="WAN pipe to the backup site")
    pi.add_argument(
        "--no-autonomous", action="store_true",
        help="diagnosis-only baseline: detect and classify, never remediate",
    )
    pi.add_argument(
        "--crash-during-remediation", action="store_true",
        help="kill the controller at the evacuation step; a successor "
             "resumes the runbook from the journal",
    )
    pi.add_argument(
        "--kill-host", metavar="HOST", default=None,
        help="host-failure drill: kill HOST hard and unannounced "
             "(default: first host whose jobs all hold committed "
             "checkpoint generations)",
    )
    pi.add_argument(
        "--kill-at", type=float, default=None, metavar="T",
        help="host-failure drill: earliest kill instant, T seconds into "
             "the drain (default 12; the drill then waits for checkpoint "
             "coverage before pulling the plug)",
    )
    pi.add_argument(
        "--checkpoint-period", type=float, default=None, metavar="P",
        help="host-failure drill: proactive fleet checkpoint period in "
             "seconds — the RPO bound (default 20)",
    )
    pi.add_argument(
        "--crash-during-restore", action="store_true",
        help="host-failure drill: kill the controller at a "
             "restore-journal boundary; a successor resumes without "
             "double-restoring",
    )
    pi.add_argument(
        "--trace-out", metavar="PATH",
        help="write the simulation trace to PATH as JSON Lines",
    )
    pi.set_defaults(func=_cmd_incident)

    ps = sub.add_parser(
        "scale",
        help="continuous-arrival fleet campaign on a fat-tree (100s-1000s of VMs)",
    )
    ps.add_argument("--vms", type=int, default=256, help="fleet size (default 256)")
    ps.add_argument(
        "--k", type=int, default=8,
        help="fat-tree arity; k^3/4 hosts (default 8 = 128 hosts)",
    )
    ps.add_argument(
        "--vms-per-host", type=int, default=4,
        help="host slot capacity (leave free slots to migrate into)",
    )
    ps.add_argument(
        "--duration", type=float, default=600.0, metavar="S",
        help="simulated campaign length in seconds (default 600)",
    )
    ps.add_argument(
        "--rate", type=float, default=8.0, metavar="R",
        help="Poisson arrival rate, requests per simulated second",
    )
    ps.add_argument(
        "--rack-local", type=float, default=0.9, metavar="F",
        help="fraction of churn moves kept inside the source rack",
    )
    ps.add_argument(
        "--max-concurrent", type=int, default=128,
        help="admission cap on concurrent migrations",
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--trace-out", metavar="PATH",
        help="write the simulation trace to PATH as JSON Lines",
    )
    ps.set_defaults(func=_cmd_scale)

    # Long-running commands accept --profile for cProfile output.
    for cmd_parser in (pd, pf, pi, ps):
        cmd_parser.add_argument(
            "--profile", metavar="PATH", dest="profile",
            help="run under cProfile and dump pstats data to PATH "
                 "(inspect with `python -m pstats PATH` or snakeviz)",
        )
    return parser


def _add_degraded_path_flags(parser: argparse.ArgumentParser, default_link: str) -> None:
    parser.add_argument(
        "--degrade", metavar="SPEC",
        help="network chaos schedule: comma-separated kind[=value]@t=T[+D] "
             "tokens, kinds drop/bw/loss/lat "
             "(e.g. 'loss=0.2@t=2,drop@t=5+10'; times relative to the "
             "migration trigger)",
    )
    parser.add_argument(
        "--degrade-link", metavar="PATTERN", default=default_link,
        help=f"fnmatch pattern of link names --degrade applies to "
             f"(default {default_link!r})",
    )
    parser.add_argument(
        "--postcopy", choices=("off", "fallback", "always"), default="off",
        help="migration policy: off = plain precopy; fallback = "
             "auto-converge throttling, then postcopy when precopy cannot "
             "converge; always = switch over immediately",
    )


def _ignored_flags(args: argparse.Namespace) -> Optional[str]:
    """Why the chosen drill would silently ignore some given flags, if so."""
    if args.command == "fleet":
        if args.crash_at_time is None:
            return "--no-recover needs --crash-at-time" if args.no_recover else None
        dropped = [
            flag
            for flag, given in (
                ("--naive", args.naive),
                ("--inject-site", args.inject_site is not None),
                ("--inject-nth", args.inject_nth != 1),
                ("--inject-transient", args.inject_transient),
                ("--degrade", args.degrade is not None),
                ("--postcopy", args.postcopy != "off"),
                ("--viability-floor-gbps", args.viability_floor_gbps is not None),
            )
            if given
        ]
        if dropped:
            return f"--crash-at-time runs the crash drill, which ignores {', '.join(dropped)}"
    if (args.command == "incident" and args.crash_during_remediation
            and _host_failure_drill(args)):
        return ("--crash-during-remediation cannot be combined with the "
                "host-failure drill (--kill-host/--kill-at/"
                "--checkpoint-period/--crash-during-restore)")
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ignored = _ignored_flags(args)
    if ignored:
        parser.error(ignored)
    profile_path = getattr(args, "profile", None)
    if not profile_path:
        return args.func(args)

    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return args.func(args)
    finally:
        profiler.disable()
        profiler.dump_stats(profile_path)
        print(f"wrote cProfile stats to {profile_path} "
              f"(inspect with `python -m pstats {profile_path}`)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
