"""Calibration constants for every timing model, in one auditable place.

Each constant cites the paper observation it reproduces.  The defaults form
:data:`PAPER_CALIBRATION`; experiments and ablations may copy-and-modify a
profile via :meth:`Calibration.replace`.

Paper anchors
-------------

* **Table II** (self-migration, best of 3):

  ====================  ========  ========
  scenario              hotplug   link-up
  ====================  ========  ========
  Infiniband→Infiniband   3.88 s   29.91 s
  Infiniband→Ethernet     2.80 s    0.00 s
  Ethernet→Infiniband     1.15 s   29.79 s
  Ethernet→Ethernet       0.13 s    0.00 s
  ====================  ========  ========

  Decomposed here as ``hotplug = detach_ib + attach_ib + confirm`` with the
  IB pieces present only when the source/destination has an IB device.

* **Section V**: "the network throughput of migration is less than
  1.3 Gbps … because of CPU bottlenecks at the source node" — the
  single-threaded QEMU migration thread cap.

* **Section IV-B2**: "The QEMU/KVM migration mechanism compresses pages
  that contain uniform data, e.g. 'zero pages'" and "a VMM traverses the
  whole of the guest OS's memory during a migration" — the per-page scan
  cost plus compressed-page header cost.

* **Figure 6**: "The hotplug and link-up time is three times longer than
  that of self-migration … migration noise interferes with the execution
  of hotplug" — :attr:`migration_noise_factor`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.units import GiB, KiB, gbps, gib_per_s, msec, usec


@dataclass(frozen=True)
class Calibration:
    """Timing/throughput constants for the simulated stack."""

    # --- PCI hotplug (Table II decomposition) -------------------------------
    #: Guest-visible time to detach a passthrough IB HCA (acpiphp eject,
    #: driver teardown, QEMU device_del completion).
    ib_detach_s: float = 2.70
    #: Guest-visible time to attach a passthrough IB HCA (slot power-up,
    #: acpiphp scan, mlx4 probe).
    ib_attach_s: float = 1.05
    #: Constant confirmation overhead of a hotplug round trip (present in
    #: every scenario, the full cost in Ethernet→Ethernet).
    hotplug_confirm_s: float = 0.115
    #: Detach/attach of a virtio NIC (fast: no firmware handshake).
    virtio_detach_s: float = 0.04
    virtio_attach_s: float = 0.06

    # --- InfiniBand link-up (Table II, Section V) -----------------------------
    #: Time a freshly attached IB port spends in POLLING before the subnet
    #: manager brings it ACTIVE ("the link-up time takes about 30 seconds").
    ib_linkup_s: float = 29.85
    #: Ethernet link-up (virtio and real NIC): negligible per Table II.
    eth_linkup_s: float = 0.0

    # --- Live migration (Section V, Figure 6/7) --------------------------------
    #: Single-threaded QEMU migration throughput cap ("less than 1.3 Gbps").
    migration_cpu_cap_Bps: float = gbps(1.3)
    #: Rate at which the migration thread traverses guest RAM detecting
    #: uniform ("dup") pages; dominates when the footprint compresses well.
    page_scan_Bps: float = gib_per_s(0.52)
    #: Wire bytes sent for a compressed (uniform/zero) page: header + value.
    dup_page_wire_bytes: int = 9
    #: Per-page protocol overhead for a normal page (header).
    page_header_bytes: int = 8
    #: QEMU downtime limit: remaining dirty data must transfer within this
    #: budget before the final stop-and-copy round (QEMU 1.1 default 30 ms).
    max_downtime_s: float = msec(30)
    #: Cap on dirty re-send rounds after the bulk pass (round 0); precopy
    #: that has not converged by then stops and copies (or escalates).
    max_precopy_rounds: int = 30
    #: Fixed migration setup/teardown (QMP negotiation, NFS handoff).
    migration_setup_s: float = 0.45
    #: Multiplier applied to hotplug primitives while a node-to-node
    #: migration is part of the same Ninja sequence (Figure 6: "three times
    #: longer … migration noise").
    migration_noise_factor: float = 3.2

    # --- Interconnect performance ------------------------------------------------
    #: QDR InfiniBand effective large-message bandwidth per link
    #: (32 Gbps signalling, ~8/10 encoding, verbs efficiency).
    ib_link_Bps: float = gib_per_s(3.0)
    #: IB one-way latency (VMM-bypass, small message).
    ib_latency_s: float = usec(2.0)
    #: 10 GbE physical link bandwidth.
    eth_link_Bps: float = gbps(10.0)
    #: TCP effective per-stream throughput through virtio_net (guest
    #: datapath, paper era: well under line rate).
    virtio_tcp_stream_Bps: float = gbps(4.8)
    #: TCP per-stream throughput on the bare 10 GbE NIC (host datapath).
    host_tcp_stream_Bps: float = gbps(6.0)
    #: TCP/IP + virtio processing cost, expressed as bytes processed per
    #: vCPU-second (~2.4 Gbps per core, paper-era virtio); creates the CPU
    #: contention that dominates Fig. 8's consolidated phase.
    tcp_cpu_Bps_per_core: float = gib_per_s(0.30)
    #: A single stream's stack processing can spread over this many cores
    #: (multi-context: vhost kernel thread + guest vCPU).
    tcp_cpu_max_cores: float = 2.0
    #: CPU-overcommit dilation: MPI ranks busy-poll, so when the number of
    #: resident ranks exceeds the cores, *all* guest CPU work slows by
    #: ``(ranks/cores) ** exponent``.  Superlinear (> 1) because vCPU
    #: preemption also amplifies VM exits (cf. the ELI discussion in
    #: Section VI).  This drives Fig. 8's "2 hosts (TCP)" phase.
    busy_poll_overcommit_exponent: float = 2.8
    #: Ethernet one-way latency through the blade switch (TCP/IP stack).
    eth_latency_s: float = usec(55.0)
    #: IB switch port-to-port latency.
    ib_switch_latency_s: float = usec(0.1)
    #: Myri-10G large-message bandwidth through the MX stack.
    myrinet_link_Bps: float = gib_per_s(1.15)
    #: Myrinet one-way latency (MX, VMM-bypass).
    myrinet_latency_s: float = usec(2.3)
    #: Time for the FMA to map a freshly attached Myrinet NIC — seconds,
    #: not the IB subnet manager's ~30 s (a selling point for recovery
    #: onto Myrinet clusters).
    myrinet_linkup_s: float = 2.1
    #: Hotplug primitives for the Myri-10G NIC (firmware handshake is
    #: lighter than ConnectX).
    myrinet_detach_s: float = 1.4
    myrinet_attach_s: float = 0.7

    # --- Memory / guest ------------------------------------------------------------
    #: Guest sequential memory write bandwidth per core (memtest).
    mem_write_Bps: float = gib_per_s(3.2)
    #: Single-thread reduction-operator throughput (MPI_SUM over doubles).
    reduce_op_Bps: float = gib_per_s(2.0)
    #: Page size of the guest-memory model.
    page_size: int = 4 * KiB
    #: Fraction of a fresh guest OS's RAM that is non-uniform after boot
    #: (kernel, page cache) — these pages always transfer in full.
    guest_os_resident_bytes: int = int(0.30 * GiB)

    # --- SymVirt / coordination ------------------------------------------------------
    #: One symvirt_wait/signal hypercall round trip (VM exit + entry).
    hypercall_s: float = usec(40.0)
    #: CRCP quiesce cost per rank pair exchange (bookmark protocol msg).
    crcp_msg_s: float = usec(80.0)
    #: QMP command round trip (unix socket, JSON parse).
    qmp_rtt_s: float = msec(1.2)
    #: BTL module (re)construction per available device.
    btl_init_s: float = msec(120.0)
    #: IB queue-pair establishment per peer (address resolution + modex).
    qp_setup_s: float = msec(8.0)
    #: TCP connection establishment per peer.
    tcp_connect_s: float = msec(0.8)
    #: Eager/rendezvous switchover: messages above this size pay an
    #: RTS/CTS handshake (one transport round trip) before the payload
    #: moves — Open MPI's long-message protocol.
    eager_limit_bytes: int = 64 * KiB

    def replace(self, **changes: float) -> "Calibration":
        """Return a copy with the given fields changed (for ablations)."""
        return dataclasses.replace(self, **changes)


#: The default profile used by all paper-reproduction experiments.
PAPER_CALIBRATION = Calibration()
