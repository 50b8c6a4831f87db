"""Hardware catalogs: node, device, and switch specifications.

:data:`AGC_NODE_SPEC` reproduces Table I of the paper (the AIST Green Cloud
cluster blade).  Specs are declarative; behaviour lives in
:mod:`repro.hardware.devices` / :mod:`repro.network`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GiB, gbps


@dataclass(frozen=True)
class DeviceSpec:
    """A PCI device model (catalog entry)."""

    model: str
    kind: str  # "infiniband-hca" | "ethernet-nic" | "virtio-nic"
    link_rate_Bps: float
    #: Whether the device can be assigned to a VM via VMM-bypass (VFIO).
    sriov_capable: bool = False
    vendor: str = ""


@dataclass(frozen=True)
class NodeSpec:
    """A physical compute node (Table I's "Node PC" column)."""

    model: str
    cpu_model: str
    sockets: int
    cores_per_socket: int
    memory_bytes: int
    chipset: str = ""
    disk: str = ""
    #: Devices present in the node's PCI slots at power-on.
    devices: tuple[DeviceSpec, ...] = ()
    hyperthreading: bool = False

    @property
    def total_cores(self) -> int:
        """Schedulable cores (the paper disabled Hyper-Threading)."""
        cores = self.sockets * self.cores_per_socket
        return cores * 2 if self.hyperthreading else cores


@dataclass(frozen=True)
class SwitchSpec:
    """A network switch (Table I's "Switch" rows)."""

    model: str
    kind: str  # "infiniband" | "ethernet"
    ports: int
    port_rate_Bps: float
    port_latency_s: float = 0.0


# --------------------------------------------------------------------------
# Catalog entries used by the AGC cluster (Table I).
# --------------------------------------------------------------------------

#: Mellanox ConnectX (MT26428) QDR InfiniBand HCA.
MELLANOX_CONNECTX_QDR = DeviceSpec(
    model="Mellanox ConnectX (MT26428)",
    kind="infiniband-hca",
    link_rate_Bps=gbps(32.0),  # QDR 4x signalling
    sriov_capable=True,
    vendor="Mellanox",
)

#: Broadcom NetXtreme II 10 GbE NIC.
BROADCOM_NETXTREME_10GBE = DeviceSpec(
    model="Broadcom NetXtreme II (BMC57711)",
    kind="ethernet-nic",
    link_rate_Bps=gbps(10.0),
    sriov_capable=True,
    vendor="Broadcom",
)

#: Myricom Myri-10G NIC (MX stack, OS-bypass — the "other devices" of
#: Section VI's generality claim).
MYRICOM_MYRI10G = DeviceSpec(
    model="Myricom Myri-10G (10G-PCIE-8B)",
    kind="myrinet-nic",
    link_rate_Bps=gbps(10.0),
    sriov_capable=True,
    vendor="Myricom",
)

#: Para-virtual virtio-net device (instantiated per VM, not in node slots).
VIRTIO_NET = DeviceSpec(
    model="virtio-net",
    kind="virtio-nic",
    link_rate_Bps=gbps(10.0),
    sriov_capable=False,
    vendor="virtio",
)

#: Table I: Dell PowerEdge M610 blade of the AIST Green Cloud cluster.
AGC_NODE_SPEC = NodeSpec(
    model="Dell PowerEdge M610",
    cpu_model="Quad-core Intel Xeon E5540/2.53GHz x2",
    sockets=2,
    cores_per_socket=4,
    memory_bytes=48 * GiB,
    chipset="Intel 5520",
    disk="SAS 300 GB hardware RAID-1 array",
    devices=(MELLANOX_CONNECTX_QDR, BROADCOM_NETXTREME_10GBE),
    hyperthreading=False,  # "Hyper Threading was disabled."
)

#: A hypothetical Myrinet-equipped AGC blade (same chassis, Myri-10G in
#: place of the ConnectX) used by the heterogeneous-fabric scenarios.
MYRINET_NODE_SPEC = NodeSpec(
    model="Dell PowerEdge M610",
    cpu_model="Quad-core Intel Xeon E5540/2.53GHz x2",
    sockets=2,
    cores_per_socket=4,
    memory_bytes=48 * GiB,
    chipset="Intel 5520",
    disk="SAS 300 GB hardware RAID-1 array",
    devices=(MYRICOM_MYRI10G, BROADCOM_NETXTREME_10GBE),
    hyperthreading=False,
)

#: Myricom clos switch for the Myrinet sub-cluster.
MYRINET_SWITCH = SwitchSpec(
    model="Myricom 10G-CLOS-ENCL",
    kind="myrinet",
    ports=16,
    port_rate_Bps=gbps(10.0),
    port_latency_s=300e-9,
)

#: Table I: Mellanox M3601Q QDR InfiniBand blade switch.
AGC_IB_SWITCH = SwitchSpec(
    model="Mellanox M3601Q",
    kind="infiniband",
    ports=16,
    port_rate_Bps=gbps(32.0),
    port_latency_s=100e-9,
)

#: Table I: Dell M8024 10 GbE blade switch.
AGC_ETH_SWITCH = SwitchSpec(
    model="Dell M8024",
    kind="ethernet",
    ports=16,
    port_rate_Bps=gbps(10.0),
    port_latency_s=2e-6,
)


def table1_rows() -> list[tuple[str, str]]:
    """Render Table I as (label, value) rows for the Table I benchmark."""
    node = AGC_NODE_SPEC
    return [
        ("Node PC", node.model),
        ("CPU", node.cpu_model),
        ("Chipset", node.chipset),
        ("Memory", f"{node.memory_bytes // GiB} GB DDR3-1066"),
        ("Infiniband", MELLANOX_CONNECTX_QDR.model),
        ("10 GbE", BROADCOM_NETXTREME_10GBE.model),
        ("Disk", node.disk),
        ("Switch Infiniband", AGC_IB_SWITCH.model),
        ("Switch 10 GbE", AGC_ETH_SWITCH.model),
    ]
