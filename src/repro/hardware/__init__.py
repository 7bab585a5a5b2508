"""IBM Eagle r3 hardware models: topology, routing, timing, cost.

They give the paper's qubit, depth, runtime and cost tables (Tables 1–3,
Sec. 5.3); the pipeline samples circuits on the simulators of
:mod:`repro.quantum`, not on an emulated device.
"""

from repro.hardware.coupling import heavy_hex_coupling_map, EAGLE_QUBITS
from repro.hardware.routing import LinearChainRouter, RoutingResult
from repro.hardware.timing import ExecutionTimeModel, ExecutionSettings
from repro.hardware.cost import CostModel

__all__ = [
    "heavy_hex_coupling_map",
    "EAGLE_QUBITS",
    "LinearChainRouter",
    "RoutingResult",
    "ExecutionTimeModel",
    "ExecutionSettings",
    "CostModel",
]
