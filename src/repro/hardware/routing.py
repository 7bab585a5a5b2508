"""Qubit layout and SWAP routing on the heavy-hex device.

The pipeline's ansatz entangles adjacent logical qubits only (linear
EfficientSU2), so the routing problem reduces to finding a chain of physically
coupled qubits long enough to host the register.  On a heavy-hex lattice such
chains exist up to 109 qubits, but the *available* chain may be shorter when
some physical qubits are unusable (calibration defects) — which is precisely
why the paper's margin strategy (Sec. 5.3) allocates 5–10 extra qubits: a
larger allocation lets the layout stage route around defects instead of
inserting SWAPs.

:class:`LinearChainRouter` models this concretely: given a register width, a
margin, and a set of defective physical qubits, it finds the best chain in the
defect-free subgraph of the allocated region and reports how many logical
couplings end up non-adjacent (each costing one SWAP, i.e. three extra ECR
pulses on the critical path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import TranspilerError
from repro.hardware.coupling import heavy_hex_coupling_map, longest_chain

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of laying out a linear register on the device."""

    logical_qubits: int
    allocated_qubits: int
    physical_chain: tuple[int, ...]
    swap_count: int
    defective_qubits: tuple[int, ...]

    @property
    def used_margin(self) -> int:
        """Extra qubits allocated beyond the logical register width."""
        return self.allocated_qubits - self.logical_qubits


class LinearChainRouter:
    """Routes linear-entanglement registers onto the heavy-hex coupling map."""

    def __init__(self, coupling: nx.Graph | None = None):
        self.coupling = coupling if coupling is not None else heavy_hex_coupling_map()

    def route(
        self,
        logical_qubits: int,
        margin: int = 0,
        defective_qubits: tuple[int, ...] | list[int] = (),
    ) -> RoutingResult:
        """Lay out ``logical_qubits`` adjacent qubits, allocating ``margin`` spares.

        The allocation is the first ``logical_qubits + margin`` qubits of the
        canonical device chain; defective qubits inside the allocation are
        excluded and the router finds the longest usable chain in what remains.
        Any shortfall is covered by bridging over a defect, which costs one
        SWAP per bridged coupling.
        """
        if logical_qubits <= 0:
            raise TranspilerError(f"register width must be positive, got {logical_qubits}")
        if margin < 0:
            raise TranspilerError(f"margin must be >= 0, got {margin}")
        allocated = logical_qubits + margin
        if allocated > self.coupling.number_of_nodes():
            raise TranspilerError(
                f"allocation of {allocated} qubits exceeds the {self.coupling.number_of_nodes()}-qubit device"
            )

        device_chain = longest_chain(self.coupling, min(allocated + 16, 109))
        allocation = device_chain[:allocated]
        defects = tuple(sorted(set(int(q) for q in defective_qubits) & set(allocation)))
        usable = [q for q in allocation if q not in defects]

        if len(usable) >= logical_qubits:
            # Count breaks: consecutive usable qubits that are not coupled
            # (a defect was bridged over). Each break inside the first
            # ``logical_qubits`` positions costs one SWAP.
            chain = usable[:logical_qubits]
            swaps = sum(
                1 for a, b in zip(chain[:-1], chain[1:]) if not self.coupling.has_edge(a, b)
            )
            return RoutingResult(
                logical_qubits=logical_qubits,
                allocated_qubits=allocated,
                physical_chain=tuple(chain),
                swap_count=swaps,
                defective_qubits=defects,
            )

        # Not enough usable qubits inside the allocation: reuse defective
        # positions (they still function, just poorly) and charge one SWAP per
        # defective qubit that had to be kept.
        chain = allocation[:logical_qubits]
        forced_defects = [q for q in chain if q in defects]
        return RoutingResult(
            logical_qubits=logical_qubits,
            allocated_qubits=allocated,
            physical_chain=tuple(chain),
            swap_count=len(forced_defects),
            defective_qubits=defects,
        )
