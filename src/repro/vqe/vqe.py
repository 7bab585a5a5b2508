"""The two-stage VQE driver used to fold one protein fragment.

Stage 1 (optimisation): a parameterised EfficientSU2 ansatz is sampled on the
backend, the diagonal folding Hamiltonian's expectation value is estimated
from the measured bitstrings, and COBYLA updates the parameters (Sec. 4.3.2).
The lowest and highest expectation values observed along the way are the
"Lowest Energy" / "Highest Energy" columns of Tables 1–3.

Stage 2 (sampling): the optimised parameters are frozen, the circuit is
sampled with a large shot count (100,000 on hardware), and the measured
bitstrings are decoded; the lowest-energy *valid* conformation becomes the
predicted structure (Sec. 5.2).

Register choice
---------------
The interaction/slack qubits of the hardware encoding never influence the
diagonal energy, so by default the driver simulates only the configuration
register (``register="configuration"``), which keeps 100-qubit fragments
cheap.  ``register="full"`` simulates the complete register exactly as sized
on hardware; resource metadata (qubit count, depth) always reports the full
hardware register either way.
"""

from __future__ import annotations

import numpy as np

from repro.config import PipelineConfig
from repro.exceptions import VQEError
from repro.lattice.decoder import ConformationDecoder
from repro.lattice.encoding import circuit_depth_for_qubits
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.backend import Backend, counts_from_samples, pack_rows
from repro.utils.rng import rng_for
from repro.vqe.expectation import DiagonalExpectation
from repro.vqe.optimizer import CobylaOptimizer, OptimizerResult
from repro.vqe.result import VQEResult


class VQE:
    """Two-stage VQE folding driver for one fragment Hamiltonian."""

    def __init__(
        self,
        hamiltonian: LatticeHamiltonian,
        backend: Backend | None = None,
        config: PipelineConfig | None = None,
        optimizer: CobylaOptimizer | None = None,
        register: str = "configuration",
        seed: int | None = None,
    ):
        if register not in ("configuration", "full"):
            raise VQEError(f"register must be 'configuration' or 'full', got {register!r}")
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding
        self.config = config or PipelineConfig()
        if backend is None:
            # Resolved by name (config.backend) through the engine's registry;
            # imported lazily because the engine package imports this module.
            from repro.engine.registry import make_backend

            backend = make_backend(self.config.backend, self.config)
        self.backend = backend
        self.optimizer = optimizer
        self.register = register
        self.seed = self.config.seed if seed is None else int(seed)
        self.expectation = DiagonalExpectation(hamiltonian)
        self.decoder = ConformationDecoder(hamiltonian)

        width = (
            self.encoding.configuration_qubits
            if register == "configuration"
            else self.encoding.total_qubits
        )
        self.ansatz = EfficientSU2(width, reps=self.config.ansatz_reps, entanglement="linear")
        if self.optimizer is None:
            # COBYLA needs at least num_vars + 2 evaluations to build its
            # initial simplex; never hand it fewer.
            iterations = max(self.config.vqe_iterations, self.ansatz.num_parameters + 2)
            self.optimizer = CobylaOptimizer(max_iterations=iterations)

    # -- shot budgets -------------------------------------------------------------

    def effective_final_shots(self) -> int:
        """Stage-2 shot count, scaled with the size of the conformational space.

        Longer fragments have exponentially more conformations, so the final
        sampling budget grows with the configuration-register width (capped at
        ``config.max_final_shots``, the paper's 100,000).
        """
        free_turns = self.encoding.num_free_turns
        multiplier = max(1, min(48, 4**free_turns // 2000))
        return int(min(self.config.max_final_shots, self.config.final_shots * multiplier))

    # -- objective ---------------------------------------------------------------

    def _objective(self, parameters: np.ndarray, rng: np.random.Generator) -> float:
        samples = self._sample(parameters, self.config.optimisation_shots, rng)
        return self.expectation.cvar_from_samples(samples, alpha=self.config.cvar_alpha)

    def _sample(self, parameters, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample the ansatz at ``parameters`` by replaying the backend's
        cached plan of the ansatz structure (compiled on the first call)."""
        return self.backend.sample_parameterised(self.ansatz.circuit, parameters, shots, rng)

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        """Initial parameters: uniform-superposition RY angles plus small noise.

        Setting every RY angle to π/2 makes the initial sampling distribution
        uniform over conformations, which is the standard unbiased starting
        point for a diagonal-cost VQE.
        """
        n = self.ansatz.num_parameters
        point = np.zeros(n)
        params = self.ansatz.circuit.parameters
        for i, p in enumerate(params):
            if p.name.startswith("ry"):
                point[i] = np.pi / 2.0
        point += rng.normal(scale=0.05, size=n)
        return point

    # -- run -----------------------------------------------------------------------

    def run(self) -> VQEResult:
        """Execute both stages and return the folded result."""
        rng_opt = rng_for(self.seed, "vqe-optimise", str(self.hamiltonian.sequence))
        rng_final = rng_for(self.seed, "vqe-final-sampling", str(self.hamiltonian.sequence))

        x0 = self.initial_point(rng_opt)
        opt_result: OptimizerResult = self.optimizer.minimize(
            lambda x: self._objective(x, rng_opt), x0
        )

        # Stage 2: freeze parameters, sample with the production shot count,
        # and decode the distinct configurations in lexicographic order.
        final_shots = self.effective_final_shots()
        final_samples = self._sample(opt_result.optimal_parameters, final_shots, rng_final)
        width = self.encoding.configuration_qubits
        codes, counts = np.unique(pack_rows(final_samples[:, :width]), return_counts=True)
        best = self.decoder.decode_counts((codes, counts))
        final_counts = counts_from_samples(final_samples)

        total_qubits = self.encoding.total_qubits
        return VQEResult(
            sequence=str(self.hamiltonian.sequence),
            num_qubits=total_qubits,
            configuration_qubits=self.encoding.configuration_qubits,
            circuit_depth=circuit_depth_for_qubits(total_qubits),
            optimal_parameters=np.asarray(opt_result.optimal_parameters, dtype=float),
            optimal_energy=float(opt_result.optimal_value),
            lowest_energy=float(min(opt_result.lowest_value, best.energy)),
            highest_energy=float(opt_result.highest_value),
            iterations=opt_result.iterations,
            energy_history=list(opt_result.history),
            final_counts=final_counts,
            best_conformation=best,
            final_shots=final_shots,
            backend_name=getattr(self.backend, "name", type(self.backend).__name__),
            ansatz_reps=self.config.ansatz_reps,
            expectation_cache=self.expectation.cache_info(),
        )
