"""Matrix-product-state (MPS) circuit simulator.

The folding circuits the paper runs are EfficientSU2 ansaetze with *linear*
(nearest-neighbour) entanglement and a small number of repetitions.  Such
circuits generate bounded entanglement across every cut, so they are exactly
representable as an MPS with a modest bond dimension (``2**reps``), and can be
simulated for 100+ qubits — which is how this reproduction executes the
92–102-qubit L-group fragments that are far beyond statevector reach.

Implementation notes
--------------------
* Site tensors ``A[k]`` have shape ``(chi_left, 2, chi_right)``.
* Every contraction is an explicit transpose → reshape → ``matmul`` sequence
  in a fixed order; nothing searches for a contraction path per call.  Gate
  application performs the operations NumPy's path-optimised contraction
  performed, so site tensors are bit-identical to it; environments and
  outcome probabilities fix one order where that path changed with operand
  shape (bond dimension 1 at the chain ends).
* Two-qubit gates act on adjacent sites via a theta-tensor SVD with truncation
  to the configured maximum bond dimension.
* Sampling uses exact right environments plus a *vectorised* left-to-right
  conditional sweep: all shots advance through the chain together, in column
  blocks of :data:`SHOT_BLOCK`, so the inner loop is a handful of array
  operations per site and block.
* :class:`MPSPlan` resolves a circuit's gates once per structure (see
  :func:`~repro.quantum.compiled.resolve_gates`) and replays them at any
  parameter vector; :meth:`MPSSimulator.run` is the same replay of a bound
  circuit, so a plan's samples are bit-identical to sampling the bound copy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiled import parameter_values, resolve_gates

#: Shots the sampling sweep advances at once: bounds its temporaries by the
#: block, not the shot count, and keeps each per-site product below
#: OpenBLAS's threading threshold (threading it costs more than it saves).
SHOT_BLOCK = 4096


class MPSState:
    """An MPS over ``n`` qubits, initialised to |0...0>."""

    def __init__(self, num_qubits: int, max_bond_dimension: int = 16):
        if num_qubits < 1:
            raise BackendError(f"MPS needs at least one qubit, got {num_qubits}")
        if max_bond_dimension < 1:
            raise BackendError(f"bond dimension must be >= 1, got {max_bond_dimension}")
        self.num_qubits = int(num_qubits)
        self.max_bond_dimension = int(max_bond_dimension)
        self.tensors: list[np.ndarray] = []
        for _ in range(self.num_qubits):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.truncation_error = 0.0

    # -- gate application ---------------------------------------------------------

    def apply_single(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a 2x2 unitary to one site: ``A'[a, i, b] = sum_j A[a, j, b] U[i, j]``."""
        a = self.tensors[qubit]
        chi_l, _, chi_r = a.shape
        moved = a.transpose(0, 2, 1).reshape(chi_l * chi_r, 2) @ matrix.T
        self.tensors[qubit] = moved.reshape(chi_l, chi_r, 2).transpose(0, 2, 1)

    def apply_two(self, matrix: np.ndarray, q0: int, q1: int) -> None:
        """Apply a 4x4 unitary to two *adjacent* sites (q1 == q0 + 1 or q0 == q1 + 1)."""
        if abs(q0 - q1) != 1:
            raise BackendError(
                f"MPS backend only supports nearest-neighbour two-qubit gates, got ({q0}, {q1})"
            )
        left, right = (q0, q1) if q0 < q1 else (q1, q0)
        if q0 > q1:
            # The gate was specified with (control, target) = (q0, q1); swap its
            # qubit legs so that leg order matches (left, right).
            matrix = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)

        a, b = self.tensors[left], self.tensors[right]
        chi_l, _, chi_m = a.shape
        _, _, chi_r = b.shape
        # theta[(j c), (a i)] = sum_m B[m, j, c] A[a, i, m].  Across a bond of
        # dimension 1 there is nothing to sum: the outer product rounds each
        # entry once, where a k=1 matmul may fuse the complex multiply-add.
        left_factor = b.transpose(1, 2, 0).reshape(2 * chi_r, chi_m)
        right_factor = a.transpose(2, 0, 1).reshape(chi_m, chi_l * 2)
        if chi_m == 1:
            theta = left_factor * right_factor
        else:
            theta = left_factor @ right_factor
        # theta'[(a c), (k l)] = sum_ij theta[(a c), (i j)] G[(k l), (i j)]
        theta = theta.reshape(2, chi_r, chi_l, 2).transpose(2, 1, 3, 0).reshape(chi_l * chi_r, 4)
        theta = (theta @ matrix.T).reshape(chi_l, chi_r, 2, 2).transpose(0, 2, 3, 1)
        theta = theta.reshape(chi_l * 2, 2 * chi_r)

        u, s, vh = np.linalg.svd(theta, full_matrices=False)
        keep = min(self.max_bond_dimension, int(np.count_nonzero(s > 1e-14)) or 1)
        if keep < s.size:
            discarded = float(np.sum(s[keep:] ** 2))
            self.truncation_error += discarded
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        self.tensors[left] = np.ascontiguousarray(u.reshape(chi_l, 2, keep))
        self.tensors[right] = np.ascontiguousarray((s[:, None] * vh).reshape(keep, 2, chi_r))

    # -- observables ----------------------------------------------------------------

    def right_environments(self) -> list[np.ndarray]:
        """Exact right environments R[k] (shape (chi_k, chi_k)); R[n] = [[1]].

        ``R[k][a, d] = sum_{i,b,c} A[a, i, b] R[k+1][b, c] conj(A[d, i, c])``,
        contracted as ``(A · R[k+1]) · A^H`` over the merged ``(i, c)`` leg.
        """
        envs: list[np.ndarray] = [np.array([[1.0 + 0j]])] * (self.num_qubits + 1)
        env = envs[-1]
        for k in range(self.num_qubits - 1, -1, -1):
            a = self.tensors[k]
            chi_l, _, chi_r = a.shape
            flat = a.reshape(chi_l, 2 * chi_r)
            env = (a.reshape(chi_l * 2, chi_r) @ env).reshape(chi_l, 2 * chi_r) @ flat.conj().T
            envs[k] = env
        return envs

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``shots`` bitstrings; returns (shots, n) uint8 array.

        All shots advance together, one column per shot.  At site ``k`` every
        shot's partial amplitude ``v`` (length ``chi_left``) extends to
        ``w[b] = v · A[:, b, :]`` for both outcomes ``b``, whose probabilities
        are ``w[b] R[k+1] w[b]^H``; one uniform per shot picks the outcome and
        the matching ``w`` carries on.  Shots run along the columns because
        OpenBLAS multiplies a short-wide operand far faster than a tall-skinny
        one, in blocks of :data:`SHOT_BLOCK`; each site draws all its uniforms
        in one call, so the draws do not depend on the blocking.
        """
        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        envs = self.right_environments()
        samples = np.empty((shots, self.num_qubits), dtype=np.uint8)
        # A lone last column would switch matmul to its matrix-vector kernel,
        # whose rounding may differ; it joins the block before it.
        edges = list(range(0, shots, SHOT_BLOCK)) + [shots]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        vec = np.ones((1, shots), dtype=complex)  # partial amplitudes per shot
        for k, a in enumerate(self.tensors):
            chi_l, _, chi_r = a.shape
            step = a.reshape(chi_l, 2 * chi_r).T
            env = envs[k + 1].T
            uniforms = rng.random(shots)
            # A block's amplitudes are read before they are overwritten, so
            # a bond of unchanged dimension is advanced in place.
            advanced = vec if chi_r == chi_l else np.empty((chi_r, shots), dtype=complex)
            for block in blocks:
                # w[b, c, s] = sum_a A[a, b, c] vec[a, s]
                w = (step @ vec[:, block]).reshape(2, chi_r, -1)
                # p[b, s] = sum_cd w[b, c, s] R[c, d] conj(w[b, d, s])
                p = np.empty((2, w.shape[2]))
                for b in range(2):
                    weighted = env @ w[b]
                    weighted *= w[b].conj()
                    p[b] = weighted.sum(axis=0).real
                np.clip(p, 0.0, None, out=p)
                total = p[0] + p[1]
                total[total <= 0] = 1.0
                draws = uniforms[block] < p[1] / total
                samples[block, k] = draws
                advanced[:, block] = np.where(draws, w[1], w[0])
            vec = advanced
        return samples


class MPSPlan:
    """A reusable MPS replay plan for one circuit structure.

    Gate matrices and rotation builders are resolved once; evaluating the plan
    at a parameter vector rebuilds only the parameterised rotations and
    replays the gates on a fresh :class:`MPSState`.
    """

    def __init__(self, circuit: QuantumCircuit, max_bond_dimension: int = 16):
        self.num_qubits = circuit.num_qubits
        self.num_parameters = circuit.num_parameters
        self.max_bond_dimension = int(max_bond_dimension)
        self._steps = resolve_gates(circuit)

    def run(self, values=()) -> MPSState:
        """Evolve |0...0> through the plan at ``values`` and return the MPS."""
        vals = parameter_values(values, self.num_parameters)
        state = MPSState(self.num_qubits, self.max_bond_dimension)
        for qubits, matrix, builder, param_index in self._steps:
            if matrix is None:
                matrix = builder(vals[param_index])
            if len(qubits) == 1:
                state.apply_single(matrix, qubits[0])
            else:
                state.apply_two(matrix, qubits[0], qubits[1])
        return state

    def sample(self, values, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Run at ``values`` and sample; returns (shots, n) uint8 array."""
        return self.run(values).sample(shots, rng)


class MPSSimulator:
    """Runs bound circuits on :class:`MPSState`."""

    def __init__(self, max_bond_dimension: int = 16):
        self.max_bond_dimension = int(max_bond_dimension)

    def compile(self, circuit: QuantumCircuit) -> MPSPlan:
        """Build a reusable replay plan for ``circuit`` (may be parameterised)."""
        return MPSPlan(circuit, self.max_bond_dimension)

    def run(self, circuit: QuantumCircuit) -> MPSState:
        """Evolve |0...0> through ``circuit`` and return the final MPS."""
        if not circuit.is_bound:
            raise BackendError("cannot simulate a circuit with unbound parameters")
        return self.compile(circuit).run()
