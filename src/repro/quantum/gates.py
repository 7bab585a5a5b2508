"""Gate matrices for the circuit simulators.

The "textbook" gate set: the EfficientSU2 ansatz is written in RY, RZ and CX,
and the remaining fixed gates serve hand-built test circuits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CircuitError

_SQ2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Fixed (non-parameterised) gates by name.
GATES: dict[str, np.ndarray] = {
    "id": I2,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "cx": CX,
    "cz": CZ,
    "swap": SWAP,
}


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation about Y by ``theta``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """Rotation about Z by ``theta``."""
    return np.array(
        [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]], dtype=complex
    )


_PARAMETRIC = {"ry": ry_matrix, "rz": rz_matrix}

#: Gate arities (number of qubits acted on) for every known gate name.
GATE_ARITY: dict[str, int] = {name: int(round(np.log2(m.shape[0]))) for name, m in GATES.items()}
GATE_ARITY.update({"ry": 1, "rz": 1})


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary matrix of gate ``name`` with the given parameters."""
    key = name.lower()
    if key in _PARAMETRIC:
        if len(params) != 1:
            raise CircuitError(f"gate {name!r} expects exactly one parameter, got {params}")
        return _PARAMETRIC[key](float(params[0]))
    if key in GATES:
        if params:
            raise CircuitError(f"gate {name!r} takes no parameters, got {params}")
        return GATES[key]
    raise CircuitError(f"unknown gate: {name!r}")

