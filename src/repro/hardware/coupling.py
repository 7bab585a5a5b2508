"""Heavy-hex coupling topology of the 127-qubit IBM Eagle processor.

The Eagle family uses a *heavy-hexagon* lattice: hexagonal plaquettes whose
edges carry an extra qubit, giving a maximum connectivity degree of 3.  The
127-qubit device is laid out as seven long rows of 14–15 qubits joined by
4-qubit connector rows, with the connector spokes alternating between columns
(0, 4, 8, 12) and (2, 6, 10, 14) from one gap to the next.

:func:`heavy_hex_coupling_map` builds that graph with :mod:`networkx`; the
router (:mod:`repro.hardware.routing`) lays registers out on it, and the
margin strategy (Sec. 5.3) exploits its structure: adding a few spare qubits
to a job lets the layout stage pick a longer defect-free chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

#: Number of physical qubits on the Eagle r3 processor.
EAGLE_QUBITS: int = 127

#: Number of long (dense) rows.
_LONG_ROWS = 7
#: Columns per full long row.
_ROW_WIDTH = 15


def _long_row_columns(row: int) -> list[int]:
    """Columns present in a given long row (first and last rows have 14 qubits)."""
    if row == 0:
        return list(range(0, _ROW_WIDTH - 1))  # columns 0..13
    if row == _LONG_ROWS - 1:
        return list(range(1, _ROW_WIDTH))  # columns 1..14
    return list(range(_ROW_WIDTH))


def _spoke_columns(gap: int) -> list[int]:
    """Connector-spoke columns between long rows ``gap`` and ``gap + 1``."""
    return [0, 4, 8, 12] if gap % 2 == 0 else [2, 6, 10, 14]


def heavy_hex_coupling_map() -> nx.Graph:
    """Build the 127-qubit heavy-hex coupling graph.

    Nodes are integer physical-qubit indices 0..126; node attributes ``row``
    and ``column`` record the lattice position (connector qubits get a
    half-integer row).  Edges are undirected two-qubit couplings.
    """
    import networkx as nx  # here, not at module level: a dataset build never needs it

    graph = nx.Graph()
    index = 0
    row_nodes: list[dict[int, int]] = []

    # Long rows interleaved with connector rows, numbered top to bottom.
    for row in range(_LONG_ROWS):
        columns = _long_row_columns(row)
        nodes: dict[int, int] = {}
        for col in columns:
            graph.add_node(index, row=float(row), column=col)
            nodes[col] = index
            index += 1
        # Horizontal edges along the long row.
        for a, b in zip(columns[:-1], columns[1:]):
            graph.add_edge(nodes[a], nodes[b])
        row_nodes.append(nodes)

        if row < _LONG_ROWS - 1:
            for col in _spoke_columns(row):
                graph.add_node(index, row=row + 0.5, column=col)
                # The connector couples to the matching column above; the link
                # to the row below is added on the next iteration via lookup.
                if col in nodes:
                    graph.add_edge(nodes[col], index)
                graph.nodes[index]["pending_column"] = col
                index += 1

    # Second pass: connect each connector qubit to the long row beneath it.
    for node, data in graph.nodes(data=True):
        if data["row"] != int(data["row"]):  # connector rows have half-integer rows
            below_row = int(data["row"] + 0.5)
            col = data["column"]
            below_nodes = row_nodes[below_row]
            if col in below_nodes:
                graph.add_edge(node, below_nodes[col])

    assert graph.number_of_nodes() == EAGLE_QUBITS, graph.number_of_nodes()
    return graph


def snake_path(graph: nx.Graph) -> list[int]:
    """The canonical boustrophedon ("snake") chain through the heavy-hex lattice.

    Traverses each long row in alternating direction and drops to the next row
    through the outermost available connector spoke.  On the 127-qubit Eagle
    layout this visits all 103 long-row qubits plus one connector per gap —
    a 109-qubit chain, comfortably larger than the largest fragment register
    (102 qubits plus margin).
    """
    # Group nodes by row.
    rows: dict[float, dict[int, int]] = {}
    for node, data in graph.nodes(data=True):
        rows.setdefault(data["row"], {})[data["column"]] = node

    long_rows = sorted(r for r in rows if r == int(r))
    path: list[int] = []
    for i, row in enumerate(long_rows):
        # Odd-indexed gaps carry their outer spoke at column 14, even-indexed
        # gaps at column 0, so traversing right-to-left on even rows and
        # left-to-right on odd rows always ends exactly on a spoke column.
        reverse = i % 2 == 0
        columns = sorted(rows[row], reverse=reverse)
        path.extend(rows[row][c] for c in columns)
        if i < len(long_rows) - 1:
            connector_row = rows[row + 0.5]
            drop_col = columns[-1]
            if drop_col not in connector_row:  # pragma: no cover - not on Eagle
                raise ValueError(f"no connector spoke at column {drop_col}")
            path.append(connector_row[drop_col])

    # Sanity check: every consecutive pair must be coupled.
    for a, b in zip(path[:-1], path[1:]):
        if not graph.has_edge(a, b):  # pragma: no cover - construction invariant
            raise ValueError(f"snake path broke adjacency between {a} and {b}")
    return path


def longest_chain(graph: nx.Graph, length: int) -> list[int]:
    """The first ``length`` qubits of the graph's :func:`snake_path`: a chain
    of adjacent physical qubits.

    Raises ``ValueError`` when the snake is shorter than ``length`` (on the
    Eagle graph it covers 109 qubits, more than the largest fragment
    register plus its margin) or the graph has no snake.
    """
    if length <= 0:
        raise ValueError(f"chain length must be positive, got {length}")
    try:
        snake = snake_path(graph)
    except (KeyError, ValueError):
        snake = []
    if len(snake) < length:
        raise ValueError(
            f"could not find a {length}-qubit chain in the "
            f"{graph.number_of_nodes()}-qubit coupling graph"
        )
    return snake[:length]
