"""Core graph types: digraphs, tournaments, games, permutations.

Vertices are dense integers 0..p-1 and adjacency is a tuple of row bitmasks,
so everything fits in machine words for p <= 64 (the design ceiling).  All
values are immutable; equality of graphs is labeled (bit for bit), never up
to isomorphism.  Digraph is the one graph representation: difference graphs
and edge subsets are Digraphs too, and `EdgeSet` only builds one from a list
of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AntiparallelPair,
    HeaderClassMismatch,
    InvariantViolation,
    LoopEdge,
    ParseError,
    VertexOutOfRange,
)

MAX_VERTICES = 64


def _bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _check_vertex_count(p: int) -> None:
    if not (0 <= p <= MAX_VERTICES):
        raise VertexOutOfRange(f"vertex count {p} outside 0..{MAX_VERTICES}")


class Digraph:
    """Loop-free digraph with no antiparallel pair: adj and its reverse are disjoint."""

    __slots__ = ("p", "rows", "_cols")

    def __init__(self, p: int, rows: Sequence[int]):
        _check_vertex_count(p)
        rows = tuple(rows)
        if len(rows) != p:
            raise VertexOutOfRange("row count != p")
        full = (1 << p) - 1
        cols = [0] * p
        for i, r in enumerate(rows):
            if r & ~full:
                raise VertexOutOfRange(f"row {i} references vertices >= {p}")
            if (r >> i) & 1:
                raise LoopEdge(f"loop at vertex {i}")
            bit = 1 << i
            for j in _bits(r):
                cols[j] |= bit
        for i in range(p):
            both = rows[i] & cols[i]
            if both:
                j = (both & -both).bit_length() - 1
                raise AntiparallelPair(f"both {i}->{j} and {j}->{i}")
        self.p = p
        self.rows = rows
        self._cols = tuple(cols)
        self._check()

    def _check(self) -> None:
        pass

    # -- structure ---------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def out_set(self, i: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[i]))

    def in_set(self, i: int) -> tuple[int, ...]:
        return tuple(_bits(self._cols[i]))

    def out_degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def in_degree(self, i: int) -> int:
        return self._cols[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.p) for j in _bits(self.rows[i])]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def is_eulerian(self) -> bool:
        """Every vertex has equal in- and out-degree."""
        return all(self.out_degree(i) == self.in_degree(i) for i in range(self.p))

    def is_subgraph_of(self, g: "Digraph") -> bool:
        return self.p == g.p and all(r & ~h == 0 for r, h in zip(self.rows, g.rows))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.p == other.p and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, edges={self.edges()})"


class Tournament(Digraph):
    """Complete digraph: exactly one direction per pair of distinct vertices."""

    __slots__ = ()

    def _check(self) -> None:
        for i in range(self.p):
            if self.rows[i] | self._cols[i] != ((1 << self.p) - 1) & ~(1 << i):
                raise InvariantViolation(f"not a tournament: pair through vertex {i} undecided")


class Game(Tournament):
    """Regular tournament on an odd vertex count: every score equals n = (p-1)/2."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        if self.p % 2 == 0:
            raise InvariantViolation(f"game needs odd vertex count, got {self.p}")
        n = (self.p - 1) // 2
        for i in range(self.p):
            if self.rows[i].bit_count() != n:
                raise InvariantViolation(f"not regular: vertex {i} has score != {n}")

    @property
    def n(self) -> int:
        return (self.p - 1) // 2


def from_rows(p: int, rows: Sequence[int]) -> Digraph:
    """Strongest truthful class for the given adjacency rows.

    The rows are validated once, as a Digraph, which then takes the class
    `classify_digraph` finds and runs that class's own check.
    """
    return _strongest(Digraph(p, rows))


def make_digraph(p: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """Strongest truthful class for exactly the given edges (validated by EdgeSet)."""
    return _strongest(EdgeSet(p, edges))


def _strongest(g: Digraph) -> Digraph:
    flags = classify_digraph(g)
    g.__class__ = Game if flags.is_game else Tournament if flags.is_tournament else Digraph
    g._check()
    return g


def circulant(p: int, diffs: Iterable[int]) -> Digraph:
    """Digraph on Z_p with i -> i+d (mod p) for each difference d."""
    _check_vertex_count(p)
    ds = sorted({d % p for d in diffs}) if p else []
    rows = [0] * p
    for i in range(p):
        for d in ds:
            if d:
                rows[i] |= 1 << ((i + d) % p)
    return from_rows(p, rows)


@dataclass(frozen=True)
class DigraphFlags:
    is_tournament: bool
    is_eulerian: bool
    is_game: bool
    is_regular: bool


def classify_digraph(g: Digraph) -> DigraphFlags:
    """Tournament / Eulerian / regular flags; is_game = is_tournament and
    is_eulerian on an odd vertex count.  Only the 0-vertex tournament is
    Eulerian with an even count, and it is no game."""
    full = (1 << g.p) - 1
    tourn = all(g.rows[i] | g._cols[i] == full & ~(1 << i) for i in range(g.p))
    eul = g.is_eulerian()
    degs = {g.out_degree(i) for i in range(g.p)}
    reg = eul and len(degs) <= 1
    return DigraphFlags(tourn, eul, tourn and eul and g.p % 2 == 1, reg)


def reverse(g: Digraph) -> Digraph:
    """Transpose of the adjacency; an involution preserving all class flags."""
    return from_rows(g.p, g._cols)


def restrict(g: Digraph, J: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Restriction to J, reindexed to 0..|J|-1 in ascending vertex order.

    Returns the restricted graph and the old->new index map.
    """
    verts = sorted(set(J))
    for v in verts:
        if not (0 <= v < g.p):
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.p - 1}")
    index = {v: k for k, v in enumerate(verts)}
    keep = sum(1 << u for u in verts)
    rows = [0] * len(verts)
    for v in verts:
        for w in _bits(g.rows[v] & keep):
            rows[index[v]] |= 1 << index[w]
    return from_rows(len(verts), rows), index


def scores(g: Digraph) -> tuple[int, ...]:
    """Out-degrees in non-decreasing order (sum = p(p-1)/2 for tournaments)."""
    return tuple(sorted(g.out_degree(i) for i in range(g.p)))


class Permutation:
    """Bijection on 0..p-1; image[i] is where i gets sent."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise VertexOutOfRange("not a bijection on 0..p-1")
        self.image = image

    @staticmethod
    def identity(p: int) -> "Permutation":
        return Permutation(range(p))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __len__(self) -> int:
        return len(self.image)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self.image[other.image[i]] for i in range(len(self.image))))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition; fixed points included as 1-cycles."""
        seen = [False] * len(self.image)
        out = []
        for s in range(len(self.image)):
            if seen[s]:
                continue
            cyc = [s]
            seen[s] = True
            v = self.image[s]
            while v != s:
                cyc.append(v)
                seen[v] = True
                v = self.image[v]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        from math import lcm
        return lcm(*(len(c) for c in self.cycles()))

    def sign(self) -> int:
        return (-1) ** sum(len(c) - 1 for c in self.cycles())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def relabel(g: Digraph, rho: Permutation) -> Digraph:
    """Image graph: edge (rho(i), rho(j)) iff edge (i, j) in g."""
    if len(rho) != g.p:
        raise VertexOutOfRange("permutation length != p")
    rows = [0] * g.p
    for i in range(g.p):
        for j in _bits(g.rows[i]):
            rows[rho(i)] |= 1 << rho(j)
    return from_rows(g.p, rows)


class EdgeSet(Digraph):
    """A Digraph built from a list of directed edges on 0..p-1; beyond the
    range of each pair, validation is the Digraph's."""

    __slots__ = ()

    def __init__(self, p: int, edges: Iterable[tuple[int, int]]):
        rows = [0] * p
        for (i, j) in edges:
            if not (0 <= i < p and 0 <= j < p):
                raise VertexOutOfRange(f"edge ({i},{j}) outside 0..{p - 1}")
            rows[i] |= 1 << j
        super().__init__(p, rows)

    @staticmethod
    def from_digraph(g: Digraph) -> "EdgeSet":
        return EdgeSet(g.p, g.edges())


# -- text format -------------------------------------------------------------
#
# line 1: "digraph <p>" | "tournament <p>" | "game <p>"
# then p lines of p characters from {0,1}; row i column j = 1 iff i -> j
# lines starting with '#' are comments; LF line endings

_HEADERS = ("digraph", "tournament", "game")


def serialize(g: Digraph) -> str:
    """Bit-exact text form with the strongest truthful header."""
    flags = classify_digraph(g)
    kind = "game" if flags.is_game else ("tournament" if flags.is_tournament else "digraph")
    lines = [f"{kind} {g.p}"]
    lines += [format(r, f"0{g.p}b")[::-1] for r in g.rows]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Digraph:
    """Parse the text format; rejects a header claiming a class the bits do not satisfy."""
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in _HEADERS:
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        p = int(head[1])
    except ValueError:
        raise ParseError(f"bad vertex count: {head[1]!r}")
    if len(lines) != p + 1:
        raise ParseError(f"expected {p} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != p or set(ln) - {"0", "1"}:
            raise ParseError(f"bad row: {ln!r}")
        rows.append(int(ln[::-1], 2))
    g = from_rows(p, rows)  # already of its strongest class
    kind = head[0]
    if kind == "tournament" and not isinstance(g, Tournament):
        raise HeaderClassMismatch("header says tournament, bits are not")
    if kind == "game" and not isinstance(g, Game):
        raise HeaderClassMismatch("header says game, bits are not")
    return g
