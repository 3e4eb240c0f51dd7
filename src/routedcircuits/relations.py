"""Boolean relation algebra over finite sector index sets.

Relations between index sets encode which input sector of a partitioned
space may connect to which output sector.  Everything here is dense and
eager: the index sets in play are tiny, so exhaustive checks beat sparse
cleverness.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, TypeVar, Union

import numpy as np

from .errors import DomainMismatch, InvariantViolation, ShapeMismatch, UnknownLabel
from .frozen import Record

# Atomic sector labels: strings, ints, or (nested) tuples of those.
Label = Union[str, int, tuple]

TRIVIAL_LABEL: Label = "*"


def _route_matrix(matrix, domain: IndexSet, codomain: IndexSet, copies: int) -> np.ndarray:
    """``matrix`` as a read-only boolean array of ``copies`` axes per side."""
    matrix = np.array(matrix, dtype=bool)
    matrix.setflags(write=False)
    want = (domain.size,) * copies + (codomain.size,) * copies
    if matrix.shape != want:
        raise ShapeMismatch(f"relation matrix has shape {matrix.shape}, expected {want}")
    return matrix


class IndexSet(Record):
    """An ordered finite set of distinct sector labels."""

    _fields = ("labels",)

    def __init__(self, labels: Iterable[Label]):
        labels = tuple(labels)
        if len(labels) < 1:
            raise InvariantViolation("an index set needs at least one label")
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"labels are not pairwise distinct: {labels!r}")
        self.__dict__["labels"] = labels

    @classmethod
    def trivial(cls) -> "IndexSet":
        """The singleton indexing used for unpartitioned wires."""
        return cls((TRIVIAL_LABEL,))

    @property
    def size(self) -> int:
        return len(self.labels)

    def position(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in {self.labels!r}") from None

    def __contains__(self, label: Label) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"IndexSet({list(self.labels)!r})"

    def product(self, other: "IndexSet") -> "IndexSet":
        """Row-major (left-then-right) pairing of labels."""
        return IndexSet(tuple((k, l) for k in self.labels for l in other.labels))


class Relation(Record):
    """A boolean relation, stored as a matrix indexed (input, output).

    ``matrix[k, l]`` is True when input label ``k`` may connect to output
    label ``l``.
    """

    _fields = ("domain", "codomain", "matrix")
    #: sector axes per side of ``matrix``, which the algebra below flattens
    copies = 1

    def __init__(self, domain: IndexSet, codomain: IndexSet, matrix: np.ndarray):
        matrix = _route_matrix(matrix, domain, codomain, self.copies)
        self.__dict__.update(domain=domain, codomain=codomain, matrix=matrix)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, index_set: IndexSet) -> "Relation":
        return cls(index_set, index_set, np.eye(index_set.size, dtype=bool))

    @classmethod
    def full(cls, domain: IndexSet, codomain: IndexSet) -> "Relation":
        return cls(domain, codomain, np.ones((domain.size, codomain.size), dtype=bool))

    @classmethod
    def zero(cls, domain: IndexSet, codomain: IndexSet) -> "Relation":
        return cls(domain, codomain, np.zeros((domain.size, codomain.size), dtype=bool))

    @classmethod
    def from_pairs(
        cls, domain: IndexSet, codomain: IndexSet, pairs: Iterable[tuple[Label, Label]]
    ) -> "Relation":
        matrix = np.zeros((domain.size, codomain.size), dtype=bool)
        for k, l in pairs:
            matrix[domain.position(k), codomain.position(l)] = True
        return cls(domain, codomain, matrix)

    # -- basic protocol -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self) -> str:
        return (
            f"Relation({list(self.domain.labels)!r} -> {list(self.codomain.labels)!r}, "
            f"{self.matrix.astype(int).tolist()!r})"
        )

    def relates(self, k: Label, l: Label) -> bool:
        return bool(self.matrix[self.domain.position(k), self.codomain.position(l)])

    def pairs(self) -> list[tuple[Label, Label]]:
        return [
            (self.domain.labels[i], self.codomain.labels[j])
            for i, j in zip(*np.nonzero(self.matrix))
        ]


# -- relation algebra, for plain and coherence routes alike ------------

Routes = TypeVar("Routes")  # a Relation or a CPRelation


def compose(second: Routes, first: Routes) -> Routes:
    """Sequential composition ``second ∘ first``: a float32 product of the
    matrices flattened to one axis per side, thresholded at zero.

    Requires the interface index sets to be equal, including label order;
    there is no implicit reordering.
    """
    if first.codomain != second.domain:
        raise DomainMismatch(f"cannot compose: interface {first.codomain!r} != {second.domain!r}")
    a, b, n = first.matrix, second.matrix, first.copies
    middle = first.codomain.size**n
    matrix = _boolean_product(a.reshape(-1, middle), b.reshape(middle, -1))
    return type(first)(first.domain, second.codomain, matrix.reshape(a.shape[:n] + b.shape[n:]))


def _boolean_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product ``a @ b``: a float32 product thresholded at zero."""
    return a.astype(np.float32) @ b.astype(np.float32) > 0


def product(left: Routes, right: Routes) -> Routes:
    """Parallel composition on the cartesian product of the index sets: each
    axis of ``left``'s matrix pairs row-major with the same axis of
    ``right``'s, so that entry ``((k, m), (l, n))`` of a plain product is
    ``left[k, l] AND right[m, n]``."""
    a, b = left.matrix, right.matrix
    pairs = [axis for i in range(a.ndim) for axis in (i, a.ndim + i)]
    matrix = np.multiply.outer(a, b).transpose(pairs).reshape(np.multiply(a.shape, b.shape))
    return type(left)(
        left.domain.product(right.domain), left.codomain.product(right.codomain), matrix
    )


def transpose(relation: Routes) -> Routes:
    """The opposite relation: the two sides of the matrix swapped (used by adjoints)."""
    n = relation.copies
    matrix = relation.matrix.transpose((*range(n, 2 * n), *range(n)))
    return type(relation)(relation.codomain, relation.domain, matrix)


def practical_input_set(relation: Relation) -> frozenset:
    """Input labels related to at least one output label."""
    return frozenset(itertools.compress(relation.domain.labels, relation.matrix.any(axis=1)))


def practical_output_set(relation: Relation) -> frozenset:
    """Output labels related to at least one input label."""
    return practical_input_set(transpose(relation))


def image(relation: Relation, subset: Iterable[Label]) -> frozenset:
    """Labels reachable from ``subset`` through the relation."""
    reached = relation.matrix[[relation.domain.position(k) for k in subset]].any(axis=0)
    return frozenset(itertools.compress(relation.codomain.labels, reached))


def escaped(first: Routes, second: Routes) -> tuple[tuple, tuple]:
    """Labels breaking the route-level properness gate of ``second ∘ first``,
    read on the routes' plain views (see :func:`diagonal_view`).

    The input side holds the labels that the image of the downstream
    practical input set under ``first ∘ firstᵀ`` adds to that set; the
    output side mirrors it on the upstream practical output set under
    ``secondᵀ ∘ second``.  Isometry-like composition is proper when the
    input side is empty, unitary-like composition when both are.  Both
    sides come sorted by ``repr``.
    """
    if first.codomain != second.domain:
        raise DomainMismatch(
            f"cannot gate: interface {first.codomain!r} != {second.domain!r}"
        )
    masks = _escaping(diagonal_view(first), diagonal_view(second))
    return _named(first.codomain.labels, *masks)


def _escaping(f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of :func:`escaped` for the plain views ``f`` and ``g``
    of ``second ∘ first``, as masks of the middle labels."""
    s, t = g.any(1), f.any(0)  # the practical sets, as masks of the middle labels
    return f[f[:, s].any(1)].any(0) & ~s, g[:, g[t].any(0)].any(1) & ~t


def _named(labels: Sequence[Label], *masks: np.ndarray) -> tuple[tuple, ...]:
    """The labels of each mask, sorted by ``repr``."""
    return tuple(tuple(sorted(itertools.compress(labels, m), key=repr)) for m in masks)


def is_proper_for_isometries(first: Routes, second: Routes) -> bool:
    """Route-level gate for composing isometry-like maps, ``second ∘ first``.

    The practical input set of the downstream route must absorb its own
    image under ``first ∘ firstᵀ``.
    """
    return not escaped(first, second)[0]


def is_proper_for_unitaries(first: Routes, second: Routes) -> bool:
    """Route-level gate for unitary-like maps: the isometry condition plus
    the mirror condition on the upstream practical output set."""
    return escaped(first, second) == ((), ())


# -- completely positive relations ------------------------------------


class CPRelation(Record):
    """A symmetric, diagonally dominant relation between doubled index sets.

    ``matrix[k, k2, l, l2]`` says whether the (k -> l) connection may be
    coherent with the (k2 -> l2) connection.  Non-symmetric or non-dominant
    arrays express nothing a valid one cannot, so construction rejects them
    instead of normalising.  Its algebra is that of :class:`Relation`, over
    two sector axes per side; ``domain`` and ``codomain`` name the base sets.
    """

    _fields = ("base_domain", "base_codomain", "matrix")
    copies = 2
    domain = property(lambda self: self.base_domain)
    codomain = property(lambda self: self.base_codomain)

    def __init__(self, base_domain: IndexSet, base_codomain: IndexSet, matrix: np.ndarray):
        matrix = _route_matrix(matrix, base_domain, base_codomain, self.copies)
        witness = _cp_violation(matrix)
        if witness is not None:
            kind, (k, k2, l, l2) = witness
            raise InvariantViolation(
                f"not a completely positive relation ({kind} fails at "
                f"(k={k}, k'={k2}, l={l}, l'={l2}))"
            )
        self.__dict__.update(base_domain=base_domain, base_codomain=base_codomain, matrix=matrix)

    __eq__ = Relation.__eq__

    def __repr__(self) -> str:
        return (
            f"CPRelation({list(self.base_domain.labels)!r} -> "
            f"{list(self.base_codomain.labels)!r}, weight={int(self.matrix.sum())})"
        )


def _cp_violation(matrix: np.ndarray):
    """Return ('symmetry'|'diagonal dominance', witness) or None."""
    swapped = matrix.transpose(1, 0, 3, 2)
    bad = matrix != swapped
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        return "symmetry", idx
    diag = np.einsum("kkll->kl", matrix)
    allowed = diag[:, None, :, None] & diag[None, :, None, :]
    bad = matrix & ~allowed
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        return "diagonal dominance", idx
    return None


def is_completely_positive(matrix) -> bool:
    """Whether a raw 4-D boolean array is symmetric and diagonally dominant.

    These two properties characterise the relations obtainable by doubling
    a plain relation and tracing out an environment, i.e. the ones worth
    using as coherence routes.
    """
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 4 or matrix.shape[0] != matrix.shape[1] or matrix.shape[2] != matrix.shape[3]:
        raise ShapeMismatch(f"expected a (k, k', l, l') boolean array, got shape {matrix.shape}")
    return _cp_violation(matrix) is None


def diagonal_view(route: Routes) -> np.ndarray:
    """The plain view of a route, indexed ``[k, l]``, as a read-only array:
    a plain route's own matrix, or the (k, k, l, l) entries of a coherence
    route's."""
    return route.matrix if route.copies == 1 else route.matrix.diagonal().diagonal()


def diagonal(route: Routes) -> Relation:
    """The plain relation of :func:`diagonal_view`: a plain route itself."""
    if route.copies == 1:
        return route
    return Relation(route.domain, route.codomain, diagonal_view(route))


def full_coherence(connectivity: Relation) -> CPRelation:
    """The coherence route allowing every coherence its diagonal allows."""
    m = connectivity.matrix
    matrix = m[:, None, :, None] & m[None, :, None, :]
    return CPRelation(connectivity.domain, connectivity.codomain, matrix)


def full_decoherence(connectivity: Relation) -> CPRelation:
    """The coherence route forbidding all coherence between connections."""
    nk, nl = connectivity.matrix.shape
    matrix = (
        np.eye(nk, dtype=bool)[:, :, None, None]
        & np.eye(nl, dtype=bool)[None, None, :, :]
        & connectivity.matrix[:, None, :, None]
    )
    return CPRelation(connectivity.domain, connectivity.codomain, matrix)


def is_proper_for_channels(first: CPRelation, second: CPRelation) -> bool:
    """Route-level gate for composing channel-like maps, ``second ∘ first``:
    the isometry gate, which reads the routes' diagonals."""
    return is_proper_for_isometries(first, second)
