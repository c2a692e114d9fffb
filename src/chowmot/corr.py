"""Correspondence calculus on products of projective spaces.

Pullback and pushforward along factor projections, cartesian products,
diagonal classes, and composition of correspondences.  Composition matches
middle exponents: a term of the first cycle pairs with the terms of the
second whose exponents on the middle factor complete it to the top
monomial, which equals the pullback-intersect-pushforward pipeline through
the triple product; a test holds the two routes together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainMismatchError, InvalidInputError
from .ring import Cycle, Variety


@dataclass(frozen=True)
class FactorSelection:
    """A projection of a product onto a sub-product of its factors, given by
    the strictly increasing list of retained factor indices."""

    source: Variety
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.selected, tuple):
            object.__setattr__(self, "selected", tuple(self.selected))
        k = self.source.num_factors
        prev = -1
        for i in self.selected:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < k:
                raise InvalidInputError(f"factor index {i!r} out of range for {self.source}")
            if i <= prev:
                raise InvalidInputError("selected indices must be strictly increasing")
            prev = i

    @cached_property
    def target(self) -> Variety:
        return Variety._unchecked(tuple(self.source.factors[i] for i in self.selected))

    @property
    def unselected(self) -> tuple[int, ...]:
        chosen = set(self.selected)
        return tuple(i for i in range(self.source.num_factors) if i not in chosen)

    def pullback(self, a: Cycle) -> Cycle:
        """Inverse image: re-index exponents from the target's variables into
        the source's, leaving the projected-away variables at exponent 0.
        A degree-zero ring homomorphism."""
        if a.variety != self.target:
            raise DomainMismatchError(
                f"cycle on {a.variety} cannot be pulled back along projection onto {self.target}"
            )
        k = self.source.num_factors

        def spread(exps):
            new = [0] * k
            for pos, i in enumerate(self.selected):
                new[i] = exps[pos]
            return tuple(new)

        return Cycle._sum(self.source, ((spread(e), c) for e, c in a.terms.items()))

    def pushforward(self, a: Cycle) -> Cycle:
        """Direct image (integration over the projected-away factors): a term
        survives exactly when every unselected factor carries its top
        exponent, and then loses those entries.  Lowers codimension by the
        dimension of the fibers."""
        if a.variety != self.source:
            raise DomainMismatchError(
                f"cycle on {a.variety} cannot be pushed forward from {self.source}"
            )
        bounds = self.source.factors
        dropped = self.unselected
        return Cycle._sum(self.target, (
            (tuple(exps[i] for i in self.selected), coeff)
            for exps, coeff in a.terms.items()
            if all(exps[i] == bounds[i] for i in dropped)
        ))


def cartesian(a: Cycle, b: Cycle) -> Cycle:
    """External product: the cycle on X x Y whose terms concatenate one term
    of a with one term of b.  Bilinear and associative."""
    return Cycle._sum(a.variety * b.variety, (
        (e1 + e2, c1 * c2) for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()
    ))


def permute_factors(a: Cycle, order: tuple[int, ...]) -> Cycle:
    """Relabel the factors of a product: position j of the result carries the
    old factor order[j].  `order` must be a permutation of the factor indices."""
    k = a.variety.num_factors
    if sorted(order) != list(range(k)):
        raise InvalidInputError(f"{order!r} is not a permutation of 0..{k - 1}")
    new_variety = Variety._unchecked(tuple(a.variety.factors[i] for i in order))
    return Cycle._sum(new_variety, ((tuple(exps[i] for i in order), c) for exps, c in a.terms.items()))


def diagonal_class(variety: Variety) -> Cycle:
    """Class of the diagonal embedding of X in X x X.

    For a single P^n factor this is sum_{i} h1^i h2^{n-i}; for a product it
    is the intersection of the per-factor diagonal classes pulled back to
    the full square.
    """
    square = variety * variety
    k = variety.num_factors
    result = Cycle.one(square)
    for i, n in enumerate(variety.factors):
        terms = {}
        for a in range(n + 1):
            exps = [0] * (2 * k)
            exps[i] = a
            exps[k + i] = n - a
            terms[tuple(exps)] = Fraction(1)
        result = result * Cycle(square, terms)
    return result


def diagonal_pushforward(variety: Variety, g: Cycle) -> Cycle:
    """Direct image of a class along the diagonal embedding, computed by the
    projection formula: pull g back along the first projection and intersect
    with the diagonal class.  Raises codimension by dim X."""
    if g.variety != variety:
        raise DomainMismatchError(f"cycle on {g.variety} is not a class on {variety}")
    k = variety.num_factors
    first = FactorSelection(variety * variety, tuple(range(k)))
    return first.pullback(g) * diagonal_class(variety)


@dataclass(frozen=True)
class GradedCorrespondence:
    """A cycle on X x Y regarded as a morphism from X to Y; its degree-d part
    is the codimension (dim X + d) graded component of the cycle."""

    source: Variety
    target: Variety
    cycle: Cycle

    def __post_init__(self) -> None:
        if self.cycle.variety != self.source * self.target:
            raise DomainMismatchError(
                f"cycle lives on {self.cycle.variety}, expected {self.source * self.target}"
            )

    @staticmethod
    def identity(variety: Variety) -> "GradedCorrespondence":
        return GradedCorrespondence(variety, variety, diagonal_class(variety))

    @staticmethod
    def zero(source: Variety, target: Variety) -> "GradedCorrespondence":
        return GradedCorrespondence(source, target, Cycle.zero(source * target))

    @property
    def is_zero(self) -> bool:
        return self.cycle.is_zero

    def degrees(self) -> list[int]:
        base = self.source.dim
        return [k - base for k in self.cycle.codimensions()]

    def degree_component(self, d: int) -> "GradedCorrespondence":
        return GradedCorrespondence(
            self.source, self.target, self.cycle.graded_component(self.source.dim + d)
        )

    def is_pure_degree(self, d: int) -> bool:
        return self.cycle.is_homogeneous(self.source.dim + d)

    def transpose(self) -> "GradedCorrespondence":
        """Swap the two factor blocks; involutive."""
        kx = self.source.num_factors
        ky = self.target.num_factors
        order = tuple(range(kx, kx + ky)) + tuple(range(kx))
        return GradedCorrespondence(
            self.target, self.source, permute_factors(self.cycle, order)
        )

    def then(self, other: "GradedCorrespondence") -> "GradedCorrespondence":
        return compose_graded(self, other)

    # correspondences between fixed varieties form a Q-module
    def __add__(self, other: "GradedCorrespondence") -> "GradedCorrespondence":
        self._require_parallel(other)
        return GradedCorrespondence(self.source, self.target, self.cycle + other.cycle)

    def __sub__(self, other: "GradedCorrespondence") -> "GradedCorrespondence":
        self._require_parallel(other)
        return GradedCorrespondence(self.source, self.target, self.cycle - other.cycle)

    def __neg__(self) -> "GradedCorrespondence":
        return GradedCorrespondence(self.source, self.target, -self.cycle)

    def scale(self, scalar) -> "GradedCorrespondence":
        return GradedCorrespondence(self.source, self.target, self.cycle.scale(scalar))

    def _require_parallel(self, other: "GradedCorrespondence") -> None:
        if self.source != other.source or self.target != other.target:
            raise DomainMismatchError("correspondences have different source or target")

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}: {self.cycle}"

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "cycle": self.cycle.to_json(),
        }

    @classmethod
    def from_json(cls, data: object) -> "GradedCorrespondence":
        if not isinstance(data, dict) or not {"source", "target", "cycle"} <= set(data):
            raise InvalidInputError(
                f"correspondence must be an object with 'source', 'target', 'cycle', got {data!r}"
            )
        return cls(
            Variety.from_json(data["source"]),
            Variety.from_json(data["target"]),
            Cycle.from_json(data["cycle"]),
        )


def compose_graded(f: GradedCorrespondence, g: GradedCorrespondence) -> GradedCorrespondence:
    """Composite of graded correspondences (f first, then g).

    This is p_XZ*(p_XY* f . p_YZ* g), computed without building X x Y x Z:
    pushing forward along Y keeps a product of terms (e_X, e_Y) . (e_Y', e_Z)
    exactly when e_Y + e_Y' is the top exponent of Y, so each term of f is
    contracted against the terms of g with the complementary Y-exponent.
    The composite is bilinear, so its degree-k part collects all
    compositions of a degree-i part of f with a degree-j part of g with
    i + j = k.
    """
    if f.target != g.source:
        raise DomainMismatchError(
            f"middle variety mismatch: {f.target} vs {g.source}"
        )
    kx, ky = f.source.num_factors, f.target.num_factors
    top = f.target.factors
    by_middle: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]] = {}
    for exps, b in g.cycle.terms.items():
        by_middle.setdefault(exps[:ky], []).append((exps[ky:], b))
    pairs = (
        (exps[:kx] + e_z, a * b)
        for exps, a in f.cycle.terms.items()
        for e_z, b in by_middle.get(tuple(n - e for n, e in zip(top, exps[kx:])), ())
    )
    return GradedCorrespondence(f.source, g.target, Cycle._sum(f.source * g.target, pairs))
