"""Intersection rings of products of projective spaces, with exact arithmetic.

For X = P^{n_1} x ... x P^{n_k} the ring is Q[h_1, ..., h_k]/(h_i^{n_i+1}):
a cycle class is a sparse rational combination of monomials whose exponents
stay below the per-variable nilpotency bounds.  The grading by total exponent
is the codimension grading.  All coefficients are `fractions.Fraction`; no
floating point appears anywhere in the engine.

Every value has two ways in.  Outside input goes through a checked
constructor or `from_json`: `Cycle(...)` and `Cycle.from_json` validate every
term, `Variety(...)` every factor.  Results the engine computes are correct
by construction and skip the checks: cycles are built by `Cycle._sum`, the
one place where terms are summed and cancelled terms dropped, and every
frozen dataclass value (varieties here, correspondences, kernels and
motives in the layers above) by `_built`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from .errors import DomainMismatchError, InvalidInputError

Exponents = tuple[int, ...]

_SCALARS = (int, Fraction)


@dataclass(frozen=True)
class Variety:
    """A finite product of projective spaces, recorded as the tuple of factor
    dimensions.  The empty tuple is the point Spec K; factor order matters
    (``X * Y`` and ``Y * X`` are different presentations related by
    transposition)."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        for n in self.factors:
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise InvalidInputError(
                    f"factor dimensions must be nonnegative integers, got {n!r}"
                )

    @property
    def dim(self) -> int:
        return sum(self.factors)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def is_point(self) -> bool:
        return not self.factors

    def __mul__(self, other: "Variety") -> "Variety":
        return _built(Variety, self.factors + other.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "Spec(K)"
        return " x ".join(f"P^{n}" for n in self.factors)

    def to_json(self) -> dict:
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, data: object) -> "Variety":
        if not isinstance(data, dict) or "factors" not in data:
            raise InvalidInputError(f"variety must be an object with a 'factors' list, got {data!r}")
        factors = data["factors"]
        if not isinstance(factors, list):
            raise InvalidInputError(f"'factors' must be a list, got {factors!r}")
        return make_variety(factors)


def _built(cls, *values):
    """An instance of a frozen dataclass from field values the engine
    computed, correct by construction, made without running its checks.
    The values follow the field order; the value classes declare no
    ClassVar or InitVar, so `__dataclass_fields__` lists exactly the fields
    (and reads faster than `dataclasses.fields`)."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def make_variety(dims: list[int] | tuple[int, ...]) -> Variety:
    """Product of projective spaces of the given dimensions; [] is Spec K."""
    return Variety(tuple(dims))


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # an exponent is expanded, so one past Python's digit limit is refused
        limit = sys.get_int_max_str_digits()
        try:
            exponent = value.lower().partition("e")[2]
            if exponent and 0 < limit < abs(int(exponent)):
                raise ValueError(f"exponent {exponent.strip()} exceeds {limit}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational literal {value!r}: {exc}") from exc
    raise InvalidInputError(f"coefficients must be exact rationals, got {value!r}")


def _as_text(value: Fraction) -> str:
    """A coefficient as text; one whose numerator or denominator is longer
    than Python's digit limit cannot be printed and is refused."""
    try:
        return str(value)
    except ValueError as exc:  # str(int) past sys.get_int_max_str_digits()
        raise InvalidInputError(
            f"result coefficient exceeds the {sys.get_int_max_str_digits()}-digit limit for printing"
        ) from exc


def _checked(variety: Variety, items):
    """Validate (exponents, coefficient) pairs from outside the ring, and
    drop monomials at or above a nilpotency bound."""
    bounds = variety.factors
    for exps, coeff in items:
        exps = tuple(exps)
        if len(exps) != len(bounds):
            raise InvalidInputError(f"exponent vector {exps} has wrong length for {variety}")
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise InvalidInputError(f"exponents must be nonnegative integers, got {e!r}")
        coeff = _as_fraction(coeff)
        if all(e <= n for e, n in zip(exps, bounds)):  # h_i^{n_i+1} = 0
            yield exps, coeff


class Cycle:
    """An element of the rational intersection ring of a `Variety`.

    Stored sparsely as a map from exponent tuples to nonzero Fractions;
    monomials at or above a nilpotency bound are dropped on construction, so
    two equal classes always have identical term maps.  Instances are
    immutable and hashable: `terms` is a read-only mapping, and every
    operation returns a new cycle.
    """

    __slots__ = ("variety", "terms")

    def __init__(self, variety: Variety, terms: dict | None = None):
        if not isinstance(variety, Variety):
            raise InvalidInputError(f"expected a Variety, got {variety!r}")
        self._fill(variety, _checked(variety, (terms or {}).items()))

    def _fill(self, variety: Variety, pairs) -> "Cycle":
        """Set the fields to the sum of the pairs, dropping cancelled terms."""
        acc: dict[Exponents, Fraction] = {}
        for e, c in pairs:
            s = acc[e] + c if e in acc else c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "terms", MappingProxyType(acc))
        return self

    @classmethod
    def _sum(cls, variety: Variety, pairs) -> "Cycle":
        """The sum of (exponents, Fraction) pairs made by the ring's own
        arithmetic, unchecked: every exponent must lie within the bounds."""
        return object.__new__(cls)._fill(variety, pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Cycle instances are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variety: Variety) -> "Cycle":
        return cls(variety, {})

    @classmethod
    def one(cls, variety: Variety) -> "Cycle":
        return cls(variety, {(0,) * variety.num_factors: Fraction(1)})

    @classmethod
    def monomial(cls, variety: Variety, exps, coeff=1) -> "Cycle":
        return cls(variety, {tuple(exps): coeff})

    @classmethod
    def hyperplane(cls, variety: Variety, index: int) -> "Cycle":
        """The hyperplane class h_{index} pulled back from the given factor."""
        if not 0 <= index < variety.num_factors:
            raise InvalidInputError(f"no factor {index} on {variety}")
        exps = tuple(1 if i == index else 0 for i in range(variety.num_factors))
        return cls(variety, {exps: Fraction(1)})

    @classmethod
    def point_class(cls, variety: Variety) -> "Cycle":
        """The top monomial h_1^{n_1} ... h_k^{n_k} (the class of a point)."""
        return cls(variety, {variety.factors: Fraction(1)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def codimensions(self) -> list[int]:
        """Sorted list of codimensions in which the cycle has a nonzero term."""
        return sorted({sum(e) for e in self.terms})

    def is_homogeneous(self, k: int) -> bool:
        """True when every stored term has codimension exactly k (the zero
        cycle is homogeneous of every codimension)."""
        return all(sum(e) == k for e in self.terms)

    def graded_component(self, k: int) -> "Cycle":
        return Cycle._sum(self.variety, ((e, c) for e, c in self.terms.items() if sum(e) == k))

    def degree(self) -> Fraction:
        """Coefficient of the top monomial: the pushforward to Spec K of the
        top graded piece.  Lower-codimension components contribute 0."""
        return self.terms.get(self.variety.factors, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _require_same_variety(self, other: "Cycle") -> None:
        if self.variety != other.variety:
            raise DomainMismatchError(
                f"cycles live on different varieties: {self.variety} vs {other.variety}"
            )

    def __add__(self, other: "Cycle") -> "Cycle":
        if not isinstance(other, Cycle):
            return NotImplemented
        self._require_same_variety(other)
        return Cycle._sum(self.variety, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Cycle":
        return Cycle._sum(self.variety, ((e, -c) for e, c in self.terms.items()))

    def __sub__(self, other: "Cycle") -> "Cycle":
        if not isinstance(other, Cycle):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Cycle):
            return self.intersect(other)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar) -> "Cycle":
        scalar = _as_fraction(scalar)
        return Cycle._sum(self.variety, ((e, scalar * c) for e, c in self.terms.items()))

    def intersect(self, other: "Cycle") -> "Cycle":
        """Truncated polynomial product; codimensions add, and any monomial
        crossing a nilpotency bound is discarded."""
        self._require_same_variety(other)
        bounds = self.variety.factors

        def products():
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    if all(x <= n for x, n in zip(e, bounds)):
                        yield e, c1 * c2

        return Cycle._sum(self.variety, products())

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cycle)
            and self.variety == other.variety
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variety, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = [
                f"h{i + 1}" if e == 1 else f"h{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e > 0
            ]
            if not factors:
                parts.append(_as_text(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{_as_text(coeff)}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"<Cycle {self} on {self.variety}>"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variety": self.variety.to_json(),
            "terms": [
                {"exps": list(e), "coeff": _as_text(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: object) -> "Cycle":
        if not isinstance(data, dict) or "variety" not in data or "terms" not in data:
            raise InvalidInputError(
                f"cycle must be an object with 'variety' and 'terms', got {data!r}"
            )
        variety = Variety.from_json(data["variety"])
        raw = data["terms"]
        if not isinstance(raw, list):
            raise InvalidInputError(f"'terms' must be a list, got {raw!r}")
        pairs = []
        for item in raw:
            if not isinstance(item, dict) or "exps" not in item or "coeff" not in item:
                raise InvalidInputError(f"each term needs 'exps' and 'coeff', got {item!r}")
            exps = item["exps"]
            if not isinstance(exps, list) or any(type(e) is not int for e in exps):
                raise InvalidInputError(f"'exps' must be a list of integers, got {exps!r}")
            pairs.append((exps, _as_fraction(item["coeff"])))
        return cls._sum(variety, _checked(variety, pairs))
