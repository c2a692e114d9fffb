"""The categorical layer: motives as idempotent-cut varieties with a twist,
their tensor calculus, formal direct sums, the orbit category that forgets
twists, degree-zero rigidification, and the kernel-to-motive pipelines.

A motive is a triple (variety X, twist r, idempotent correspondence a); a
morphism (X, r, a) -> (Y, s, b) is a correspondence of pure degree s - r
sandwiched by the idempotents.  The orbit category keeps the same objects
but allows components at every twist offset; for these concrete objects an
orbit morphism is exactly the degree decomposition of a graded
correspondence, with the twist autoequivalence acting on indices only.

Every value has two ways in.  Values from outside go through the public
constructors, which keep every check; `from_json` only parses.  Results
that are correct by construction (the motive of a variety, the zero and
Lefschetz motives, composites, sums, identities, the pieces of a split
idempotent, duals, tensor products, twists, matrix products and the
diagonal-sandwiched images of a kernel pair) are built unchecked by
their classes' `_built`.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .corr import GradedCorrespondence, compose_graded, external_product
from .errors import (
    DomainMismatchError,
    InvalidInputError,
    PreconditionError,
    SupportConditionError,
)
from .kshadow import KKernel, chow_image, k_compose
from .ring import Cycle, Variety, _json_object, _require_instance, _require_int, _Value, make_variety


def _check_component(source: Motive, target: Motive, c: GradedCorrespondence, degree: int, what: str):
    """A morphism component from outside must join the two varieties and
    have pure degree `degree`."""
    if _require_instance(c, GradedCorrespondence).source != source.variety or c.target != target.variety:
        raise InvalidInputError(f"{what} does not match the motives' varieties")
    if not c.is_pure_degree(degree):
        raise InvalidInputError(f"{what} must have pure degree {degree}")


def _check_sandwiched(source: Motive, target: Motive, c: GradedCorrespondence):
    """A correspondence from outside must join the two varieties and be
    fixed by sandwiching with the motive idempotents.  These have degree 0,
    so a graded correspondence is fixed exactly when each graded part is."""
    if c.source != source.variety or c.target != target.variety:
        raise InvalidInputError("correspondence does not match the motives' varieties")
    if compose_graded(compose_graded(source.idempotent, c), target.idempotent) != c:
        raise InvalidInputError("correspondence is not fixed by the motive idempotents")


class Motive(_Value):
    """A triple (X, twist, idempotent) with the idempotent a degree-zero
    self-correspondence of X satisfying a o a = a; both conditions are
    checked on construction."""

    variety: Variety
    twist: int
    idempotent: GradedCorrespondence

    def __post_init__(self) -> None:
        self._require_types(variety=Variety, idempotent=GradedCorrespondence)
        _require_int(self.twist, "twist")
        p = self.idempotent
        if p.source != self.variety or p.target != self.variety:
            raise InvalidInputError("idempotent is not a self-correspondence of the variety")
        if not p.is_pure_degree(0):
            raise InvalidInputError("motive idempotent must have pure degree 0")
        if compose_graded(p, p) != p:
            raise InvalidInputError("motive projector is not idempotent")

    def identity_morphism(self) -> "MotiveMorphism":
        return MotiveMorphism._built(self, self, self.idempotent)

    def __str__(self) -> str:
        return f"({self.variety}, {self.twist}, {self.idempotent.cycle})"

    def to_json(self) -> dict:
        return {
            "variety": self.variety.to_json(),
            "twist": self.twist,
            "idempotent": self.idempotent.cycle.to_json(),
        }

    @classmethod
    def from_json(cls, data: object) -> "Motive":
        data = _json_object("motive", data, cls._fields)
        variety = Variety.from_json(data["variety"])
        cycle = Cycle.from_json(data["idempotent"])
        return cls(variety, data["twist"], GradedCorrespondence(variety, variety, cycle))


class MotiveMorphism(_Value):
    """A correspondence of pure degree (target twist - source twist) that is
    fixed by sandwiching with the two idempotents."""

    source: Motive
    target: Motive
    corr: GradedCorrespondence

    def __post_init__(self) -> None:
        self._require_types(source=Motive, target=Motive, corr=GradedCorrespondence)
        _check_component(self.source, self.target, self.corr,
                         self.target.twist - self.source.twist, "correspondence")
        _check_sandwiched(self.source, self.target, self.corr)

    @staticmethod
    def zero(source: Motive, target: Motive) -> "MotiveMorphism":
        zero = GradedCorrespondence.zero(_require_instance(source, Motive).variety,
                                         _require_instance(target, Motive).variety)
        return MotiveMorphism._built(source, target, zero)

    @property
    def is_zero(self) -> bool:
        return self.corr.is_zero

    # the checks are linear, so sums and negatives of morphisms pass them
    def __add__(self, other: "MotiveMorphism") -> "MotiveMorphism":
        if not isinstance(other, MotiveMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise DomainMismatchError("morphisms have different source or target")
        return MotiveMorphism._built(self.source, self.target, self.corr + other.corr)

    def __sub__(self, other: "MotiveMorphism") -> "MotiveMorphism":
        return self + -other if isinstance(other, MotiveMorphism) else NotImplemented

    def __neg__(self) -> "MotiveMorphism":
        return MotiveMorphism._built(self.source, self.target, -self.corr)


def compose_motive(f: MotiveMorphism, g: MotiveMorphism) -> MotiveMorphism:
    """Composite f first, then g; the degrees add up to the total twist
    difference, and p f q composed with q g t is p (f q g) t, so the
    composite passes the checks by construction."""
    if _require_instance(f, MotiveMorphism).target != _require_instance(g, MotiveMorphism).source:
        raise DomainMismatchError("morphisms are not composable: object mismatch")
    return MotiveMorphism._built(f.source, g.target, compose_graded(f.corr, g.corr))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def motive_of(variety: Variety) -> Motive:
    """The motive of a variety: twist 0 and the diagonal as idempotent."""
    return Motive._built(variety, 0, GradedCorrespondence.identity(variety))


def unit_motive() -> Motive:
    return motive_of(make_variety(()))


def zero_motive() -> Motive:
    """The zero object, represented concretely on the point with the zero
    projector."""
    point = make_variety(())
    return Motive._built(point, 0, GradedCorrespondence.zero(point, point))


def lefschetz_motive() -> Motive:
    """The summand of the projective line cut out by the projector
    [P^1 x point] = h2."""
    line = make_variety((1,))
    square = line * line
    beta = GradedCorrespondence._built(line, line, Cycle.hyperplane(square, 1))
    return Motive._built(line, 0, beta)


def tensor(m: Motive, n: Motive) -> Motive:
    """Tensor product: varieties multiply, twists add, and the idempotent is
    the external product of the two, idempotent of degree zero because both
    factors are."""
    p = external_product(_require_instance(m, Motive).idempotent, _require_instance(n, Motive).idempotent)
    return Motive._built(p.source, m.twist + n.twist, p)


def tensor_morphism(f: MotiveMorphism, g: MotiveMorphism) -> MotiveMorphism:
    """Tensor product of morphisms, on the tensor products of the objects."""
    corr = external_product(_require_instance(f, MotiveMorphism).corr, _require_instance(g, MotiveMorphism).corr)
    return MotiveMorphism._built(tensor(f.source, g.source), tensor(f.target, g.target), corr)


def dual(m: Motive) -> Motive:
    """Dual motive: transpose the idempotent (still idempotent, as transposing
    reverses composition) and reflect the twist at dim X."""
    _require_instance(m, Motive)
    return Motive._built(m.variety, m.variety.dim - m.twist, m.idempotent.transpose())


def tate_twist(m: Motive, i: int) -> Motive:
    """The i-th twist lowers the twist index by i and keeps everything else."""
    _require_instance(m, Motive)
    return Motive._built(m.variety, m.twist - _require_int(i, "twist shift"), m.idempotent)


def split_idempotent(m: Motive, p: MotiveMorphism) -> tuple[Motive, MotiveMorphism, MotiveMorphism]:
    """Split a projector p on m: return (image, section, retraction) with
    retraction o section the identity of the image and section o retraction
    equal to p.  The zero projector splits off the zero motive."""
    _require_instance(m, Motive)
    if _require_instance(p, MotiveMorphism).source != m or p.target != m:
        raise InvalidInputError("projector is not an endomorphism of the given motive")
    if compose_motive(p, p) != p:
        raise InvalidInputError("morphism is not idempotent")
    if p.is_zero:
        image = zero_motive()
        return image, MotiveMorphism.zero(image, m), MotiveMorphism.zero(m, image)
    image = Motive._built(m.variety, m.twist, p.corr)
    return image, MotiveMorphism._built(image, m, p.corr), MotiveMorphism._built(m, image, p.corr)


# ---------------------------------------------------------------------------
# formal direct sums (the additive hull, as a matrix category)
# ---------------------------------------------------------------------------


class FormalSum(_Value):
    """A formal direct sum of motives; morphisms between sums are matrices."""

    summands: tuple[Motive, ...]

    def __post_init__(self) -> None:
        self._require_tuple("summands", Motive)

    def __len__(self) -> int:
        return len(self.summands)

    def identity_morphism(self) -> "FormalSumMorphism":
        rows = tuple(
            tuple(
                s.identity_morphism() if i == j else MotiveMorphism.zero(s2, s)
                for j, s2 in enumerate(self.summands)
            )
            for i, s in enumerate(self.summands)
        )
        return FormalSumMorphism._built(self, self, rows)


class FormalSumMorphism(_Value):
    """A matrix of motive morphisms; entry [i][j] maps source summand j to
    target summand i, and composition is matrix composition."""

    source: FormalSum
    target: FormalSum
    matrix: tuple[tuple[MotiveMorphism, ...], ...]

    def __post_init__(self) -> None:
        self._require_types(source=FormalSum, target=FormalSum)
        self._require_tuple("matrix", tuple)
        if len(self.matrix) != len(self.target):
            raise InvalidInputError("matrix has wrong number of rows")
        for i, row in enumerate(self.matrix):
            if len(row) != len(self.source):
                raise InvalidInputError("matrix has wrong number of columns")
            for j, entry in enumerate(row):
                if not isinstance(entry, MotiveMorphism):
                    raise InvalidInputError(f"matrix entry ({i}, {j}) must be a MotiveMorphism, got {entry!r}")
                if entry.source != self.source.summands[j] or entry.target != self.target.summands[i]:
                    raise InvalidInputError(f"matrix entry ({i}, {j}) connects the wrong summands")

    def then(self, other: "FormalSumMorphism") -> "FormalSumMorphism":
        if self.target != _require_instance(other, FormalSumMorphism).source:
            raise DomainMismatchError("matrix morphisms are not composable")
        rows = []
        for i in range(len(other.target)):
            row = []
            for j in range(len(self.source)):
                acc = MotiveMorphism.zero(self.source.summands[j], other.target.summands[i])
                for k in range(len(self.target)):
                    acc = acc + compose_motive(self.matrix[k][j], other.matrix[i][k])
                row.append(acc)
            rows.append(tuple(row))
        return FormalSumMorphism._built(self.source, other.target, tuple(rows))


# ---------------------------------------------------------------------------
# the orbit category (twists forgotten)
# ---------------------------------------------------------------------------


class OrbitMorphism(_Value):
    """A morphism in the category of motives with twists forgotten: a finite
    family of components indexed by the twist offset i, the component at i
    being a morphism into the target twisted i steps.  Concretely component
    i is a sandwiched correspondence of pure degree (s - r) + i, so the
    family is the degree decomposition of one graded correspondence, which
    is what is stored; `components` is a read-only view of its nonzero
    parts."""

    source: Motive
    target: Motive
    corr: GradedCorrespondence

    def __post_init__(self) -> None:
        self._require_types(source=Motive, target=Motive, corr=GradedCorrespondence)
        _check_sandwiched(self.source, self.target, self.corr)

    @staticmethod
    def identity(m: Motive) -> "OrbitMorphism":
        return OrbitMorphism._built(m, m, _require_instance(m, Motive).idempotent)

    @staticmethod
    def from_components(source: Motive, target: Motive,
                        components: Mapping[int, GradedCorrespondence]) -> "OrbitMorphism":
        """The orbit morphism whose component at each offset i is
        `components[i]`, which must join the two varieties and have pure
        degree (s - r) + i."""
        base = _require_instance(target, Motive).twist - _require_instance(source, Motive).twist
        corr = GradedCorrespondence.zero(source.variety, target.variety)
        for i, c in _require_instance(components, Mapping).items():
            _check_component(source, target, c, base + _require_int(i, "component index"), f"component {i}")
            corr = corr + c
        return OrbitMorphism(source, target, corr)

    @property
    def components(self) -> Mapping[int, GradedCorrespondence]:
        base = self.target.twist - self.source.twist
        return MappingProxyType({d - base: self.corr.degree_component(d) for d in self.corr.degrees()})

    def component(self, i: int) -> GradedCorrespondence:
        return self.corr.degree_component(self.target.twist - self.source.twist + _require_int(i, "component index"))

    def indices(self) -> list[int]:
        base = self.target.twist - self.source.twist
        return [d - base for d in self.corr.degrees()]

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "components": {str(i): c.to_json() for i, c in self.components.items()},
        }

    @classmethod
    def from_json(cls, data: object) -> "OrbitMorphism":
        data = _json_object("orbit morphism", data, ("source", "target", "components"))
        source = Motive.from_json(data["source"])
        target = Motive.from_json(data["target"])
        raw = data["components"]
        if not isinstance(raw, dict):
            raise InvalidInputError(f"'components' must be an object, got {raw!r}")
        comps = {}
        for key, value in raw.items():
            try:
                i = int(key)
            except ValueError as exc:
                raise InvalidInputError(f"component key {key!r} is not an integer") from exc
            # "01", " 1" or "1_0" would parse, and could collide with "1"
            if str(i) != key:
                raise InvalidInputError(f"component key {key!r} is not a plain integer")
            comps[i] = GradedCorrespondence.from_json(value)
        return cls.from_components(source, target, comps)


def orbit_compose(f: OrbitMorphism, g: OrbitMorphism) -> OrbitMorphism:
    """Composite in the orbit category (f first, then g): the component at
    offset k sums the composites of components at offsets i and j with
    i + j = k.  Twisting shifts indices only, and composition is bilinear
    in the degrees, so this is one composition of the stored
    correspondences."""
    if _require_instance(f, OrbitMorphism).target != _require_instance(g, OrbitMorphism).source:
        raise DomainMismatchError("orbit morphisms are not composable: object mismatch")
    return OrbitMorphism._built(f.source, g.target, compose_graded(f.corr, g.corr))


def degree_zero_rigidify(f: OrbitMorphism, g: OrbitMorphism) -> tuple[MotiveMorphism, MotiveMorphism]:
    """Extract mutually inverse twist-preserving morphisms from a mutually
    inverse pair of orbit morphisms supported in nonnegative offsets.

    Raises PreconditionError when the pair is not mutually inverse and
    SupportConditionError when either morphism has a component at a negative
    offset.  Returns the offset-0 components, which are then mutual inverses
    on the nose: with every offset >= 0, the offset-0 part of f o g is f0 o g0."""
    m, n = _require_instance(f, OrbitMorphism).source, f.target
    if _require_instance(g, OrbitMorphism).source != n or g.target != m:
        raise DomainMismatchError("orbit morphisms do not form a round trip")
    if orbit_compose(f, g) != OrbitMorphism.identity(m) or orbit_compose(g, f) != OrbitMorphism.identity(n):
        raise PreconditionError("orbit morphisms are not mutually inverse")
    if any(i < 0 for i in f.indices()) or any(j < 0 for j in g.indices()):
        raise SupportConditionError("mutually inverse pair has components at negative offsets")
    # offset-0 components already passed the checks of a morphism m -> n
    f0 = MotiveMorphism._built(m, n, f.component(0))
    g0 = MotiveMorphism._built(n, m, g.component(0))
    return f0, g0


# ---------------------------------------------------------------------------
# kernel pipelines
# ---------------------------------------------------------------------------


class OrlovReport(_Value):
    """Outcome of the derived-equivalence pipeline for a kernel pair."""

    verdict: str
    support_floors: tuple[int | None, int | None]
    degree_zero_pair: tuple[MotiveMorphism, MotiveMorphism] | None


def orlov_pipeline(e: KKernel, f: KKernel) -> OrlovReport:
    """Decide what a kernel pair proves about the motives, by one call of
    `degree_zero_rigidify` on the two correspondence images.

    Mutually inverse images give an isomorphism of motives with twists
    forgotten (`tate-twist-only`); when neither has a component below
    codimension n = dim X, the degree-zero parts rigidify to an isomorphism
    of the motives themselves (`exact-isomorphism`).
    """
    x, y = _require_instance(e, KKernel).source, e.target
    if _require_instance(f, KKernel).source != y or f.target != x:
        raise DomainMismatchError("kernels do not form a round trip")
    if y.dim != x.dim:
        raise InvalidInputError("kernel pair requires source and target of equal dimension")
    a = chow_image(e)
    b = chow_image(f)
    floors = (min(a.cycle.codimensions(), default=None), min(b.cycle.codimensions(), default=None))
    mx, my = motive_of(x), motive_of(y)
    # the idempotents of mx and my are diagonals, which fix every correspondence
    try:
        pair = degree_zero_rigidify(OrbitMorphism._built(mx, my, a), OrbitMorphism._built(my, mx, b))
    except PreconditionError:
        return OrlovReport("not-equivalent", floors, None)
    except SupportConditionError:
        return OrlovReport("tate-twist-only", floors, None)
    return OrlovReport("exact-isomorphism", floors, pair)


def compatibility_check(e: KKernel, f: KKernel) -> bool:
    """Verify Mukai functoriality for a composable kernel pair: the Mukai
    vector of the composite kernel equals the composite of the Mukai
    vectors."""
    return chow_image(k_compose(e, f)) == compose_graded(chow_image(e), chow_image(f))
