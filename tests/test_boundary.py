"""Validation happens once, at the boundary.

Internal results are built without checks because they are correct by
construction; these tests re-run the validating constructors on such results
(they must accept them and rebuild equal objects), and make sure that input
from outside is still rejected.
"""

import json
import random
from fractions import Fraction

import pytest

from chowmot import (
    Cycle,
    GradedCorrespondence,
    InvalidInputError,
    Motive,
    MotiveMorphism,
    OrbitMorphism,
    Variety,
    cartesian,
    compose_graded,
    compose_motive,
    degree_zero_rigidify,
    dual,
    lefschetz_motive,
    make_variety,
    motive_of,
    orbit_compose,
    permute_factors,
    split_idempotent,
    tate_motive,
    tate_twist,
    tensor,
    unit_motive,
    zero_motive,
)
from chowmot.chern import exp_nilpotent, mul_todd_power
from chowmot.corr import FactorSelection
from chowmot.verify import _geometric_inverse, random_cycle, random_cycle_in_codims

VARIETIES = [make_variety(d) for d in ([], [1], [2], [1, 1], [1, 2], [2, 2], [1, 1, 1])]


def assert_clean(c: Cycle) -> None:
    """The validating constructor accepts the terms unchanged: no zero
    coefficient, nothing past a bound, only Fractions."""
    assert Cycle(c.variety, dict(c.terms)) == c
    assert all(type(v) is Fraction and v != 0 for v in c.terms.values())


def assert_clean_variety(v: Variety) -> None:
    """The validating constructor accepts the factors unchanged: a tuple of
    plain nonnegative ints."""
    assert Variety(v.factors) == v and make_variety(list(v.factors)) == v
    assert type(v.factors) is tuple and all(type(n) is int and n >= 0 for n in v.factors)


class TestVarietiesBuiltUnchecked:
    def test_products_selections_and_permutations(self):
        rng = random.Random(70)
        for _ in range(60):
            x, y = rng.choice(VARIETIES), rng.choice(VARIETIES)
            xy = x * y
            assert_clean_variety(xy)
            k = xy.num_factors
            sel = FactorSelection(xy, tuple(sorted(rng.sample(range(k), rng.randint(0, k)))))
            assert_clean_variety(sel.target)
            assert sel.target is sel.target  # computed once per selection
            order = tuple(rng.sample(range(k), k))
            assert_clean_variety(permute_factors(random_cycle(rng, xy, 3), order).variety)


class TestCyclesBuiltUnchecked:
    def test_ring_arithmetic(self):
        rng = random.Random(71)
        for _ in range(60):
            x = rng.choice(VARIETIES)
            a, b = random_cycle(rng, x, 6), random_cycle(rng, x, 6)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for r in (a + b, a - b, a + (-a), -a, a.scale(q), a.scale(0), a * b, a * a):
                assert_clean(r)
            for k in range(x.dim + 2):
                assert_clean(a.graded_component(k))
            assert (a - a).is_zero and a.scale(0).is_zero

    def test_cancellation_drops_terms(self):
        x = make_variety([1, 1])
        h1, h2 = Cycle.hyperplane(x, 0), Cycle.hyperplane(x, 1)
        a, b = h1 + h2, h1 - h2
        # h1^2 = h2^2 = 0 on P^1 x P^1, and the cross terms cancel
        assert dict((a * b).terms) == {}
        assert dict((a + b).terms) == {(1, 0): 2}

    def test_correspondence_operations(self):
        rng = random.Random(72)
        for _ in range(60):
            x, y, z = (rng.choice(VARIETIES) for _ in range(3))
            f = GradedCorrespondence(x, y, random_cycle(rng, x * y, 8))
            g = GradedCorrespondence(y, z, random_cycle(rng, y * z, 8))
            assert_clean(compose_graded(f, g).cycle)
            assert_clean(f.transpose().cycle)
            assert_clean(cartesian(f.cycle, g.cycle))
            k = (x * y).num_factors
            order = tuple(rng.sample(range(k), k))
            assert_clean(permute_factors(f.cycle, order))
            kept = tuple(sorted(rng.sample(range(k), rng.randint(0, k))))
            sel = FactorSelection(x * y, kept)
            assert_clean(sel.pushforward(f.cycle))
            assert_clean(sel.pullback(random_cycle(rng, sel.target, 4)))

    def test_todd_powers_and_exp(self):
        rng = random.Random(73)
        for x in VARIETIES:
            for s in (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2)):
                assert_clean(mul_todd_power(Cycle.one(x), s))
                assert_clean(mul_todd_power(random_cycle(rng, x, 5), s))
            u = random_cycle_in_codims(rng, x, list(range(1, x.dim + 1)), terms=5)
            assert_clean(exp_nilpotent(u))


def sandwiched(rng, source: Motive, target: Motive, offset: int = 0) -> GradedCorrespondence:
    codim = source.variety.dim + target.twist - source.twist + offset
    raw = GradedCorrespondence(
        source.variety, target.variety,
        random_cycle_in_codims(rng, source.variety * target.variety, [codim]),
    )
    return compose_graded(compose_graded(source.idempotent, raw), target.idempotent)


def motives(rng):
    return [
        motive_of(make_variety([1])),
        motive_of(make_variety([2])),
        lefschetz_motive(),
        tate_twist(motive_of(make_variety([1])), rng.randint(-1, 1)),
    ]


def rechecked(f: MotiveMorphism) -> MotiveMorphism:
    return MotiveMorphism(f.source, f.target, f.corr)


class TestMotivesBuiltUnchecked:
    def test_composites_and_sums(self):
        rng = random.Random(74)
        for _ in range(40):
            a, b, c = (rng.choice(motives(rng)) for _ in range(3))
            f = MotiveMorphism(a, b, sandwiched(rng, a, b))
            f2 = MotiveMorphism(a, b, sandwiched(rng, a, b))
            g = MotiveMorphism(b, c, sandwiched(rng, b, c))
            for r in (compose_motive(f, g), f + f2, f - f2, -f, f - f,
                      MotiveMorphism.zero(a, c), a.identity_morphism()):
                assert rechecked(r) == r

    def test_split_idempotent(self):
        m = motive_of(make_variety([1]))
        line = make_variety([1])
        for cycle in (Cycle.hyperplane(line * line, 0), Cycle.hyperplane(line * line, 1),
                      m.idempotent.cycle, Cycle.zero(line * line)):
            p = MotiveMorphism(m, m, GradedCorrespondence(line, line, cycle))
            image, section, retraction = split_idempotent(m, p)
            assert Motive(image.variety, image.twist, image.idempotent) == image
            assert rechecked(section) == section and rechecked(retraction) == retraction

    def test_duals_tensors_and_twists(self):
        rng = random.Random(77)
        pool = motives(rng) + [unit_motive(), zero_motive(), tate_motive()]
        for m in pool:
            for r in (dual(m), dual(dual(m)), tate_twist(m, rng.randint(-3, 3)),
                      *(tensor(m, n) for n in pool)):
                assert Motive(r.variety, r.twist, r.idempotent) == r

    def test_orbit_composition(self):
        rng = random.Random(75)
        for _ in range(40):
            a, b, c = (rng.choice(motives(rng)) for _ in range(3))
            f = OrbitMorphism.from_components(a, b, {i: sandwiched(rng, a, b, i) for i in (-1, 0, 1)})
            g = OrbitMorphism.from_components(b, c, {i: sandwiched(rng, b, c, i) for i in (0, 2)})
            r = orbit_compose(f, g)
            assert OrbitMorphism.from_components(r.source, r.target, dict(r.components)) == r
            assert all(not comp.is_zero for comp in r.components.values())

    def test_orbit_composition_drops_cancelled_components(self):
        line = make_variety([1])
        m = motive_of(line)
        nil = GradedCorrespondence(line, line, Cycle.point_class(line * line))
        f = OrbitMorphism.from_components(m, m, {0: m.idempotent, 1: nil})
        g = OrbitMorphism.from_components(m, m, {0: m.idempotent, 1: -nil})
        # offset 1 sums nil and -nil, offset 2 is nil o nil = 0
        assert dict(orbit_compose(f, g).components) == {0: m.idempotent}
        assert orbit_compose(f, g) == OrbitMorphism.identity(m)

    def test_orbit_identity(self):
        for m in (motive_of(make_variety([2])), lefschetz_motive(), zero_motive()):
            ident = OrbitMorphism.identity(m)
            assert ident == OrbitMorphism.from_components(m, m, {0: m.idempotent})
        assert OrbitMorphism.identity(zero_motive()).components == {}

    def test_rigidified_pair(self):
        rng = random.Random(76)
        x = make_variety([2])
        m = motive_of(x)
        ident = GradedCorrespondence.identity(x)
        for _ in range(10):
            nil = GradedCorrespondence(
                x, x, random_cycle_in_codims(rng, x * x, list(range(x.dim + 1, 2 * x.dim + 1)))
            )
            f = OrbitMorphism(m, m, ident + nil)
            g = OrbitMorphism(m, m, _geometric_inverse(ident, nil))
            f0, g0 = degree_zero_rigidify(f, g)
            assert rechecked(f0) == f0 and rechecked(g0) == g0


class TestOutsideInputStillChecked:
    def test_from_graded_rejects_unsandwiched(self):
        lef = lefschetz_motive()
        diagonal = GradedCorrespondence.identity(make_variety([1]))
        with pytest.raises(InvalidInputError, match="not fixed by the motive idempotents"):
            OrbitMorphism(lef, lef, diagonal)

    def test_orbit_from_json_rejects_wrong_degree(self):
        m = motive_of(make_variety([1]))
        good = OrbitMorphism.identity(m).to_json()
        assert OrbitMorphism.from_json(json.loads(json.dumps(good))) == OrbitMorphism.identity(m)
        bad = dict(good, components={"1": good["components"]["0"]})
        with pytest.raises(InvalidInputError, match="must have pure degree 1"):
            OrbitMorphism.from_json(bad)

    def test_motive_morphism_constructor_rejects(self):
        m = motive_of(make_variety([1]))
        lef = lefschetz_motive()
        with pytest.raises(InvalidInputError, match="not fixed"):
            MotiveMorphism(lef, lef, m.idempotent)
        with pytest.raises(InvalidInputError, match="pure degree"):
            MotiveMorphism(m, tate_twist(m, 1), m.idempotent)
        with pytest.raises(InvalidInputError, match="varieties"):
            MotiveMorphism(m, motive_of(make_variety([2])), m.idempotent)

    def test_variety_constructors_reject(self):
        for factors in ([-1], [True], [1, -1], [2, True]):
            with pytest.raises(InvalidInputError, match="nonnegative integers"):
                Variety(tuple(factors))
            with pytest.raises(InvalidInputError, match="nonnegative integers"):
                make_variety(factors)
            with pytest.raises(InvalidInputError, match="nonnegative integers"):
                Variety.from_json({"factors": factors})

    def test_motive_from_json_rejects_non_idempotent(self):
        line = make_variety([1])
        doubled = GradedCorrespondence.identity(line).scale(2)
        data = {"variety": line.to_json(), "twist": 0, "idempotent": doubled.cycle.to_json()}
        with pytest.raises(InvalidInputError, match="not idempotent"):
            Motive.from_json(data)

    def test_cycle_constructors_reject(self):
        x = make_variety([1, 1])
        for terms in ({(1,): 1}, {(1, -1): 1}, {(1, True): 1}, {(0, 0): 0.5}, {(0, 0): "1e99999"}):
            with pytest.raises(InvalidInputError):
                Cycle(x, terms)
        with pytest.raises(InvalidInputError):
            Cycle.monomial(x, (0, 1, 0))
        assert Cycle(x, {(2, 0): 1, (0, 1): 0}).is_zero
        data = {"variety": {"factors": [1]}, "terms": [{"exps": [2], "coeff": "1"}]}
        assert Cycle.from_json(data).is_zero
