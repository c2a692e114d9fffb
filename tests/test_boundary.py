"""Validation happens once, at the boundary.

Every value has two ways in: a checked constructor or `from_json` for input
from outside, and the private cycle builders of `ring` or a class's `_built` for
results the engine computes, which are correct by construction.  These tests re-run the
validating constructors on such results (they must accept them and rebuild
equal objects), check that the engine's own operations run no validator,
and make sure that input from outside is still rejected.
"""

import contextlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chowmot import (
    Cycle,
    DomainMismatchError,
    FormalSum,
    FormalSumMorphism,
    GradedCorrespondence,
    InvalidInputError,
    KKernel,
    Motive,
    MotiveMorphism,
    OrbitMorphism,
    Variety,
    chern_character,
    chow_image,
    compose_graded,
    compose_motive,
    degree_zero_rigidify,
    diagonal_class,
    diagonal_pushforward,
    dual,
    euler_characteristic,
    external_product,
    identity_kernel,
    k_compose,
    lefschetz_motive,
    line_bundle,
    make_variety,
    motive_of,
    orbit_compose,
    orlov_pipeline,
    permute_factors,
    power_sums,
    series_inverse,
    split_idempotent,
    tangent_class,
    tate_twist,
    tensor,
    tensor_morphism,
    todd_class,
    todd_series_coefficients,
    unit_motive,
    zero_motive,
)
from chowmot.chern import BundleClass, exp_nilpotent, mul_todd_power
from chowmot.cli import main
from chowmot.corr import FactorSelection
from chowmot.ring import MAX_MONOMIALS
from chowmot.verify import (
    _geometric_inverse,
    random_correspondence,
    random_cycle,
    random_cycle_in_codims,
    random_kernel,
)

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
            assert_clean(external_product(f, g).cycle)
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


class TestBundleClassesBuiltUnchecked:
    def test_tangent_and_line_bundle_classes(self):
        for x in VARIETIES:
            for bundle in (tangent_class(x), line_bundle(x, [-1, 2, 3][:x.num_factors])):
                assert BundleClass(bundle.variety, bundle.rank, bundle.total_chern) == bundle
                assert_clean(bundle.total_chern)


def assert_rechecked_corr(c: GradedCorrespondence) -> None:
    """The validating constructor accepts the correspondence unchanged."""
    assert GradedCorrespondence(c.source, c.target, c.cycle) == c
    assert_clean(c.cycle)


class TestCorrespondencesBuiltUnchecked:
    def test_correspondence_algebra(self):
        rng = random.Random(78)
        for _ in range(60):
            x, y, z = (rng.choice(VARIETIES) for _ in range(3))
            f, f2 = random_correspondence(rng, x, y, 8), random_correspondence(rng, x, y, 8)
            g = random_correspondence(rng, y, z, 8)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for r in (GradedCorrespondence.identity(x), GradedCorrespondence.zero(x, y),
                      f.transpose(), f + f2, f - f2, f - f, -f, f.scale(q), compose_graded(f, g),
                      external_product(f, g),
                      *(f.degree_component(d) for d in range(-x.dim - 1, y.dim + 2))):
                assert_rechecked_corr(r)

    def test_diagonal_pushforward(self):
        rng = random.Random(79)
        for x in VARIETIES:
            assert_clean(diagonal_class(x))
            for _ in range(5):
                assert_clean(diagonal_pushforward(x, random_cycle(rng, x, 5)))

    def test_kernels(self):
        rng = random.Random(80)
        pool = [make_variety(d) for d in ([], [1], [2], [1, 1])]
        for _ in range(30):
            x, y, z = (rng.choice(pool) for _ in range(3))
            e, f = random_kernel(rng, x, y, 6), random_kernel(rng, y, z, 6)
            composite = k_compose(e, f)
            assert KKernel(composite.source, composite.target, composite.ch) == composite
            assert_clean(composite.ch)
            assert_rechecked_corr(chow_image(e))
        for x in pool:
            kernel = identity_kernel(x)
            assert KKernel(x, x, kernel.ch) == kernel


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
    def test_building_blocks(self):
        rng = random.Random(81)
        pool = [*(motive_of(make_variety(d)) for d in ([], [1], [2], [1, 1])),
                zero_motive(), lefschetz_motive()]
        for m in pool:
            assert Motive(m.variety, m.twist, m.idempotent) == m
            assert_rechecked_corr(m.idempotent)
        for m in pool:
            assert_rechecked_corr(tensor(m, rng.choice(pool)).idempotent)

    def test_tensor_morphisms(self):
        rng = random.Random(82)
        for _ in range(20):
            a, b, c, d = (rng.choice(motives(rng)) for _ in range(4))
            r = tensor_morphism(MotiveMorphism(a, b, sandwiched(rng, a, b)),
                                MotiveMorphism(c, d, sandwiched(rng, c, d)))
            assert rechecked(r) == r
            assert_rechecked_corr(r.corr)

    def test_formal_sums(self):
        rng = random.Random(83)

        def random_matrix(s: FormalSum, t: FormalSum) -> FormalSumMorphism:
            rows = tuple(tuple(MotiveMorphism(a, b, sandwiched(rng, a, b)) for a in s.summands)
                         for b in t.summands)
            return FormalSumMorphism(s, t, rows)

        for _ in range(10):
            s, t, u = (FormalSum(tuple(rng.choice(motives(rng)) for _ in range(rng.randint(1, 2))))
                       for _ in range(3))
            for r in (s.identity_morphism(), random_matrix(s, t).then(random_matrix(t, u))):
                assert FormalSumMorphism(r.source, r.target, r.matrix) == r
                assert all(rechecked(entry) == entry for row in r.matrix for entry in row)

    def test_orlov_pipeline_images(self):
        line = make_variety([1])
        m = motive_of(line)

        def twist_kernel(d: int) -> KKernel:
            twist = chern_character(line_bundle(line * line, [d, 0]))
            return KKernel(line, line, identity_kernel(line).ch * twist)

        for d in range(-2, 3):
            e, f = twist_kernel(d), twist_kernel(-d)
            report = orlov_pipeline(e, f)
            assert report.verdict == "exact-isomorphism"
            # the images the pipeline sandwiches with the diagonals unchecked
            for image in (chow_image(e), chow_image(f)):
                assert OrbitMorphism(m, m, image).corr == image
            f0, g0 = report.degree_zero_pair
            assert rechecked(f0) == f0 and rechecked(g0) == g0

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
        pool = motives(rng) + [unit_motive(), zero_motive(), tate_twist(unit_motive(), 1)]
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
        nil = GradedCorrespondence(line, line, Cycle.monomial(line * line, (line * line).factors))
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


class TestEngineRunsNoValidator:
    def test_internal_operations_skip_the_checks(self, monkeypatch):
        rng = random.Random(84)
        x, y = make_variety([1]), make_variety([2])
        f, f2 = random_correspondence(rng, x, y, 6), random_correspondence(rng, x, y, 6)
        g = random_correspondence(rng, y, x, 6)
        e, k = random_kernel(rng, x, y, 6), random_kernel(rng, y, x, 6)
        m, n = motive_of(x), lefschetz_motive()
        mn = MotiveMorphism(m, n, sandwiched(rng, m, n))
        nm = MotiveMorphism(n, m, sandwiched(rng, n, m))
        s = FormalSum((m, n))
        matrix = FormalSumMorphism(s, s, ((m.identity_morphism(), nm), (mn, n.identity_morphism())))
        ident = identity_kernel(x)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} re-validated an internal result")

        for cls in (BundleClass, GradedCorrespondence, KKernel, Motive, MotiveMorphism, OrbitMorphism,
                    FormalSumMorphism):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        for op in (
            lambda: GradedCorrespondence.identity(y),
            lambda: GradedCorrespondence.zero(x, y),
            lambda: f.degree_component(1),
            lambda: f.transpose(),
            lambda: f + f2,
            lambda: f - f2,
            lambda: -f,
            lambda: f.scale(3),
            lambda: compose_graded(f, g),
            lambda: external_product(f, g),
            lambda: chow_image(e),
            lambda: k_compose(e, k),
            lambda: identity_kernel(y),
            lambda: motive_of(y),
            lambda: zero_motive(),
            lambda: lefschetz_motive(),
            lambda: tensor(m, n),
            lambda: tensor_morphism(mn, nm),
            lambda: s.identity_morphism(),
            lambda: matrix.then(matrix),
            lambda: tangent_class(y),
            lambda: line_bundle(y, [2]),
        ):
            op()
        assert orlov_pipeline(ident, ident).verdict == "exact-isomorphism"


# well-typed arguments on P^1 for the wrongly typed argument tests
P1 = make_variety([1])
ID = GradedCorrespondence.identity(P1)
M = motive_of(P1)
IDM = M.identity_morphism()
ORBIT = OrbitMorphism.identity(M)
M_SUM = FormalSum((M,))
KERNEL = identity_kernel(P1)


class TestOutsideInputStillChecked:
    def test_correspondence_and_kernel_constructors_reject_wrong_product(self):
        x, y = make_variety([1]), make_variety([2])
        for wrong in (Cycle.one(y * x), Cycle.one(x * x), Cycle.one(x)):
            with pytest.raises(DomainMismatchError, match="expected"):
                GradedCorrespondence(x, y, wrong)
            with pytest.raises(InvalidInputError, match="expected"):
                KKernel(x, y, wrong)
            ends = {"source": x.to_json(), "target": y.to_json()}
            with pytest.raises(DomainMismatchError, match="expected"):
                GradedCorrespondence.from_json(dict(ends, cycle=wrong.to_json()))
            with pytest.raises(InvalidInputError, match="expected"):
                KKernel.from_json(dict(ends, ch=wrong.to_json()))

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

    @pytest.mark.parametrize("factors", [[True], [2, True], [1.0]])
    def test_validation_comes_before_sharing(self, capsys, factors):
        """(True,) and (1.0,) are keys equal to (1,) with equal hashes, so a
        table of shared varieties looked up before validating would hand
        out the shared P^1 or P^2 x P^1 for them."""
        shared = make_variety([1]), make_variety([2, 1])
        for route in (
            lambda: Variety(tuple(factors)),
            lambda: make_variety(factors),
            lambda: Variety.from_json({"factors": factors}),
            lambda: Cycle.from_json({"variety": {"factors": factors}, "terms": []}),
        ):
            with pytest.raises(InvalidInputError, match="nonnegative integers"):
                route()
        assert main(["sqrt-todd", "--variety", json.dumps(factors)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: factor dimensions")
        assert make_variety([1]) is shared[0] and make_variety([2, 1]) is shared[1]

    def test_motive_from_json_rejects_non_idempotent(self):
        line = make_variety([1])
        doubled = GradedCorrespondence.identity(line).scale(2)
        data = {"variety": line.to_json(), "twist": 0, "idempotent": doubled.cycle.to_json()}
        with pytest.raises(InvalidInputError, match="not idempotent"):
            Motive.from_json(data)

    @pytest.mark.parametrize("make, field", [
        (lambda x, c, m: GradedCorrespondence(x, x, "nope"), "cycle"),
        (lambda x, c, m: GradedCorrespondence("x", x, c), "source"),
        (lambda x, c, m: GradedCorrespondence(x, [1], c), "target"),
        (lambda x, c, m: KKernel(x, x, 5), "ch"),
        (lambda x, c, m: KKernel(None, x, c), "source"),
        (lambda x, c, m: BundleClass(x, 1, None), "total_chern"),
        (lambda x, c, m: BundleClass((1,), 1, Cycle.one(x)), "variety"),
        (lambda x, c, m: Motive(x, 0, None), "idempotent"),
        (lambda x, c, m: Motive([1], 0, m.idempotent), "variety"),
        (lambda x, c, m: MotiveMorphism(m, m, c), "corr"),
        (lambda x, c, m: MotiveMorphism(x, m, m.idempotent), "source"),
        (lambda x, c, m: OrbitMorphism(m, "m", m.idempotent), "target"),
        (lambda x, c, m: FactorSelection("x", (0,)), "source"),
        (lambda x, c, m: FactorSelection(x, 5), "selected"),
        (lambda x, c, m: FormalSum(5), "summands"),
        (lambda x, c, m: FormalSum([1, "x"]), "summands"),
        (lambda x, c, m: FormalSumMorphism("ab", FormalSum(()), ()), "source"),
        (lambda x, c, m: Motive(x, "0", m.idempotent), "twist"),
        (lambda x, c, m: Motive(x, True, m.idempotent), "twist"),
        (lambda x, c, m: Cycle(x, [((1,), 1)]), "terms"),
    ], ids=["GradedCorrespondence.cycle", "GradedCorrespondence.source", "GradedCorrespondence.target",
            "KKernel.ch", "KKernel.source", "BundleClass.total_chern", "BundleClass.variety",
            "Motive.idempotent", "Motive.variety", "MotiveMorphism.corr", "MotiveMorphism.source",
            "OrbitMorphism.target", "FactorSelection.source", "FactorSelection.selected",
            "FormalSum.summands-int", "FormalSum.summands-items", "FormalSumMorphism.source",
            "Motive.twist-str", "Motive.twist-bool", "Cycle.terms"])
    def test_wrongly_typed_fields_are_refused(self, make, field):
        """A field of the wrong class is refused with a ChowError naming it,
        before any check reads an attribute of it."""
        x = make_variety([1])
        with pytest.raises(InvalidInputError, match=f"{field} must be a"):
            make(x, Cycle.one(x * x), motive_of(x))

    @pytest.mark.parametrize("call, message", [
        (lambda: line_bundle("x", [1]), "expected a Variety, got 'x'"),
        (lambda: tangent_class((1,)), "expected a Variety, got (1,)"),
        (lambda: line_bundle(make_variety([1]), 3), "degrees must be a list or tuple of integers, got 3"),
    ], ids=["line_bundle-variety", "tangent_class-variety", "line_bundle-degrees"])
    def test_bundle_constructors_refuse_malformed_arguments(self, call, message):
        """The library entry points of `chern` refuse with a ChowError, not
        with the AttributeError or TypeError of reading the argument."""
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: make_variety(3), "factor dimensions must be a sequence of integers, got 3"),
        (lambda: Variety(3), "factor dimensions must be a sequence of integers, got 3"),
        (lambda: Cycle(P1, {1: 1}), "exponent vector must be a sequence of integers, got 1"),
        (lambda: Cycle.monomial(P1, 1), "exponent vector must be a sequence of integers, got 1"),
        (lambda: Cycle.hyperplane([1], 0), "expected a Variety, got [1]"),
    ], ids=["make_variety", "Variety", "Cycle-exponents", "monomial-exponents", "hyperplane-variety"])
    def test_ring_constructors_refuse_malformed_arguments(self, call, message):
        """`make_variety(3)`, `Variety(3)` and a non-iterable exponent vector
        of `Cycle` or `monomial` once raised a TypeError, and `hyperplane` on
        a non-variety the AttributeError of reading it."""
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    def test_cycle_constructors_reject(self):
        x = make_variety([1, 1])
        for terms in ({(1,): 1}, {(1, -1): 1}, {(1, True): 1}, {(0, 0): 0.5}, {(0, 0): "1e99999"}):
            with pytest.raises(InvalidInputError):
                Cycle(x, terms)
        with pytest.raises(InvalidInputError):
            Cycle.monomial(x, (0, 1, 0))
        for make in (Cycle, Cycle.zero, Cycle.one):
            with pytest.raises(InvalidInputError):
                make([1, 1])
        assert Cycle(x, {(2, 0): 1, (0, 1): 0}).is_zero
        data = {"variety": {"factors": [1]}, "terms": [{"exps": [2], "coeff": "1"}]}
        assert Cycle.from_json(data).is_zero

    @pytest.mark.parametrize("index", [0.5, True, "1", 2, -1])
    def test_hyperplane_refuses_an_index_that_names_no_factor(self, index):
        """0.5 once gave the unit class, True gave h2 and "1" a TypeError."""
        x = make_variety([1, 1])
        with pytest.raises(InvalidInputError) as caught:
            Cycle.hyperplane(x, index)
        assert str(caught.value) == f"no factor {index!r} on P^1 x P^1"

    @pytest.mark.parametrize("shift", [0.5, True, "1"])
    def test_tate_twist_refuses_a_non_integer_shift(self, shift):
        """0.5 once gave a motive of twist -0.5, True one of twist -1, and
        "1" a TypeError."""
        with pytest.raises(InvalidInputError) as caught:
            tate_twist(motive_of(make_variety([1])), shift)
        assert str(caught.value) == f"twist shift must be an integer, got {shift!r}"

    @pytest.mark.parametrize("order", [1.5, "3", True])
    def test_todd_series_refuses_a_non_integer_order(self, order):
        """1.5 and "3" once raised a TypeError, and True gave the series of order 1."""
        with pytest.raises(InvalidInputError) as caught:
            todd_series_coefficients(order)
        assert str(caught.value) == f"series order must be an integer, got {order!r}"

    @pytest.mark.parametrize("call, expected", [
        (exp_nilpotent, "Cycle"), (series_inverse, "Cycle"), (euler_characteristic, "Cycle"),
        (power_sums, "BundleClass"), (chern_character, "BundleClass"), (todd_class, "BundleClass"),
        (chow_image, "KKernel"), (lambda value: k_compose(value, value), "KKernel"),
    ], ids=["exp_nilpotent", "series_inverse", "euler_characteristic", "power_sums", "chern_character",
            "todd_class", "chow_image", "k_compose"])
    def test_class_functions_refuse_a_wrongly_typed_argument(self, call, expected):
        """The library entry points of `chern` and `kshadow` that take a cycle, a
        bundle class or a kernel once raised the AttributeError of reading the argument."""
        with pytest.raises(InvalidInputError) as caught:
            call("x")
        assert str(caught.value) == f"expected a {expected}, got 'x'"

    @pytest.mark.parametrize("call, expected", [
        (lambda v: compose_graded(v, ID), "GradedCorrespondence"),
        (lambda v: compose_graded(ID, v), "GradedCorrespondence"),
        (lambda v: external_product(v, ID), "GradedCorrespondence"),
        (lambda v: external_product(ID, v), "GradedCorrespondence"),
        (lambda v: permute_factors(v, (0,)), "Cycle"),
        (lambda v: FactorSelection(P1 * P1, (0,)).pullback(v), "Cycle"),
        (lambda v: FactorSelection(P1 * P1, (0,)).pushforward(v), "Cycle"),
        (lambda v: diagonal_pushforward(P1, v), "Cycle"),
        (lambda v: diagonal_pushforward(v, Cycle.one(P1)), "Variety"),
        (lambda v: orbit_compose(v, ORBIT), "OrbitMorphism"),
        (lambda v: orbit_compose(ORBIT, v), "OrbitMorphism"),
        (lambda v: compose_motive(v, IDM), "MotiveMorphism"),
        (lambda v: compose_motive(IDM, v), "MotiveMorphism"),
        (lambda v: degree_zero_rigidify(v, ORBIT), "OrbitMorphism"),
        (lambda v: degree_zero_rigidify(ORBIT, v), "OrbitMorphism"),
        (lambda v: split_idempotent(v, IDM), "Motive"),
        (lambda v: split_idempotent(M, v), "MotiveMorphism"),
        (lambda v: orlov_pipeline(v, KERNEL), "KKernel"),
        (lambda v: orlov_pipeline(KERNEL, v), "KKernel"),
        (lambda v: tensor(v, M), "Motive"),
        (lambda v: tensor(M, v), "Motive"),
        (lambda v: tensor_morphism(v, IDM), "MotiveMorphism"),
        (lambda v: tensor_morphism(IDM, v), "MotiveMorphism"),
        (lambda v: dual(v), "Motive"),
        (lambda v: tate_twist(v, 1), "Motive"),
        (lambda v: GradedCorrespondence.zero(v, P1), "Variety"),
        (lambda v: GradedCorrespondence.zero(P1, v), "Variety"),
        (lambda v: MotiveMorphism.zero(v, M), "Motive"),
        (lambda v: MotiveMorphism.zero(M, v), "Motive"),
        (lambda v: OrbitMorphism.identity(v), "Motive"),
        (lambda v: OrbitMorphism.from_components(v, M, {}), "Motive"),
        (lambda v: OrbitMorphism.from_components(M, v, {}), "Motive"),
        (lambda v: OrbitMorphism.from_components(M, M, v), "Mapping"),
        (lambda v: OrbitMorphism.from_components(M, M, {0: v}), "GradedCorrespondence"),
        (lambda v: M_SUM.identity_morphism().then(v), "FormalSumMorphism"),
    ], ids=["compose_graded-f", "compose_graded-g", "external_product-f", "external_product-g",
            "permute_factors", "pullback", "pushforward", "diagonal_pushforward-class",
            "diagonal_pushforward-variety", "orbit_compose-f", "orbit_compose-g", "compose_motive-f",
            "compose_motive-g", "degree_zero_rigidify-f", "degree_zero_rigidify-g", "split_idempotent-m",
            "split_idempotent-p", "orlov_pipeline-e", "orlov_pipeline-f", "tensor-m", "tensor-n",
            "tensor_morphism-f", "tensor_morphism-g", "dual", "tate_twist", "GradedCorrespondence.zero-source",
            "GradedCorrespondence.zero-target", "MotiveMorphism.zero-source", "MotiveMorphism.zero-target",
            "OrbitMorphism.identity", "OrbitMorphism.from_components-source",
            "OrbitMorphism.from_components-target", "OrbitMorphism.from_components-components",
            "OrbitMorphism.from_components-component", "FormalSumMorphism.then"])
    def test_corr_and_motives_functions_refuse_a_wrongly_typed_argument(self, call, expected):
        """The library entry points and static constructors of `corr` and
        `motives` once raised the AttributeError of reading an int argument,
        for the variety of a diagonal pushforward a DomainMismatchError, and
        for a variety of `GradedCorrespondence.zero` a TypeError."""
        with pytest.raises(InvalidInputError) as caught:
            call(7)
        assert str(caught.value) == f"expected a {expected}, got 7"

    def test_variety_product_with_a_non_variety_is_not_implemented(self):
        """`make_variety([1]) * 3` once raised the AttributeError of reading
        the other operand's factors; Python now raises its TypeError."""
        x = make_variety([1])
        assert x.__mul__(3) is NotImplemented and x.__mul__((1,)) is NotImplemented
        for call in (lambda: x * 3, lambda: 3 * x, lambda: x * (1,), lambda: x * Cycle.one(x)):
            with pytest.raises(TypeError):
                call()
        assert x * x is make_variety([1, 1]) and x * Variety((2,)) is make_variety([1, 2])

    @pytest.mark.parametrize("exps, message", [
        (5, "exponent vector must be a sequence of integers, got 5"),
        (None, "exponent vector must be a sequence of integers, got None"),
        ([[1], 0], "exponent must be an integer, got [1]"),
        ((True, 0), "exponent must be an integer, got True"),
        ((1.0, 0), "exponent must be an integer, got 1.0"),
    ], ids=["int", "None", "list-entry", "bool-entry", "float-entry"])
    def test_coefficient_refuses_an_exponent_vector_not_of_ints(self, exps, message):
        """5 and None once raised the TypeError of `tuple(exps)`, an entry
        [1] that of hashing it, and (True, 0) and (1.0, 0) read the
        coefficient of (1, 0)."""
        c = Cycle.hyperplane(make_variety([1, 1]), 0)
        with pytest.raises(InvalidInputError) as caught:
            c.coefficient(exps)
        assert str(caught.value) == message
        assert c.coefficient([1, 0]) == c.coefficient((1, 0)) == 1 and c.coefficient((0, 1)) == 0

    @pytest.mark.parametrize("exps, message", [
        ((0, 0, 0), "exponent vector (0, 0, 0) has wrong length for P^1 x P^2"),
        ((-1, 0), "exponents must be nonnegative integers, got -1"),
    ], ids=["wrong-length", "negative"])
    def test_coefficient_refuses_what_monomial_refuses(self, exps, message):
        """A vector of the wrong length or with a negative entry once read
        0; `coefficient` now refuses it with `monomial`'s message, and a
        vector past a nilpotency bound still reads 0."""
        x = make_variety([1, 2])
        c = Cycle(x, {(1, 2): 3, (0, 1): Fraction(1, 2)})
        for call in (lambda: c.coefficient(exps), lambda: Cycle.monomial(x, exps)):
            with pytest.raises(InvalidInputError) as caught:
                call()
            assert str(caught.value) == message
        assert c.coefficient((1, 2)) == 3 and c.coefficient([0, 1]) == Fraction(1, 2)
        assert c.coefficient((2, 0)) == c.coefficient((0, 3)) == c.coefficient((0, 0)) == 0

    def test_correspondence_sum_with_a_non_correspondence_is_not_implemented(self):
        """`+` and `-` once raised the AttributeError of reading the other
        operand; like `Cycle`, they now leave it to the other operand."""
        assert ID.__add__(7) is NotImplemented and ID.__sub__(7) is NotImplemented
        with pytest.raises(TypeError):
            ID + 7
        with pytest.raises(TypeError):
            ID - ID.cycle

    def test_morphism_sum_with_a_non_morphism_is_not_implemented(self):
        """`+` and `-` of motive morphisms once raised the AttributeError of
        reading the other operand; like correspondences, they now leave it
        to the other operand."""
        assert IDM.__add__(7) is NotImplemented and IDM.__sub__(7) is NotImplemented
        with pytest.raises(TypeError):
            IDM + 7
        with pytest.raises(TypeError):
            IDM - ID
        assert (IDM - IDM).is_zero and IDM + IDM - IDM == IDM

    @pytest.mark.parametrize("call", [GradedCorrespondence.identity, motive_of], ids=["identity", "motive_of"])
    @pytest.mark.parametrize("value", [[1], {1}])
    def test_identity_refuses_a_non_variety_before_its_cache(self, call, value):
        """An unhashable value once raised the TypeError of hashing it for
        the cache."""
        with pytest.raises(InvalidInputError) as caught:
            call(value)
        assert str(caught.value) == f"expected a Variety, got {value!r}"

    @pytest.mark.parametrize("order", [(1.0, 0), ("1", 0), 5, None, (True, 0), [0, 1.0]])
    def test_permute_factors_refuses_an_order_that_is_not_a_permutation_of_ints(self, order):
        """(1.0, 0), ("1", 0), 5 and None once raised a TypeError, and (True, 0)
        was taken as (1, 0)."""
        with pytest.raises(InvalidInputError) as caught:
            permute_factors(Cycle.one(make_variety([1, 2])), order)
        assert str(caught.value) == f"{order!r} is not a permutation of 0..1"

    @pytest.mark.parametrize("value", [1.0, True, "1", None, "a"])
    @pytest.mark.parametrize("call, what", [
        (lambda v: Cycle.hyperplane(make_variety([1, 1]), 0).is_homogeneous(v), "codimension"),
        (lambda v: Cycle.hyperplane(make_variety([1, 1]), 0).graded_component(v), "codimension"),
        (lambda v: GradedCorrespondence.identity(make_variety([1])).degree_component(v), "degree"),
        (lambda v: GradedCorrespondence.identity(make_variety([1])).is_pure_degree(v), "degree"),
        (lambda v: ORBIT.component(v), "component index"),
    ], ids=["is_homogeneous", "graded_component", "degree_component", "is_pure_degree", "component"])
    def test_grade_selectors_refuse_a_non_integer(self, call, what, value):
        """1.0 and True once selected grade 1, "1" and None gave the zero
        cycle or False, and some raised a TypeError (`OrbitMorphism.component`
        all but True, which selected component 1)."""
        with pytest.raises(InvalidInputError) as caught:
            call(value)
        assert str(caught.value) == f"{what} must be an integer, got {value!r}"


class TestComposeBudget:
    """`compose_graded` refuses, before any work, operands whose term pairs
    and composite ring are both over the work budget."""

    def test_oversized_composite_is_refused_up_front(self, capsys, tmp_path):
        # every monomial of X = [15,15,15] (4,096) as X -> point and point -> X:
        # the composite would have every monomial of X x X, 16.7M
        x, point = make_variety([15, 15, 15]), make_variety([])
        ones = {e: 1 for e in itertools.product(range(16), repeat=3)}
        f, g = GradedCorrespondence(x, point, Cycle(x, ones)), GradedCorrespondence(point, x, Cycle(x, ones))
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="over the budget"):
            compose_graded(f, g)
        assert time.perf_counter() - start < 1.0
        first, second = tmp_path / "f.json", tmp_path / "g.json"
        first.write_text(json.dumps(f.to_json()))
        second.write_text(json.dumps(g.to_json()))
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code = main(["compose", str(first), str(second), "--format", fmt])
            out, err = capsys.readouterr()
            assert time.perf_counter() - start < 2.0
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and "over the budget" in err

    @pytest.mark.parametrize("f_terms, g_terms, refused", [(512, 512, False), (481, 545, True)])
    def test_the_budget_starts_one_past_max_monomials_term_pairs(self, f_terms, g_terms, refused):
        """On P^600 x P^1 and P^1 x P^600, whose composite ring P^600 x P^600
        is over the budget, exactly MAX_MONOMIALS term pairs (512 * 512) are
        composed and one more (481 * 545) is refused.  Each operand has one
        term at h^1 on the line, the only partner of the other's terms at
        h^0, so the work is small either way."""
        assert 512 * 512 == MAX_MONOMIALS == 481 * 545 - 1
        x, line = make_variety([600]), make_variety([1])
        f = GradedCorrespondence(x, line, Cycle(x * line, {**{(i, 0): 1 for i in range(f_terms - 1)}, (0, 1): 1}))
        g = GradedCorrespondence(line, x, Cycle(line * x, {**{(0, j): 1 for j in range(g_terms - 1)}, (1, 0): 1}))
        assert (len(f.cycle.terms), len(g.cycle.terms)) == (f_terms, g_terms)
        if refused:
            with pytest.raises(InvalidInputError, match="over the budget"):
                compose_graded(f, g)
        else:
            composite = compose_graded(f, g).cycle
            assert len(composite.terms) == 511 + 511 - 1
            assert composite.coefficient((0, 0)) == 2 and composite.coefficient((510, 0)) == 1

    def test_many_term_pairs_on_a_small_ring_still_run(self):
        x = make_variety([4, 4])  # the dense pairs of compose-large: 390,625 pairs, 625 monomials
        dense = GradedCorrespondence(x, x, Cycle(x * x, {e: 1 for e in itertools.product(range(5), repeat=4)}))
        assert len(dense.cycle.terms) ** 2 > MAX_MONOMIALS
        assert not compose_graded(dense, dense).is_zero


class TestSeriesOrderBudget:
    """A Riemann-Roch pairing on P^n asks for the Todd series of order n,
    and a refusal over the budget names that P^n, not the point."""

    def test_euler_characteristic_names_the_variety(self, capsys):
        x = make_variety([257])
        with pytest.raises(InvalidInputError, match=r"^P\^257 \(258 monomials\) with series order 257 "):
            euler_characteristic(Cycle.one(x))
        kclass = json.dumps({"variety": x.to_json(), "ch": Cycle.one(x).to_json()})
        for fmt in ("text", "json"):
            code = main(["euler", kclass, "--format", fmt])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err.startswith("error: P^257 (258 monomials) with series order 257 ")
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("n", [256, 300])
    def test_exp_and_inverse_run_a_series_only_within_the_budget(self, n):
        """exp_nilpotent and series_inverse run a series of order dim X and,
        like the characteristic classes, refuse one over the budget before
        any work; at order 256 both run."""
        x = make_variety([n])
        h = Cycle.hyperplane(x, 0)
        calls = (lambda: exp_nilpotent(h), lambda: series_inverse(Cycle.one(x) + h))
        if n > 256:
            for call in calls:
                with pytest.raises(InvalidInputError, match=rf"^P\^{n} \({n + 1} monomials\) with series order {n} "):
                    call()
        else:
            exp, inverse = (call() for call in calls)
            assert exp.coefficient((n,)) == Fraction(1, math.factorial(n))
            assert inverse.coefficient((n,)) == (-1) ** n and len(inverse.terms) == n + 1

    def test_a_monomial_count_past_the_digit_limit_is_refused(self, capsys):
        """The refusal of a factor of 4,001 digits names the count of its
        monomials, which has too many digits to print, as a bound."""
        for command in ("diagonal", "motive"):
            assert main([command, "--variety", json.dumps([10 ** 4000])]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: P^1000") and "(more than 10^4300 monomials)" in err


# -- a seeded boundary fuzz test ----------------------------------------------

TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.json"

# Each takes the place of one sub-value of a valid input: wrong types, null,
# an integer out of range or past 64 bits or of 4,001 digits, a rational
# literal past the digit limit, empty and nested containers.
MALFORMED = (None, True, -1, 0.5, 2 ** 64, 10 ** 4000, "x", "1e99999", [], {},
             [[[[[[[[[[[]]]]]]]]]]], {"": None})
FUZZ_CALLS = 1500


def _paths(value):
    """The path of every sub-value of a JSON value, the value itself first."""
    yield ()
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        for path in _paths(sub):
            yield (key, *path)


def _replaced(value, path, new):
    """A copy of `value` with the sub-value at `path` replaced by `new`."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def fuzz_corpus() -> dict[str, list]:
    """The mutated calls, by subcommand, as (argv, argument index, path,
    malformed value): each transcript call that exits 0 and takes JSON, with
    one sub-value of one JSON argument replaced, 49,752 in all."""
    corpus: dict[str, list] = {}
    for case in json.loads(TRANSCRIPT.read_text(encoding="utf-8")):
        if case["code"] != 0:
            continue
        for i, arg in enumerate(case["argv"]):
            if arg.startswith(("{", "[")):
                for path in _paths(json.loads(arg)):
                    corpus.setdefault(case["argv"][0], []).extend(
                        (case["argv"], i, path, bad) for bad in MALFORMED)
    return corpus


def fuzz_sample(calls: int = FUZZ_CALLS, seed: int = 19) -> list[list[str]]:
    """About `calls` argvs drawn from the corpus, each subcommand in
    proportion to its share and at least 24 times."""
    corpus = fuzz_corpus()
    total = sum(map(len, corpus.values()))
    rng = random.Random(seed)
    sample = []
    for name, mutations in corpus.items():
        for argv, i, path, bad in rng.sample(mutations, max(24, calls * len(mutations) // total)):
            argv = list(argv)
            argv[i] = json.dumps(_replaced(json.loads(argv[i]), path, bad))
            sample.append(argv)
    return sample


def fuzz_failures(calls) -> list:
    """The calls that do not end cleanly: exit 0, or exit 1 with exactly one
    `error:` line on stderr; never a traceback, and within 2 s."""
    failures = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # a process would print a traceback
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        lines = err.getvalue().splitlines()
        if (code not in (0, 1) or code == 1 and (len(lines) != 1 or not lines[0].startswith("error: "))
                or "Traceback" in err.getvalue() or seconds >= 2):
            failures.append(([arg[:80] for arg in argv], str(code)[:200], lines[:2], seconds))
    return failures


class TestBoundaryFuzz:
    """Malformed JSON in place of one sub-value of each valid input of the
    transcript fails with exit 1 and one `error:` line, never a traceback,
    and fast (ROADMAP item 8)."""

    def test_fuzz_draws_every_subcommand_that_takes_json(self):
        sample = fuzz_sample()
        assert sum(map(len, fuzz_corpus().values())) == 49752
        assert FUZZ_CALLS <= len(sample) < FUZZ_CALLS + 17 * 24
        assert {argv[0] for argv in sample} == {
            "chern-character", "compat", "compose", "diagonal", "euler", "identity-kernel", "k-compose",
            "motive", "mu", "orbit-compose", "orlov", "ring", "split", "sqrt-todd", "tangent", "todd",
            "transpose"}

    def test_fuzz_malformed_input_fails_cleanly(self):
        assert fuzz_failures(fuzz_sample()) == []

    def test_fuzz_catches_a_parser_that_raises(self, monkeypatch):
        """Negative control: a `from_json` that raises KeyError, as a
        parser indexing a missing key would, is caught."""
        def broken(cls, data):
            raise KeyError("cycle")

        monkeypatch.setattr(GradedCorrespondence, "from_json", classmethod(broken))
        failures = fuzz_failures(argv for argv in fuzz_sample() if argv[0] in ("compose", "transpose"))
        assert failures and all(code.startswith("KeyError") for _, code, _, _ in failures)
