import json
import random
from fractions import Fraction

import pytest

from chowmot import (
    Cycle,
    DomainMismatchError,
    GradedCorrespondence,
    InvalidInputError,
    Variety,
    OrbitMorphism,
    diagonal_class,
    make_variety,
    motive_of,
    orbit_compose,
    zero_motive,
)
from chowmot.verify import random_cycle


def brute_force_product(a: Cycle, b: Cycle) -> Cycle:
    """Oracle: expand the polynomial product term by term and drop any
    monomial that crosses a nilpotency bound."""
    bounds = a.variety.factors
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= n for x, n in zip(e, bounds)):
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    return Cycle(a.variety, acc)


class TestVariety:
    def test_point(self):
        x = make_variety([])
        assert x.dim == 0 and not x.factors

    def test_line(self):
        x = make_variety([1])
        assert x.dim == 1
        assert str(x) == "P^1"

    def test_product(self):
        x = make_variety([1, 2])
        assert x.dim == 3
        assert x == make_variety([1]) * make_variety([2])
        assert x != make_variety([2, 1])

    def test_negative_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            make_variety([1, -2])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInputError):
            make_variety([1.5])


class TestArithmetic:
    def test_add(self):
        line = make_variety([1])
        h = Cycle.hyperplane(line, 0)
        assert h + h == Cycle.monomial(line, (1,), 2)

    def test_scale_by_zero(self):
        line = make_variety([1])
        a = Cycle.one(line) + Cycle.hyperplane(line, 0)
        assert a.scale(0) == Cycle.zero(line)

    def test_scalar_on_the_left_scales(self):
        x = make_variety([1, 1])
        c = Cycle.one(x) + Cycle.hyperplane(x, 0).scale(3) - Cycle.monomial(x, (1, 1), Fraction(1, 2))
        assert 2 * c == c.scale(2)
        assert Fraction(-3, 4) * c == c.scale(Fraction(-3, 4))
        assert (0 * c).is_zero
        with pytest.raises(InvalidInputError):
            True * c
        for scalar in (1.5, "x"):
            with pytest.raises(TypeError):
                scalar * c

    def test_linearity(self):
        x = make_variety([1, 1])
        h1 = Cycle.hyperplane(x, 0)
        h2 = Cycle.hyperplane(x, 1)
        half = Fraction(1, 2)
        assert (h1 + h2).scale(half) + (h1 - h2).scale(half) == h1

    def test_variety_mismatch(self):
        with pytest.raises(DomainMismatchError):
            Cycle.one(make_variety([1])) + Cycle.one(make_variety([2]))
        with pytest.raises(DomainMismatchError):
            Cycle.one(make_variety([1])) * Cycle.one(make_variety([1, 1]))

    def test_square_truncates_on_line(self):
        line = make_variety([1])
        h = Cycle.hyperplane(line, 0)
        assert (h * h).is_zero

    def test_square_survives_on_plane(self):
        plane = make_variety([2])
        h = Cycle.hyperplane(plane, 0)
        assert h * h == Cycle.monomial(plane, (2,))

    def test_product_against_expansion_oracle(self):
        x = make_variety([1, 1])
        h1 = Cycle.hyperplane(x, 0)
        h2 = Cycle.hyperplane(x, 1)
        s = h1 + h2
        expected = brute_force_product(s, s)
        assert s * s == expected
        assert expected == Cycle.monomial(x, (1, 1), 2)

    def test_construction_truncates(self):
        line = make_variety([1])
        assert Cycle(line, {(2,): 5}) == Cycle.zero(line)


class TestGrading:
    def test_component_of_unit_plus_h(self):
        line = make_variety([1])
        a = Cycle.one(line) + Cycle.hyperplane(line, 0)
        assert a.graded_component(1) == Cycle.hyperplane(line, 0)

    def test_component_of_zero(self):
        line = make_variety([1])
        assert Cycle.zero(line).graded_component(0).is_zero

    def test_binomial_expansion_component(self):
        plane = make_variety([2])
        u = Cycle.one(plane) + Cycle.hyperplane(plane, 0)
        cube = u * u * u
        # binomial oracle: coefficient of h^2 in (1+h)^3
        import math

        assert cube.graded_component(2) == Cycle.monomial(plane, (2,), math.comb(3, 2))

    def test_components_reassemble(self):
        rng = random.Random(7)
        for _ in range(50):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(0, 3))])
            a = random_cycle(rng, x)
            total = Cycle.zero(x)
            for k in range(x.dim + 1):
                total = total + a.graded_component(k)
            assert total == a


class TestDegree:
    def test_point_class_on_line(self):
        line = make_variety([1])
        assert Cycle.hyperplane(line, 0).degree() == 1

    def test_wrong_codimension(self):
        line = make_variety([1])
        assert Cycle.one(line).degree() == 0

    def test_product_point(self):
        x = make_variety([1, 2])
        assert Cycle.monomial(x, (1, 2), 3).degree() == 3

    def test_pairing_bilinearity(self):
        rng = random.Random(11)
        for _ in range(50):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(1, 3))])
            a, a2, b = (random_cycle(rng, x) for _ in range(3))
            assert ((a + a2) * b).degree() == (a * b).degree() + (a2 * b).degree()


class TestRingLaws:
    def test_commutative_associative_unital(self):
        rng = random.Random(3)
        for _ in range(200):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(0, 3))])
            a, b, c = (random_cycle(rng, x) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            one = Cycle.one(x)
            assert one * a == a and a * one == a


class TestImmutability:
    def test_terms_are_read_only(self):
        a = Cycle.hyperplane(make_variety([2]), 0)
        with pytest.raises(TypeError):
            a.terms[(2,)] = Fraction(1)
        with pytest.raises(AttributeError):
            a.terms = {}
        assert a == Cycle.hyperplane(make_variety([2]), 0)

    def test_equal_cycles_hash_equal(self):
        rng = random.Random(29)
        for _ in range(50):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(0, 3))])
            a = random_cycle(rng, x)
            b = Cycle(x, dict(reversed(list(a.terms.items()))))
            assert a == b and hash(a) == hash(b)
        line = make_variety([1])
        assert len({Cycle.one(line), Cycle.one(line), Cycle.zero(line)}) == 2

    def test_correspondence_is_a_dict_key(self):
        x = make_variety([1, 2])
        cache = {GradedCorrespondence.identity(x): "diagonal"}
        assert cache[GradedCorrespondence(x, x, diagonal_class(x))] == "diagonal"

    def test_orbit_components_are_read_only(self):
        m = motive_of(make_variety([1]))
        for f in (OrbitMorphism.identity(m), OrbitMorphism.from_components(m, m, {0: m.idempotent}),
                  orbit_compose(OrbitMorphism.identity(m), OrbitMorphism.identity(m))):
            with pytest.raises(TypeError):
                f.components[3] = "junk"
            assert f.indices() == [0]

    def test_orbit_morphisms_hash_like_equality(self):
        m = motive_of(make_variety([1]))
        ident = OrbitMorphism.identity(m)
        same = OrbitMorphism.from_components(
            m, m, {0: m.idempotent, 1: GradedCorrespondence.zero(m.variety, m.variety)})
        assert ident == same and hash(ident) == hash(same)
        assert len({ident, same, OrbitMorphism.from_components(m, m, {})}) == 2
        zero = zero_motive()
        assert hash(OrbitMorphism.identity(zero)) == hash(OrbitMorphism.from_components(zero, zero, {}))


class TestSerialization:
    def test_round_trip_is_identity_bytewise(self):
        rng = random.Random(23)
        for _ in range(50):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(0, 3))])
            a = random_cycle(rng, x)
            blob = json.dumps(a.to_json())
            again = json.dumps(Cycle.from_json(json.loads(blob)).to_json())
            assert blob == again

    def test_coefficients_in_lowest_terms(self):
        line = make_variety([1])
        a = Cycle.monomial(line, (1,), Fraction(2, 4))
        assert a.to_json()["terms"][0]["coeff"] == "1/2"

    def test_terms_sorted_lexicographically(self):
        x = make_variety([1, 1])
        a = Cycle(x, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        exps = [t["exps"] for t in a.to_json()["terms"]]
        assert exps == sorted(exps)

    def test_malformed_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            Cycle.from_json({"variety": {"factors": [1]}})
        with pytest.raises(InvalidInputError):
            Cycle.from_json({"variety": {"factors": [1]}, "terms": [{"exps": [0]}]})
        with pytest.raises(InvalidInputError):
            Cycle.from_json({"variety": {"factors": [1]}, "terms": [{"exps": [0], "coeff": "1/0"}]})

    def test_duplicate_terms_accumulate(self):
        data = {
            "variety": {"factors": [1]},
            "terms": [
                {"exps": [1], "coeff": "1/2"},
                {"exps": [1], "coeff": "1/2"},
            ],
        }
        assert Cycle.from_json(data) == Cycle.hyperplane(make_variety([1]), 0)


class TestWorkBudget:
    """Operations that build dense classes from a small input refuse, before
    any work, a working ring or series order over the budget."""

    def test_require_budget_on_ring_sizes(self):
        from chowmot.ring import MAX_MONOMIALS, MAX_SERIES_ORDER, require_budget

        # (n + 1)^k monomials: [7]^6 is exactly 2^18, one more [1] doubles it, [9]^8 is 10^8
        assert 8 ** 6 == MAX_MONOMIALS
        require_budget(make_variety([7, 7, 7]) * make_variety([7, 7, 7]))
        require_budget(make_variety([MAX_MONOMIALS - 1]), MAX_SERIES_ORDER)
        require_budget(make_variety([]), MAX_SERIES_ORDER)
        for variety, order in [(make_variety([7] * 6 + [1]), 0), (make_variety([9] * 8), 0),
                               (make_variety([MAX_MONOMIALS]), 0), (make_variety([]), MAX_SERIES_ORDER + 1)]:
            with pytest.raises(InvalidInputError, match="over the budget"):
                require_budget(variety, order)

    def test_dense_constructions_check_it(self):
        from chowmot import identity_kernel, sqrt_todd, tangent_class, todd_series_coefficients
        from chowmot.ring import MAX_SERIES_ORDER

        for call in (lambda: identity_kernel(make_variety([9, 9, 9, 9])),
                     lambda: diagonal_class(make_variety([9, 9, 9, 9])),
                     lambda: sqrt_todd(make_variety([3000])),
                     lambda: tangent_class(make_variety([9] * 6)),
                     lambda: todd_series_coefficients(MAX_SERIES_ORDER + 1)):
            with pytest.raises(InvalidInputError, match="over the budget"):
                call()

    def test_inputs_at_the_budget_still_run(self):
        from chowmot import sqrt_todd, tangent_class
        from chowmot.ring import MAX_SERIES_ORDER

        n = MAX_SERIES_ORDER
        assert sqrt_todd(make_variety([n])).degree() != 0
        # a tangent class computes no series, so only its ring counts
        assert tangent_class(make_variety([n + 1])).total_chern.degree() == n + 2
