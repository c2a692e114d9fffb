"""The packed, integer-numerator cycle representation against a plain one.

The reference below stores a cycle as a dict from exponent tuples to
Fractions and implements every ring and correspondence operation the
engine computes on packed keys, directly from its definition.  Seeded
random cycles with rational coefficients run through both on varieties
whose factors cross the key's field-width boundaries (n = 0, 1 share a
2-bit field; 2, 3 a 3-bit one; 4, 7 a 4-bit one; 8 a 5-bit one).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chowmot import (
    Cycle,
    FactorSelection,
    GradedCorrespondence,
    KKernel,
    compose_graded,
    diagonal_pushforward,
    euler_characteristic,
    exp_nilpotent,
    external_product,
    k_compose,
    make_variety,
    permute_factors,
)
from chowmot import chern, ring
from chowmot.chern import mul_todd_power

WIDTH_LADDER = [(), (0,), (1,), (2, 3), (4,), (7, 8), (0, 3, 1)]


# -- the reference: exponent tuples to Fractions -------------------------------


def nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def accumulate(pairs):
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, Fraction(0)) + c
    return nonzero(out)


def ref_product(a, b, bounds, slack=0):
    """Truncated product; slack=1 keeps exponents up to n + 1 (wrong)."""
    return accumulate(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        for e1, c1 in a.items() for e2, c2 in b.items()
        if all(x + y <= n + slack for x, y, n in zip(e1, e2, bounds))
    )


def ref_linear(a, b, sign):
    return accumulate([*a.items(), *((e, sign * c) for e, c in b.items())])


def ref_scale(a, s):
    return nonzero({e: s * c for e, c in a.items()})


def ref_graded(a, k):
    return {e: c for e, c in a.items() if sum(e) == k}


def ref_pullback(a, selected, k):
    def spread(e):
        new = [0] * k
        for pos, i in enumerate(selected):
            new[i] = e[pos]
        return tuple(new)

    return {spread(e): c for e, c in a.items()}


def ref_pushforward(a, selected, bounds):
    dropped = [i for i in range(len(bounds)) if i not in selected]
    return accumulate((tuple(e[i] for i in selected), c) for e, c in a.items()
                      if all(e[i] == bounds[i] for i in dropped))


def ref_cartesian(a, b):
    return {e1 + e2: c1 * c2 for e1, c1 in a.items() for e2, c2 in b.items()}


def ref_permute(a, order):
    return {tuple(e[i] for i in order): c for e, c in a.items()}


def ref_diagonal_pushforward(g, bounds):
    """p1^* g times the diagonal class sum_i prod h_i^a h_i'^{n_i - a}."""
    k = len(bounds)
    diagonal = {(): Fraction(1)}
    for n in bounds:
        diagonal = {e + (a,): c for e, c in diagonal.items() for a in range(n + 1)}
    diagonal = {first + tuple(n - a for n, a in zip(bounds, first)): c for first, c in diagonal.items()}
    lifted = {e + (0,) * k: c for e, c in g.items()}
    return ref_product(lifted, diagonal, bounds + bounds)


def ref_compose(f, g, kx, top_y):
    ky = len(top_y)
    return accumulate(
        (ef[:kx] + eg[ky:], a * b)
        for ef, a in f.items() for eg, b in g.items()
        if all(x + y == n for x, y, n in zip(ef[kx:], eg[:ky], top_y))
    )


def ref_mul_todd_power(a, s, bounds, factors):
    for i in factors:
        n = bounds[i]
        den, ints = chern._todd_factor_series(n, s)
        series = [Fraction(t, den) for t in ints]
        a = accumulate(
            (e[:i] + (e[i] + j,) + e[i + 1:], c * series[j])
            for e, c in a.items() for j in range(n + 1 - e[i])
        )
    return a


def ref_exp(u, bounds):
    out = {(0,) * len(bounds): Fraction(1)}
    power = dict(out)
    for k in range(1, sum(bounds) + 1):
        power = ref_scale(ref_product(power, u, bounds), Fraction(1, k))
        out = ref_linear(out, power, 1)
    return out


def ref_euler(ch, bounds):
    series = [[Fraction(t, den) for t in ints]
              for den, ints in (chern._todd_factor_series(n, 1) for n in bounds)]
    return sum((c * math.prod(t[n - x] for t, n, x in zip(series, bounds, e))
                for e, c in ch.items()), Fraction(0))


# -- seeded inputs ---------------------------------------------------------------


def monomials(bounds):
    cells = [()]
    for n in bounds:
        cells = [e + (x,) for e in cells for x in range(n + 1)]
    return cells


def rand_terms(rng, bounds, count):
    """Terms on random monomials, repeats summed, with small rational
    coefficients over several denominators."""
    cells = monomials(bounds)
    return accumulate((rng.choice(cells), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                      for _ in range(count))


def engine(terms, bounds):
    return Cycle(make_variety(bounds), terms)


def point_product(a, b):
    """The cartesian product as the engine computes it: the external product
    of the two cycles as correspondences from the point."""
    point = make_variety([])
    return external_product(GradedCorrespondence(point, a.variety, a),
                            GradedCorrespondence(point, b.variety, b)).cycle


def assert_matches(cycle, terms):
    assert dict(cycle.terms) == terms
    assert cycle == engine(terms, cycle.variety.factors)
    assert hash(cycle) == hash(engine(terms, cycle.variety.factors))
    assert_canonical(cycle)


def assert_canonical(cycle):
    assert cycle._den > 0
    assert all(cycle._num.values())
    assert math.gcd(cycle._den, *cycle._num.values()) == 1


@pytest.fixture(params=WIDTH_LADDER, ids=str)
def bounds(request):
    return request.param


class TestRingOperations:
    def test_arithmetic(self, bounds):
        rng = random.Random(f"ring:{bounds}")
        for _ in range(25):
            a, b = (rand_terms(rng, bounds, rng.randint(0, 10)) for _ in range(2))
            x, y = engine(a, bounds), engine(b, bounds)
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert_matches(x * y, ref_product(a, b, bounds))
            assert_matches(x + y, ref_linear(a, b, 1))
            assert_matches(x - y, ref_linear(a, b, -1))
            assert_matches(-x, ref_scale(a, -1))
            assert_matches(x.scale(s), ref_scale(a, s))
            assert_matches(x + y - y, a)
            for k in range(sum(bounds) + 2):
                assert_matches(x.graded_component(k), ref_graded(a, k))
                assert x.is_homogeneous(k) == all(sum(e) == k for e in a)
            assert x.codimensions() == sorted({sum(e) for e in a})
            assert x.degree() == a.get(bounds, 0)
            for e in monomials(bounds):
                assert x.coefficient(e) == a.get(e, 0)

    def test_serialization_order_equality_and_hash(self, bounds):
        rng = random.Random(f"json:{bounds}")
        for _ in range(25):
            a = rand_terms(rng, bounds, rng.randint(0, 12))
            x = engine(a, bounds)
            data = x.to_json()
            assert [t["exps"] for t in data["terms"]] == sorted(list(e) for e in a)
            assert [t["coeff"] for t in data["terms"]] == [str(a[e]) for e in sorted(a)]
            assert Cycle.from_json(data) == x
            if a:
                e = rng.choice(sorted(a))
                assert engine({**a, e: a[e] + 1}, bounds) != x

    def test_exp_and_euler_characteristic(self, bounds):
        rng = random.Random(f"series:{bounds}")
        for _ in range(10):
            u = rand_terms(rng, bounds, rng.randint(0, 6))
            u.pop((0,) * len(bounds), None)
            assert_matches(exp_nilpotent(engine(u, bounds)), ref_exp(u, bounds))
            ch = rand_terms(rng, bounds, rng.randint(0, 8))
            assert euler_characteristic(engine(ch, bounds)) == ref_euler(ch, bounds)

    def test_todd_power_multiplication(self, bounds):
        rng = random.Random(f"todd:{bounds}")
        k = len(bounds)
        for _ in range(10):
            a = rand_terms(rng, bounds, rng.randint(0, 8))
            s = rng.choice([Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2), Fraction(3, 2)])
            factors = sorted(rng.sample(range(k), rng.randint(0, k)))
            got = mul_todd_power(engine(a, bounds), s, factors)
            assert_matches(got, ref_mul_todd_power(a, s, bounds, factors))
        assert_matches(mul_todd_power(engine(a, bounds), s), ref_mul_todd_power(a, s, bounds, range(k)))

    def test_wrong_truncation_is_caught(self, bounds):
        """Negative control: a reference that keeps e = n + 1 must disagree
        with the engine on these inputs (on a point or P^0 no exponent can
        pass a bound)."""
        if not any(bounds):
            return
        rng = random.Random(f"control:{bounds}")
        disagreements = 0
        for _ in range(25):
            a, b = (rand_terms(rng, bounds, rng.randint(4, 12)) for _ in range(2))
            got = dict((engine(a, bounds) * engine(b, bounds)).terms)
            assert got == ref_product(a, b, bounds)
            disagreements += got != ref_product(a, b, bounds, slack=1)
        assert disagreements > 0


TODD_POWER_VARIETIES = [(1,), (2, 1), (3, 3), (1, 1, 1)]
TODD_POWER_EXPONENTS = (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2), Fraction(3, 2))


class TestMulToddPowerReference:
    """`mul_todd_power`, which reduces once after all its factor passes,
    against the reference that multiplies by each factor's series in
    Fractions: every exponent, every subset of the factors (the empty one
    too), and the zero, unit and random cycles."""

    @pytest.mark.parametrize("bounds", TODD_POWER_VARIETIES, ids=str)
    def test_every_exponent_and_factor_subset(self, bounds):
        rng = random.Random(f"todd-subsets:{bounds}")
        k = len(bounds)
        subsets = [c for r in range(k + 1) for c in itertools.combinations(range(k), r)]
        cycles = [{}, {(0,) * k: Fraction(1)}] + [rand_terms(rng, bounds, 6) for _ in range(3)]
        for s in TODD_POWER_EXPONENTS:
            for factors in subsets:
                for a in cycles:
                    assert_matches(mul_todd_power(engine(a, bounds), s, factors),
                                   ref_mul_todd_power(a, s, bounds, factors))


class TestCorrespondenceOperations:
    def test_projections(self, bounds):
        rng = random.Random(f"proj:{bounds}")
        k = len(bounds)
        x = make_variety(bounds)
        for _ in range(15):
            selected = tuple(sorted(rng.sample(range(k), rng.randint(0, k))))
            sel = FactorSelection(x, selected)
            down = tuple(bounds[i] for i in selected)
            a = rand_terms(rng, down, rng.randint(0, 6))
            assert_matches(sel.pullback(engine(a, down)), ref_pullback(a, selected, k))
            b = rand_terms(rng, bounds, rng.randint(0, 10))
            b.update({bounds: Fraction(2, 3)})  # one term that always survives
            assert_matches(sel.pushforward(engine(b, bounds)), ref_pushforward(b, selected, bounds))

    def test_products_permutations_and_diagonal(self, bounds):
        rng = random.Random(f"prod:{bounds}")
        for _ in range(10):
            other = rng.choice(WIDTH_LADDER)
            a, b = rand_terms(rng, bounds, rng.randint(0, 6)), rand_terms(rng, other, rng.randint(0, 6))
            assert_matches(point_product(engine(a, bounds), engine(b, other)), ref_cartesian(a, b))
            both = bounds + other
            order = tuple(rng.sample(range(len(both)), len(both)))
            c = rand_terms(rng, both, rng.randint(0, 8))
            assert_matches(permute_factors(engine(c, both), order), ref_permute(c, order))
            g = rand_terms(rng, bounds, rng.randint(0, 6))
            got = diagonal_pushforward(make_variety(bounds), engine(g, bounds))
            assert_matches(got, ref_diagonal_pushforward(g, bounds))

    def test_composition(self, bounds):
        rng = random.Random(f"compose:{bounds}")
        for _ in range(15):
            y = rng.choice(WIDTH_LADDER)
            z = rng.choice(WIDTH_LADDER)
            # dense middles make many products land on one key
            f = rand_terms(rng, bounds + y, rng.randint(0, 40))
            g = rand_terms(rng, y + z, rng.randint(0, 40))
            x_, y_, z_ = (make_variety(v) for v in (bounds, y, z))
            got = compose_graded(GradedCorrespondence(x_, y_, engine(f, bounds + y)),
                                 GradedCorrespondence(y_, z_, engine(g, y + z)))
            assert got.source == x_ and got.target == z_
            assert_matches(got.cycle, ref_compose(f, g, len(bounds), y))


class TestCanonicalForm:
    def test_every_route_gives_identical_fields(self):
        x = make_variety([2, 3])
        cycle = Cycle(x, {(0, 0): Fraction(6, 4), (1, 2): Fraction(-10, 12), (2, 3): Fraction(4, 1)})
        parsed = Cycle.from_json({"variety": {"factors": [2, 3]}, "terms": [
            {"exps": [2, 3], "coeff": "8/2"},
            {"exps": [1, 2], "coeff": "-1/3"},
            {"exps": [0, 0], "coeff": "3/2"},
            {"exps": [1, 2], "coeff": "-1/2"},
            {"exps": [3, 0], "coeff": "7"},  # past the bound: dropped
        ]})
        b = Cycle(x, {(1, 2): Fraction(5, 6), (2, 0): Fraction(1, 7)})
        computed = cycle + b - b
        for c in (cycle, parsed, computed):
            assert (c._den, c._num) == (cycle._den, cycle._num)
            assert hash(c) == hash(cycle) and c == cycle
            assert_canonical(c)
        assert cycle._den == 6  # lcm of 2, 6 and 1; numerators 9, -5, 24

    def test_cancellation_reduces_the_denominator(self):
        x = make_variety([1])
        half = Cycle(x, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        assert half._den == 2
        doubled = half + half
        assert (doubled._den, sorted(doubled._num.values())) == (1, [1, 1])
        zero = half - half
        assert (zero._den, zero._num) == (1, {}) and zero == Cycle.zero(x)

    def test_values_stay_immutable(self):
        a = Cycle(make_variety([2]), {(1,): Fraction(1, 2)})
        with pytest.raises(TypeError):
            a.terms[(2,)] = Fraction(1)
        for name in ("variety", "terms", "_den", "_num", "_terms", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        assert a == Cycle(make_variety([2]), {(1,): Fraction(1, 2)})


# -- the unchecked builders of engine results ----------------------------------


def assert_like_checked(cycle):
    """A fresh engine result: canonical, immutable, `terms` not yet built,
    and equal, field for field and in hash, to the checked constructor's
    cycle of the same terms."""
    assert_canonical(cycle)
    if not cycle._num:
        assert (cycle._den, cycle._num) == (1, {})
    with pytest.raises(AttributeError):
        cycle._terms
    for name in ("variety", "_den", "_num", "_terms"):
        with pytest.raises(AttributeError):
            setattr(cycle, name, None)
    checked = Cycle(cycle.variety, dict(cycle.terms))
    assert cycle._terms is cycle.terms
    assert (checked.variety, checked._den, checked._num) == (cycle.variety, cycle._den, cycle._num)
    assert checked == cycle and hash(checked) == hash(cycle)


X23 = make_variety([2, 3])
K1, K2, K3 = (sum(e << shift for e, shift in zip(exps, X23._layout.shifts)) for exps in ((0, 1), (1, 0), (2, 3)))

# (den, accumulated numerators) -> (den, numerators) of the result
REDUCED_CASES = {
    "nothing-to-do": ((1, {K1: 3, K2: -2}), (1, {K1: 3, K2: -2})),
    "cancelled-entry": ((1, {K1: 3, K2: 0, K3: 1}), (1, {K1: 3, K3: 1})),
    "all-cancelled-over-den": ((5, {K1: 0, K2: 0}), (1, {})),
    "empty-over-den": ((7, {}), (1, {})),
    "common-factor": ((6, {K1: 4, K2: -2, K3: 0}), (3, {K1: 2, K2: -1})),
    "coprime-over-den": ((6, {K1: 5, K2: 3}), (6, {K1: 5, K2: 3})),
    "factor-divides-den": ((4, {K1: 8}), (1, {K1: 2})),
}


class TestResultBuilders:
    @pytest.mark.parametrize("case", REDUCED_CASES, ids=str)
    def test_reduced(self, case):
        (den, acc), want = REDUCED_CASES[case]
        c = ring._reduced(X23, den, dict(acc))
        assert (c._den, c._num) == want
        assert_like_checked(c)
        assert c == Cycle(X23, {e: Fraction(v, den) for e, v in zip(X23._layout.unpack(list(acc)), acc.values())})

    def test_reduced_adopts_a_dict_with_nothing_to_drop_or_divide(self):
        for den in (1, 6):
            acc = {K1: 5, K2: 3}
            assert ring._reduced(X23, den, acc)._num is acc
        acc = {K1: 5, K2: 0}
        assert ring._reduced(X23, 1, acc)._num is not acc and acc == {K1: 5, K2: 0}

    def test_cycle_and_reduced_results_of_engine_operations(self):
        rng = random.Random(101)
        x = X23
        a, b = (engine(rand_terms(rng, (2, 3), 6), (2, 3)) for _ in range(2))
        sel = FactorSelection(x, (1,))
        for op in (
            lambda: -a,
            lambda: a + b,
            lambda: a - a,
            lambda: a * b,
            lambda: a.scale(Fraction(-4, 9)),
            lambda: a.graded_component(2),
            lambda: sel.pullback(sel.pushforward(a)),
            lambda: sel.pushforward(a * b),
            lambda: point_product(a, b),
            lambda: permute_factors(a, (1, 0)),
            lambda: diagonal_pushforward(x, a),
            lambda: exp_nilpotent(a - a.graded_component(0)),
            lambda: Cycle.zero(x),
            lambda: Cycle.one(x),
            lambda: Cycle.from_json(a.to_json()),
        ):
            assert_like_checked(op())

    def test_built_values(self):
        rng = random.Random(103)
        x, y = make_variety([1]), make_variety([1, 1])
        f = GradedCorrespondence(x, y, engine(rand_terms(rng, (1, 1, 1), 5), (1, 1, 1)))
        g = GradedCorrespondence(y, x, engine(rand_terms(rng, (1, 1, 1), 5), (1, 1, 1)))
        for value in (compose_graded(f, g), f.transpose(), f.degree_component(0), f + f, -f, f.scale(3),
                      GradedCorrespondence.zero(x, y), k_compose(KKernel(x, y, f.cycle), KKernel(y, x, g.cycle))):
            for name in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
            checked = type(value)(*(getattr(value, name) for name in value._fields))
            assert vars(checked) == vars(value)  # the fields, and nothing else
            assert checked == value and hash(checked) == hash(value)
            assert_like_checked(value.cycle if isinstance(value, GradedCorrespondence) else value.ch)
