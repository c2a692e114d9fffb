import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from chowmot import (
    BundleClass,
    Cycle,
    InvalidInputError,
    SingularSeriesError,
    chern_character,
    exp_nilpotent,
    line_bundle,
    make_variety,
    power_sums,
    series_inverse,
    sqrt_todd,
    tangent_class,
    todd_class,
)
from chowmot import chern
from chowmot.chern import mul_todd_power
from chowmot.corr import FactorSelection
from chowmot.verify import random_cycle, split_bundle_oracle

GOLDEN = json.loads((Path(__file__).parent / "golden" / "char_expansions.json").read_text())

POINT = make_variety([])
P1 = make_variety([1])
P2 = make_variety([2])
P4 = make_variety([4])

# four independent roots with nilpotency high enough to separate every
# Chern monomial through degree 4
UNIVERSAL = make_variety([4, 4, 4, 4])


def whitney_sum(a, b):
    """The direct sum of two bundles on one variety: ranks add and total
    Chern classes multiply."""
    return BundleClass(a.variety, a.rank + b.rank, a.total_chern * b.total_chern)


def random_split_bundle(rng, variety, summands=3, max_degree=2):
    """Direct sum of line bundles with random degree vectors."""
    bundle = None
    for _ in range(summands):
        degrees = [rng.randint(-max_degree, max_degree) for _ in variety.factors]
        piece = line_bundle(variety, degrees)
        bundle = piece if bundle is None else whitney_sum(bundle, piece)
    return bundle


def newton_power_sums(bundle):
    """Newton's identities written on `Cycle` operations, each product,
    scale and sum a reduced cycle: the reference for `power_sums`, which
    runs them on integer numerators."""
    x = bundle.variety
    e = [bundle.chern(i) for i in range(x.dim + 1)]
    p = []
    for k in range(1, x.dim + 1):
        acc = e[k].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (e[i] * p[k - i - 1]).scale((-1) ** (i - 1))
        p.append(acc)
    return tuple(p)


def newton_chern_character(bundle):
    acc = Cycle.one(bundle.variety).scale(bundle.rank)
    for k, pk in enumerate(newton_power_sums(bundle), start=1):
        acc = acc + pk.scale(Fraction(1, math.factorial(k)))
    return acc


def newton_todd_class(bundle):
    lam = chern.todd_series_coefficients(bundle.variety.dim)
    arg = Cycle.zero(bundle.variety)
    for k, pk in enumerate(newton_power_sums(bundle), start=1):
        arg = arg + pk.scale(lam[k])
    return taylor_exp(arg)


# c = 1 + h2 - 3 h1^2 + (5/7) h1 h2 - 3 h1^2 h2 on [2,1]: p_3 = 0, while
# Newton's product terms without their powers of the denominator give
# p_3 = -(18/7) h1^2 h2
RANK_SEVEN = BundleClass(make_variety([2, 1]), 7, Cycle(make_variety([2, 1]), {
    (0, 0): 1, (0, 1): 1, (2, 0): -3, (1, 1): Fraction(5, 7), (2, 1): -3}))


def rational_bundles():
    """Bundle classes whose total Chern class has denominator 2, 3, 7 or 12
    and terms in codimensions 1 and 2 at least, on varieties of dimension 3
    or more (some with a P^0 factor), so Newton's product terms e_i p_{k-i}
    with i >= 2 carry powers of the denominator; each with an honest rank
    (the top codimension and two more) and two virtual ones."""
    rng = random.Random(97)
    bundles = [RANK_SEVEN]
    for factors in ([2, 1], [3], [1, 0, 2], [0, 2, 1], [2, 2], [1, 1, 1]):
        x = make_variety(factors)
        monomials = [e for e in itertools.product(*(range(n + 1) for n in factors)) if any(e)]
        for den in (2, 3, 7, 12):
            chosen = [rng.choice([e for e in monomials if sum(e) == k]) for k in (1, 2)]
            chosen += rng.sample(monomials, 2)
            terms = {(0,) * len(factors): 1}
            terms.update((e, Fraction(rng.choice([-5, -1, 1, 5, 11]), den)) for e in chosen)
            c = Cycle(x, terms)
            assert c._den == den
            top = max(c.codimensions())
            bundles += [BundleClass(x, rank, c) for rank in (top, top + 2, -1, -3)]
    return bundles


def evaluate_golden(entries, chern):
    """Evaluate a golden expansion (list of c-monomials) at given Chern
    classes."""
    variety = chern[0].variety
    acc = Cycle.zero(variety)
    for entry in entries:
        term = Cycle.one(variety)
        for i, a in enumerate(entry["exponents"]):
            for _ in range(a):
                term = term * chern[i + 1]
        acc = acc + term.scale(Fraction(entry["coeff"]))
    return acc


class TestBundleClass:
    def test_rank_bound_enforced(self):
        c = Cycle.one(P2) + Cycle.monomial(P2, (2,))
        with pytest.raises(InvalidInputError):
            BundleClass(P2, 1, c)

    def test_constant_term_must_be_one(self):
        with pytest.raises(InvalidInputError):
            BundleClass(P1, 1, Cycle.hyperplane(P1, 0))

    def test_negative_rank_is_virtual(self):
        c = Cycle.one(P2) + Cycle.hyperplane(P2, 0) + Cycle.monomial(P2, (2,))
        virtual = BundleClass(P2, -1, c)
        assert chern_character(virtual).coefficient((0,)) == -1

    @pytest.mark.parametrize("rank", [True, False, 1.0, "1", Fraction(1), None])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(InvalidInputError, match="rank must be an integer"):
            BundleClass(P1, rank, Cycle.one(P1))

    @pytest.mark.parametrize("rank", [True, 1.5, "1"])
    def test_json_rank_must_be_an_integer(self, rank):
        data = line_bundle(P1, [1]).to_json()
        data["rank"] = rank
        with pytest.raises(InvalidInputError, match="rank must be an integer"):
            BundleClass.from_json(data)

    def test_json_round_trip(self):
        bundle = whitney_sum(line_bundle(P2, [1]), line_bundle(P2, [-2]))
        assert BundleClass.from_json(bundle.to_json()) == bundle

    def test_whitney_sum(self):
        # O(1) + O(2) on P^2: c = (1 + h)(1 + 2h) = 1 + 3h + 2h^2
        s = whitney_sum(line_bundle(P2, [1]), line_bundle(P2, [2]))
        h = Cycle.hyperplane(P2, 0)
        assert s.rank == 2
        assert (s.chern(0), s.chern(1), s.chern(2)) == (Cycle.one(P2), h.scale(3), (h * h).scale(2))


class TestPowerSums:
    def test_single_root(self):
        p = power_sums(BundleClass(P4, 1, Cycle.one(P4) + Cycle.hyperplane(P4, 0)))
        for k in range(1, 5):
            assert p[k - 1] == Cycle.monomial(P4, (k,))

    def test_trivial_bundle(self):
        p = power_sums(BundleClass(P4, 3, Cycle.one(P4)))
        for k in range(1, 5):
            assert p[k - 1].is_zero

    def test_rank_two_degree_two(self):
        # p2 = c1^2 - 2 c2, on a variety where c1, c2 stay independent
        x = make_variety([4, 4])
        bundle = whitney_sum(line_bundle(x, [1, 0]), line_bundle(x, [0, 1]))
        c1 = bundle.chern(1)
        c2 = bundle.chern(2)
        assert power_sums(bundle)[1] == c1 * c1 - c2.scale(2)

    def test_split_bundles_give_root_sums(self):
        rng = random.Random(61)
        for factors in [(2,), (1, 2), (2, 2)]:
            x = make_variety(list(factors))
            bundle = random_split_bundle(rng, x)
            sums = power_sums(bundle)
            # reconstruct the roots directly: each summand contributes its
            # first Chern class
            pieces = []
            total = Cycle.one(x)
            # rebuild the same summands by re-seeding
            rng2 = random.Random(61)
            for factors2 in [(2,), (1, 2), (2, 2)]:
                y = make_variety(list(factors2))
                roots = []
                for _ in range(3):
                    degrees = [rng2.randint(-2, 2) for _ in y.factors]
                    roots.append(line_bundle(y, degrees).chern(1))
                if factors2 == factors:
                    pieces = roots
            for k in range(1, x.dim + 1):
                expected = Cycle.zero(x)
                for root in pieces:
                    power = Cycle.one(x)
                    for _ in range(k):
                        power = power * root
                    expected = expected + power
                assert sums[k - 1] == expected

    def test_rational_classes_match_newton_on_cycles(self):
        for bundle in rational_bundles():
            assert power_sums(bundle) == newton_power_sums(bundle)

    def test_rational_rank_seven_class_has_no_third_power_sum(self):
        x = RANK_SEVEN.variety
        p1, p2, p3 = power_sums(RANK_SEVEN)
        assert p1 == Cycle.hyperplane(x, 1)
        assert p2 == Cycle(x, {(2, 0): 6, (1, 1): Fraction(-10, 7)})
        assert p3.is_zero


class TestChernCharacter:
    def test_rational_classes_match_newton_on_cycles(self):
        for bundle in rational_bundles():
            assert chern_character(bundle) == newton_chern_character(bundle)
            assert todd_class(bundle) == newton_todd_class(bundle)

    def test_line_bundles_with_zero_negative_and_point_degrees(self):
        for factors, degrees in [([2, 0, 1], [0, 5, -3]), ([0], [4]), ([3, 2], [-2, 0]), ([1, 1, 0], [-1, 2, -7])]:
            x = make_variety(factors)
            bundle = line_bundle(x, degrees)
            expected = Cycle.one(x)
            for i, d in enumerate(degrees):
                expected = expected + Cycle.hyperplane(x, i).scale(d)
            assert bundle.rank == 1 and bundle.total_chern == expected
            assert chern_character(bundle) == newton_chern_character(bundle)
            assert todd_class(bundle) == newton_todd_class(bundle)

    def test_line_bundle_on_line(self):
        ch = chern_character(line_bundle(P1, [3]))
        assert ch == Cycle.one(P1) + Cycle.hyperplane(P1, 0).scale(3)

    def test_additive_on_sums(self):
        rng = random.Random(67)
        for _ in range(20):
            x = make_variety([rng.randint(1, 2) for _ in range(rng.randint(1, 2))])
            a = random_split_bundle(rng, x, summands=2)
            b = random_split_bundle(rng, x, summands=2)
            assert chern_character(whitney_sum(a, b)) == chern_character(a) + chern_character(b)

    def test_multiplicative_on_line_bundle_tensor(self):
        rng = random.Random(71)
        for _ in range(20):
            x = make_variety([rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
            d1 = [rng.randint(-2, 2) for _ in x.factors]
            d2 = [rng.randint(-2, 2) for _ in x.factors]
            tensored = line_bundle(x, [a + b for a, b in zip(d1, d2)])
            lhs = chern_character(tensored)
            rhs = chern_character(line_bundle(x, d1)) * chern_character(line_bundle(x, d2))
            assert lhs == rhs

    def test_pullback_naturality(self):
        rng = random.Random(73)
        for _ in range(20):
            x = make_variety([rng.randint(1, 2) for _ in range(2)])
            sel = FactorSelection(x, (0,))
            target = sel.target
            bundle = random_split_bundle(rng, target, summands=2)
            pulled = BundleClass(x, bundle.rank, sel.pullback(bundle.total_chern))
            assert chern_character(pulled) == sel.pullback(chern_character(bundle))


class TestGoldenExpansions:
    """The frozen closed forms must match both the engine and the
    independent root-level oracle when evaluated on a generic split bundle."""

    def setup_method(self):
        self.bundle, self.ch_oracle, self.td_oracle = split_bundle_oracle(UNIVERSAL)
        self.chern = [self.bundle.chern(i) for i in range(5)]

    def test_engine_matches_root_oracle(self):
        assert chern_character(self.bundle) == self.ch_oracle
        assert todd_class(self.bundle) == self.td_oracle

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_character_expansion(self, degree):
        golden = evaluate_golden(GOLDEN["chern_character"][str(degree)], self.chern)
        assert chern_character(self.bundle).graded_component(degree) == golden
        assert self.ch_oracle.graded_component(degree) == golden

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_todd_expansion(self, degree):
        golden = evaluate_golden(GOLDEN["todd_class"][str(degree)], self.chern)
        assert todd_class(self.bundle).graded_component(degree) == golden
        assert self.td_oracle.graded_component(degree) == golden

    def test_cubic_character_coefficient_is_pinned(self):
        # the divergence recorded in the golden note: coefficient of c3 is 1/2
        entries = {tuple(e["exponents"]): Fraction(e["coeff"]) for e in GOLDEN["chern_character"]["3"]}
        assert entries[(0, 0, 1, 0)] == Fraction(1, 2)


class TestTodd:
    def test_multiplicative_on_sums(self):
        rng = random.Random(79)
        for _ in range(15):
            x = make_variety([rng.randint(1, 2) for _ in range(rng.randint(1, 2))])
            a = random_split_bundle(rng, x, summands=2)
            b = random_split_bundle(rng, x, summands=2)
            assert todd_class(whitney_sum(a, b)) == todd_class(a) * todd_class(b)

    def test_line_todd(self):
        td = mul_todd_power(Cycle.one(P1), 1)
        assert td == Cycle.one(P1) + Cycle.hyperplane(P1, 0)


class TestSeriesInverse:
    def test_inverse_of_one(self):
        assert series_inverse(Cycle.one(P2)) == Cycle.one(P2)

    def test_geometric_series(self):
        u = Cycle.one(P2) + Cycle.hyperplane(P2, 0)
        expected = Cycle.one(P2) - Cycle.hyperplane(P2, 0) + Cycle.monomial(P2, (2,))
        assert series_inverse(u) == expected

    def test_defining_property(self):
        rng = random.Random(83)
        for _ in range(30):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(0, 2))])
            u = Cycle.one(x) + random_cycle(rng, x) - random_cycle(rng, x).graded_component(0)
            constant = u.coefficient((0,) * x.num_factors)
            if constant == 0:
                continue
            assert u * series_inverse(u) == Cycle.one(x)

    def test_singular_series_rejected(self):
        with pytest.raises(SingularSeriesError):
            series_inverse(Cycle.hyperplane(P2, 0))


class TestSqrtTodd:
    def test_point(self):
        assert sqrt_todd(POINT) == Cycle.one(POINT)

    def test_line(self):
        assert sqrt_todd(P1) == Cycle.one(P1) + Cycle.hyperplane(P1, 0).scale(Fraction(1, 2))

    @pytest.mark.parametrize(
        "factors",
        [[1, 2], [2, 2], [3, 3], [2, 2, 2], [4], [1, 1, 1, 1]],
    )
    def test_square_law(self, factors):
        x = make_variety(factors)
        root = sqrt_todd(x)
        assert root * root == mul_todd_power(Cycle.one(x), 1)


TODD_LADDER = [[], [1], [2], [1, 1], [1, 2], [2, 2], [3, 3], [2, 2, 2]]


def factorwise_todd_disagreements(x):
    """Laws tying the factor-by-factor Todd powers to the power-sum route
    `todd_class(tangent_class(x))`; returns the names of the laws that fail."""
    td = todd_class(tangent_class(x))
    root = sqrt_todd(x)
    failed = []
    if mul_todd_power(Cycle.one(x), 1) != td:
        failed.append("td")
    if root * root != td:
        failed.append("sqrt")
    if mul_todd_power(Cycle.one(x), Fraction(-1)) * td != Cycle.one(x):
        failed.append("inverse")
    if mul_todd_power(Cycle.one(x), Fraction(-1, 2)) != series_inverse(root):
        failed.append("inverse-sqrt")
    return failed


class TestFactorwiseTodd:
    """Todd powers of a variety are built factor by factor; the power-sum
    route for arbitrary bundles is an independent check on them."""

    @pytest.mark.parametrize("factors", TODD_LADDER)
    def test_agrees_with_power_sums(self, factors):
        assert factorwise_todd_disagreements(make_variety(factors)) == []

    @pytest.mark.parametrize("factors", TODD_LADDER[1:])
    def test_corrupted_factor_series_is_caught(self, factors, monkeypatch):
        real = chern._todd_factor_series

        def corrupted(n, s):
            den, coeffs = real(n, s)
            return den, coeffs[:-1] + (coeffs[-1] + den,)  # the top coefficient plus 1

        monkeypatch.setattr(chern, "_todd_factor_series", corrupted)
        failed = factorwise_todd_disagreements(make_variety(factors))
        assert failed == ["td", "sqrt", "inverse", "inverse-sqrt"]

    def test_projective_line_powers(self):
        # td(P^1) = 1 + h, so td^s = 1 + s h
        h = Cycle.hyperplane(P1, 0)
        for s in (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2), Fraction(3)):
            assert mul_todd_power(Cycle.one(P1), s) == Cycle.one(P1) + h.scale(s)


REAL_FACTOR_SERIES = chern._todd_factor_series
MUL_LADDER = [[], [1], [2], [1, 1], [2, 2], [3, 3], [2, 2, 2]]
TODD_EXPONENTS = (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2))


def factor_series(n, s):
    """td(P^n)^s up to x^n as Fractions, from the engine's (D, integers) form."""
    den, coeffs = REAL_FACTOR_SERIES(n, s)
    return tuple(Fraction(t, den) for t in coeffs)


def dense_todd_power(x, s, factors):
    """td^s on the chosen factors as a dense cycle: every monomial takes the
    product of the per-factor series coefficients (a factor left out
    contributes 1)."""
    series = [
        factor_series(n, s) if i in factors else (Fraction(1),) + (Fraction(0),) * n
        for i, n in enumerate(x.factors)
    ]
    terms = {
        exps: math.prod(coeffs[e] for coeffs, e in zip(series, exps))
        for exps in itertools.product(*(range(n + 1) for n in x.factors))
    }
    return Cycle(x, terms)


def factor_subsets(x):
    """Every prefix of the factors, as k_compose selects the Y factors of
    Y x Z, plus None for all of them."""
    return [None, *(range(k) for k in range(x.num_factors + 1))]


class TestMulToddPower:
    """Multiplying by td^s factor by factor equals the dense intersection
    with td^s built monomial by monomial."""

    @pytest.mark.parametrize("factors", MUL_LADDER)
    def test_matches_dense_product(self, factors):
        x = make_variety(factors)
        rng = random.Random(131 + len(factors))
        for s in TODD_EXPONENTS:
            for subset in factor_subsets(x):
                chosen = set(range(x.num_factors) if subset is None else subset)
                for c in [Cycle.one(x)] + [random_cycle(rng, x, terms=6) for _ in range(3)]:
                    expected = c * dense_todd_power(x, s, chosen)
                    assert mul_todd_power(c, s, subset) == expected

    @pytest.mark.parametrize("factors", MUL_LADDER[1:])
    def test_corrupted_factor_series_is_caught(self, factors, monkeypatch):
        def corrupted(n, s):
            den, coeffs = REAL_FACTOR_SERIES(n, s)
            return den, coeffs[:-1] + (coeffs[-1] + den,)  # the top coefficient plus 1

        monkeypatch.setattr(chern, "_todd_factor_series", corrupted)
        x = make_variety(factors)
        c = Cycle.one(x) + random_cycle(random.Random(137), x)
        everything = set(range(x.num_factors))
        for s in TODD_EXPONENTS:
            assert mul_todd_power(c, s) != c * dense_todd_power(x, s, everything)


def taylor_exp(u):
    """exp(u) by the Taylor loop sum_m u^m / m!, with dense products."""
    acc = Cycle.one(u.variety)
    term = Cycle.one(u.variety)
    for m in range(1, u.variety.dim + 1):
        term = (term * u).scale(Fraction(1, m))
        if term.is_zero:
            break
        acc = acc + term
    return acc


class TestGradedExp:
    def test_matches_taylor_loop(self):
        rng = random.Random(139)
        shapes = [[1], [2], [1, 1], [2, 2], [3, 3], [2, 2, 2], [4, 4, 4, 4]]
        for factors in shapes:
            x = make_variety(factors)
            for _ in range(4):
                u = random_cycle(rng, x, terms=8)
                u = u - u.graded_component(0)
                assert exp_nilpotent(u) == taylor_exp(u)

    def test_log_todd_of_universal_variety(self):
        # the dense argument todd_class exponentiates on [4,4,4,4]
        lam = chern.todd_series_coefficients(UNIVERSAL.dim)
        arg = Cycle.zero(UNIVERSAL)
        for k, pk in enumerate(power_sums(tangent_class(UNIVERSAL)), start=1):
            arg = arg + pk.scale(lam[k])
        assert exp_nilpotent(arg) == taylor_exp(arg)

    def test_gap_in_the_grades(self):
        # u concentrated in codimension 2: the odd parts of exp(u) vanish
        x = make_variety([2, 2])
        u = Cycle.monomial(x, (1, 1), 3) + Cycle.monomial(x, (2, 0), -1)
        assert exp_nilpotent(u) == taylor_exp(u)
        assert exp_nilpotent(u).codimensions() == [0, 2, 4]


def todd_generating_series(order: int) -> list[Fraction]:
    """x / (1 - e^{-x}) up to x^order, inverting (1 - e^{-x}) / x term by term."""
    s = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(order + 1)]
    t = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        t[k] = -sum(s[i] * t[k - i] for i in range(1, k + 1))
    return t


def power_series_log(t: list[Fraction], order: int) -> list[Fraction]:
    """log(1 + u) = sum_m (-1)^(m+1) u^m / m with u = t - 1, the powers of u
    built by truncated products."""
    u = [Fraction(0)] + list(t[1:order + 1])
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        power = [sum((power[i] * u[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(order + 1)]
        out = [o + Fraction((-1) ** (m + 1), m) * p for o, p in zip(out, power)]
    return out


class TestSeriesLog:
    @pytest.mark.parametrize("order", range(41))
    def test_matches_power_series(self, order):
        expected = power_series_log(todd_generating_series(order), order)
        assert list(chern.todd_series_coefficients(order)) == expected

    def test_changed_coefficient_is_caught(self):
        rng = random.Random(89)
        for order in range(1, 21):
            t = todd_generating_series(order)
            t[rng.randint(1, order)] += Fraction(1, 7)
            assert list(chern.todd_series_coefficients(order)) != power_series_log(t, order)


def truncated_product(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(order + 1)]


def truncated_power(t: list[Fraction], m: int, order: int) -> list[Fraction]:
    """t^m up to x^order by repeated squaring."""
    acc = [Fraction(1)] + [Fraction(0)] * order
    while m:
        if m & 1:
            acc = truncated_product(acc, t, order)
        t = truncated_product(t, t, order)
        m >>= 1
    return acc


EXPONENT_PAIRS = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(-1)),
                  (Fraction(-1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 2))]


def factor_series_failures(series, n: int) -> list[str]:
    """The laws of td(P^n)^s = (x / (1 - e^{-x}))^{s(n+1)} up to x^n that
    `series(n, s)`, in the engine's (D, integers) form, breaks, checked by
    long division and truncated products alone: s = 1 is a plain power,
    exponents add under products, and s = 0 gives 1."""
    def coefficients(s):
        den, ints = series(n, s)
        return [Fraction(t, den) for t in ints]

    failed = []
    if coefficients(Fraction(1)) != truncated_power(todd_generating_series(n), n + 1, n):
        failed.append("power")
    if any(truncated_product(coefficients(s), coefficients(t), n) != coefficients(s + t)
           for s, t in EXPONENT_PAIRS):
        failed.append("product")
    if coefficients(Fraction(0)) != [1] + [0] * n:
        failed.append("zero")
    return failed


class TestFactorSeriesOracle:
    """`_todd_factor_series` against an oracle that shares no code with the
    engine: no log-Todd series and no exponential."""

    @pytest.mark.parametrize("n", range(41))
    def test_laws(self, n):
        assert factor_series_failures(chern._todd_factor_series.__wrapped__, n) == []

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
    def test_moved_top_coefficient_is_caught(self, n):
        def moved(n, s):
            den, ints = chern._todd_factor_series.__wrapped__(n, s)
            return den, ints[:-1] + (ints[-1] + 1,)  # the top coefficient plus 1 / D

        assert factor_series_failures(moved, n) == ["power", "product", "zero"]


class TestTangent:
    def test_point(self):
        t = tangent_class(POINT)
        assert t.rank == 0 and t.total_chern == Cycle.one(POINT)

    def test_line(self):
        t = tangent_class(P1)
        assert t.rank == 1
        assert t.total_chern == Cycle.one(P1) + Cycle.hyperplane(P1, 0).scale(2)

    def test_plane(self):
        t = tangent_class(P2)
        # binomial oracle: (1+h)^3 truncated
        expected = Cycle(P2, {(0,): 1, (1,): math.comb(3, 1), (2,): math.comb(3, 2)})
        assert t.total_chern == expected

    def test_product_splits(self):
        t = tangent_class(P1xP2 := make_variety([1, 2]))
        sel1 = FactorSelection(P1xP2, (0,))
        sel2 = FactorSelection(P1xP2, (1,))
        expected = sel1.pullback(tangent_class(P1).total_chern) * sel2.pullback(
            tangent_class(P2).total_chern
        )
        assert t.total_chern == expected

    @pytest.mark.parametrize("factors", [[0], [4], [7, 8], [0, 3, 1], [2, 2, 2]])
    def test_matches_the_euler_sequence_product(self, factors):
        x = make_variety(factors)
        expected = Cycle.one(x)
        for i, n in enumerate(factors):
            for _ in range(n + 1):
                expected = expected * (Cycle.one(x) + Cycle.hyperplane(x, i))
        t = tangent_class(x)
        assert t.rank == x.dim and t.total_chern == expected
        assert (t.total_chern._den, t.total_chern._num) == (expected._den, expected._num)


class TestLineBundle:
    def test_trivial(self):
        assert line_bundle(P2, [0]).total_chern == Cycle.one(P2)

    def test_degree_three(self):
        assert line_bundle(P2, [3]).total_chern == Cycle.one(P2) + Cycle.hyperplane(P2, 0).scale(3)

    def test_bidegree(self):
        x = make_variety([1, 1])
        expected = Cycle.one(x) + Cycle.hyperplane(x, 0) - Cycle.hyperplane(x, 1).scale(2)
        assert line_bundle(x, [1, -2]).total_chern == expected

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            line_bundle(P2, [1, 2])


class TestCycleSeriesHelpers:
    def test_exp_log_inverse(self):
        rng = random.Random(89)
        for _ in range(25):
            x = make_variety([rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
            u = random_cycle(rng, x)
            u = u - u.graded_component(0)
            assert exp_nilpotent(u) * exp_nilpotent(-u) == Cycle.one(x)
            assert series_inverse(exp_nilpotent(u)) == exp_nilpotent(-u)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(InvalidInputError):
            exp_nilpotent(Cycle.one(P1))
