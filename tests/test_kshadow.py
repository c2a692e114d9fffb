import math
import random
from fractions import Fraction

import pytest

from chowmot import (
    Cycle,
    DomainMismatchError,
    GradedCorrespondence,
    KKernel,
    chern_character,
    chow_image,
    compose_graded,
    diagonal_pushforward,
    euler_characteristic,
    identity_kernel,
    k_compose,
    line_bundle,
    make_variety,
    sqrt_todd,
    tangent_class,
    todd_class,
)
from chowmot.chern import mul_todd_power
from chowmot.corr import FactorSelection
from chowmot.verify import binomial_euler_oracle, random_cycle, random_kernel, rational_matrix_rank

POINT = make_variety([])
P1 = make_variety([1])
P2 = make_variety([2])
P1xP1 = make_variety([1, 1])

SHAPES = [(), (1,), (2,), (1, 1), (1, 2), (3,)]
LADDER = [(), (1,), (2,), (1, 1), (2, 2), (3, 3), (2, 2, 2)]


def kclass_of_line_bundle(variety, degrees):
    return chern_character(line_bundle(variety, degrees))


class TestEulerCharacteristic:
    def test_structure_sheaf_on_line(self):
        assert euler_characteristic(kclass_of_line_bundle(P1, [0])) == 1

    def test_binomial_values(self):
        for n in range(5):
            x = make_variety([n])
            for d in range(0, 5):
                got = euler_characteristic(kclass_of_line_bundle(x, [d]))
                assert got == math.comb(n + d, n)

    def test_negative_twist_on_line(self):
        assert euler_characteristic(kclass_of_line_bundle(P1, [-1])) == 0

    def test_negative_twists_match_polynomial_oracle(self):
        for n in range(5):
            x = make_variety([n])
            for d in range(-6, 7):
                got = euler_characteristic(kclass_of_line_bundle(x, [d]))
                assert got == binomial_euler_oracle(n, d)

    def test_additive(self):
        rng = random.Random(97)
        for _ in range(30):
            x = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            a = random_cycle(rng, x)
            b = random_cycle(rng, x)
            assert euler_characteristic(a + b) == euler_characteristic(a) + euler_characteristic(b)


class TestChowImage:
    def test_zero_class(self):
        zero = KKernel.from_ch(P1, P1, Cycle.zero(P1xP1))
        assert chow_image(zero).is_zero

    def test_identity_kernel_gives_diagonal(self):
        assert chow_image(identity_kernel(P1)) == GradedCorrespondence.identity(P1)

    def test_line_bundle_kernel(self):
        kernel = KKernel.from_ch(P1, P1, chern_character(line_bundle(P1xP1, [1, 0])))
        expected = (Cycle.one(P1xP1) + Cycle.hyperplane(P1xP1, 0)) * sqrt_todd(P1xP1)
        assert chow_image(kernel).cycle == expected


class TestKCompose:
    def test_identity_laws(self):
        rng = random.Random(101)
        pool = [P1, P2, P1xP1]
        for _ in range(30):
            x, y = rng.choice(pool), rng.choice(pool)
            e = random_kernel(rng, x, y)
            assert k_compose(identity_kernel(x), e) == e
            assert k_compose(e, identity_kernel(y)) == e

    def test_associativity_both_orders(self):
        rng = random.Random(103)
        pool = [P1, P2, P1xP1]
        for _ in range(30):
            x, y, z, w = (rng.choice(pool) for _ in range(4))
            e = random_kernel(rng, x, y)
            f = random_kernel(rng, y, z)
            g = random_kernel(rng, z, w)
            assert k_compose(k_compose(e, f), g) == k_compose(e, k_compose(f, g))

    def test_point_kernels_multiply_ranks(self):
        e = KKernel.from_ch(POINT, POINT, Cycle.one(POINT).scale(3))
        f = KKernel.from_ch(POINT, POINT, Cycle.one(POINT).scale(Fraction(5, 2)))
        assert k_compose(e, f).ch == Cycle.one(POINT).scale(Fraction(15, 2))

    def test_middle_mismatch(self):
        with pytest.raises(DomainMismatchError):
            k_compose(random_kernel(random.Random(1), P1, P2), random_kernel(random.Random(2), P1, P1))

    def test_mukai_functoriality(self):
        rng = random.Random(107)
        for _ in range(20):
            e = random_kernel(rng, P1, P1xP1)
            f = random_kernel(rng, P1xP1, P2)
            lhs = chow_image(k_compose(e, f))
            rhs = compose_graded(chow_image(e), chow_image(f))
            assert lhs == rhs


def transport_composite(e: KKernel, f: KKernel) -> Cycle:
    """The transport route: compose the Mukai vectors ch * sqrt(td) as
    correspondences, then divide by sqrt(td) of X x Z."""
    composed = compose_graded(chow_image(e), chow_image(f)).cycle
    return composed * mul_todd_power(Cycle.one(e.source * f.target), Fraction(-1, 2))


def _random_pair(rng):
    x, y, z = (make_variety(list(rng.choice(SHAPES))) for _ in range(3))
    return random_kernel(rng, x, y, 8), random_kernel(rng, y, z, 8)


class TestReferenceRoute:
    def test_matches_transport(self):
        rng = random.Random(61)
        nonzero = 0
        for _ in range(120):
            e, f = _random_pair(rng)
            reference = transport_composite(e, f)
            assert k_compose(e, f).ch == reference
            nonzero += not reference.is_zero
        assert nonzero >= 100

    def test_dropped_middle_todd_is_caught(self):
        # without the p2^* td(Y) factor, GRR composes the bare Chern
        # characters; through a positive-dimensional Y this must show
        rng = random.Random(67)
        tried = caught = 0
        for _ in range(120):
            e, f = _random_pair(rng)
            if e.target.dim == 0:
                continue
            bare = compose_graded(
                GradedCorrespondence(e.source, e.target, e.ch),
                GradedCorrespondence(f.source, f.target, f.ch),
            )
            tried += 1
            caught += bare.cycle != transport_composite(e, f)
        assert tried >= 80 and caught >= tried - 5

    def test_identity_kernel_matches_todd_of_square(self):
        for factors in LADDER:
            x = make_variety(list(factors))
            td = mul_todd_power(Cycle.one(x), 1)
            reference = diagonal_pushforward(x, td) * mul_todd_power(Cycle.one(x * x), Fraction(-1))
            assert identity_kernel(x).ch == reference


class TestDenseRoutes:
    """Euler characteristics and Mukai vectors multiply by Todd powers factor
    by factor; these are the dense products they stand for."""

    def test_euler_characteristic_is_degree_of_ch_td(self):
        rng = random.Random(149)
        for factors in LADDER:
            x = make_variety(list(factors))
            for _ in range(5):
                ch = random_cycle(rng, x, 6)
                assert euler_characteristic(ch) == (ch * mul_todd_power(Cycle.one(x), 1)).degree()

    def test_chow_image_is_ch_times_sqrt_todd(self):
        rng = random.Random(151)
        for _ in range(40):
            x, y = (make_variety(list(rng.choice(SHAPES))) for _ in range(2))
            e = random_kernel(rng, x, y, 8)
            assert chow_image(e).cycle == e.ch * sqrt_todd(x * y)


class TestIdentityKernel:
    def test_point(self):
        ik = identity_kernel(POINT)
        assert ik.ch == Cycle.one(POINT)

    def test_line_components_frozen(self):
        # frozen from the Riemann-Roch pipeline: rank 0, diagonal in degree
        # 1, minus the point class in degree 2
        ik = identity_kernel(P1)
        assert ik.ch.graded_component(0).is_zero
        assert ik.ch.graded_component(1) == Cycle.hyperplane(P1xP1, 0) + Cycle.hyperplane(P1xP1, 1)
        assert ik.ch.graded_component(2) == Cycle.monomial(P1xP1, (1, 1), -1)

    def test_image_is_diagonal_for_small_varieties(self):
        for factors in [[], [1], [2], [1, 1], [1, 2]]:
            x = make_variety(factors)
            assert chow_image(identity_kernel(x)) == GradedCorrespondence.identity(x)


class TestSupportFloor:
    def test_mixed(self):
        a = Cycle.one(P1) + Cycle.hyperplane(P1, 0)
        assert a.codimensions() == [0, 1]

    def test_point_class(self):
        assert Cycle.monomial(P1xP1, (1, 1)).codimensions() == [2]

    def test_zero_sentinel(self):
        assert Cycle.zero(P1xP1).codimensions() == []


class TestRiemannRochSquare:
    def test_projection_consistency(self):
        # pushing ch * td down a projection agrees with the Todd-corrected
        # image: both routes around the square coincide
        rng = random.Random(109)
        for _ in range(20):
            x = make_variety([rng.randint(1, 2)])
            y = make_variety([rng.randint(1, 2)])
            product = x * y
            sel = FactorSelection(product, tuple(range(x.num_factors)))
            fiber_sel = FactorSelection(product, tuple(range(x.num_factors, product.num_factors)))
            e = random_cycle(rng, product)
            lhs = sel.pushforward(e * mul_todd_power(Cycle.one(product), 1))
            fiber_todd = fiber_sel.pullback(mul_todd_power(Cycle.one(y), 1))
            image_ch = sel.pushforward(e * fiber_todd)
            rhs = image_ch * mul_todd_power(Cycle.one(x), 1)
            assert lhs == rhs


class TestBasisFaithfulness:
    def test_twist_characters_independent(self):
        for n in range(1, 5):
            x = make_variety([n])
            rows = []
            for i in range(n + 1):
                ch = chern_character(line_bundle(x, [-i]))
                rows.append([ch.coefficient((k,)) for k in range(n + 1)])
            assert rational_matrix_rank(rows) == n + 1


class TestKernelJson:
    def test_round_trip(self):
        rng = random.Random(113)
        e = random_kernel(rng, P1, P2)
        assert KKernel.from_json(e.to_json()) == e
