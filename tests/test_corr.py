import random

import pytest

from chowmot import (
    Cycle,
    DomainMismatchError,
    FactorSelection,
    GradedCorrespondence,
    InvalidInputError,
    cartesian,
    compose_graded,
    diagonal_class,
    diagonal_pushforward,
    make_variety,
)
from chowmot.verify import random_correspondence, random_cycle

POINT = make_variety([])
P1 = make_variety([1])
P2 = make_variety([2])
P1xP1 = make_variety([1, 1])
P1xP2 = make_variety([1, 2])


class TestPullback:
    def test_reindexes_variables(self):
        sel = FactorSelection(P1xP2, (0,))
        h = Cycle.hyperplane(P1, 0)
        assert sel.pullback(h) == Cycle.hyperplane(P1xP2, 0)

    def test_unital(self):
        sel = FactorSelection(P1xP2, (1,))
        assert sel.pullback(Cycle.one(P2)) == Cycle.one(P1xP2)

    def test_second_factor(self):
        p2xp2 = make_variety([2, 2])
        sel = FactorSelection(p2xp2, (1,))
        assert sel.pullback(Cycle.monomial(P2, (2,))) == Cycle.monomial(p2xp2, (0, 2))

    def test_wrong_variety(self):
        sel = FactorSelection(P1xP2, (0,))
        with pytest.raises(DomainMismatchError):
            sel.pullback(Cycle.one(P2))

    def test_bad_selection(self):
        with pytest.raises(InvalidInputError):
            FactorSelection(P1xP2, (1, 1))
        with pytest.raises(InvalidInputError):
            FactorSelection(P1xP2, (2,))


class TestPushforward:
    def test_point_class_integrates(self):
        sel = FactorSelection(P1xP1, (0,))
        assert sel.pushforward(Cycle.monomial(P1xP1, (1, 1))) == Cycle.hyperplane(P1, 0)

    def test_positive_dimensional_fibers_die(self):
        sel = FactorSelection(P1xP1, (0,))
        assert sel.pushforward(Cycle.hyperplane(P1xP1, 0)).is_zero

    def test_coefficient_extraction(self):
        # pairing oracle: the coefficient of 1 in the image of h2^2 is the
        # degree of h2^2 * (pullback of the complementary class h1)
        sel = FactorSelection(P1xP2, (0,))
        a = Cycle.monomial(P1xP2, (0, 2))
        image = sel.pushforward(a)
        pairing = (a * sel.pullback(Cycle.hyperplane(P1, 0))).degree()
        assert image == Cycle.one(P1)
        assert image.coefficient((0,)) == pairing == 1

    def test_projection_formula(self):
        rng = random.Random(5)
        for _ in range(100):
            x = make_variety([rng.randint(0, 3) for _ in range(rng.randint(1, 3))])
            selected = tuple(i for i in range(x.num_factors) if rng.random() < 0.5)
            sel = FactorSelection(x, selected)
            alpha = random_cycle(rng, x)
            beta = random_cycle(rng, sel.target)
            assert sel.pushforward(sel.pullback(beta) * alpha) == beta * sel.pushforward(alpha)

    def test_fiber_point_class_section(self):
        rng = random.Random(9)
        for _ in range(50):
            x = make_variety([rng.randint(0, 2) for _ in range(rng.randint(1, 3))])
            selected = tuple(i for i in range(x.num_factors) if rng.random() < 0.5)
            sel = FactorSelection(x, selected)
            fiber_top = Cycle(
                x,
                {
                    tuple(
                        0 if i in sel.selected else x.factors[i]
                        for i in range(x.num_factors)
                    ): 1
                },
            )
            a = random_cycle(rng, sel.target)
            assert sel.pushforward(sel.pullback(a) * fiber_top) == a


class TestCartesian:
    def test_units(self):
        assert cartesian(Cycle.one(P1), Cycle.one(P1)) == Cycle.one(P1xP1)

    def test_points(self):
        h = Cycle.hyperplane(P1, 0)
        assert cartesian(h, h) == Cycle.monomial(P1xP1, (1, 1))

    def test_bilinear(self):
        h = Cycle.hyperplane(P1, 0)
        other = Cycle.one(P1) + Cycle.hyperplane(P1, 0)
        expected = Cycle.hyperplane(P1xP1, 0) + Cycle.monomial(P1xP1, (1, 1))
        assert cartesian(h, other) == expected

    def test_matches_pullback_intersection(self):
        rng = random.Random(13)
        for _ in range(50):
            x = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            y = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            a = random_cycle(rng, x)
            b = random_cycle(rng, y)
            product = x * y
            px = FactorSelection(product, tuple(range(x.num_factors)))
            py = FactorSelection(product, tuple(range(x.num_factors, product.num_factors)))
            assert cartesian(a, b) == px.pullback(a) * py.pullback(b)


class TestTranspose:
    def test_single_monomial(self):
        c = GradedCorrespondence(P1, P2, Cycle.hyperplane(P1xP2, 0))
        t = c.transpose()
        assert t.source == P2 and t.target == P1
        assert t.cycle == Cycle.monomial(make_variety([2, 1]), (0, 1))

    def test_involution(self):
        rng = random.Random(17)
        for _ in range(50):
            x = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            y = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            c = random_correspondence(rng, x, y)
            assert c.transpose().transpose() == c

    def test_diagonal_is_symmetric(self):
        d = GradedCorrespondence.identity(P1)
        assert d.transpose() == d


class TestDiagonal:
    def test_point(self):
        assert diagonal_class(POINT) == Cycle.one(POINT)

    def test_line(self):
        expected = Cycle.hyperplane(P1xP1, 0) + Cycle.hyperplane(P1xP1, 1)
        assert diagonal_class(P1) == expected

    def test_product_is_per_factor_intersection(self):
        square = P1xP1 * P1xP1
        f1 = Cycle.hyperplane(square, 0) + Cycle.hyperplane(square, 2)
        f2 = Cycle.hyperplane(square, 1) + Cycle.hyperplane(square, 3)
        assert diagonal_class(P1xP1) == f1 * f2

    def test_pushforward_of_unit(self):
        assert diagonal_pushforward(P1, Cycle.one(P1)) == diagonal_class(P1)

    def test_pushforward_of_point(self):
        assert diagonal_pushforward(P1, Cycle.hyperplane(P1, 0)) == Cycle.monomial(P1xP1, (1, 1))

    def test_pushforward_on_point(self):
        assert diagonal_pushforward(POINT, Cycle.one(POINT)) == Cycle.one(POINT)

    def test_pushforward_raises_codimension(self):
        rng = random.Random(19)
        for _ in range(20):
            x = make_variety([rng.randint(1, 2) for _ in range(rng.randint(1, 2))])
            g = random_cycle(rng, x)
            image = diagonal_pushforward(x, g)
            for k in image.codimensions():
                assert k >= x.dim


class TestComposeHomogeneous:
    def test_diagonal_is_identity(self):
        d = GradedCorrespondence(P1, P1, diagonal_class(P1))
        assert compose_graded(d, d) == d

    def test_coordinate_projector_is_idempotent(self):
        beta = GradedCorrespondence(P1, P1, Cycle.hyperplane(P1xP1, 1))
        assert compose_graded(beta, beta) == beta

    def test_orthogonal_projectors(self):
        alpha = GradedCorrespondence(P1, P1, Cycle.hyperplane(P1xP1, 0))
        beta = GradedCorrespondence(P1, P1, Cycle.hyperplane(P1xP1, 1))
        # frozen from the triple-product pushforward computed by hand:
        # both mixed composites vanish
        assert compose_graded(alpha, beta).is_zero
        assert compose_graded(beta, alpha).is_zero

    def test_codimension_bookkeeping(self):
        d = GradedCorrespondence(P2, P2, diagonal_class(P2))
        result = compose_graded(d, d)
        assert result.cycle.codimensions() == [2]  # i + j - dim Y = 2 + 2 - 2

    def test_wrong_block_rejected(self):
        with pytest.raises(DomainMismatchError):
            GradedCorrespondence(P1, P2, diagonal_class(P1))
        with pytest.raises(DomainMismatchError):
            compose_graded(
                GradedCorrespondence(P1, P1, diagonal_class(P1)),
                GradedCorrespondence(P2, P1, Cycle.one(P2 * P1)),
            )


SHAPES = [(), (1,), (2,), (1, 1), (1, 2), (3,)]


def triple_product_composite(f, g):
    """The textbook route p_XZ*(p_XY* f . p_YZ* g) through X x Y x Z."""
    kx, ky, kz = f.source.num_factors, f.target.num_factors, g.target.num_factors
    triple = f.source * f.target * g.target
    p_xy = FactorSelection(triple, tuple(range(kx + ky)))
    p_yz = FactorSelection(triple, tuple(range(kx, kx + ky + kz)))
    p_xz = FactorSelection(triple, tuple(range(kx)) + tuple(range(kx + ky, kx + ky + kz)))
    return p_xz.pushforward(p_xy.pullback(f.cycle) * p_yz.pullback(g.cycle))


def _random_triple(rng):
    x, y, z = (make_variety(rng.choice(SHAPES)) for _ in range(3))
    return random_correspondence(rng, x, y, 8), random_correspondence(rng, y, z, 8)


class TestReferenceRoute:
    def test_matches_triple_product(self):
        rng = random.Random(53)
        nonzero = mixed = 0
        for _ in range(200):
            f, g = _random_triple(rng)
            h = compose_graded(f, g)
            assert h.cycle == triple_product_composite(f, g)
            nonzero += not h.is_zero
            mixed += len(f.cycle.codimensions()) > 1 and len(g.cycle.codimensions()) > 1
        assert nonzero >= 100 and mixed >= 100

    def test_changed_partnered_coefficient_is_caught(self):
        rng = random.Random(59)
        caught = 0
        for _ in range(100):
            f, g = _random_triple(rng)
            kx, ky = f.source.num_factors, f.target.num_factors
            middles = {e[:ky] for e in g.cycle.terms}
            top = f.target.factors
            partnered = [
                e for e in f.cycle.terms
                if tuple(n - m for n, m in zip(top, e[kx:])) in middles
            ]
            if not partnered:
                continue
            terms = dict(f.cycle.terms)
            terms[partnered[0]] += 1
            corrupted = GradedCorrespondence(f.source, f.target, Cycle(f.source * f.target, terms))
            assert compose_graded(f, g).cycle != triple_product_composite(corrupted, g)
            caught += 1
        assert caught >= 50


DIAGONAL_SHAPES = [(), (1,), (2,), (1, 1), (1, 2), (2, 2), (3, 3), (1, 1, 1)]


def intersected_diagonal_pushforward(x, g):
    """The projection-formula route: pull g back along the first projection
    and intersect it with the per-factor diagonals, one `intersect` each."""
    square, k = x * x, x.num_factors
    result = FactorSelection(square, tuple(range(k))).pullback(g)
    for i, n in enumerate(x.factors):
        per_factor = {}
        for a in range(n + 1):
            exps = [0] * (2 * k)
            exps[i], exps[k + i] = a, n - a
            per_factor[tuple(exps)] = 1
        result = result.intersect(Cycle(square, per_factor))
    return result


class TestDiagonalReferenceRoute:
    @pytest.mark.parametrize("shape", DIAGONAL_SHAPES, ids=str)
    def test_matches_pullback_times_diagonals(self, shape):
        x = make_variety(shape)
        rng = random.Random(61 + sum(shape))
        assert diagonal_class(x) == intersected_diagonal_pushforward(x, Cycle.one(x))
        for _ in range(20):
            g = random_cycle(rng, x, 6)
            assert diagonal_pushforward(x, g) == intersected_diagonal_pushforward(x, g)

    def test_changed_coefficient_is_caught(self):
        rng = random.Random(67)
        for shape in DIAGONAL_SHAPES:
            x = make_variety(shape)
            g = random_cycle(rng, x, 6) + Cycle.one(x)
            terms = dict(g.terms)
            changed = rng.choice(sorted(terms))
            terms[changed] += 1
            assert diagonal_pushforward(x, g) != intersected_diagonal_pushforward(x, Cycle(x, terms))


class TestComposeGraded:
    def test_identity_law(self):
        rng = random.Random(29)
        for _ in range(100):
            x = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            y = make_variety([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            f = random_correspondence(rng, x, y)
            assert GradedCorrespondence.identity(x).then(f) == f
            assert f.then(GradedCorrespondence.identity(y)) == f

    def test_degree_bookkeeping(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_correspondence(rng, P1, P1).degree_component(0)
            g = random_correspondence(rng, P1, P1).degree_component(0)
            h = f.then(g)
            assert h.cycle.is_homogeneous(P1.dim)  # only degree 0 present

    def test_associativity_both_orders(self):
        rng = random.Random(37)
        pool = [P1, P1xP1, P2]
        for _ in range(60):
            x, y, z, w = (rng.choice(pool) for _ in range(4))
            f = random_correspondence(rng, x, y)
            g = random_correspondence(rng, y, z)
            h = random_correspondence(rng, z, w)
            assert f.then(g).then(h) == f.then(g.then(h))

    def test_transpose_antihomomorphism(self):
        rng = random.Random(41)
        pool = [P1, P1xP1, P2]
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            f = random_correspondence(rng, x, y)
            g = random_correspondence(rng, y, z)
            assert f.then(g).transpose() == g.transpose().then(f.transpose())

    def test_middle_mismatch(self):
        f = random_correspondence(random.Random(1), P1, P2)
        g = random_correspondence(random.Random(2), P1, P1)
        with pytest.raises(DomainMismatchError):
            compose_graded(f, g)

    def test_agrees_with_homogeneous_pieces(self):
        rng = random.Random(43)
        for _ in range(30):
            f = random_correspondence(rng, P1, P1xP1)
            g = random_correspondence(rng, P1xP1, P1)
            whole = f.then(g)
            pieced = GradedCorrespondence.zero(P1, P1)
            for i in f.cycle.codimensions():
                for j in g.cycle.codimensions():
                    pieced = pieced + compose_graded(
                        GradedCorrespondence(P1, P1xP1, f.cycle.graded_component(i)),
                        GradedCorrespondence(P1xP1, P1, g.cycle.graded_component(j)),
                    )
            assert whole == pieced


class TestCorrespondenceJson:
    def test_round_trip(self):
        rng = random.Random(47)
        c = random_correspondence(rng, P1, P1xP2)
        assert GradedCorrespondence.from_json(c.to_json()) == c

    def test_shape_errors(self):
        with pytest.raises(InvalidInputError):
            GradedCorrespondence.from_json({"source": {"factors": [1]}})
