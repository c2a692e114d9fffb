import inspect
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest

from chowmot import (
    Cycle,
    DomainMismatchError,
    FactorSelection,
    GradedCorrespondence,
    InvalidInputError,
    Variety,
    compose_graded,
    diagonal_class,
    diagonal_pushforward,
    external_product,
    identity_kernel,
    make_variety,
    permute_factors,
)
from chowmot import corr, ring
from chowmot.corr import PACKED_MAX_BITS, PACKED_MIN_PARTNERS
from chowmot.verify import ALGEBRA_POOL, random_correspondence, random_cycle
from chowmot.verify import _triple_product_composite as triple_product_composite  # the textbook route

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


def point_product(a: Cycle, b: Cycle) -> Cycle:
    """The cartesian product of two cycles: the external product of the two
    as correspondences from the point."""
    return external_product(GradedCorrespondence(POINT, a.variety, a),
                            GradedCorrespondence(POINT, b.variety, b)).cycle


class TestExternalProductFromThePoint:
    def test_units(self):
        assert point_product(Cycle.one(P1), Cycle.one(P1)) == Cycle.one(P1xP1)

    def test_points(self):
        h = Cycle.hyperplane(P1, 0)
        assert point_product(h, h) == Cycle.monomial(P1xP1, (1, 1))

    def test_bilinear(self):
        h = Cycle.hyperplane(P1, 0)
        other = Cycle.one(P1) + Cycle.hyperplane(P1, 0)
        expected = Cycle.hyperplane(P1xP1, 0) + Cycle.monomial(P1xP1, (1, 1))
        assert point_product(h, other) == expected

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
            assert point_product(a, b) == px.pullback(a) * py.pullback(b)


def blocks_product(f: GradedCorrespondence, g: GradedCorrespondence) -> Cycle:
    """The cycles of f and g pulled back to X x X' x Y x Y' along the
    projections onto their blocks, and multiplied."""
    whole = f.source * f.target * g.source * g.target
    k = (f.source * f.target).num_factors
    return (FactorSelection(whole, tuple(range(k))).pullback(f.cycle)
            * FactorSelection(whole, tuple(range(k, whole.num_factors))).pullback(g.cycle))


def reference_external_product(f: GradedCorrespondence, g: GradedCorrespondence) -> GradedCorrespondence:
    """The external product by pullback and intersection: the product of the
    two block pullbacks lives on X x X' x Y x Y', and `permute_factors`
    swaps the middle blocks."""
    kx, kx2, ky, ky2 = (v.num_factors for v in (f.source, f.target, g.source, g.target))
    order = (*range(kx), *range(kx + kx2, kx + kx2 + ky), *range(kx, kx + kx2),
             *range(kx + kx2 + ky, kx + kx2 + ky + ky2))
    return GradedCorrespondence(f.source * g.source, f.target * g.target,
                                permute_factors(blocks_product(f, g), order))


def unswapped_external_product(f: GradedCorrespondence, g: GradedCorrespondence) -> GradedCorrespondence:
    """Negative control: the exponents of the block product, in the order
    (x, x', y, y'), read as if they were in the order (x, y, x', y')."""
    source, target = f.source * g.source, f.target * g.target
    return GradedCorrespondence(source, target, Cycle(source * target, dict(blocks_product(f, g).terms)))


LAW_SHAPES = [(), (1,), (2,), (1, 1), (2, 1), (3,)]


def product_laws_hold(product, x: Variety, y: Variety) -> bool:
    """Two laws that do not use the definition of the external product: the
    identities of X and Y multiply to the diagonal of X x Y, and their
    identity kernels to the identity kernel of X x Y."""
    def as_corr(kernel):
        return GradedCorrespondence(kernel.source, kernel.target, kernel.ch)

    ix, iy = GradedCorrespondence.identity(x), GradedCorrespondence.identity(y)
    return (product(ix, iy).cycle == diagonal_class(x * y)
            and product(as_corr(identity_kernel(x)), as_corr(identity_kernel(y))).cycle
            == identity_kernel(x * y).ch)


class TestExternalProduct:
    def test_matches_pullbacks_multiplied_then_permuted(self):
        rng = random.Random(71)
        pool = [make_variety(d) for d in ALGEBRA_POOL]
        for x, y in itertools.product(pool, repeat=2):
            x2, y2 = rng.choice(pool), rng.choice(pool)
            f = random_correspondence(rng, x, x2, 6).scale(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
            g = random_correspondence(rng, y, y2, 6).scale(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
            product = external_product(f, g)
            assert (product.source, product.target) == (x * y, x2 * y2)
            assert product == reference_external_product(f, g)

    def test_identities_and_identity_kernels_multiply(self):
        failed = [(x, y) for x, y in itertools.product(LAW_SHAPES, repeat=2)
                  if not product_laws_hold(external_product, make_variety(x), make_variety(y))]
        assert failed == []

    def test_unswapped_middle_blocks_are_caught(self):
        """The unswapped product is right only when X or Y is the point,
        where there is nothing to swap; the laws catch it everywhere else."""
        caught = [(x, y) for x, y in itertools.product(LAW_SHAPES, repeat=2)
                  if not product_laws_hold(unswapped_external_product, make_variety(x), make_variety(y))]
        assert caught == [(x, y) for x, y in itertools.product(LAW_SHAPES, repeat=2) if x and y]


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

    def test_block_swap_equals_the_factor_permutation(self):
        """The block swap on packed keys against `permute_factors` on every
        ordered pair of the algebra pool, the point included."""
        assert block_swap_failures(GradedCorrespondence.transpose) == []

    def test_misplaced_block_is_caught(self):
        """Negative control: shifting the X block by Y's width is right only
        when the two blocks are equally wide."""
        source = textwrap.dedent(inspect.getsource(GradedCorrespondence.transpose))
        assert source.count("<< x_bits") == 1
        namespace = dict(vars(corr))
        exec(source.replace("<< x_bits", "<< y_bits"), namespace)
        pool = [make_variety(d) for d in ALGEBRA_POOL]
        assert block_swap_failures(namespace["transpose"]) == [
            (x, y) for x, y in itertools.product(pool, repeat=2) if x._layout.bits != y._layout.bits]


def block_swap_failures(transpose):
    """The ordered pairs (X, Y) of the algebra pool where `transpose` of a
    random, a dense, the unit or the zero correspondence X -> Y is not
    `permute_factors` of its cycle onto Y x X, or is not undone by a second
    transpose."""
    rng = random.Random(19)
    pool = [make_variety(d) for d in ALGEBRA_POOL]
    failures = []
    for x, y in itertools.product(pool, repeat=2):
        kx, ky = x.num_factors, y.num_factors
        order = tuple(range(kx, kx + ky)) + tuple(range(kx))
        monomials = itertools.product(*(range(n + 1) for n in (x * y).factors))
        dense = Cycle(x * y, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for e in monomials})
        cases = [random_correspondence(rng, x, y, 8), GradedCorrespondence(x, y, dense),
                 GradedCorrespondence(x, y, Cycle.one(x * y)), GradedCorrespondence.zero(x, y)]
        for c in cases:
            t = transpose(c)
            if ((t.source, t.target) != (y, x) or t.cycle != permute_factors(c.cycle, order)
                    or transpose(t) != c):
                failures.append((x, y))
                break
    return failures


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


def _random_triple(rng):
    x, y, z = (make_variety(rng.choice(SHAPES)) for _ in range(3))
    return random_correspondence(rng, x, y, 8), random_correspondence(rng, y, z, 8)


def _monomials(variety):
    return list(itertools.product(*(range(n + 1) for n in variety.factors)))


def dense_correspondence(rng, source, target, share=1.0, coeffs=tuple(range(1, 10))):
    """A correspondence on the given share of the cells of source x target,
    each coefficient drawn from `coeffs` with a random sign."""
    cells = [a + b for a in _monomials(source) for b in _monomials(target)]
    chosen = rng.sample(cells, max(1, round(share * len(cells))))
    terms = {e: rng.choice((-1, 1)) * rng.choice(coeffs) for e in chosen}
    return GradedCorrespondence(source, target, Cycle(source * target, terms))


# (X, Y, Z) with X, Y and Z different, some of them the point; Z has at
# least PACKED_MIN_PARTNERS monomials, so dense rows of g take the packed path
DENSE_TRIPLES = [((1,), (2,), (3, 3)), ((), (1, 2), (2, 2)), ((2,), (), (1, 1, 1)),
                 ((1, 1), (3,), (4, 3)), ((), (), (7,)), ((1, 2), (2, 1), (8,))]


@pytest.fixture
def packed_calls(monkeypatch):
    """The slot width of every call of the packed contraction."""
    calls = []
    contract = corr._contract_packed

    def spy(f, g, rows, w):
        calls.append(w)
        return contract(f, g, rows, w)

    monkeypatch.setattr(corr, "_contract_packed", spy)
    return calls


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

    @pytest.mark.parametrize("shapes", DENSE_TRIPLES, ids=str)
    def test_dense_pairs_match_triple_product(self, shapes, packed_calls):
        """Every cell, and half the cells, with integer and Fraction
        coefficients: the packed contraction against the oracle."""
        x, y, z = map(make_variety, shapes)
        rng = random.Random(f"dense:{shapes}")
        for share in (1.0, 0.5):
            for coeffs in (tuple(range(1, 10)), (Fraction(1, 2), Fraction(7, 3), 5)):
                f = dense_correspondence(rng, x, y, share, coeffs)
                g = dense_correspondence(rng, y, z, share, coeffs)
                assert compose_graded(f, g).cycle == triple_product_composite(f, g)
        assert len(packed_calls) >= 2  # the dense ones; half the cells may take the dict loop


def both_contractions(f, g, w=None):
    """The packed (at slot width w, `_slot_width` by default) and the dict
    contraction of f and g, the dict one without its cancelled entries."""
    rows = corr._middle_rows(g)
    packed = corr._contract_packed(f, g, rows, corr._slot_width(f, g) if w is None else w)
    return packed, {k: v for k, v in corr._contract_dict(f, g, rows).items() if v}


def on(source, target, terms):
    return GradedCorrespondence(source, target, Cycle(source * target, terms))


def corr_key(x, z, exps):
    """The packed key of `exps` on x * z."""
    return sum(e << shift for e, shift in zip(exps, (x * z)._layout.shifts))


class TestPackedContraction:
    """The packed and the dict contraction called directly on the same
    operands; `_contract_packed` is exact for every width from `_slot_width`
    on."""

    P6 = make_variety([6])

    def test_random_dense_pairs_agree(self):
        rng = random.Random(71)
        for shapes in DENSE_TRIPLES:
            x, y, z = map(make_variety, shapes)
            for share in (1.0, 0.5, 0.1):
                f, g = dense_correspondence(rng, x, y, share), dense_correspondence(rng, y, z, share)
                packed, by_dict = both_contractions(f, g)
                assert packed == by_dict
                assert packed == both_contractions(f, g, PACKED_MAX_BITS)[0]

    def test_negative_slots_borrow_from_the_next(self):
        # every slot of R_x is negative except the top one, so each borrows
        # from the slot above it; the unpacked values must not
        y, z = P1, make_variety([1, 1])
        f = on(POINT, y, {(0,): 1, (1,): -2})
        g = on(y, z, {(1, 0, 0): -3, (1, 0, 1): 1, (1, 1, 0): -1, (1, 1, 1): 4,
                      (0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 1})
        packed, by_dict = both_contractions(f, g)
        assert packed == by_dict
        assert [packed[k] for k in sorted(packed)] == [-5, -1, -5, 2]

    def test_fractions_with_different_denominators(self):
        x, y, z = make_variety([1]), make_variety([2]), make_variety([3])
        rng = random.Random(73)
        f = dense_correspondence(rng, x, y, coeffs=(Fraction(1, 3), Fraction(5, 6), Fraction(7, 4)))
        g = dense_correspondence(rng, y, z, coeffs=(Fraction(2, 7), Fraction(9, 5), 3))
        assert f.cycle._den != g.cycle._den
        packed, by_dict = both_contractions(f, g)
        assert packed == by_dict
        h = compose_graded(f, g)
        assert h.cycle == triple_product_composite(f, g)
        assert h.cycle.terms[(1, 3)] == sum(f.cycle.terms[(1, e)] * g.cycle.terms[(2 - e, 3)] for e in range(3))

    def test_cancelled_slot_and_row_are_dropped(self):
        # rows r_y of g by middle exponent y: R_x for x = 1 is r_0 - r_1,
        # whose slots all cancel; for x = 0 it is r_2 + r_0, whose slot z = 1
        # cancels alone
        x, y, z = P1, P2, P2
        f = on(x, y, {(1, 2): 1, (1, 1): -1, (0, 0): 1, (0, 2): 1})
        g = on(y, z, {(0, 0): 3, (0, 1): -2, (0, 2): 5, (1, 0): 3, (1, 1): -2, (1, 2): 5,
                      (2, 0): 1, (2, 1): 2, (2, 2): 7})
        packed, by_dict = both_contractions(f, g)
        assert packed == by_dict
        assert packed == {corr_key(x, z, (0, 0)): 4, corr_key(x, z, (0, 2)): 12}

    def test_coefficients_at_the_slot_width_edge(self):
        # seven products of (2^k - 1)^2 in one slot, all of one sign: the
        # largest sum the width bound allows for these sizes
        for k in (1, 8, 27):
            top = (1 << k) - 1
            for sign in (1, -1):
                f = on(POINT, self.P6, {(e,): sign * top for e in range(7)})
                g = on(self.P6, P1, {(e, 0): top for e in range(7)} | {(e, 1): -top for e in range(7)})
                packed, by_dict = both_contractions(f, g)
                assert packed == by_dict == {0: 7 * sign * top * top, 1: -7 * sign * top * top}
        assert corr._slot_width(f, g) == 27 + 27 + 3 + 2 < PACKED_MAX_BITS

    def test_widest_slot_the_packed_path_takes(self, packed_calls):
        # the largest coefficient for which `_slot_width` is PACKED_MAX_BITS
        # on a dense [2,2] x [2,2] x [2,2] pair (81 terms each)
        x = make_variety([2, 2])
        rng = random.Random(79)
        f = dense_correspondence(rng, x, x)
        big = 1 << (PACKED_MAX_BITS - 4 - 7 - 2)
        g = on(x, x, dict(dense_correspondence(rng, x, x).cycle.terms) | {(0, 0, 0, 0): big - 1})
        assert corr._slot_width(f, g) == PACKED_MAX_BITS
        assert compose_graded(f, g).cycle == triple_product_composite(f, g)
        assert packed_calls == [PACKED_MAX_BITS]
        g = on(x, x, dict(g.cycle.terms) | {(0, 0, 0, 0): big})
        assert compose_graded(f, g).cycle == triple_product_composite(f, g)
        assert len(packed_calls) == 1

    def test_one_bit_short_gives_a_wrong_composite(self):
        """Negative control: `_slot_width` keeps one bit of margin above the
        bound a slot needs, and one bit less than that bound overflows."""
        top = (1 << 8) - 1
        f = on(POINT, self.P6, {(e,): top for e in range(7)})
        g = on(self.P6, P1, {(e, 0): top for e in range(7)} | {(e, 1): -top for e in range(7)})
        w = corr._slot_width(f, g)
        packed, by_dict = both_contractions(f, g, w - 1)
        assert packed == by_dict
        packed, by_dict = both_contractions(f, g, w - 2)
        assert packed != by_dict


class TestContractionRouting:
    def test_dense_small_coefficients_go_packed(self, packed_calls):
        rng = random.Random(83)
        for shape in [(3, 3), (4, 4), (2, 2, 2)]:
            x = make_variety(shape)
            compose_graded(dense_correspondence(rng, x, x), dense_correspondence(rng, x, x))
        assert len(packed_calls) == 3

    def test_sparse_and_wide_pairs_take_the_dict_loop(self, packed_calls):
        rng = random.Random(89)
        for shape in [(3, 3, 3), (2, 2, 2, 2)]:  # the sparse batch of compose-large
            x = make_variety(shape)
            for _ in range(50):
                compose_graded(random_correspondence(rng, x, x, 8), random_correspondence(rng, x, x, 8))
        x = make_variety([4, 4])
        digits300 = (10 ** 299 + 7, 3 * 10 ** 299 + 1)
        f, g = (dense_correspondence(rng, x, x, coeffs=digits300) for _ in range(2))
        assert not compose_graded(f, g).is_zero
        assert packed_calls == []

    def test_zero_operands_take_the_dict_loop(self, packed_calls):
        x = make_variety([3, 3])
        dense = dense_correspondence(random.Random(97), x, x)
        zero = GradedCorrespondence.zero(x, x)
        assert compose_graded(zero, dense).is_zero
        assert compose_graded(dense, zero).is_zero
        assert compose_graded(zero, zero).is_zero
        assert packed_calls == []

    def test_threshold_is_the_average_row(self, packed_calls):
        # g with PACKED_MIN_PARTNERS terms per row on average, in rows of
        # unequal length, goes packed; one term fewer does not
        y, z = make_variety([1]), make_variety([3, 3])
        cells = _monomials(z)
        terms = {(0, *e): 1 for e in cells[:PACKED_MIN_PARTNERS - 3]}
        terms |= {(1, *e): 2 for e in cells[:PACKED_MIN_PARTNERS + 3]}
        f = on(P2, y, {(0, 0): 1, (1, 1): -1, (2, 0): 3})
        g = on(y, z, terms)
        assert compose_graded(f, g).cycle == triple_product_composite(f, g)
        assert len(packed_calls) == 1
        del terms[(1, *cells[0])]
        g = on(y, z, terms)
        assert compose_graded(f, g).cycle == triple_product_composite(f, g)
        assert len(packed_calls) == 1


# (X, Y, Z, f terms, g terms): sparse pairs that take the dict loop, each
# with the result path in a different state
SPARSE_CASES = {
    # every middle row of g holds one term
    "singleton-rows": ((1,), (2,), (1,), {(0, 2): 1, (1, 1): -1, (1, 0): 2},
                       {(0, 0): 3, (1, 1): 2, (2, 0): -1}),
    # rows of 3 and 2 partners, below PACKED_MIN_PARTNERS
    "multi-partner-rows": ((1,), (1,), (1, 1), {(0, 0): 2, (0, 1): -1, (1, 1): 3},
                           {(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 1): -4, (1, 1, 0): 5, (1, 0, 1): 1}),
    # every product pairs, and the sums cancel to the zero cycle
    "complete-cancellation": ((), (1,), (1,), {(0,): 1, (1,): -1}, {(0, 0): 1, (1, 0): 1}),
    # numerators 2 and 12 over 6 reduce to 1 and 6 over 3
    "common-factor-over-den": ((), (1,), (1,), {(0,): Fraction(1, 2), (1,): Fraction(3, 2)},
                               {(1, 0): Fraction(2, 3), (0, 1): Fraction(4, 3)}),
    "point-middle": ((1,), (), (2,), {(0,): 3, (1,): Fraction(-1, 2)}, {(0,): 2, (2,): 5}),
    "all-points": ((), (), (), {(): 3}, {(): Fraction(-1, 2)}),
}


class TestSparseComposites:
    """The result path of the dict loop, case by case, against the
    triple-product route."""

    @pytest.mark.parametrize("case", SPARSE_CASES, ids=str)
    def test_matches_triple_product(self, case, packed_calls):
        xs, ys, zs, f_terms, g_terms = SPARSE_CASES[case]
        x, y, z = map(make_variety, (xs, ys, zs))
        f, g = on(x, y, f_terms), on(y, z, g_terms)
        h = compose_graded(f, g)
        assert h.cycle == triple_product_composite(f, g)
        assert h.source is x and h.target is z
        assert h.cycle._den > 0 and all(h.cycle._num.values())
        assert math.gcd(h.cycle._den, *h.cycle._num.values()) == 1
        assert packed_calls == []
        rows = corr._middle_rows(g)
        if case == "singleton-rows":
            assert [len(row) for row in rows.values()] == [1, 1, 1]
        elif case == "multi-partner-rows":
            assert sorted(len(row) for row in rows.values()) == [2, 3]
        elif case == "complete-cancellation":
            assert corr._contract_dict(f, g, rows) == {0: 0}
            assert (h.cycle._den, h.cycle._num) == (1, {})
        elif case == "common-factor-over-den":
            assert f.cycle._den * g.cycle._den == 6
            assert (h.cycle._den, sorted(h.cycle._num.values())) == (3, [1, 6])

    def test_equal_middle_varieties_that_are_not_shared(self):
        y = Variety((1,))  # the checked constructor makes a variety of its own
        assert y is not P1 and y == P1
        f, g = on(P2, y, {(1, 1): 2, (0, 0): 1}), on(P1, P1, {(0, 1): 3, (1, 0): -1})
        assert compose_graded(f, g).cycle == triple_product_composite(f, g)


# (X, Y, Z), all different, with P^0 factors and the point among them
RECTANGULAR_TRIPLES = [((0,), (2, 1), (1,)), ((1, 2), (0, 1), (3,)), ((), (1, 0), (2,)),
                       ((2,), (3,), ()), ((1, 0), (), (0, 2)), ((0, 0), (1, 1, 1), (2, 0))]


def dict_contraction(f, g):
    """The composite from `_contract_dict` called directly, over the
    product of the operands' denominators."""
    acc = corr._contract_dict(f, g, corr._middle_rows(g))
    return ring._reduced(f.source * g.target, f.cycle._den * g.cycle._den, acc)


class TestDictContraction:
    """`_contract_dict` called directly against the triple-product route,
    on operands where few, some or all terms of f have a partner row."""

    def test_no_term_of_f_has_a_partner(self):
        # f's middle exponents 0 and 1 on P^2 need rows at 2 and 1; g has one row, at 0
        x, y, z = P1, P2, P1xP1
        f = on(x, y, {(0, 0): 3, (1, 0): -2, (0, 1): Fraction(1, 2)})
        g = on(y, z, {(0, 1, 0): 5, (0, 0, 1): 1})
        assert corr._contract_dict(f, g, corr._middle_rows(g)) == {}
        assert dict_contraction(f, g) == triple_product_composite(f, g) == Cycle.zero(x * z)
        assert compose_graded(f, g).is_zero

    def test_only_some_terms_of_f_have_a_partner(self):
        x, y, z = P1, P2, P1xP1
        # the f terms at middle exponent 2 pair with g's row at 0; those at 0 find no row at 2
        f = on(x, y, {(0, 2): 3, (1, 2): -1, (0, 0): 7, (1, 0): Fraction(2, 3)})
        g = on(y, z, {(0, 1, 0): 5, (0, 0, 1): Fraction(1, 4), (1, 1, 1): 2})
        acc = corr._contract_dict(f, g, corr._middle_rows(g))
        assert sorted(acc) == sorted(corr_key(x, z, e) for e in [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])
        h = dict_contraction(f, g)
        assert h == triple_product_composite(f, g) and not h.is_zero
        assert compose_graded(f, g).cycle == h

    @pytest.mark.parametrize("shapes", RECTANGULAR_TRIPLES, ids=str)
    def test_rectangular_operands_match_triple_product(self, shapes):
        x, y, z = map(make_variety, shapes)
        rng = random.Random(f"rectangular:{shapes}")
        zero = partial = 0
        for _ in range(40):
            f = random_correspondence(rng, x, y, rng.randint(1, 8))
            g = random_correspondence(rng, y, z, rng.randint(1, 8))
            h = dict_contraction(f, g)
            assert h == triple_product_composite(f, g)
            assert h == compose_graded(f, g).cycle
            assert h._den > 0 and all(h._num.values()) and math.gcd(h._den, *h._num.values()) == 1
            rows, y_mask = corr._middle_rows(g), (1 << y._layout.bits) - 1
            partnered = sum(y._layout.top - (k & y_mask) in rows for k in f.cycle._num)
            zero += partnered == 0
            partial += 0 < partnered < len(f.cycle._num)
        if y.dim:  # over a point or P^0 every term of f has a partner row
            assert zero >= 1 and partial >= 1


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
            assert compose_graded(GradedCorrespondence.identity(x), f) == f
            assert compose_graded(f, GradedCorrespondence.identity(y)) == f

    def test_degree_bookkeeping(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_correspondence(rng, P1, P1).degree_component(0)
            g = random_correspondence(rng, P1, P1).degree_component(0)
            h = compose_graded(f, g)
            assert h.cycle.is_homogeneous(P1.dim)  # only degree 0 present

    def test_associativity_both_orders(self):
        rng = random.Random(37)
        pool = [P1, P1xP1, P2]
        for _ in range(60):
            x, y, z, w = (rng.choice(pool) for _ in range(4))
            f = random_correspondence(rng, x, y)
            g = random_correspondence(rng, y, z)
            h = random_correspondence(rng, z, w)
            assert compose_graded(compose_graded(f, g), h) == compose_graded(f, compose_graded(g, h))

    def test_transpose_antihomomorphism(self):
        rng = random.Random(41)
        pool = [P1, P1xP1, P2]
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            f = random_correspondence(rng, x, y)
            g = random_correspondence(rng, y, z)
            assert compose_graded(f, g).transpose() == compose_graded(g.transpose(), f.transpose())

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
            whole = compose_graded(f, g)
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
