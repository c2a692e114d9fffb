import random

import pytest

from chowmot import motives, verify
from chowmot import (
    ChowError,
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
    OrlovReport,
    PreconditionError,
    SupportConditionError,
    chern_character,
    chow_image,
    compatibility_check,
    compose_graded,
    compose_motive,
    degree_zero_rigidify,
    diagonal_class,
    dual,
    identity_kernel,
    k_compose,
    lefschetz_motive,
    line_bundle,
    make_variety,
    motive_of,
    orbit_compose,
    orlov_pipeline,
    permute_factors,
    series_inverse,
    split_idempotent,
    sqrt_todd,
    tate_twist,
    tensor,
    tensor_morphism,
    unit_motive,
    zero_motive,
)
from chowmot.verify import (
    _geometric_inverse,
    random_cycle_in_codims,
    random_kernel,
    run_check,
)

POINT = make_variety([])
P1 = make_variety([1])
P2 = make_variety([2])
P1xP1 = make_variety([1, 1])


def coordinate_projector(i):
    """The endomorphism of the motive of the line given by h_{i+1} on the
    square."""
    m = motive_of(P1)
    return MotiveMorphism(m, m, GradedCorrespondence(P1, P1, Cycle.hyperplane(P1xP1, i)))


def random_sandwiched_morphism(rng, source: Motive, target: Motive) -> MotiveMorphism:
    """A random morphism: sandwich a random correspondence of the right
    degree between the idempotents."""
    degree = target.twist - source.twist
    codim = source.variety.dim + degree
    raw = GradedCorrespondence(
        source.variety,
        target.variety,
        random_cycle_in_codims(rng, source.variety * target.variety, [codim]),
    )
    corr = compose_graded(compose_graded(source.idempotent, raw), target.idempotent)
    return MotiveMorphism(source, target, corr)


class TestMotiveConstruction:
    def test_motive_of_point(self):
        assert motive_of(POINT) == unit_motive()

    def test_motive_of_line(self):
        m = motive_of(P1)
        assert m.idempotent.cycle == Cycle.hyperplane(P1xP1, 0) + Cycle.hyperplane(P1xP1, 1)

    def test_motive_of_plane(self):
        m = motive_of(P2)
        square = P2 * P2
        expected = Cycle(square, {(0, 2): 1, (1, 1): 1, (2, 0): 1})
        assert m.idempotent.cycle == expected

    def test_non_idempotent_rejected(self):
        bad = GradedCorrespondence(P1, P1, Cycle.hyperplane(P1xP1, 0).scale(2))
        with pytest.raises(InvalidInputError):
            Motive(P1, 0, bad)

    def test_impure_idempotent_rejected(self):
        mixed = GradedCorrespondence(P1, P1, Cycle.one(P1xP1) + diagonal_class(P1))
        with pytest.raises(InvalidInputError):
            Motive(P1, 0, mixed)

    def test_morphism_degree_enforced(self):
        m = motive_of(P1)
        with pytest.raises(InvalidInputError):
            MotiveMorphism(m, tate_twist(m, 1), m.idempotent)

    def test_sandwich_enforced(self):
        m = motive_of(P1)
        l = lefschetz_motive()
        # the diagonal is not fixed by sandwiching with the Lefschetz projector
        with pytest.raises(InvalidInputError):
            MotiveMorphism(l, l, m.idempotent)


class TestMotiveComposition:
    def test_identity_neutral(self):
        rng = random.Random(127)
        objects = [unit_motive(), motive_of(P1), motive_of(P2), lefschetz_motive()]
        for _ in range(100):
            source, target = rng.choice(objects), rng.choice(objects)
            f = random_sandwiched_morphism(rng, source, target)
            assert compose_motive(source.identity_morphism(), f) == f
            assert compose_motive(f, target.identity_morphism()) == f

    def test_associativity(self):
        rng = random.Random(131)
        objects = [unit_motive(), motive_of(P1), motive_of(P2), lefschetz_motive()]
        for _ in range(100):
            a, b, c, d = (rng.choice(objects) for _ in range(4))
            f = random_sandwiched_morphism(rng, a, b)
            g = random_sandwiched_morphism(rng, b, c)
            h = random_sandwiched_morphism(rng, c, d)
            assert compose_motive(compose_motive(f, g), h) == compose_motive(f, compose_motive(g, h))

    def test_zero_absorbs(self):
        rng = random.Random(137)
        m, n = motive_of(P1), motive_of(P2)
        f = random_sandwiched_morphism(rng, m, n)
        zero = MotiveMorphism.zero(n, m)
        assert compose_motive(f, zero).is_zero

    def test_object_mismatch(self):
        f = motive_of(P1).identity_morphism()
        g = motive_of(P2).identity_morphism()
        with pytest.raises(DomainMismatchError):
            compose_motive(f, g)


class TestTensorDualTwist:
    def test_unit_is_strict_unit(self):
        m = motive_of(P1)
        assert tensor(unit_motive(), m) == m
        assert tensor(m, unit_motive()) == m

    def test_tensor_of_lines(self):
        t = tensor(motive_of(P1), motive_of(P1))
        assert t.variety == P1xP1 and t.twist == 0
        assert t.idempotent == GradedCorrespondence.identity(P1xP1)

    def test_tensor_of_line_and_plane(self):
        assert tensor(motive_of(P1), motive_of(P2)) == motive_of(make_variety([1, 2]))

    def test_double_dual(self):
        m = motive_of(P1)
        assert dual(dual(m)) == m

    def test_dual_twist_arithmetic(self):
        l = lefschetz_motive()
        d = dual(l)
        assert d.twist == 1
        assert d.idempotent.cycle == Cycle.hyperplane(P1xP1, 0)

    def test_tate_twist_zero(self):
        m = motive_of(P2)
        assert tate_twist(m, 0) == m

    def test_tate_twist_composes(self):
        m = motive_of(P2)
        assert tate_twist(tate_twist(m, 2), -1) == tate_twist(m, 1)

    def test_dual_of_tensor_up_to_reordering(self):
        m, n = motive_of(P1), motive_of(P2)
        lhs = dual(tensor(m, n))
        rhs = tensor(dual(m), dual(n))
        assert lhs.twist == rhs.twist
        assert lhs.variety == rhs.variety
        assert lhs.idempotent == rhs.idempotent

    def test_tensor_morphism_functorial(self):
        rng = random.Random(139)
        m, n = motive_of(P1), lefschetz_motive()
        for _ in range(10):
            f1 = random_sandwiched_morphism(rng, m, m)
            f2 = random_sandwiched_morphism(rng, m, m)
            g1 = random_sandwiched_morphism(rng, n, n)
            g2 = random_sandwiched_morphism(rng, n, n)
            lhs = tensor_morphism(compose_motive(f1, f2), compose_motive(g1, g2))
            rhs = compose_motive(tensor_morphism(f1, g1), tensor_morphism(f2, g2))
            assert lhs == rhs


class TestTateAndLefschetz:
    def test_tate_motive_data(self):
        t = tate_twist(unit_motive(), 1)
        assert t.variety == POINT and t.twist == -1

    def test_lefschetz_isomorphic_to_tate(self):
        # mutually inverse morphisms between the Lefschetz and Tate motives;
        # under the conventions pinned here the twisting object itself, not
        # its dual, matches the Lefschetz piece
        l = lefschetz_motive()
        t = tate_twist(unit_motive(), 1)
        u = MotiveMorphism(l, t, GradedCorrespondence(P1, POINT, Cycle.one(P1)))
        v = MotiveMorphism(t, l, GradedCorrespondence(POINT, P1, Cycle.hyperplane(P1, 0)))
        assert compose_motive(u, v) == l.identity_morphism()
        assert compose_motive(v, u) == t.identity_morphism()

    def test_dual_lefschetz_isomorphic_to_inverse_twist(self):
        ldual = dual(lefschetz_motive())
        tinv = tate_twist(unit_motive(), -1)
        u = MotiveMorphism(ldual, tinv, GradedCorrespondence(P1, POINT, Cycle.hyperplane(P1, 0)))
        v = MotiveMorphism(tinv, ldual, GradedCorrespondence(POINT, P1, Cycle.one(P1)))
        assert compose_motive(u, v) == ldual.identity_morphism()
        assert compose_motive(v, u) == tinv.identity_morphism()


class TestSplitIdempotent:
    def test_identity_splits_to_itself(self):
        m = motive_of(P1)
        image, section, retraction = split_idempotent(m, m.identity_morphism())
        assert image == m
        assert compose_motive(retraction, section) == m.identity_morphism()

    def test_zero_splits_to_zero_motive(self):
        m = motive_of(P1)
        image, section, retraction = split_idempotent(m, MotiveMorphism.zero(m, m))
        assert image == zero_motive()
        assert section.is_zero and retraction.is_zero

    def test_zero_motive_is_the_zero_projector_on_the_point_at_twist_0(self):
        """Written out, not through `split_idempotent`, which builds its
        zero image by `zero_motive` itself."""
        literal = {"variety": {"factors": []}, "twist": 0, "idempotent": {"variety": {"factors": []}, "terms": []}}
        assert zero_motive().to_json() == literal
        assert zero_motive() == Motive.from_json(literal) == Motive(POINT, 0, GradedCorrespondence.zero(POINT, POINT))

    def test_split_contract(self):
        m = motive_of(P1)
        for p in [coordinate_projector(0), coordinate_projector(1)]:
            image, section, retraction = split_idempotent(m, p)
            assert compose_motive(section, retraction) == image.identity_morphism()
            assert compose_motive(retraction, section) == p

    def test_beta_gives_lefschetz(self):
        m = motive_of(P1)
        image, _, _ = split_idempotent(m, coordinate_projector(1))
        assert image == lefschetz_motive()

    def test_non_idempotent_rejected(self):
        m = motive_of(P1)
        p = coordinate_projector(0)
        with pytest.raises(InvalidInputError):
            split_idempotent(m, p + p)

    def test_lefschetz_orthogonal_decomposition(self):
        alpha, beta = coordinate_projector(0), coordinate_projector(1)
        m = motive_of(P1)
        assert compose_motive(alpha, alpha) == alpha
        assert compose_motive(beta, beta) == beta
        assert compose_motive(alpha, beta).is_zero
        assert compose_motive(beta, alpha).is_zero
        assert alpha + beta == m.identity_morphism()


class TestFormalSums:
    def test_matrix_identity_and_associativity(self):
        rng = random.Random(149)
        m, n = motive_of(P1), lefschetz_motive()
        fs = FormalSum((m, n))
        ident = fs.identity_morphism()

        def random_endo():
            return FormalSumMorphism(
                fs,
                fs,
                (
                    (random_sandwiched_morphism(rng, m, m), random_sandwiched_morphism(rng, n, m)),
                    (random_sandwiched_morphism(rng, m, n), random_sandwiched_morphism(rng, n, n)),
                ),
            )

        for _ in range(10):
            f, g, h = random_endo(), random_endo(), random_endo()
            assert f.then(ident).matrix == f.matrix
            assert ident.then(f).matrix == f.matrix
            assert f.then(g).then(h).matrix == f.then(g.then(h)).matrix

    def test_line_decomposes_as_unit_plus_lefschetz(self):
        m = motive_of(P1)
        one = unit_motive()
        l = lefschetz_motive()
        alpha, beta = coordinate_projector(0), coordinate_projector(1)
        _, sect_a, retr_a = split_idempotent(m, alpha)
        image_a, _, _ = split_idempotent(m, alpha)

        to_line = MotiveMorphism(one, m, GradedCorrespondence(POINT, P1, Cycle.one(P1)))
        to_point = MotiveMorphism(m, one, GradedCorrespondence(P1, POINT, Cycle.hyperplane(P1, 0)))
        _, sect_b, retr_b = split_idempotent(m, beta)

        whole = FormalSum((m,))
        pieces = FormalSum((one, l))
        # columns map the single source summand; rows index target summands
        u = FormalSumMorphism(whole, pieces, ((to_point,), (retr_b,)))
        v = FormalSumMorphism(pieces, whole, ((to_line, sect_b),))
        assert u.then(v).matrix == whole.identity_morphism().matrix
        assert v.then(u).matrix == pieces.identity_morphism().matrix

    def test_shape_mismatch_rejected(self):
        m = motive_of(P1)
        fs = FormalSum((m,))
        with pytest.raises(InvalidInputError):
            FormalSumMorphism(fs, fs, ((m.identity_morphism(), m.identity_morphism()),))


class TestOrbitCategory:
    def test_identity_neutral(self):
        rng = random.Random(151)
        m = motive_of(P1)
        for _ in range(20):
            corr = GradedCorrespondence(P1, P1, random_cycle_in_codims(rng, P1xP1, [0, 1, 2]))
            f = OrbitMorphism(m, m, corr)
            assert orbit_compose(OrbitMorphism.identity(m), f) == f
            assert orbit_compose(f, OrbitMorphism.identity(m)) == f

    def test_component_reads_the_offset_between_twisted_motives(self):
        """With source twist 2 and target twist 0, component i is the part of
        degree i - 2; at source twist 0 an offset measured by t + s would
        agree with t - s."""
        source, target = tate_twist(motive_of(P1), -2), motive_of(P1)
        parts = {1: GradedCorrespondence(P1, P1, Cycle.one(P1xP1)),
                 2: target.idempotent,
                 3: GradedCorrespondence(P1, P1, Cycle.monomial(P1xP1, (1, 1)))}
        f = OrbitMorphism.from_components(source, target, parts)
        assert f.indices() == [1, 2, 3] and dict(f.components) == parts
        for i in range(-2, 6):
            assert f.component(i) == parts.get(i, GradedCorrespondence.zero(P1, P1)), i

    def test_concentrated_composition_lands_at_sum(self):
        m = motive_of(P1)
        f = OrbitMorphism.from_components(
            m, m, {1: GradedCorrespondence(P1, P1, Cycle.monomial(P1xP1, (1, 1)))})
        g = OrbitMorphism.from_components(m, m, {-1: GradedCorrespondence(P1, P1, Cycle.one(P1xP1))})
        composite = orbit_compose(f, g)
        assert composite.indices() == [0]

    def test_offset_zero_restriction_is_plain_composition(self):
        rng = random.Random(157)
        m, n, p = motive_of(P1), motive_of(P2), motive_of(P1)
        for _ in range(20):
            f = random_sandwiched_morphism(rng, m, n)
            g = random_sandwiched_morphism(rng, n, p)
            of = OrbitMorphism(f.source, f.target, f.corr)
            og = OrbitMorphism(g.source, g.target, g.corr)
            fg = compose_motive(f, g)
            assert orbit_compose(of, og) == OrbitMorphism(fg.source, fg.target, fg.corr)

    def test_associativity(self):
        rng = random.Random(163)
        m = motive_of(P1)
        for _ in range(30):
            fs = []
            for _ in range(3):
                corr = GradedCorrespondence(P1, P1, random_cycle_in_codims(rng, P1xP1, [0, 1, 2]))
                fs.append(OrbitMorphism(m, m, corr))
            f, g, h = fs
            assert orbit_compose(orbit_compose(f, g), h) == orbit_compose(f, orbit_compose(g, h))

    def test_matches_pairwise_reference(self):
        # the reference composes the components pair by pair and adds the
        # composites by offset; orbit_compose leaves that to compose_graded
        def pairwise(f_components, g_components):
            acc = {}
            for i, ci in f_components.items():
                for j, cj in g_components.items():
                    piece = compose_graded(ci, cj)
                    acc[i + j] = acc[i + j] + piece if i + j in acc else piece
            return {k: c for k, c in acc.items() if not c.is_zero}

        def mixed_offsets(rng, source, target):
            base = target.twist - source.twist
            comps = {}
            for d in range(-source.variety.dim, target.variety.dim + 1):
                raw = GradedCorrespondence(source.variety, target.variety, random_cycle_in_codims(
                    rng, source.variety * target.variety, [source.variety.dim + d]))
                comps[d - base] = compose_graded(compose_graded(source.idempotent, raw), target.idempotent)
            return OrbitMorphism.from_components(source, target, comps)

        rng = random.Random(165)
        pool = [tate_twist(motive_of(P1), 1), motive_of(P2), tate_twist(motive_of(P2), -2),
                tate_twist(lefschetz_motive(), -1)]
        checked = 0
        while checked < 30:
            a, b, c = (rng.choice(pool) for _ in range(3))
            f, g = mixed_offsets(rng, a, b), mixed_offsets(rng, b, c)
            composite = dict(orbit_compose(f, g).components)
            assert composite == pairwise(f.components, g.components)
            if not composite:
                continue
            # negative control: move the lowest component of f one offset up
            low = f.indices()[0]
            shifted = {i + (i == low): ci for i, ci in f.components.items()}
            assert composite != pairwise(shifted, g.components)
            checked += 1

    def test_from_components_rejects_wrong_varieties(self):
        m = motive_of(P1)
        stray = GradedCorrespondence.identity(P2)
        with pytest.raises(InvalidInputError, match="component 1 does not match the motives' varieties"):
            OrbitMorphism.from_components(m, m, {0: m.idempotent, 1: stray})

    def test_degree_offset_consistency(self):
        # a component at offset i must be pure of degree (twist gap) + i
        l = lefschetz_motive()
        t = tate_twist(unit_motive(), 1)
        u = GradedCorrespondence(P1, POINT, Cycle.one(P1))
        morphism = OrbitMorphism.from_components(l, t, {0: u})
        assert morphism.component(0) == u
        with pytest.raises(InvalidInputError):
            OrbitMorphism.from_components(l, t, {1: u})


class TestDegreeZeroRigidify:
    def test_identity_pair(self):
        m = motive_of(P1)
        f0, g0 = degree_zero_rigidify(OrbitMorphism.identity(m), OrbitMorphism.identity(m))
        assert f0 == m.identity_morphism() and g0 == m.identity_morphism()

    def test_unipotent_pair_example(self):
        m = motive_of(P2)
        square = P2 * P2
        ident = GradedCorrespondence.identity(P2)
        # degree-1 perturbation whose self-composite survives, so the
        # inverse picks up an offset-2 component
        nil = GradedCorrespondence(
            P2, P2, Cycle.monomial(square, (2, 1)) + Cycle.monomial(square, (1, 2))
        )
        f = OrbitMorphism(m, m, ident + nil)
        g = OrbitMorphism(m, m, _geometric_inverse(ident, nil))
        assert f.indices() == [0, 1]
        assert g.indices() == [0, 1, 2]
        f0, g0 = degree_zero_rigidify(f, g)
        assert compose_motive(f0, g0) == m.identity_morphism()
        assert compose_motive(g0, f0) == m.identity_morphism()

    def test_the_two_orbit_composites_are_its_only_compositions(self, monkeypatch):
        """With every offset >= 0 the offset-0 part of f o g is f0 o g0, so
        the lemma composes f and g once each way and the offset-0 parts
        never (it composed four times while it composed them again)."""
        calls = []
        real = motives.compose_graded

        def spy(f, g):
            calls.append((f.source, g.target))
            return real(f, g)

        m = motive_of(P2)
        ident = GradedCorrespondence.identity(P2)
        nil = GradedCorrespondence(P2, P2, Cycle.monomial(P2 * P2, (2, 1)))
        f, g = OrbitMorphism(m, m, ident + nil), OrbitMorphism(m, m, _geometric_inverse(ident, nil))
        monkeypatch.setattr(motives, "compose_graded", spy)
        f0, g0 = degree_zero_rigidify(f, g)
        assert calls == [(P2, P2)] * 2
        assert f0.corr == g0.corr == ident

    def test_not_mutually_inverse_rejected(self):
        m = motive_of(P1)
        ident = GradedCorrespondence.identity(P1)
        nil = GradedCorrespondence(P1, P1, Cycle.monomial(P1xP1, (1, 1)))
        f = OrbitMorphism(m, m, ident + nil)
        with pytest.raises(PreconditionError):
            degree_zero_rigidify(f, OrbitMorphism.identity(m))

    def test_negative_component_rejected(self):
        m = motive_of(P1)
        ident = GradedCorrespondence.identity(P1)
        nil = GradedCorrespondence(P1, P1, Cycle.one(P1xP1))  # degree -1
        f = OrbitMorphism(m, m, ident + nil)
        g = OrbitMorphism(m, m, _geometric_inverse(ident, nil))
        with pytest.raises(SupportConditionError):
            degree_zero_rigidify(f, g)

    def test_pair_at_offsets_plus_and_minus_one_is_refused_by_the_support_test(self):
        """The diagonal from P^1 twisted once to P^1 and back: mutually
        inverse, f at offset +1 and g at offset -1, so only the support test
        on g refuses it, and its offset-0 parts are zero."""
        m = motive_of(P1)
        n = tate_twist(m, -1)
        f, g = OrbitMorphism(n, m, m.idempotent), OrbitMorphism(m, n, m.idempotent)
        assert (f.indices(), g.indices()) == ([1], [-1])
        assert orbit_compose(f, g) == OrbitMorphism.identity(n) and orbit_compose(g, f) == OrbitMorphism.identity(m)
        assert f.component(0).is_zero and g.component(0).is_zero
        with pytest.raises(ChowError) as caught:
            degree_zero_rigidify(f, g)
        assert type(caught.value) is SupportConditionError

    def test_a_lemma_without_the_support_test_on_g_fails_the_orbit_row(self, monkeypatch):
        """Negative control: a lemma that lets a negative offset of g through
        returns the zero pair for the row's fixed control, and the
        orbit-rigidification row of verify fails."""
        real = verify.degree_zero_rigidify

        def skips_g(f, g):
            if any(j < 0 for j in g.indices()) and not any(i < 0 for i in f.indices()):
                return MotiveMorphism.zero(f.source, f.target), MotiveMorphism.zero(f.target, f.source)
            return real(f, g)

        monkeypatch.setattr(verify, "degree_zero_rigidify", skips_g)
        result = run_check("orbit-rigidification", 42, 200)
        assert not result.passed and result.detail == "the control at offsets +1 and -1 was not rejected"


def two_test_report(e: KKernel, f: KKernel) -> OrlovReport:
    """The reference classification: the pipeline's verdict as decided by
    its own two tests, mutual inversion of the images and then codimension
    floors of at least dim X, with the degree-zero parts of the images as
    the pair, rebuilt by the checked constructors."""
    x, y = e.source, e.target
    a, b = chow_image(e), chow_image(f)
    floors = tuple(c.codimensions()[0] if c.codimensions() else None for c in (a.cycle, b.cycle))
    if (compose_graded(a, b) != GradedCorrespondence.identity(x)
            or compose_graded(b, a) != GradedCorrespondence.identity(y)):
        return OrlovReport("not-equivalent", floors, None)
    if not all(floor is None or floor >= x.dim for floor in floors):
        return OrlovReport("tate-twist-only", floors, None)
    mx, my = motive_of(x), motive_of(y)
    pair = (MotiveMorphism(mx, my, a.degree_component(0)), MotiveMorphism(my, mx, b.degree_component(0)))
    return OrlovReport("exact-isomorphism", floors, pair)


def twisted_diagonal(x, d: int) -> KKernel:
    """The structure sheaf of the diagonal twisted by O(d, ..., d) pulled
    back from the first copy of X."""
    twist = chern_character(line_bundle(x * x, [d] * x.num_factors + [0] * x.num_factors))
    return KKernel(x, x, identity_kernel(x).ch * twist)


def shifted_pair(x) -> tuple[KKernel, KKernel]:
    """Kernels whose images are id + [X x X] and its inverse id - [X x X]
    (the constant class composes with itself to zero when dim X >= 1)."""
    ident = GradedCorrespondence.identity(x)
    shift = GradedCorrespondence(x, x, Cycle.one(x * x))
    back = series_inverse(sqrt_todd(x * x))
    return KKernel(x, x, (ident + shift).cycle * back), KKernel(x, x, (ident - shift).cycle * back)


class TestOrlovPipeline:
    @pytest.mark.parametrize("factors", [[1], [2], [1, 1]])
    def test_verdicts_equal_the_two_test_reference(self, factors):
        x = make_variety(factors)
        pairs = [(twisted_diagonal(x, d), twisted_diagonal(x, -d), "exact-isomorphism")
                 for d in (-3, -2, -1, 1, 2, 3)]
        pairs += [(twisted_diagonal(x, d), twisted_diagonal(x, d), "not-equivalent") for d in (-3, -2, -1, 1, 2, 3)]
        pairs.append((*shifted_pair(x), "tate-twist-only"))
        for e, f, verdict in pairs:
            report = orlov_pipeline(e, f)
            assert report.verdict == verdict
            assert report == two_test_report(e, f)

    def test_one_call_of_the_lemma_decides(self, monkeypatch):
        """The pipeline's own calls, not counting those nested in another:
        two images and one lemma, and no composition of its own, whatever
        the verdict."""
        calls, depth = [], []

        def spy(name, real):
            def call(*args):
                if not depth:
                    calls.append(name)
                depth.append(name)
                try:
                    return real(*args)
                finally:
                    depth.pop()
            return call

        for name in ("chow_image", "degree_zero_rigidify", "compose_graded"):
            monkeypatch.setattr(motives, name, spy(name, getattr(motives, name)))
        ik = identity_kernel(P1)
        pairs = [(ik, ik), shifted_pair(P1), (twisted_diagonal(P1, 1), twisted_diagonal(P1, 1))]
        verdicts = []
        for e, f in pairs:
            calls.clear()
            verdicts.append(orlov_pipeline(e, f).verdict)
            assert calls == ["chow_image"] * 2 + ["degree_zero_rigidify"]
        assert verdicts == ["exact-isomorphism", "tate-twist-only", "not-equivalent"]

    def test_a_support_test_that_sees_no_offsets_is_caught(self, monkeypatch):
        """Negative control: the support condition is decided by the lemma
        alone, so hiding the offsets of every orbit morphism fails the
        orlov-pipeline row of verify."""
        monkeypatch.setattr(OrbitMorphism, "indices", lambda self: [])
        result = run_check("orlov-pipeline", 42, 200)
        assert not result.passed and result.detail == "shifted control: verdict exact-isomorphism"

    def test_identity_pair_exact(self):
        ik = identity_kernel(P1)
        report = orlov_pipeline(ik, ik)
        assert report.verdict == "exact-isomorphism"
        f0, g0 = report.degree_zero_pair
        assert f0.corr == GradedCorrespondence.identity(P1)
        assert g0.corr == GradedCorrespondence.identity(P1)

    @pytest.mark.parametrize("d", [-2, -1, 1, 2])
    def test_twisted_kernels_exact(self, d):
        report = orlov_pipeline(twisted_diagonal(P1, d), twisted_diagonal(P1, -d))
        assert report.verdict == "exact-isomorphism"
        assert report.support_floors[0] >= 1 and report.support_floors[1] >= 1
        f0, g0 = report.degree_zero_pair
        assert compose_motive(f0, g0) == motive_of(P1).identity_morphism()

    def test_twisted_kernels_invert_under_composition(self):
        for d in range(-2, 3):
            composite = k_compose(twisted_diagonal(P1, d), twisted_diagonal(P1, -d))
            assert composite == identity_kernel(P1)

    def test_shifted_pair_reports_twist_only(self):
        from chowmot import series_inverse, sqrt_todd

        square = P1 * P1
        ident = GradedCorrespondence.identity(P1)
        shift = GradedCorrespondence(P1, P1, Cycle.one(square))
        back = series_inverse(sqrt_todd(square))
        e = KKernel.from_ch(P1, P1, (ident + shift).cycle * back)
        f = KKernel.from_ch(P1, P1, _geometric_inverse(ident, shift).cycle * back)
        report = orlov_pipeline(e, f)
        assert report.verdict == "tate-twist-only"
        assert report.support_floors == (0, 0)  # below dim P^1 = 1, so the support condition fails
        assert report.degree_zero_pair is None

    def test_non_inverse_pair(self):
        report = orlov_pipeline(twisted_diagonal(P1, 1), twisted_diagonal(P1, 1))
        assert report.verdict == "not-equivalent"
        assert report.degree_zero_pair is None

    def test_dimension_mismatch_rejected(self):
        e = random_kernel(random.Random(5), P1, P2)
        f = random_kernel(random.Random(6), P2, P1)
        with pytest.raises(InvalidInputError):
            orlov_pipeline(e, f)


class TestCompatibility:
    def test_identity_kernels(self):
        for factors in [[], [1], [2], [1, 1]]:
            ident = identity_kernel(make_variety(factors))
            assert compatibility_check(ident, ident)

    def test_random_kernels(self):
        rng = random.Random(167)
        pool = [P1, P1xP1, P2]
        for _ in range(100):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert compatibility_check(random_kernel(rng, x, y), random_kernel(rng, y, z))

    def test_corrupted_route_detected(self):
        # a rank-1 kernel is a unit, so dropping the normalization must show
        ch = random_kernel(random.Random(7), P1, P1).ch
        e = KKernel.from_ch(P1, P1, ch - ch.graded_component(0) + Cycle.one(P1xP1))
        ident = identity_kernel(P1)
        bare = compose_graded(GradedCorrespondence(P1, P1, e.ch), GradedCorrespondence(P1, P1, ident.ch))
        assert chow_image(k_compose(e, ident)) != bare

    def test_broken_composition_detected(self, monkeypatch):
        # a composition route that drops the p2^* td(Y) factor of GRR
        def bare_compose(e, f):
            composed = compose_graded(
                GradedCorrespondence(e.source, e.target, e.ch),
                GradedCorrespondence(f.source, f.target, f.ch),
            )
            return KKernel.from_ch(e.source, f.target, composed.cycle)

        monkeypatch.setattr(motives, "k_compose", bare_compose)
        rng = random.Random(173)
        ident = identity_kernel(P1)
        assert not compatibility_check(ident, ident)
        caught = sum(
            not compatibility_check(random_kernel(rng, P1, P2), random_kernel(rng, P2, P1))
            for _ in range(20)
        )
        assert caught >= 18


class TestMotiveJson:
    def test_round_trip(self):
        for m in [unit_motive(), motive_of(P1), lefschetz_motive(), tate_twist(unit_motive(), 1)]:
            assert Motive.from_json(m.to_json()) == m

    def test_orbit_round_trip(self):
        m = motive_of(P1)
        ident = GradedCorrespondence.identity(P1)
        nil = GradedCorrespondence(P1, P1, Cycle.monomial(P1xP1, (1, 1)))
        f = OrbitMorphism(m, m, ident + nil)
        assert OrbitMorphism.from_json(f.to_json()) == f
