"""Seeded verification suites.

Each check replays one of the package's contract guarantees with a
deterministic random stream and returns the laws it found broken, empty when
it passes, and its pass detail.  `run_check` runs one row of CHECKS; the CLI
`verify` subcommand and the test suite both run the rows through it.

Sample counts passed in are floors only in the sense that every check
enforces its own contractual minimum.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .chern import (
    BundleClass,
    chern_character,
    line_bundle,
    series_inverse,
    sqrt_todd,
    todd_class,
)
from .corr import FactorSelection, GradedCorrespondence, compose_graded
from .errors import InvalidInputError, SupportConditionError
from .kshadow import KKernel, chow_image, euler_characteristic, identity_kernel, k_compose
from .motives import (
    MotiveMorphism,
    OrbitMorphism,
    compatibility_check,
    compose_motive,
    degree_zero_rigidify,
    lefschetz_motive,
    motive_of,
    orbit_compose,
    orlov_pipeline,
    split_idempotent,
    tate_twist,
    unit_motive,
)
from .ring import Cycle, Variety, _reduced, _require_int, _Value, make_variety

# varieties of dimension <= 4 used by the randomized algebra checks
ALGEBRA_POOL = [
    (),
    (1,),
    (2,),
    (3,),
    (4,),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 2),
    (1, 1, 1),
    (1, 1, 2),
]

# the kernel checks run over this smaller universe
KERNEL_POOL = [(1,), (1, 1), (2,)]

# Largest sample count `run_checks` accepts.  Three checks grow linearly
# with it: a first run_checks in a fresh process took 0.065 s at 200
# samples, 0.49 s at 2,000 and 2.5 s at 10,000 (Python 3.11, 2-vCPU
# machine, median of three; about 0.25 ms per sample), so a run at the
# bound ends in seconds and a larger count is refused up front.
MAX_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_cycle(rng: random.Random, variety: Variety, terms: int = 4,
                 lo: int = -5, hi: int = 5) -> Cycle:
    """A sparse cycle with integer coefficients in [lo, hi], summed on
    packed keys.  Each exponent and coefficient is drawn in the stream of
    `randint`: a draw below m takes m.bit_length() random bits until they
    fall below m, the rejection loop of CPython's `randrange` (its
    `_randbelow_with_getrandbits`, the same on 3.10 to 3.13), run inline
    on `getrandbits`, without the Python calls `randrange` makes around it.
    A test holds the draws and the generator's state to `randrange`'s."""
    width = hi - lo + 1
    if width < 1:  # the rejection loop would never end
        raise InvalidInputError(f"empty coefficient range [{lo}, {hi}]")
    width_bits = width.bit_length()
    getrandbits = rng.getrandbits
    draws = [(n + 1, (n + 1).bit_length(), shift) for n, shift in zip(variety.factors, variety._layout.shifts)]
    acc: dict[int, int] = {}
    for _ in range(terms):
        key = 0
        for m, bits, shift in draws:
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            key |= r << shift
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        acc[key] = acc.get(key, 0) + lo + r
    return _reduced(variety, 1, acc)


def random_correspondence(rng: random.Random, source: Variety, target: Variety,
                          terms: int = 4) -> GradedCorrespondence:
    """A random correspondence from source to target; its cycle is drawn on
    source x target, so it is built without the constructor's check."""
    return GradedCorrespondence._built(source, target, random_cycle(rng, source * target, terms))


def random_kernel(rng: random.Random, source: Variety, target: Variety,
                  terms: int = 4) -> KKernel:
    """A random kernel from source to target, built as
    `random_correspondence` is."""
    return KKernel._built(source, target, random_cycle(rng, source * target, terms))


def random_cycle_in_codims(rng: random.Random, variety: Variety, codims: list[int],
                           terms: int = 3, lo: int = -3, hi: int = 3) -> Cycle:
    """A sparse cycle whose terms are confined to the given codimensions."""
    monomials_by_codim: dict[int, list[tuple[int, ...]]] = {}
    for exps in itertools.product(*(range(n + 1) for n in variety.factors)):
        monomials_by_codim.setdefault(sum(exps), []).append(exps)
    acc: dict[tuple[int, ...], int] = {}
    available = [k for k in codims if monomials_by_codim.get(k)]
    if not available:
        return Cycle.zero(variety)
    for _ in range(terms):
        k = rng.choice(available)
        exps = rng.choice(monomials_by_codim[k])
        acc[exps] = acc.get(exps, 0) + rng.randint(lo, hi)
    return Cycle(variety, acc)


def rational_matrix_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by exact Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [inv * v for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def binomial_euler_oracle(n: int, d: int) -> Fraction:
    """chi(P^n, O(d)) as the polynomial (d+1)(d+2)...(d+n) / n!, which
    extends the binomial coefficient C(n+d, n) to negative twists."""
    num = 1
    for i in range(1, n + 1):
        num *= d + i
    return Fraction(num, math.factorial(n))


def _single_variable_series(variety: Variety, index: int, coeffs: list[Fraction]) -> Cycle:
    """sum_j coeffs[j] * h_index^j, truncated by the factor's dimension."""
    terms = {}
    for j, c in enumerate(coeffs):
        exps = tuple(j if i == index else 0 for i in range(variety.num_factors))
        terms[exps] = c
    return Cycle(variety, terms)


def _oracle_todd_factor_coeffs(order: int) -> list[Fraction]:
    """Coefficients of x / (1 - e^{-x}) by direct long division against the
    exponential series (kept separate from the engine's universal-series
    pipeline on purpose)."""
    denom = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(order + 1)]
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for k in range(1, order + 1):
        out[k] = -sum(denom[i] * out[k - i] for i in range(1, k + 1))
    return out


def split_bundle_oracle(variety: Variety) -> tuple[BundleClass, Cycle, Cycle]:
    """The bundle with one line-bundle summand per factor (root h_i), plus
    root-level evaluations of its Chern character and Todd class:
    sum_i exp(h_i) and prod_i h_i/(1 - e^{-h_i})."""
    total = Cycle.one(variety)
    for i in range(variety.num_factors):
        total = total * (Cycle.one(variety) + Cycle.hyperplane(variety, i))
    bundle = BundleClass(variety, variety.num_factors, total)

    ch = Cycle.zero(variety)
    td = Cycle.one(variety)
    for i, n in enumerate(variety.factors):
        exp_coeffs = [Fraction(1, math.factorial(j)) for j in range(n + 1)]
        ch = ch + _single_variable_series(variety, i, exp_coeffs)
        td = td * _single_variable_series(variety, i, _oracle_todd_factor_coeffs(n))
    return bundle, ch, td


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


class CheckResult(_Value):
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def check_hrr_line_bundles(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Riemann-Roch Euler characteristics of twists on P^0..P^4 against the
    falling-factorial oracle."""
    problems = []
    count = 0
    for n in range(5):
        x = make_variety([n])
        for d in range(-6, 7):
            bundle = line_bundle(x, [d])
            got = euler_characteristic(chern_character(bundle))
            want = binomial_euler_oracle(n, d)
            count += 1
            if got != want:
                problems.append(f"P^{n}, twist {d}: got {got}, want {want}")
    return problems, f"{count} Euler characteristics match the falling-factorial oracle"


def check_char_class_expansions(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Chern character and Todd class of a generic split bundle against the
    root-level oracle, plus the classical closed-form coefficients through
    degree 4 (the cubic character term carries 3*c3; see the golden file)."""
    x = make_variety([4, 4, 4, 4])
    bundle, ch_oracle, td_oracle = split_bundle_oracle(x)
    ch = chern_character(bundle)
    td = todd_class(bundle)
    problems = []
    if ch != ch_oracle:
        problems.append("character disagrees with the root oracle")
    if td != td_oracle:
        problems.append("Todd class disagrees with the root oracle")

    c = [bundle.chern(i) for i in range(5)]
    half = Fraction(1, 2)
    expected = {
        ("ch", 1): c[1],
        ("ch", 2): (c[1] * c[1] - c[2].scale(2)).scale(half),
        ("ch", 3): (c[1] * c[1] * c[1] - (c[1] * c[2]).scale(3) + c[3].scale(3)).scale(Fraction(1, 6)),
        ("ch", 4): (
            c[1] * c[1] * c[1] * c[1]
            - (c[1] * c[1] * c[2]).scale(4)
            + (c[1] * c[3]).scale(4)
            + (c[2] * c[2]).scale(2)
            - c[4].scale(4)
        ).scale(Fraction(1, 24)),
        ("td", 1): c[1].scale(half),
        ("td", 2): (c[1] * c[1] + c[2]).scale(Fraction(1, 12)),
        ("td", 3): (c[1] * c[2]).scale(Fraction(1, 24)),
        ("td", 4): (
            -(c[1] * c[1] * c[1] * c[1])
            + (c[1] * c[1] * c[2]).scale(4)
            + (c[2] * c[2]).scale(3)
            + c[1] * c[3]
            - c[4]
        ).scale(Fraction(1, 720)),
    }
    actual = {"ch": ch, "td": td}
    for (which, k), want in expected.items():
        if actual[which].graded_component(k) != want:
            problems.append(f"{which} degree {k} differs from the closed form")
    return problems, "split-bundle oracle and closed forms agree through degree 4"


def check_identity_kernel(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """The identity kernel maps to the diagonal correspondence exactly and
    is a two-sided unit for kernel composition."""
    problems = []
    tested = 0
    for factors in [(), (1,), (2,), (1, 1)]:
        x = make_variety(list(factors))
        ident = identity_kernel(x)
        if chow_image(ident) != GradedCorrespondence.identity(x):
            problems.append(f"image of the identity kernel on {x} is not the diagonal")
        for factors2 in KERNEL_POOL:
            y = make_variety(list(factors2))
            e = random_kernel(rng, x, y)
            f = random_kernel(rng, y, x)
            tested += 1
            if k_compose(ident, e) != e:
                problems.append(f"left unit fails on {x} -> {y}")
            if k_compose(f, ident) != f:
                problems.append(f"right unit fails on {y} -> {x}")
    return problems, f"diagonal images on 4 varieties; unit law on {2 * tested} compositions"


def _triple_product_composite(f: GradedCorrespondence, g: GradedCorrespondence) -> Cycle:
    """p_XZ*(p_XY* f . p_YZ* g) through X x Y x Z, the pipeline that
    `compose_graded` contracts without building the triple product."""
    kx, ky, kz = f.source.num_factors, f.target.num_factors, g.target.num_factors
    xyz = f.source * f.target * g.target
    p_xy = FactorSelection(xyz, tuple(range(kx + ky)))
    p_yz = FactorSelection(xyz, tuple(range(kx, kx + ky + kz)))
    p_xz = FactorSelection(xyz, tuple(range(kx)) + tuple(range(kx + ky, kx + ky + kz)))
    return p_xz.pushforward(p_xy.pullback(f.cycle) * p_yz.pullback(g.cycle))


def _dense_correspondence(rng: random.Random, source: Variety, target: Variety) -> GradedCorrespondence:
    """A correspondence with a nonzero coefficient in [-5, 5] on every monomial."""
    product = source * target
    monomials = itertools.product(*(range(n + 1) for n in product.factors))
    terms = {exps: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for exps in monomials}
    return GradedCorrespondence(source, target, Cycle(product, terms))


def check_correspondence_algebra(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Associativity, identity, transpose antihomomorphism, and the
    projection formula on seeded random correspondences of dimension <= 4;
    then one dense composite, on the packed contraction, against the
    triple-product route."""
    instances = max(200, samples)
    problems = []
    for trial in range(instances):
        x, y, z, w = (make_variety(list(rng.choice(ALGEBRA_POOL))) for _ in range(4))
        f = random_correspondence(rng, x, y)
        g = random_correspondence(rng, y, z)
        h = random_correspondence(rng, z, w)
        fg = compose_graded(f, g)
        if compose_graded(fg, h) != compose_graded(f, compose_graded(g, h)):
            problems.append(f"associativity fails at trial {trial}")
        if (compose_graded(GradedCorrespondence.identity(x), f) != f
                or compose_graded(f, GradedCorrespondence.identity(y)) != f):
            problems.append(f"identity law fails at trial {trial}")
        if fg.transpose() != compose_graded(g.transpose(), f.transpose()):
            problems.append(f"transpose antihomomorphism fails at trial {trial}")

        # projection formula on a random factor projection of x*y
        product = x * y
        k = product.num_factors
        selected = tuple(i for i in range(k) if rng.random() < 0.5)
        sel = FactorSelection(product, selected)
        alpha = random_cycle(rng, product)
        beta = random_cycle(rng, sel.target)
        lhs = sel.pushforward(sel.pullback(beta) * alpha)
        rhs = beta * sel.pushforward(alpha)
        if lhs != rhs:
            problems.append(f"projection formula fails at trial {trial}")
        if problems:
            break
    # g on P^1 x (P^1)^3 has 2 middle rows of 8 terms (PACKED_MIN_PARTNERS),
    # so this composite takes the packed loop; the random instances above,
    # sparse, take the dict loop
    line, cube = make_variety([1]), make_variety([1, 1, 1])
    f, g = _dense_correspondence(rng, line, line), _dense_correspondence(rng, line, cube)
    if compose_graded(f, g).cycle != _triple_product_composite(f, g):
        problems.append("dense composite differs from the triple-product route")
    return problems, f"{instances} random instances satisfy all four correspondence laws"


def check_lefschetz_decomposition(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """The projective line splits into the unit and Lefschetz pieces through
    the two coordinate projectors, with explicit section/retraction data."""
    line = make_variety([1])
    square = line * line
    m = motive_of(line)
    alpha = MotiveMorphism(m, m, GradedCorrespondence(line, line, Cycle.hyperplane(square, 0)))
    beta = MotiveMorphism(m, m, GradedCorrespondence(line, line, Cycle.hyperplane(square, 1)))
    problems = []
    if compose_motive(alpha, alpha) != alpha or compose_motive(beta, beta) != beta:
        problems.append("coordinate projectors are not idempotent")
    if not compose_motive(alpha, beta).is_zero or not compose_motive(beta, alpha).is_zero:
        problems.append("coordinate projectors are not orthogonal")
    if (alpha + beta) != m.identity_morphism():
        problems.append("projectors do not sum to the diagonal")

    image_a, sect_a, retr_a = split_idempotent(m, alpha)
    image_b, sect_b, retr_b = split_idempotent(m, beta)
    for tag, (image, sect, retr, proj) in {
        "unit piece": (image_a, sect_a, retr_a, alpha),
        "Lefschetz piece": (image_b, sect_b, retr_b, beta),
    }.items():
        if compose_motive(sect, retr) != image.identity_morphism():
            problems.append(f"{tag}: retraction o section is not the identity")
        if compose_motive(retr, sect) != proj:
            problems.append(f"{tag}: section o retraction is not the projector")
    if image_b != lefschetz_motive():
        problems.append("projector [line x point] does not cut out the Lefschetz motive")

    # explicit isomorphism of the alpha piece with the unit motive, through
    # the structure and point correspondences of the line
    point = unit_motive()
    to_line = MotiveMorphism(point, m, GradedCorrespondence(point.variety, line, Cycle.one(line)))
    to_point = MotiveMorphism(m, point, GradedCorrespondence(line, point.variety, Cycle.hyperplane(line, 0)))
    if compose_motive(to_line, to_point) != point.identity_morphism():
        problems.append("point -> line -> point is not the identity")
    if compose_motive(to_point, to_line) != alpha:
        problems.append("line -> point -> line is not the alpha projector")
    u = compose_motive(sect_a, to_point)
    v = compose_motive(to_line, retr_a)
    if compose_motive(u, v) != image_a.identity_morphism() or compose_motive(v, u) != point.identity_morphism():
        problems.append("alpha piece is not isomorphic to the unit motive")
    return problems, "projectors split the line into unit and Lefschetz pieces with explicit inverses"


def _random_unit_endo(rng: random.Random, variety: Variety):
    """An invertible twist-preserving endo-correspondence of a single
    projective space, diagonal in the coordinate-projector basis, plus its
    inverse."""
    n = variety.factors[0]
    square = variety * variety
    fwd, bwd = {}, {}
    for i in range(n + 1):
        a = Fraction(rng.choice([x for x in range(-4, 5) if x != 0]))
        fwd[i, n - i] = a
        bwd[i, n - i] = 1 / a
    return (
        GradedCorrespondence(variety, variety, Cycle(square, fwd)),
        GradedCorrespondence(variety, variety, Cycle(square, bwd)),
    )


def _geometric_inverse(base: GradedCorrespondence, nil: GradedCorrespondence) -> GradedCorrespondence:
    """Inverse of (identity + nil) as the finite alternating series, for nil
    a nilpotent endo-correspondence."""
    acc = base
    power = nil
    sign = -1
    while not power.is_zero:
        acc = acc + power.scale(sign)
        power = compose_graded(power, nil)
        sign = -sign
    return acc


def check_orbit_rigidification(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Unipotent perturbations of invertible twist-preserving morphisms
    rigidify to exact inverses; negative-offset contamination is refused."""
    pairs = max(50, samples // 4)
    controls = max(10, samples // 20)
    varieties = [make_variety([1]), make_variety([2])]
    problems = []

    for trial in range(pairs):
        x = varieties[trial % 2]
        m = motive_of(x)
        ident = GradedCorrespondence.identity(x)
        nil = GradedCorrespondence(
            x, x,
            random_cycle_in_codims(rng, x * x, list(range(x.dim + 1, 2 * x.dim + 1))),
        )
        unit, unit_inv = _random_unit_endo(rng, x)
        f_corr = compose_graded(ident + nil, unit)
        g_corr = compose_graded(unit_inv, _geometric_inverse(ident, nil))
        f0, g0 = degree_zero_rigidify(OrbitMorphism(m, m, f_corr), OrbitMorphism(m, m, g_corr))
        if compose_motive(f0, g0) != m.identity_morphism() or compose_motive(g0, f0) != m.identity_morphism():
            problems.append(f"pair {trial}: returned morphisms are not mutually inverse")
            break

    for trial in range(controls):
        x = varieties[trial % 2]
        m = motive_of(x)
        ident = GradedCorrespondence.identity(x)
        # purely negative degrees keep the perturbation nilpotent while
        # violating the offset-support condition
        nil = GradedCorrespondence(
            x, x, random_cycle_in_codims(rng, x * x, list(range(0, x.dim)))
        )
        if nil.is_zero:
            nil = GradedCorrespondence(x, x, Cycle.one(x * x))
        f = OrbitMorphism(m, m, ident + nil)
        g = OrbitMorphism(m, m, _geometric_inverse(ident, nil))
        try:
            degree_zero_rigidify(f, g)
            problems.append(f"negative control {trial} was not rejected")
        except SupportConditionError:
            pass
    # a fixed control, outside the stream and the count: the diagonal from P^1
    # twisted once to P^1 and back is a mutually inverse pair at offsets +1
    # and -1, which only the support test on the second morphism refuses
    line = motive_of(varieties[0])
    twisted = tate_twist(line, -1)
    try:
        degree_zero_rigidify(OrbitMorphism(twisted, line, line.idempotent),
                             OrbitMorphism(line, twisted, line.idempotent))
        problems.append("the control at offsets +1 and -1 was not rejected")
    except SupportConditionError:
        pass
    return problems, f"{pairs} unipotent pairs rigidified; {controls} negative controls rejected"


def check_orlov_pipeline(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Twisted diagonal kernels on the line give exact motive isomorphisms;
    a unipotently shifted pair only matches with twists forgotten."""
    line = make_variety([1])
    square = line * line
    problems = []

    def twist_kernel(d: int) -> KKernel:
        base = identity_kernel(line)
        twist = chern_character(line_bundle(square, [d, 0]))
        return KKernel(line, line, base.ch * twist)

    for d in range(-2, 3):
        report = orlov_pipeline(twist_kernel(d), twist_kernel(-d))
        if report.verdict != "exact-isomorphism":
            problems.append(f"twist {d}: verdict {report.verdict}")
            continue
        if d == 0:
            f0, _ = report.degree_zero_pair
            if f0.corr != GradedCorrespondence.identity(line):
                problems.append("identity kernel did not rigidify to the diagonal")

    # negative control: unipotent shift by the constant class; the images
    # stay mutually inverse but acquire a codimension-0 component
    ident = GradedCorrespondence.identity(line)
    shift = GradedCorrespondence(line, line, Cycle.one(square))
    back = series_inverse(sqrt_todd(square))
    shifted = KKernel(line, line, (ident + shift).cycle * back)
    unshifted = KKernel(line, line, _geometric_inverse(ident, shift).cycle * back)
    report = orlov_pipeline(shifted, unshifted)
    if report.verdict != "tate-twist-only":
        problems.append(f"shifted control: verdict {report.verdict}")
    mismatch = orlov_pipeline(twist_kernel(1), twist_kernel(1))
    if mismatch.verdict != "not-equivalent":
        problems.append(f"non-inverse control: verdict {mismatch.verdict}")
    return problems, "5 twisted kernels exact; shifted and non-inverse controls classified"


def check_compatibility_triangle(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """Mukai functoriality along a chain of kernels X0 -> X1 -> ...: the
    Mukai vector of each consecutive composite equals the composite of the
    Mukai vectors; a route with the normalization dropped is detected."""
    trials = max(100, samples)
    problems = []
    source = make_variety(list(rng.choice(KERNEL_POOL)))
    previous = None
    for trial in range(trials):
        target = make_variety(list(rng.choice(KERNEL_POOL)))
        kernel = random_kernel(rng, source, target)
        if previous is not None and not compatibility_check(previous, kernel):
            problems.append(f"routes disagree at trial {trial}")
            break
        previous, source = kernel, target
    x = make_variety([1])  # a rank-1 kernel is a unit, so the control always shows
    ch = random_kernel(rng, x, x).ch
    corrupted = KKernel(x, x, ch - ch.graded_component(0) + Cycle.one(x * x))
    ident = identity_kernel(x)
    bare = compose_graded(  # normalization dropped
        GradedCorrespondence(x, x, corrupted.ch), GradedCorrespondence(x, x, ident.ch)
    )
    if chow_image(k_compose(corrupted, ident)) == bare:
        problems.append("corrupted route was not detected")
    return problems, f"{trials} kernels agree on both routes; corrupted route detected"


def check_chern_character_basis(rng: random.Random, samples: int) -> tuple[list[str], str]:
    """The characters of the twists O(0), O(-1), ..., O(-n) span the whole
    rational cohomology of P^n."""
    problems = []
    for n in range(5):
        x = make_variety([n])
        rows = []
        for i in range(n + 1):
            ch = chern_character(line_bundle(x, [-i]))
            rows.append([ch.coefficient((k,)) for k in range(n + 1)])
        if rational_matrix_rank(rows) != n + 1:
            problems.append(f"twists on P^{n} are linearly dependent")
            break
    return problems, "twist characters have full rank on P^0..P^4"


CHECKS = [
    ("hrr-line-bundles", check_hrr_line_bundles),
    ("char-class-expansions", check_char_class_expansions),
    ("identity-kernel", check_identity_kernel),
    ("correspondence-algebra", check_correspondence_algebra),
    ("lefschetz-decomposition", check_lefschetz_decomposition),
    ("orbit-rigidification", check_orbit_rigidification),
    ("orlov-pipeline", check_orlov_pipeline),
    ("compatibility-triangle", check_compatibility_triangle),
    ("chern-character-basis", check_chern_character_basis),
]


def run_check(name: str, seed: int, samples: int) -> CheckResult:
    """Run the row `name` of CHECKS, timed, on a stream derived from the seed
    and the name, so no row depends on another.  A raise is a FAIL, and a
    FAIL shows the row's first three problems as its detail."""
    _require_int(samples, "samples")
    if samples < 0:
        raise InvalidInputError(f"samples must be nonnegative, got {samples}")
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    fn = dict(CHECKS)[name]
    start = time.perf_counter()
    try:
        problems, detail = fn(random.Random(f"{seed}:{name}"), samples)
    except Exception as exc:  # noqa: BLE001 - report any failure as a check failure
        problems = [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    return CheckResult(name, not problems, "; ".join(problems[:3]) if problems else detail, seconds)


def run_checks(seed: int, samples: int) -> list[CheckResult]:
    """Run every row of CHECKS, in order; a row that fails or raises does
    not stop the others."""
    return [run_check(name, seed, samples) for name, _ in CHECKS]
