"""Characteristic classes: Chern data, power sums, Chern character, Todd
class and its square root, truncated series arithmetic, tangent classes.

Chern roots are never materialized.  For an arbitrary bundle class every
root-symmetric expression is evaluated through the Newton power sums of the
total Chern class, and exponentiated grade by grade (`exp_nilpotent`).  The
power sums, the sums over them and each grade of an exponential run on
integer numerators over one denominator, as `ring` stores a cycle, and each
result is reduced to lowest terms once.
Powers of the Todd class of a variety (td, its square root, their inverses)
are instead taken factor by factor: the Todd class is multiplicative and
td(P^n) = (h/(1 - e^{-h}))^{n+1}, so a cycle is multiplied by td^s one
univariate series at a time (`mul_todd_power`), each series computed once
per process and shared, as is the plan of passes for one variety, power
and choice of factors (`_todd_plan`).  The factor passes multiply integer
numerators and denominators, and the product is reduced to lowest terms
once, at the end.
A test ties the two routes together on a ladder of varieties.  The log-Todd
coefficients are computed at runtime, not printed in tables, in closed form:
log(x / (1 - e^{-x})) = x/2 - sum_k B_2k x^2k / (2k (2k)!), with the
Bernoulli numbers taken from integer tangent numbers by the recurrence of
Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers" (arXiv:1108.0286).  Every exponential runs in the ring:
`exp_nilpotent` on X for a bundle, on P^n for a factor's series.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InvalidInputError, SingularSeriesError
from .ring import (CACHE_ENTRIES, Cycle, Variety, _add_product, _built, _cycle, _from_json, _reduced, _require_instance,
                   _require_int, _to_json, _total, _Value, make_variety, require_budget)


def todd_series_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients of log(x / (1 - e^{-x})) up to x^order, exact, in the
    closed form of the module docstring, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the tangent numbers T_k.  Applying this series to the power sums of
    the Chern roots and exponentiating gives the Todd class."""
    if _require_int(order, "series order") < 0:
        raise InvalidInputError("series order must be nonnegative")
    require_budget(make_variety(()), order)
    m = order // 2
    tangent = [0] + [math.factorial(k) for k in range(m)]  # T_k at index k, seeded with (k - 1)!
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    coefficients = [Fraction(0), Fraction(1, 2)] + [Fraction(0)] * (order - 1)
    for k in range(1, m + 1):  # -B_2k / (2k (2k)!)
        coefficients[2 * k] = Fraction((-1) ** k * tangent[k], 4 ** k * (4 ** k - 1) * math.factorial(2 * k))
    return tuple(coefficients[:order + 1])


# ---------------------------------------------------------------------------
# series arithmetic in the intersection ring
# ---------------------------------------------------------------------------


def _by_codimension(c: Cycle) -> list[dict[int, int]]:
    """The integer numerators of c, over c's denominator, split by
    codimension: one dict per codimension 0 .. dim."""
    codim = c.variety._layout.codim
    parts: list[dict[int, int]] = [{} for _ in range(c.variety.dim + 1)]
    for key, v in c._num.items():
        parts[codim(key)][key] = v
    return parts


def exp_nilpotent(u: Cycle) -> Cycle:
    """exp of a cycle with vanishing constant term (a finite sum here, since
    positive-codimension classes are nilpotent), built grade by grade: with
    g_j the codimension-j part of u, the codimension-k part of exp(u) is
    E_k = (1/k) sum_j j g_j E_{k-j}, from f' = g' f.  Each grade is summed
    on integer numerators, over the lcm of the denominators of its
    products, and reduced once; the grades are reduced, since the log-Todd
    denominators grow too fast to carry unreduced."""
    x = _require_instance(u, Cycle).variety
    require_budget(x, x.dim)
    if 0 in u._num:  # key 0 is the constant monomial
        raise InvalidInputError("exp requires a cycle with zero constant term")
    grades = [(j, g) for j, g in enumerate(_by_codimension(u)) if g]
    parts = [Cycle.one(x)]
    for k in range(1, x.dim + 1):
        pairs = [(j, g, parts[k - j]) for j, g in grades if j <= k and parts[k - j]._num]
        den = math.lcm(*(e._den for _, _, e in pairs))
        acc: dict[int, int] = {}
        for j, g, e in pairs:
            m = j * (den // e._den)
            _add_product(acc, x, e._num, [(key, m * v) for key, v in g.items()])
        parts.append(_reduced(x, u._den * den * k, acc))
    return _total(x, parts)


def series_inverse(u: Cycle) -> Cycle:
    """The unique cycle v with u * v = 1, for u with nonzero constant term,
    computed by the truncated geometric series."""
    x = _require_instance(u, Cycle).variety
    require_budget(x, x.dim)
    one = Cycle.one(x)
    c0 = Fraction(u._num.get(0, 0), u._den)  # key 0 is the constant monomial
    if c0 == 0:
        raise SingularSeriesError("cycle has zero constant term, no inverse exists")
    w = u.scale(1 / c0) - one
    acc = power = one
    for _ in range(x.dim):
        power = power * (-w)
        if power.is_zero:
            break
        acc = acc + power
    return acc.scale(1 / c0)


# ---------------------------------------------------------------------------
# bundle classes
# ---------------------------------------------------------------------------


class BundleClass(_Value):
    """Rank plus total Chern class: the seed for every characteristic class.

    The constant term of `total_chern` must be 1.  For an honest bundle
    (nonnegative rank), components above the rank are rejected; a negative
    rank marks a virtual class, where only the dimension of the variety
    truncates the data.
    """

    variety: Variety
    rank: int
    total_chern: Cycle

    _noun = "bundle class"
    to_json = _to_json
    from_json = classmethod(_from_json)

    def __post_init__(self) -> None:
        self._require_types(variety=Variety, total_chern=Cycle)
        _require_int(self.rank, "rank")
        if self.total_chern.variety != self.variety:
            raise InvalidInputError("total Chern class lives on the wrong variety")
        if self.total_chern.graded_component(0) != Cycle.one(self.variety):
            raise InvalidInputError("component 0 of a total Chern class must be 1")
        if self.rank >= 0:
            bad = [k for k in self.total_chern.codimensions() if k > self.rank]
            if bad:
                raise InvalidInputError(
                    f"rank-{self.rank} class has Chern components in codimension {bad}"
                )

    def chern(self, i: int) -> Cycle:
        return self.total_chern.graded_component(i)


def power_sums(bundle: BundleClass) -> tuple[Cycle, ...]:
    """Power sums p_1 .. p_dim of the Chern roots (p_k at index k - 1,
    homogeneous of codimension k or zero) via Newton's identities, with the
    elementary symmetric functions read off the total Chern class:

        p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^k e_{k-1} p_1
              + (-1)^{k-1} k e_k

    The identities run on integer numerators: with D the denominator of the
    total Chern class and E_i the numerators of e_i, P_k = D^k p_k is
    sum_{i<k} (-1)^{i-1} D^{i-1} E_i P_{k-i} + (-1)^{k-1} k D^{k-1} E_k, and
    each p_k is P_k / D^k reduced once."""
    x = _require_instance(bundle, BundleClass).variety
    d = x.dim
    require_budget(x, d)
    den = bundle.total_chern._den
    e = _by_codimension(bundle.total_chern)
    terms = [(i, [(key, (-1) ** (i - 1) * den ** (i - 1) * v) for key, v in e_i.items()])
             for i, e_i in enumerate(e) if i and e_i]  # (i, the terms of (-1)^(i-1) D^(i-1) E_i)
    nums: list[dict[int, int]] = []  # P_k at index k - 1, only read once built
    sums = []
    for k in range(1, d + 1):
        scale = (-1) ** (k - 1) * k * den ** (k - 1)
        acc = {key: scale * v for key, v in e[k].items()}
        for i, weighted in terms:
            if i >= k:
                break
            if nums[k - i - 1]:
                _add_product(acc, x, nums[k - i - 1], weighted)
        if 0 in acc.values():  # cancelled terms would be multiplied again in every later P_k
            acc = {key: v for key, v in acc.items() if v}
        nums.append(acc)
        sums.append(_reduced(x, den ** k, acc))
    return tuple(sums)


def _weighted_sum(x: Variety, constant: int, weighted) -> Cycle:
    """constant + sum (a / b) p over the triples (a, b, p) of `weighted`,
    whose cycles p are homogeneous of distinct positive codimensions, so no
    two share a key: summed on integer numerators over the lcm of the b
    times the denominators of p, and reduced once."""
    weighted = [(a, b * p._den, p._num) for a, b, p in weighted if a and p._num]
    den = math.lcm(*(b for _, b, _ in weighted))
    acc = {0: constant * den} if constant else {}  # key 0 is the constant monomial
    for a, b, num in weighted:
        m = a * (den // b)
        for key, v in num.items():
            acc[key] = v * m
    return _reduced(x, den, acc)


def chern_character(bundle: BundleClass) -> Cycle:
    """rank + sum_k p_k / k!, exact: summed on integer numerators over one
    denominator and reduced once."""
    x = _require_instance(bundle, BundleClass).variety
    sums = power_sums(bundle)
    return _weighted_sum(x, bundle.rank, ((1, math.factorial(k), p) for k, p in enumerate(sums, start=1)))


def todd_class(bundle: BundleClass) -> Cycle:
    """Todd class, evaluated as exp of the universal log-Todd series applied
    to the power sums of the Chern roots (summed as in `chern_character`)."""
    x = _require_instance(bundle, BundleClass).variety
    lam = todd_series_coefficients(x.dim)
    sums = power_sums(bundle)
    arg = _weighted_sum(x, 0, ((lam[k].numerator, lam[k].denominator, p) for k, p in enumerate(sums, start=1)))
    return exp_nilpotent(arg)


def tangent_class(variety: Variety) -> BundleClass:
    """Tangent bundle class of a product of projective spaces: rank dim X and
    total Chern class prod_i (1 + h_i)^{n_i + 1} (Euler sequence, factorwise),
    whose coefficient at h^e is prod_i binomial(n_i + 1, e_i): one integer
    per monomial of X."""
    require_budget(_require_instance(variety, Variety))
    num = {0: 1}
    for (shift, _), n in zip(variety._layout.fields, variety.factors):
        num = {k + (e << shift): v * math.comb(n + 1, e) for k, v in num.items() for e in range(n + 1)}
    return _built(BundleClass, variety, variety.dim, _cycle(variety, 1, num))


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _todd_factor_series(n: int, s) -> tuple[int, tuple[int, ...]]:
    """td(P^n)^s = (x / (1 - e^{-x}))^{s(n+1)} up to x^n, the cycle
    exp_nilpotent(s(n+1) * log-Todd(h)) on P^n, as its denominator and the
    numerators of h^0 .. h^n: (D, integers t_k) with coefficient k equal to
    t_k / D.  Computed once per (n, s) and shared; callers never mutate it."""
    x = make_variety((n,))
    require_budget(x, n)
    exponent = Fraction(s) * (n + 1)
    lam = todd_series_coefficients(n)
    series = exp_nilpotent(Cycle(x, {(k,): exponent * lam[k] for k in range(1, n + 1)}))
    return series._den, tuple(series._num.get(k, 0) for k in range(n + 1))  # h^k has key k on P^n


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _todd_plan(variety: Variety, s, factors: tuple[int, ...] | None) -> tuple[int, tuple]:
    """The passes of `mul_todd_power` on `variety`, over `factors` (None for
    all): the product of the series denominators and, per chosen factor of
    positive dimension (td(P^0) = 1), (n, shift, mask, steps), with steps
    the (j << shift, t_j) of the series' nonzero integer numerators.  Built
    once per key after the budget check, which a refused key raises again
    on every call; callers never mutate it."""
    chosen = range(variety.num_factors) if factors is None else factors
    require_budget(variety, max((variety.factors[i] for i in chosen), default=0))
    den, passes = 1, []
    for i in chosen:
        n = variety.factors[i]
        if n:
            shift, mask = variety._layout.fields[i]
            series_den, series = _todd_factor_series(n, s)
            den *= series_den
            passes.append((n, shift, mask, tuple((j << shift, t) for j, t in enumerate(series) if t)))
    return den, tuple(passes)


def mul_todd_power(c: Cycle, s, factors=None) -> Cycle:
    """c * td^s, with td^s the product over the given factors (all by
    default) of the univariate series (h_i/(1 - e^{-h_i}))^{s(n_i+1)}: one
    truncated convolution along each factor, no product of full cycles.
    Each series is scaled to integers over one denominator, so a factor
    pass only shifts keys and adds integer products; the passes multiply
    their denominators, and the result is reduced once, at the end.  What
    depends only on the variety, s and the factors (the budget check, the
    key fields, the integer series and their denominators) is one cached
    plan (`_todd_plan`); a call runs the convolutions and the reduction."""
    den, passes = _todd_plan(c.variety, s, None if factors is None else tuple(factors))
    if not passes:
        return c
    num = c._num
    for n, shift, mask, steps in passes:
        acc: dict[int, int] = {}
        get = acc.get
        for key, v in num.items():
            room = (n - ((key >> shift) & mask)) << shift
            for step, t in steps:
                if step > room:
                    break
                k = key + step
                acc[k] = get(k, 0) + v * t
        num = acc
    return _reduced(c.variety, c._den * den, num)


def sqrt_todd(variety: Variety) -> Cycle:
    """The square root of the Todd class with constant term 1; its square is
    the Todd class of the variety exactly."""
    return mul_todd_power(Cycle.one(variety), Fraction(1, 2))


def line_bundle(variety: Variety, degrees: list[int] | tuple[int, ...]) -> BundleClass:
    """Rank-one class with first Chern class sum_i d_i h_i (one degree per
    factor)."""
    _require_instance(variety, Variety)
    if not isinstance(degrees, list | tuple):
        raise InvalidInputError(f"degrees must be a list or tuple of integers, got {degrees!r}")
    degrees = tuple(degrees)
    if len(degrees) != variety.num_factors:
        raise InvalidInputError(
            f"{variety} has {variety.num_factors} factors but {len(degrees)} degrees were given"
        )
    for d in degrees:
        if not isinstance(d, int) or isinstance(d, bool):
            raise InvalidInputError(f"degrees must be integers, got {d!r}")
    num = {0: 1}  # key 0 is the constant monomial; h_i is 0 on a point factor
    fields = variety._layout.fields
    num.update((1 << shift, d) for (shift, _), n, d in zip(fields, variety.factors, degrees) if n and d)
    return _built(BundleClass, variety, 1, _cycle(variety, 1, num))
