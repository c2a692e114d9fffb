"""Values computed once per process and shared: the variety of a factor
tuple (`ring._variety`), the diagonal of a variety
(`GradedCorrespondence.identity`, cached in `corr._identity`), the Todd
series of a factor (`chern._todd_factor_series`) and the passes of a Todd
power (`chern._todd_plan`).  A shared value is safe only while no
operation mutates its operands, so a battery of operations runs on the
shared values and each must still equal a fresh computation afterwards;
negative controls show that an operation mutating its input, and a plan
built from a corrupted series, are caught.
Sharing a variety is only a fast path: one made outside the table compares
and hashes as the shared one does.  A copy, a deep copy or a pickle of a
cycle, and of each value that holds one, compares and hashes alike too."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from chowmot import chern, corr
from chowmot.chern import mul_todd_power, sqrt_todd
from chowmot.corr import FactorSelection, GradedCorrespondence, compose_graded, permute_factors
from chowmot.kshadow import KKernel, chow_image, euler_characteristic, identity_kernel, k_compose
from chowmot.motives import OrbitMorphism, degree_zero_rigidify, motive_of
from chowmot.ring import (
    CACHE_ENTRIES,
    VARIETY_ENTRIES,
    Cycle,
    Variety,
    _Layout,
    _variety,
    make_variety,
)
from chowmot.verify import ALGEBRA_POOL, random_cycle, run_checks

VARIETIES = [make_variety(factors) for factors in ALGEBRA_POOL]
EXPONENTS = (1, Fraction(1, 2), -1, Fraction(-1, 2))
CACHES = (corr._identity, chern._todd_factor_series, chern._todd_plan)
TODD_PLAN = chern._todd_plan


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test starts and ends with empty caches, so a value one test
    corrupts reaches no other test."""
    for cache in (*CACHES, _variety):
        cache.cache_clear()
    yield
    for cache in (*CACHES, _variety):
        cache.cache_clear()


@pytest.fixture
def plan_keys(monkeypatch):
    """The keys of the Todd plans the operations ask for, in call order."""
    keys = []

    def recorded(*key):
        keys.append(key)
        return TODD_PLAN(*key)

    monkeypatch.setattr(chern, "_todd_plan", recorded)
    return keys


def battery(x):
    """Run operations of every layer with the shared values of x as operands."""
    ident = GradedCorrespondence.identity(x)
    compose_graded(ident + ident.scale(Fraction(-3, 2)), ident)
    orbit = OrbitMorphism.identity(motive_of(x))
    degree_zero_rigidify(orbit, orbit)
    kernel = identity_kernel(x)
    chow_image(k_compose(kernel, kernel))
    euler_characteristic(mul_todd_power(Cycle.one(x), 1) * sqrt_todd(x))
    compose_graded(ident.transpose(), ident)


def stale_values(plan_keys=()):
    """The cached values that no longer equal a fresh computation by the
    uncached function, the Todd plans among them those of `plan_keys`."""
    stale = [x for x in VARIETIES
             if GradedCorrespondence.identity(x) != corr._identity.__wrapped__(x)]
    ns = sorted({n for x in VARIETIES for n in x.factors})
    stale += [(n, s) for n in ns for s in EXPONENTS
              if chern._todd_factor_series(n, s) != chern._todd_factor_series.__wrapped__(n, s)]
    stale += [key for key in dict.fromkeys(plan_keys) if TODD_PLAN(*key) != TODD_PLAN.__wrapped__(*key)]
    return stale


def test_repeated_calls_share_one_value():
    for x in VARIETIES:
        assert GradedCorrespondence.identity(x) is GradedCorrespondence.identity(make_variety(x.factors))
        assert motive_of(x).idempotent is GradedCorrespondence.identity(x)
    for n in range(5):
        for s in EXPONENTS:
            assert chern._todd_factor_series(n, s) is chern._todd_factor_series(n, Fraction(s))
    for x in VARIETIES:
        for s in EXPONENTS:
            assert TODD_PLAN(x, s, None) is TODD_PLAN(make_variety(x.factors), Fraction(s), None)


def test_caches_hold_every_variety_of_verify():
    for cache in CACHES:
        assert cache.cache_info().maxsize == CACHE_ENTRIES > len(ALGEBRA_POOL)
    run_checks(42, 200)
    for cache in CACHES:  # every value a verify run makes stays cached: none is evicted
        assert cache.cache_info().misses == cache.cache_info().currsize < CACHE_ENTRIES


def test_the_plan_cache_keeps_its_bound():
    one = Cycle.one(make_variety((1, 2)))
    for k in range(2 * CACHE_ENTRIES):
        mul_todd_power(one, Fraction(k, 7))
    assert TODD_PLAN.cache_info().currsize == CACHE_ENTRIES


def test_shared_values_survive_the_operations(plan_keys):
    for x in VARIETIES:
        battery(x)
    assert TODD_PLAN.cache_info().currsize == len(set(plan_keys))  # every plan asked for is still cached
    assert stale_values(plan_keys) == []


def test_a_plan_built_from_a_corrupted_series_is_caught(monkeypatch, plan_keys):
    real = chern._todd_factor_series

    def corrupted(n, s):
        den, coeffs = real(n, s)
        return den, coeffs[:-1] + (coeffs[-1] + den,)  # the top coefficient plus 1

    with monkeypatch.context() as patch:
        patch.setattr(chern, "_todd_factor_series", corrupted)
        for x in VARIETIES:
            battery(x)
    keys = list(dict.fromkeys(plan_keys))
    assert TODD_PLAN.cache_info().currsize == len(keys)
    assert stale_values(keys) == [key for key in keys if key[0].factors]  # a point has no factor pass


def test_an_operation_mutating_its_input_is_caught(monkeypatch, plan_keys):
    real = GradedCorrespondence.transpose

    def mutating_transpose(self):
        num = self.cycle._num
        key = next(iter(num))
        num[key] += 1  # in place, into a value that may be shared
        return real(self)

    monkeypatch.setattr(GradedCorrespondence, "transpose", mutating_transpose)
    for x in VARIETIES:
        battery(x)
    assert stale_values(plan_keys) == VARIETIES


def routes(factors):
    """The variety of `factors` by every route that returns the shared one:
    the checked `make_variety` and `from_json`, and the engine's products,
    selection targets and permutations."""
    rng = random.Random(len(factors))
    x = make_variety(factors)
    k = len(factors)
    yield x
    yield Variety.from_json({"factors": list(factors)})
    yield Cycle.from_json({"variety": {"factors": list(factors)}, "terms": []}).variety
    yield make_variety(factors[:1]) * make_variety(factors[1:])
    yield FactorSelection(x * x, tuple(range(k))).target
    yield FactorSelection(make_variety((3,)) * x, tuple(range(1, k + 1))).target
    yield permute_factors(random_cycle(rng, x), tuple(range(k))).variety


def test_every_route_returns_the_shared_variety():
    for factors in ALGEBRA_POOL:
        shared = make_variety(factors)
        assert all(route is shared for route in routes(factors)), factors
        fresh = Variety(factors)  # the checked constructor makes its own object
        assert fresh == shared and hash(fresh) == hash(shared) and fresh.factors is shared.factors


def test_layout_and_hash_are_stored_once():
    for factors in ALGEBRA_POOL:
        x = make_variety(factors)
        expected = _Layout(factors)
        assert [getattr(x._layout, name) for name in _Layout.__slots__] == [
            getattr(expected, name) for name in _Layout.__slots__
        ]
        assert hash(x) == x._hash == hash((factors,))
        assert x._layout is x._layout and vars(x).keys() == {"factors", "_layout", "_hash"}


COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
COPY_IDS = ["copy", "deepcopy", "pickle"]


@pytest.mark.parametrize("remake", [
    *COPIES,
    lambda x: Variety._built(x.factors),
    lambda x: Variety(list(x.factors)),
], ids=[*COPY_IDS, "built", "constructor"])
def test_varieties_made_outside_the_table_compare_and_hash_alike(remake):
    for factors in ALGEBRA_POOL:
        for x in (make_variety(factors), Variety._built(factors)):
            hash(x), x._layout  # stored before some of the copies
            twin = remake(x)
            assert twin == x and x == twin and hash(twin) == hash(x) and not twin != x
            assert twin.factors == x.factors and twin._layout.top == x._layout.top
            assert GradedCorrespondence.identity(twin) is GradedCorrespondence.identity(x)
            assert GradedCorrespondence.identity(twin) == corr._identity.__wrapped__(twin)
            assert twin * twin == x * x and twin != make_variety((*factors, 1))


@pytest.mark.parametrize("remake", COPIES, ids=COPY_IDS)
@pytest.mark.parametrize("terms_read", [False, True], ids=["fresh", "terms-read"])
def test_cycles_and_the_values_holding_them_survive_copies(remake, terms_read):
    rng = random.Random(29)
    x, y = make_variety([1, 1]), make_variety([2])
    cycle = random_cycle(rng, x * y, 6).scale(Fraction(2, 3))
    if terms_read:
        cycle.terms  # the view a copy leaves out
    f = GradedCorrespondence(x, y, cycle)
    values = [cycle, f, KKernel(x, y, cycle), motive_of(x), OrbitMorphism(motive_of(x), motive_of(y), f)]
    for value in values:
        twin = remake(value)
        assert twin == value and value == twin and hash(twin) == hash(value) and not twin != value
        assert repr(twin) == repr(value), type(value).__name__
    twin = remake(cycle)
    assert twin._den == 3 and twin.terms == cycle.terms and str(twin) == str(cycle)
    assert twin + cycle == cycle.scale(2)
    assert compose_graded(remake(f), f.transpose()) == compose_graded(f, f.transpose())


def test_the_table_keeps_its_bound():
    assert _variety.cache_info().maxsize == VARIETY_ENTRIES
    made = [make_variety((n,)) * make_variety((1, n % 3)) for n in range(2 * VARIETY_ENTRIES)]
    assert _variety.cache_info().currsize == VARIETY_ENTRIES
    assert made[0] == make_variety((0, 1, 0)) and made[0] is not make_variety((0, 1, 0))  # evicted
