"""Values computed once per process and shared: the diagonal of a variety
(`GradedCorrespondence.identity`) and the Todd series of a factor
(`chern._todd_factor_series`).  A shared value is safe only while no
operation mutates its operands, so a battery of operations runs on the
shared values and each must still equal a fresh computation afterwards; a
negative control shows that an operation mutating its input is caught."""

from fractions import Fraction

import pytest

from chowmot import chern
from chowmot.chern import sqrt_todd, variety_todd
from chowmot.corr import GradedCorrespondence
from chowmot.kshadow import chow_image, euler_characteristic, identity_kernel, k_compose
from chowmot.motives import OrbitMorphism, degree_zero_rigidify, motive_of
from chowmot.ring import CACHE_ENTRIES, make_variety
from chowmot.verify import ALGEBRA_POOL

VARIETIES = [make_variety(factors) for factors in ALGEBRA_POOL]
EXPONENTS = (1, Fraction(1, 2), -1, Fraction(-1, 2))
CACHES = (GradedCorrespondence.identity, chern._todd_factor_series)


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test starts and ends with empty caches, so a value one test
    corrupts reaches no other test."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def battery(x):
    """Run operations of every layer with the shared values of x as operands."""
    ident = GradedCorrespondence.identity(x)
    (ident + ident.scale(Fraction(-3, 2))).then(ident)
    orbit = OrbitMorphism.identity(motive_of(x))
    degree_zero_rigidify(orbit, orbit)
    kernel = identity_kernel(x)
    chow_image(k_compose(kernel, kernel))
    euler_characteristic(variety_todd(x) * sqrt_todd(x))
    ident.transpose().then(ident)


def stale_values():
    """The cached values that no longer equal a fresh computation by the
    uncached function."""
    stale = [x for x in VARIETIES
             if GradedCorrespondence.identity(x) != GradedCorrespondence.identity.__wrapped__(x)]
    ns = sorted({n for x in VARIETIES for n in x.factors})
    stale += [(n, s) for n in ns for s in EXPONENTS
              if chern._todd_factor_series(n, s) != chern._todd_factor_series.__wrapped__(n, s)]
    return stale


def test_repeated_calls_share_one_value():
    for x in VARIETIES:
        assert GradedCorrespondence.identity(x) is GradedCorrespondence.identity(make_variety(x.factors))
        assert motive_of(x).idempotent is GradedCorrespondence.identity(x)
    for n in range(5):
        for s in EXPONENTS:
            assert chern._todd_factor_series(n, s) is chern._todd_factor_series(n, Fraction(s))


def test_caches_hold_every_variety_of_verify():
    for cache in CACHES:
        assert cache.cache_info().maxsize == CACHE_ENTRIES > len(ALGEBRA_POOL)


def test_shared_values_survive_the_operations():
    for x in VARIETIES:
        battery(x)
    assert stale_values() == []


def test_an_operation_mutating_its_input_is_caught(monkeypatch):
    real = GradedCorrespondence.transpose

    def mutating_transpose(self):
        num = self.cycle._num
        key = next(iter(num))
        num[key] += 1  # in place, into a value that may be shared
        return real(self)

    monkeypatch.setattr(GradedCorrespondence, "transpose", mutating_transpose)
    for x in VARIETIES:
        battery(x)
    assert stale_values() == VARIETIES
