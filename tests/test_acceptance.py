"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test runs the corresponding seeded verification check at (or above)
its contractual sample count and prints a single pass/fail line; the three
small closed-form criteria also carry a one-second wall-clock bound.
Run with `pytest -s tests/test_acceptance.py` to see the table.
"""

import inspect
import random
import time

import pytest

from chowmot import verify
from chowmot.corr import GradedCorrespondence
from chowmot.errors import InvalidInputError
from chowmot.kshadow import KKernel
from chowmot.ring import Cycle, make_variety
from chowmot.verify import ALGEBRA_POOL, CHECKS, random_correspondence, random_cycle, random_kernel

SEED = 42
CHECK_BY_NAME = dict(CHECKS)


def run_criterion(number, name, samples=200, max_seconds=None):
    rng = random.Random(f"{SEED}:{name}")
    start = time.perf_counter()
    passed, detail = CHECK_BY_NAME[name](rng, samples)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{name}]: {status} ({detail}; {elapsed * 1000:.0f} ms)")
    assert passed, f"criterion {number} [{name}]: {detail}"
    if max_seconds is not None:
        assert elapsed < max_seconds, (
            f"criterion {number} [{name}] took {elapsed:.3f}s, bound {max_seconds}s"
        )


def test_criterion_1_riemann_roch_euler_characteristics():
    # chi(P^n, O(d)) = C(n+d, n) for 0 <= n <= 4, -6 <= d <= 6, under 1 s
    run_criterion(1, "hrr-line-bundles", max_seconds=1.0)


def test_criterion_2_characteristic_class_expansions():
    # low-degree closed forms plus the degree-3/4 terms pinned by the
    # independent root oracle (see tests/golden/char_expansions.json)
    run_criterion(2, "char-class-expansions")


def test_criterion_3_identity_kernel_theorem():
    # the identity kernel maps to the diagonal and is a two-sided unit,
    # over the point, the line, the plane, and the product of lines
    run_criterion(3, "identity-kernel", max_seconds=1.0)


def test_criterion_4_correspondence_algebra():
    # associativity, identity, transpose antihomomorphism, projection
    # formula on >= 200 seeded instances of dimension <= 4
    run_criterion(4, "correspondence-algebra", samples=200)


def test_criterion_4_catches_a_faulty_packed_contraction(monkeypatch):
    # negative control: the dense pair composed after the random instances
    # takes the packed loop, so one corrupted slot fails the row
    from chowmot import corr

    contract = corr._contract_packed
    calls = []

    def corrupted(f, g, rows, w):
        acc = contract(f, g, rows, w)
        key = min(acc)
        acc[key] += 1
        calls.append(key)
        return acc

    monkeypatch.setattr(corr, "_contract_packed", corrupted)
    passed, detail = CHECK_BY_NAME["correspondence-algebra"](random.Random(f"{SEED}:correspondence-algebra"), 200)
    assert len(calls) == 1
    assert not passed and detail == "dense composite differs from the triple-product route"


def test_criterion_4_catches_a_faulty_dict_contraction(monkeypatch):
    # negative control: the random instances compose on the dict loop, so
    # one corrupted entry per contraction fails the row
    from chowmot import corr

    contract = corr._contract_dict
    calls = []

    def corrupted(f, g, rows):
        acc = contract(f, g, rows)
        if acc:
            key = min(acc)
            acc[key] += 1
            calls.append(key)
        return acc

    monkeypatch.setattr(corr, "_contract_dict", corrupted)
    passed, detail = CHECK_BY_NAME["correspondence-algebra"](random.Random(f"{SEED}:correspondence-algebra"), 200)
    assert calls
    assert not passed and detail == "associativity fails at trial 0"


def test_criterion_5_lefschetz_decomposition():
    # orthogonal idempotents summing to the diagonal; explicit splittings
    run_criterion(5, "lefschetz-decomposition", max_seconds=1.0)


def test_criterion_6_orbit_rigidification():
    # >= 50 unipotent pairs rigidify; >= 10 negative controls are refused
    run_criterion(6, "orbit-rigidification", samples=200)


def test_criterion_7_orlov_pipeline():
    # twisted diagonal kernels for |d| <= 2 give exact isomorphisms; the
    # shifted control is twist-only and the mismatched control fails
    run_criterion(7, "orlov-pipeline")


def test_criterion_8_compatibility_triangle():
    # >= 100 random kernels agree on both routes; corrupted route detected
    run_criterion(8, "compatibility-triangle", samples=100)


def test_criterion_9_chern_character_basis():
    # ch(O(0)), ..., ch(O(-n)) are linearly independent on P^n for n <= 4
    run_criterion(9, "chern-character-basis")


def randint_cycle(rng, variety, terms=4, lo=-5, hi=5):
    """The reference draw of `random_cycle`, by `randint`."""
    acc = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, n) for n in variety.factors)
        acc[exps] = acc.get(exps, 0) + rng.randint(lo, hi)
    return Cycle(variety, acc)


def test_random_inputs_keep_the_randint_stream():
    # the golden files pin only the detail strings, so a drift in the
    # stream of verify's random inputs would go unseen without this
    pool = [make_variety(factors) for factors in ALGEBRA_POOL]
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for i, x in enumerate(pool):
            y = pool[(i + seed) % len(pool)]
            assert random_cycle(rng, x, 6, -3, 7) == randint_cycle(ref, x, 6, -3, 7)
            assert random_correspondence(rng, x, y) == GradedCorrespondence(x, y, randint_cycle(ref, x * y))
            assert random_kernel(rng, y, x, 2) == KKernel(y, x, randint_cycle(ref, y * x, 2))
        assert rng.random() == ref.random()


# every width 1..70, and 2^k - 1, 2^k and 2^k + 1 up to 2^64 + 1
SAMPLER_WIDTHS = sorted({*range(1, 71), *(2 ** k + d for k in range(1, 65) for d in (-1, 0, 1))})


def stream_mismatches(draw, seeds=range(200)):
    """The (seed, width m) pairs where `draw(rng, P^(m-1), 1, 1, m)`, one
    exponent and one coefficient each drawn below m, differs from the same
    draws by `randrange(m)`, in the cycle or in the generator's state
    afterwards.  Each seed runs through every width on one stream, resynced
    after a mismatch."""
    mismatches = []
    spaces = [(m, make_variety([m - 1])) for m in SAMPLER_WIDTHS]
    for seed in seeds:
        rng, ref = random.Random(seed), random.Random(seed)
        for m, x in spaces:
            got = draw(rng, x, 1, 1, m)
            exps = (ref.randrange(m),)
            if got.terms != {exps: 1 + ref.randrange(m)} or rng.getstate() != ref.getstate():
                mismatches.append((seed, m))
                rng.setstate(ref.getstate())
    return mismatches


def random_cycle_with_fewer_bits():
    """`random_cycle` with a draw below m taking (m - 1).bit_length() bits,
    a copy of its source with the bit counts changed."""
    source = inspect.getsource(verify.random_cycle)
    for old, new in (("(n + 1).bit_length()", "n.bit_length()"), ("width.bit_length()", "(width - 1).bit_length()")):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(verify))
    exec(source, namespace)
    return namespace["random_cycle"]


def test_sampler_draws_as_randrange_does():
    # the rejection sampler of random_cycle takes the draws and leaves the
    # state of randrange, at every width the stream test above cannot reach
    assert stream_mismatches(random_cycle) == []


def test_sampler_with_one_bit_fewer_is_caught():
    # negative control: (m - 1).bit_length() bits agree with randrange except
    # at the powers of two, 1 included, and there the comparison sees it
    caught = {m for _, m in stream_mismatches(random_cycle_with_fewer_bits(), range(20))}
    assert caught == {m for m in SAMPLER_WIDTHS if m & (m - 1) == 0}


def test_random_cycle_refuses_an_empty_coefficient_range():
    # an empty range would keep the rejection loop drawing forever
    with pytest.raises(InvalidInputError):
        random_cycle(random.Random(0), make_variety([1]), 4, 3, 2)
    assert random_cycle(random.Random(0), make_variety([1]), 4, 3, 3).coefficient((0,)) % 3 == 0
