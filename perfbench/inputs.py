"""Seeded inputs of the three workloads.

The plan functions are pure functions of the workload seed.  `build` turns a
plan into input files through the library; it runs in a fresh set-up
process, so its time is part of `setup_s`.
"""

import itertools
import json
import random
from pathlib import Path

# kernel-cli: the variety ladder X, and the twists d of E_d = ch(O_diag) ch(O(d,0,...)).
# For |d| <= 2 coefficients of E_d cancel on this ladder (E_2 has 60 terms on
# [3,3], E_3 has 100), so drawing from those would let the seed change the
# input's size rather than only its values.
LADDER = [(1,), (2,), (1, 1), (2, 2), (3, 3)]
TWISTS = (-4, -3, 3, 4)
# verify-suite: suite seeds come from this pool, every one of which has a golden digest
VERIFY_POOL = 32
# compose-large: X = Y = Z for every operand pair
DENSE_SHAPES = [(4, 4), (2, 2, 2)]
SPARSE_SHAPES = [(3, 3, 3), (2, 2, 2, 2)]
SPARSE_PAIRS = 2500
SPARSE_TERMS = 8


def rung(factors) -> str:
    return "x" + "".join(map(str, factors))


def verify_seeds(seed: int) -> list[int]:
    return random.Random(f"verify-suite:{seed}").sample(range(VERIFY_POOL), VERIFY_POOL)


def twists(seed: int) -> dict[tuple, int]:
    rng = random.Random(f"kernel-cli:{seed}")
    return {factors: rng.choice(TWISTS) for factors in LADDER}


def kernel_file(work: Path, factors, d: int) -> Path:
    return work / f"kernel_{rung(factors)}_{d:+d}.json"


COMPOSE_FILE = "compose_inputs.json"


def build(workload: str, plan, work: Path) -> None:
    import chowmot  # noqa: F401 - the cold import is part of set-up

    if workload == "kernel-cli":
        _build_kernels(plan, work)
    elif workload == "compose-large":
        _build_compose(plan, work)


def _build_kernels(plan, work: Path) -> None:
    """plan: [[factors, [d, ...]], ...]; writes E_d for every listed d."""
    from chowmot import KKernel, chern_character, identity_kernel, line_bundle, make_variety

    for factors, ds in plan:
        x = make_variety(factors)
        square = x * x
        diagonal = identity_kernel(x).ch
        for d in ds:
            twist = chern_character(line_bundle(square, [d] + [0] * (square.num_factors - 1)))
            kernel = KKernel.from_ch(x, x, diagonal * twist)
            kernel_file(work, factors, d).write_text(json.dumps(kernel.to_json()))


def _monomials(factors):
    return list(itertools.product(*(range(n + 1) for n in factors)))


def _correspondence(x, terms):
    from chowmot import Cycle, GradedCorrespondence

    return GradedCorrespondence(x, x, Cycle(x * x, terms)).to_json()


def _build_compose(plan, work: Path) -> None:
    """Fully dense operand pairs, then SPARSE_PAIRS pairs of SPARSE_TERMS-term
    operands per sparse shape, all drawn from the seed."""
    from chowmot import make_variety

    rng = random.Random(f"compose-large:{plan['seed']}")
    nonzero = [c for c in range(-9, 10) if c]
    batches = {"dense": [], "sparse": []}
    for shape in DENSE_SHAPES:
        x = make_variety(shape)
        cells = _monomials(shape + shape)
        batches["dense"].append([_correspondence(x, {e: rng.choice(nonzero) for e in cells})
                                 for _ in range(2)])
    for shape in SPARSE_SHAPES:
        x = make_variety(shape)
        cells = _monomials(shape + shape)
        for _ in range(SPARSE_PAIRS):
            batches["sparse"].append([
                _correspondence(x, {e: rng.choice(nonzero[4:-4]) for e in rng.sample(cells, SPARSE_TERMS)})
                for _ in range(2)
            ])
    (work / COMPOSE_FILE).write_text(json.dumps(batches))
