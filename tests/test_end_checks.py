"""The checks that an arrow joins the right ends, one case per end.

Nine places test both ends of an arrow at once, as `a != x or b != y`.  A
check that looked only at both ends together (`and` for `or`) would accept
an arrow with one wrong end, so each place gets two cases here: one arrow
whose source alone is wrong and one whose target alone is wrong, each
refused with the place's own error class and message.  `_check_component`
is reached through `OrbitMorphism.from_components`, since under
`MotiveMorphism` the sandwich check after it refuses the same arrows with
the same message.
"""

import pytest

from chowmot.corr import GradedCorrespondence
from chowmot.errors import DomainMismatchError, InvalidInputError
from chowmot.kshadow import KKernel, identity_kernel
from chowmot.motives import (
    FormalSum,
    FormalSumMorphism,
    Motive,
    MotiveMorphism,
    OrbitMorphism,
    degree_zero_rigidify,
    motive_of,
    orlov_pipeline,
    split_idempotent,
    tate_twist,
)
from chowmot.ring import Cycle, make_variety

X, Y = make_variety([1]), make_variety([2])  # two varieties of the arrows
M = motive_of(X)
T = tate_twist(M, 1)  # the motive of X twisted: same variety, other motive


def zero(source, target):
    return GradedCorrespondence.zero(source, target)


def one_row(entry):
    return FormalSumMorphism(FormalSum((M,)), FormalSum((M,)), ((entry,),))


def kernel(source, target):
    return KKernel(source, target, Cycle.one(source * target))


# place, the call with its source end wrong, the call with its target end
# wrong, the error class and the message
SITES = [
    ("GradedCorrespondence.__add__",
     lambda: zero(X, X) + zero(Y, X), lambda: zero(X, X) + zero(X, Y),
     DomainMismatchError, "correspondences have different source or target"),
    ("_check_component",
     lambda: OrbitMorphism.from_components(M, M, {0: zero(Y, X)}),
     lambda: OrbitMorphism.from_components(M, M, {0: zero(X, Y)}),
     InvalidInputError, "component 0 does not match the motives' varieties"),
    ("_check_sandwiched",
     lambda: OrbitMorphism(M, M, zero(Y, X)), lambda: OrbitMorphism(M, M, zero(X, Y)),
     InvalidInputError, "correspondence does not match the motives' varieties"),
    ("Motive.__post_init__",
     lambda: Motive(X, 0, zero(Y, X)), lambda: Motive(X, 0, zero(X, Y)),
     InvalidInputError, "idempotent is not a self-correspondence of the variety"),
    ("MotiveMorphism.__add__",
     lambda: M.identity_morphism() + MotiveMorphism.zero(T, M),
     lambda: M.identity_morphism() + MotiveMorphism.zero(M, T),
     DomainMismatchError, "morphisms have different source or target"),
    ("split_idempotent",
     lambda: split_idempotent(M, MotiveMorphism.zero(T, M)), lambda: split_idempotent(M, MotiveMorphism.zero(M, T)),
     InvalidInputError, "projector is not an endomorphism of the given motive"),
    ("FormalSumMorphism.__post_init__",
     lambda: one_row(MotiveMorphism.zero(T, M)), lambda: one_row(MotiveMorphism.zero(M, T)),
     InvalidInputError, "matrix entry (0, 0) connects the wrong summands"),
    ("degree_zero_rigidify",
     lambda: degree_zero_rigidify(OrbitMorphism.identity(M), OrbitMorphism(T, M, M.idempotent)),
     lambda: degree_zero_rigidify(OrbitMorphism.identity(M), OrbitMorphism(M, T, M.idempotent)),
     DomainMismatchError, "orbit morphisms do not form a round trip"),
    ("orlov_pipeline",
     lambda: orlov_pipeline(identity_kernel(X), kernel(Y, X)),
     lambda: orlov_pipeline(identity_kernel(X), kernel(X, Y)),
     DomainMismatchError, "kernels do not form a round trip"),
]

CASES = [pytest.param(call, error, message, id=f"{place}-{end}")
         for place, *calls, error, message in SITES
         for end, call in zip(("source", "target"), calls)]


@pytest.mark.parametrize("call, error, message", CASES)
def test_an_arrow_with_one_wrong_end_is_refused(call, error, message):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
