"""The coefficient provider enters through one seam.

A provider of the order-i coefficients (``verify --corrupt-ai`` passes one
that negates a_I) reaches the certificates through ``OperatorActions``, which
holds it for one run.  This test walks the public callables of ``diffeq`` and
``verify``, methods of their public classes included, so a provider parameter
added anywhere else fails here.
"""

import inspect

import pytest

from charlier import diffeq, verify

ALLOWED = {
    "charlier.diffeq.OperatorActions",
    "charlier.diffeq.apply_difference_equation",
    "charlier.diffeq.mass_operator",
    "charlier.verify.run_suite",
}


def public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{module.__name__}.{name}.{attr}", member


def takes_provider(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(
        p.name == "coeffs" or "CoeffProvider" in str(p.annotation) for p in params
    )


@pytest.mark.parametrize("module", [diffeq, verify])
def test_only_the_seam_takes_a_provider(module):
    found = {name for name, fn in public_callables(module) if takes_provider(fn)}
    assert found == {name for name in ALLOWED if name.startswith(module.__name__ + ".")}


def test_the_provider_is_resolved_once():
    def negated(i):
        return -diffeq.coeff_ai(i)

    assert diffeq.OperatorActions().ai is diffeq.coeff_ai
    assert diffeq.OperatorActions(negated).ai is negated
    assert verify.run_suite(verify.SuiteSpec("diffeq", 1, 1), negated).failed
