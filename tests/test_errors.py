import pytest

from dcnls.errors import (CoercivityError, ConvergenceError, FlowStagnationError,
                          QuadratureError, SolvabilityError)


@pytest.mark.parametrize("error", [ConvergenceError, FlowStagnationError, CoercivityError,
                                   SolvabilityError, QuadratureError])
def test_numerical_errors_carry_one_diagnostics_dict(error):
    exc = error("failed", diagnostics={"figure": 1.5})
    assert str(exc) == "failed"
    assert exc.diagnostics == {"figure": 1.5}
    assert error("failed").diagnostics == {}
    # the figure is in the dict and nowhere else
    assert not {"defect", "error_estimate", "threshold"} & set(vars(exc))

