"""Property checks of the command line: every input ends in a documented exit code."""

import math
from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platevac.cli import main, parse_options  # noqa: E402

# finite and non-finite floats, with the edges of the float range drawn often
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, 1e-100, 1e80]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_TOLERANCES = ("scalar-tol", "closure-tol", "cross-tol", "wronskian-tol")
_COMMAND_OF = {"scalar-tol": "algebra-verify", "closure-tol": "algebra-verify",
               "cross-tol": "casimir", "wronskian-tol": "adiabatic"}
_SETTINGS = settings(
    max_examples=60,
    deadline=timedelta(seconds=3),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@_SETTINGS
@given(length=_FLOATS, tol=_FLOATS)
def test_casimir_exit_code_is_documented(tmp_path, length, tol):
    # the = form passes values like -inf as values, not as flags
    code = _exit_code(["casimir", f"--L={length!r}", f"--cross-tol={tol!r}",
                       "--outdir", str(tmp_path)])
    assert code in (0, 2, 3)
    valid_tol = math.isfinite(tol) and tol >= 0
    if not (valid_tol and math.isfinite(length) and length > 0):
        assert code == 2


@_SETTINGS
@given(name=st.sampled_from(_TOLERANCES), value=_FLOATS)
def test_tolerance_is_finite_and_nonnegative(name, value):
    argv = [_COMMAND_OF[name], f"--{name}={value!r}"]
    if math.isfinite(value) and value >= 0:
        assert parse_options(argv)[name.replace("-", "_")] == value
    else:
        with pytest.raises(SystemExit) as err:
            parse_options(argv)
        assert err.value.code == 2
