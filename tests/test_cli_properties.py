"""Property checks of the command line: every input ends in a documented exit code."""

import itertools
import math
from datetime import timedelta
from fractions import Fraction

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
_ABELIAN3 = ("P1", "P2", "P3")
# pairs of abelian3 labels three times as often as diagonal, unknown or empty ones
_RAW_PAIRS = st.sampled_from([
    *itertools.permutations(_ABELIAN3, 2), *itertools.permutations(_ABELIAN3, 2),
    ("P1", "P1"), ("P2", "P4"), ("Q", "P3"), ("", "P1"),
])
# rationals and zero three times as often as a zero denominator or junk
_RAW_VALUES = st.one_of(
    st.fractions(max_denominator=9).map(str),
    st.fractions(max_denominator=9).map(str),
    st.sampled_from(["0", "-1", "1e3", " 2/3 "]),
    st.sampled_from(["1/0", "abc", "", "nan", "1=2"]),
)


def _negated(text):
    try:
        return str(-Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        return text


@st.composite
def _raw_charges(draw):
    """Entries (A, B, value), some repeating or mirroring an earlier pair."""
    entries = [(*pair, text) for pair, text in draw(
        st.lists(st.tuples(_RAW_PAIRS, _RAW_VALUES), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        la, lb, text = draw(st.sampled_from(entries))
        if draw(st.booleans()):
            la, lb = lb, la
        text = draw(st.one_of(st.sampled_from([text, _negated(text)]), _RAW_VALUES))
        entries.append((la, lb, text))
    return entries


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


def _raw_charges_valid(entries):
    """The rule of a cocycle file: known labels, no diagonal, one value per pair."""
    table = {}
    for la, lb, text in entries:
        if la not in _ABELIAN3 or lb not in _ABELIAN3 or la == lb:
            return False
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            return False
        a, b = _ABELIAN3.index(la), _ABELIAN3.index(lb)
        key, value = ((a, b), value) if a < b else ((b, a), -value)
        if table.setdefault(key, value) != value:
            return False
    return True


@_SETTINGS
@given(entries=_raw_charges())
def test_charges_raw_exit_code_is_documented(tmp_path, entries):
    argv = ["cocycle", "--builtin", "abelian3", "--outdir", str(tmp_path)]
    argv += [f"--charges-raw={la},{lb}={text}" for la, lb, text in entries]
    code = _exit_code(argv)
    assert code in (0, 2)
    assert code == (0 if _raw_charges_valid(entries) else 2)
