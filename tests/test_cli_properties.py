"""Property checks of the command line: every input ends in a documented exit code."""

import configparser
import itertools
import json
import math
import warnings
from datetime import timedelta
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platevac.algebra import builtin_algebra, change_basis, save_algebra  # noqa: E402
from platevac.cli import build_parser, main, parse_options  # noqa: E402

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


# dim H^2 of the builtins, as frozen in test_algebra; a basis change keeps it
_H2_OF = {"poincare21": 0, "heisenberg1": 2, "galilei11": 2, "abelian3": 3}


@st.composite
def _integer_basis_change(draw):
    """A builtin and an integer P = L U with unit-triangular L, U: invertible."""
    name = draw(st.sampled_from(sorted(_H2_OF)))
    n = builtin_algebra(name).dim
    entry = st.integers(-3, 3)
    lo = [[int(i == j) if j >= i else draw(entry) for j in range(n)] for i in range(n)]
    up = [[int(i == j) if j <= i else draw(entry) for j in range(n)] for i in range(n)]
    p = [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return name, p


@_SETTINGS
@given(case=_integer_basis_change())
def test_cocycle_algebra_file_keeps_h2_under_basis_change(tmp_path, case):
    name, p = case
    path = tmp_path / "changed.txt"
    save_algebra(change_basis(builtin_algebra(name), p), path)
    assert _exit_code(["cocycle", "--algebra-file", str(path), "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "cocycle_report.json").read_text())
    assert report["h2_dimension"] == _H2_OF[name]


@st.composite
def _raw_table(draw):
    """An algebra file of up to 4 labels with arbitrary `f A B C num den` lines."""
    labels = ("A", "B", "C", "D")[:draw(st.integers(1, 4))]
    label = st.sampled_from(labels)
    lines = draw(st.lists(
        st.tuples(label, label, label, st.integers(-3, 3), st.integers(-2, 3)), max_size=8))
    return "".join([f"basis {' '.join(labels)}\n",
                    *(f"f {a} {b} {c} {num} {den}\n" for a, b, c, num, den in lines)])


@_SETTINGS
@given(text=_raw_table())
def test_cocycle_raw_algebra_file_exit_code_is_documented(tmp_path, text):
    path = tmp_path / "raw.txt"
    path.write_text(text)
    assert _exit_code(["cocycle", "--algebra-file", str(path), "--outdir", str(tmp_path)]) in (0, 2)


# junk for any numeric option: zero, negative, non-finite and the edges of the float range
_JUNK = st.sampled_from(["0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300"])


def _or_junk(text):
    """A draw of `text`, or junk one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: text if i else _JUNK)


def _options(draw, argv, options):
    """Append a drawn subset of `options`, {name: valid values}, each maybe junk."""
    for name, valid in options.items():
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(_or_junk(valid.map(repr)))}")
    return argv


@st.composite
def _algebra_verify_argv(draw):
    """The sweep, the closure check or the demo, on lattices of at most 40 sites a side."""
    mass = st.floats(0.1, 4)
    closure = {"closure-size": st.integers(3, 12), "closure-mass": mass}
    mode = draw(st.sampled_from(["sweep", "closure", "demo"]))
    if mode == "closure":
        return _options(draw, ["algebra-verify", "--check", "poincare"],
                        {**closure, "closure-tol": st.floats(0, 1e-6)})
    if mode == "demo":
        return _options(draw, ["algebra-verify", "--demo", "contradiction"], closure)
    size = draw(st.floats(1, 16))
    ks = draw(st.lists(st.integers(4, 40), min_size=2, max_size=3))
    spacings = ",".join(repr(size / k) for k in ks)
    argv = ["algebra-verify", f"--physical-size={draw(_or_junk(st.just(repr(size))))}",
            f"--spacings={draw(_or_junk(st.just(spacings)))}"]
    return _options(draw, argv, {"mass0": mass, "mass1": mass, "order-min": st.floats(-1, 5),
                                 "scalar-tol": st.floats(0, 1e-6)})


@_SETTINGS
@given(argv=_algebra_verify_argv())
def test_algebra_verify_exit_code_is_documented(tmp_path, argv):
    assert _exit_code([*argv, "--outdir", str(tmp_path)]) in (0, 2, 3, 4)


@st.composite
def _adiabatic_argv(draw):
    """Schedules with T <= 20, n <= 3 and k <= 5, any option maybe junk."""
    lengths = st.floats(0.5, 4).map(repr)
    times = st.lists(st.floats(0.1, 20), min_size=1, max_size=3, unique=True)
    argv = ["adiabatic", f"--L0={draw(_or_junk(lengths))}", f"--L1={draw(_or_junk(lengths))}",
            f"--T={draw(_or_junk(times.map(lambda ts: ','.join(map(repr, sorted(ts))))))}"]
    if draw(st.booleans()):
        argv.append("--sudden-check")
    return _options(draw, argv, {"n": st.integers(1, 3), "k": st.floats(0, 5),
                                 "wronskian-tol": st.floats(1e-12, 1e-6)})


@_SETTINGS
@given(argv=_adiabatic_argv())
def test_adiabatic_exit_code_is_documented(tmp_path, argv):
    assert _exit_code([*argv, "--outdir", str(tmp_path)]) in (0, 2, 3, 4)


# Command shapes with every length and duration in units of 10^{l} and every mass and
# transverse momentum in units of 10^{m}; the sweep sets l = s and m = -s. The values
# stay text, so 1e310 reads as inf and 1e-330 as 0.
_SCALED_SHAPES = {
    "scan": "adiabatic --L0=1e{l} --L1=2e{l} --T=2e{l},4e{l},8e{l} --k=0.5e{m}",
    "single": "adiabatic --L0=1e{l} --L1=2e{l} --T=2e{l} --k=0.5e{m}",
    "sudden": "adiabatic --L0=1e{l} --L1=2e{l} --T=2e{l} --sudden-check",
    "casimir": "casimir --L=1e{l} --L=2e{l} --diff",
    "sweep": "algebra-verify --physical-size=8e{l} --spacings=0.2e{l},0.1e{l} "
             "--mass0=3.141592653589793e{m} --mass1=1.5707963267948966e{m}",
    "demo": "algebra-verify --demo contradiction --closure-mass=1e{m}",
}


@settings(_SETTINGS, max_examples=40)
@given(shape=st.sampled_from(sorted(_SCALED_SHAPES)), s=st.integers(-320, 310))
def test_scaled_units_exit_code_is_documented(tmp_path, shape, s):
    # the physics is unit-free: only the float range may refuse a rescaled run
    argv = _SCALED_SHAPES[shape].format(l=s, m=-s).split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _exit_code([*argv, "--outdir", str(tmp_path)])
    assert code in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# every declared option, generated from build_parser()[1]: a value resolves the
# same as flag tokens, as a [command] line and as a [DEFAULT] line

_DECLARED = build_parser()[1]
_KEYS = [(command, key) for command, options in _DECLARED.items()
         for key in options if key != "config"]  # a config file names no other file
# ordered pairs of options in one exclusive group, so either may be the flag
_EXCLUSIVE = [(command, a, b) for command, options in _DECLARED.items()
              for a, b in itertools.permutations(options, 2)
              if options[a][3] is not None and options[a][3] is options[b][3]]

# value texts by kind. An INI line strips a value's outer whitespace, splits a
# repeatable one at ";" and interpolates "%", so no value holds any of these.
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "0", "-1", "3", "0.25", "1e308",
                     "1.7976931348623157e308", "1e309", "-1e400", "5e-324", "1e-400",
                     "123456789012345678901234567890", "1_000", "0x10", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
)
_LIST_TEXT = st.lists(_NUMBER_TEXT, min_size=1, max_size=3).map(",".join)
_ON_OFF_TEXT = st.sampled_from(
    [*configparser.ConfigParser.BOOLEAN_STATES, "TRUE", "Off", "YeS", "maybe", "2", ""])
_WORD_TEXT = st.sampled_from(["poincare", "contradiction", "poincare21", "abelian2", "bogus",
                              "1,2,3", "P1,P2=1", "H,P1=-2/3", "-1", "a.txt", "out", "x y", ""])
_ANY_TEXT = st.one_of(_NUMBER_TEXT, _LIST_TEXT, _ON_OFF_TEXT, _WORD_TEXT)


def _values(default, repeats):
    """A list of value texts for an option with this declared default: one, or 1-3 if repeatable.

    The kind follows the default (on/off, float list, number, else any kind),
    with a value of any kind one time in four.
    """
    if isinstance(default, bool):
        own = _ON_OFF_TEXT
    elif isinstance(default, list) and not repeats:
        own = _LIST_TEXT
    elif isinstance(default, (int, float, list)):
        own = _NUMBER_TEXT
    else:
        own = _ANY_TEXT
    text = st.one_of(own, own, own, _ANY_TEXT)
    return st.lists(text, min_size=1, max_size=3 if repeats else 1)


@st.composite
def _flag_tokens(draw, key, values):
    """The flag tokens of these values: --key=value, or --key value when that parses alike."""
    tokens = []
    for value in values:
        apart = value and not value.startswith("-") and draw(st.booleans())
        tokens += [f"--{key}", value] if apart else [f"--{key}={value}"]
    return tokens


def _ini_line(key, values):
    return f"{key} = {'; '.join(values)}"


def _outcome(argv, capsys):
    """parse_options(argv) as ("ok", its options but config) or ("exit", code, stderr)."""
    capsys.readouterr()
    try:
        opts = parse_options(argv)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().err
    opts.pop("config")
    return "ok", repr(sorted(opts.items()))  # repr: nan equals nan, and -0.0 differs from 0.0


def _flag_over_file(flags, file):
    """Flags over a file: the flags' error, else the file's, else the flags' options."""
    return file if flags[0] == "ok" and file[0] == "exit" else flags


@pytest.mark.parametrize("command,key", _KEYS)
@settings(_SETTINGS, max_examples=12)
@given(data=st.data())
def test_every_declared_option_resolves_alike_as_flag_and_config_line(
        tmp_path, capsys, command, key, data):
    _, default, repeats, _ = _DECLARED[command][key]
    values, other = (data.draw(_values(default, repeats)) for _ in range(2))
    flags = data.draw(_flag_tokens(key, values))
    want = _outcome([command, *flags], capsys)
    assert want[0] == "ok" or want[1] == 2
    ini = tmp_path / "run.ini"
    for section in (command, "DEFAULT"):
        ini.write_text(f"[{section}]\n{_ini_line(key, values)}\n")
        assert _outcome([command, "--config", str(ini)], capsys) == want, section
    # the same key in the file: the flag wins, but the file value is still checked
    ini.write_text(f"[{command}]\n{_ini_line(key, other)}\n")
    file = _outcome([command, "--config", str(ini)], capsys)
    assert _outcome([command, *flags, "--config", str(ini)], capsys) == _flag_over_file(want, file)


@pytest.mark.parametrize("command,first,second", _EXCLUSIVE)
@settings(_SETTINGS, max_examples=12)
@given(data=st.data())
def test_exclusive_pairs_refuse_each_other_and_a_flag_wins_over_the_file(
        tmp_path, capsys, command, first, second, data):
    options = _DECLARED[command]
    one, two = (data.draw(_values(*options[key][1:3])) for key in (first, second))
    flags_one, flags_two = (data.draw(_flag_tokens(k, v))
                            for k, v in ((first, one), (second, two)))
    both = _outcome([command, *flags_one, *flags_two], capsys)
    assert both[:2] == ("exit", 2)  # a value's own error, or "not allowed with"
    ini = tmp_path / "run.ini"
    for section in (command, "DEFAULT"):
        ini.write_text(f"[{section}]\n{_ini_line(first, one)}\n{_ini_line(second, two)}\n")
        assert _outcome([command, "--config", str(ini)], capsys) == both, section
    # mixed: the flag replaces the excluded file option, whose value is still checked
    ini.write_text(f"[{command}]\n{_ini_line(second, two)}\n")
    flag = _outcome([command, *flags_one], capsys)
    file = _outcome([command, "--config", str(ini)], capsys)
    mixed = _outcome([command, *flags_one, "--config", str(ini)], capsys)
    assert mixed == _flag_over_file(flag, file)
