"""The frozen records of the numpy-free layers behave as frozen dataclasses did."""

from fractions import Fraction

import pytest

from platevac import _integrate
from platevac import adiabatic as ad
from platevac import algebra as al
from platevac import casimir as cas


def _records():
    """(record, its repr as a frozen dataclass printed it), one per record type."""
    row = ad.BogoliubovResult(1, 0.0, 2.0, 3.14, 1.57, 1 + 0j, 0.5j, 0.0)
    row_repr = ("BogoliubovResult(n=1, k=0.0, half_duration=2.0, omega_in=3.14, omega_out=1.57, "
                "alpha=(1+0j), beta=0.5j, wronskian_drift=0.0, particle_number=0.25)")
    certificate = al.CoboundaryCertificate(("H",), (0,))
    return [
        (_integrate.OscillatorSolution((1 + 2j, -0.5j), range(17), 48, 2.5e-16),
         "OscillatorSolution(y=((1+2j), (-0-0.5j)), t=range(0, 17), nfev=48, drift=2.5e-16)"),
        (ad.Schedule(1.0, 2.0, 4.0), "Schedule(L0=1.0, L1=2.0, T=4.0)"),
        (row, row_repr),
        (ad.ScanResult((row,), 2.5, 8.0, 1e-6),
         f"ScanResult(rows=({row_repr},), decay_exponent=2.5, threshold_half_duration=8.0, "
         "target=1e-06)"),
        (cas.RegularizedSum(-0.00685, 1e-17), "RegularizedSum(value=-0.00685, error_estimate=1e-17)"),
        (al.LieAlgebraSpec(("Q1", "P1", "Z"), {(0, 1): {2: 1}}),
         "LieAlgebraSpec(labels=('Q1', 'P1', 'Z'), brackets={(0, 1): {2: Fraction(1, 1)}})"),
        (al.TwoCocycle(("H", "P", "K"), {(1, 2): Fraction(3, 2)}),
         "TwoCocycle(labels=('H', 'P', 'K'), entries={(1, 2): Fraction(3, 2)})"),
        (al.CoboundaryCertificate(("H", "P"), (1, Fraction(-1, 3))),
         "CoboundaryCertificate(labels=('H', 'P'), alpha=(Fraction(1, 1), Fraction(-1, 3)))"),
        (al.CoboundaryResult(True, certificate, 1, 0),
         "CoboundaryResult(feasible=True, certificate=CoboundaryCertificate(labels=('H',), "
         "alpha=(Fraction(0, 1),)), kernel_dim=1, rank_deficit=0)"),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_is_frozen(record, text):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_equality_is_by_fields(record, text):
    args = [getattr(record, name) for name in record._init_fields]
    twin = type(record)(*args)
    assert twin == record and twin is not record
    assert type(record)(**dict(zip(record._init_fields, args))) == record
    assert record != (*args,)
    assert record != next(r for r, _ in RECORDS if type(r) is not type(record))


@pytest.mark.parametrize("args,kwargs", [
    ((1.0, 2.0), {}),
    ((1.0, 2.0, 4.0, 8.0), {}),
    ((1.0, 2.0, 4.0), {"L0": 1.0}),
    ((1.0, 2.0), {"t": 4.0}),
], ids=["missing", "extra", "twice", "unknown"])
def test_record_takes_exactly_its_fields(args, kwargs):
    with pytest.raises(TypeError, match="Schedule takes fields L0, L1, T"):
        ad.Schedule(*args, **kwargs)


def test_record_hash_follows_its_fields():
    assert hash(ad.Schedule(1.0, 2.0, 4.0)) == hash(ad.Schedule(L0=1.0, L1=2.0, T=4.0))
    assert len({ad.Schedule(1.0, 2.0, 4.0), ad.Schedule(1.0, 2.0, 4.0)}) == 1
    with pytest.raises(TypeError):  # its brackets are a dict
        hash(al.heisenberg_algebra())


def test_derived_field_is_no_constructor_argument():
    result = ad.BogoliubovResult(1, 0.0, 2.0, 3.14, 1.57, 1 + 0j, 0.25 - 0.5j, 1e-15)
    assert result.particle_number == abs(0.25 - 0.5j) ** 2
    assert repr(result).endswith(f", particle_number={abs(0.25 - 0.5j) ** 2!r})")
    with pytest.raises(TypeError):
        ad.BogoliubovResult(1, 0.0, 2.0, 3.14, 1.57, 1 + 0j, 0.5j, 0.0, particle_number=0.25)


def test_post_init_still_validates_and_normalises():
    with pytest.raises(ValueError):
        ad.Schedule(1.0, -2.0, 4.0)
    with pytest.raises(ValueError):
        cas.RegularizedSum(1.0, -1e-3)
    assert al.CoboundaryCertificate(("H",), (1,)).alpha == (Fraction(1),)
    algebra = al.LieAlgebraSpec(("A", "B", "C"), {(1, 0): {2: -1}})
    assert algebra.brackets == {(0, 1): {2: Fraction(1)}}
    assert algebra.f is algebra.f  # cached_property writes past the frozen __setattr__
