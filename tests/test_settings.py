"""Every setting is stored as the plain value its check returns.

checked_int, checked_real and checked_choice each hand back a plain int,
float or str, and the value types store that.  So a numpy scalar, a
Fraction or a str subclass never reaches a cache key, a repr or the float
arithmetic: Integrator(cfl=x) runs the schedule of float(x), whatever x's
type, and configs that compare equal write the same bytes.
"""
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dgmodeq import Integrator, Mesh1D, RunConfig, run_convergence
from dgmodeq.basis import ModalBasis
from dgmodeq.exact import MODES, StencilSpec
from dgmodeq.schemes import METHODS, SCHEMES

#: One real number in each numeric type a caller might hand over; only the bool is refused.
REALS = [
    np.float16(0.1), np.float32(0.1), np.float64(0.1), np.longdouble("0.1"),
    Fraction(1, 10), 1, np.int64(1), True,
]
DX = 1 / 640


#: Each real setting: the type that stores it and its keyword.
SETTINGS = [(Integrator, "cfl"), (Integrator, "t_final"), (RunConfig, "cfl"), (RunConfig, "periods")]


def _schedule(value) -> tuple:
    if isinstance(value, RunConfig):
        value = Integrator(value.integrator, value.cfl, t_final=value.periods)
    return value.schedule(DX)


@pytest.mark.parametrize("x", REALS, ids=lambda x: type(x).__name__)
def test_real_settings_are_stored_as_plain_floats(x):
    # a float32 cfl used to run the whole schedule in single precision, and a
    # float16 one scheduled a zero-length last step after an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cls, name in SETTINGS:
            if isinstance(x, bool):
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    cls(**{name: x})
                continue
            got, twin = cls(**{name: x}), cls(**{name: float(x)})
            assert type(getattr(got, name)) is float and getattr(got, name) == float(x), name
            assert got == twin and repr(got) == repr(twin) and hash(got) == hash(twin), name
            schedule = _schedule(got)
            assert schedule == _schedule(twin), name
            assert [type(v) for v in schedule] == [int, float, float] and schedule[2] > 0.0, name


def test_a_negative_zero_horizon_is_stored_as_zero():
    for value in (-0.0, 0, np.float32(-0.0), Fraction(0)):
        assert repr(Integrator(t_final=value)) == repr(Integrator(t_final=0.0))
        assert repr(RunConfig(periods=value)) == repr(RunConfig(periods=0.0))


def test_equal_configs_write_equal_csvs():
    # the float32 config compared and hashed equal to its float twin, yet
    # printed l2 4.601941507131e-03 at N = 20 where the twin printed 4.601940596088e-03
    x = np.float32(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_convergence(RunConfig("dg-p1", (20, 40, 80), cfl=x)).csv_text()
    assert got == run_convergence(RunConfig("dg-p1", (20, 40, 80), cfl=float(x))).csv_text()


# ----------------------------------------------------------------------
# a seeded sweep over the value types' constructors


class _Str(str):
    pass


INTS = [0, 1, 2, 3, 6, -1, True, np.int64(2), np.int32(1), np.uint8(3), 2.0, np.float64(1.0), "2"]
REALS_ANY = REALS + [0, -0.0, 2.5, np.float32(0.25), -0.5, np.nan, np.inf, 10**400, "0.1", None]
GRIDS = [(10, 20), (np.int64(10), np.int32(20)), (np.uint16(8),), (10.0, 20.0), (True,), ()]
ICS = ["sine", np.str_("gauss:0.1"), _Str("step"), "sawtooth", 5, None]


def _choice(rng: random.Random, options):
    """One of options as given, as an np.str_ or str subclass, or a bad value."""
    text = rng.choice(options)
    return rng.choice([text, np.str_(text), _Str(text), "none-such", 1, None])


CONSTRUCTORS = {
    Mesh1D: lambda rng: (rng.choice(INTS),),
    ModalBasis: lambda rng: (rng.choice(INTS),),
    Integrator: lambda rng: (_choice(rng, METHODS), rng.choice(REALS_ANY), rng.choice(REALS_ANY)),
    RunConfig: lambda rng: (
        _choice(rng, SCHEMES), rng.choice(GRIDS), rng.choice(REALS_ANY), rng.choice(REALS_ANY),
        rng.choice(ICS), _choice(rng, METHODS),
    ),
    StencilSpec: lambda rng: (rng.choice(INTS), _choice(rng, MODES), rng.choice(INTS + [8, 12])),
}
SWEEP = 2000


def _plain(value) -> bool:
    if type(value) in (int, float, str):
        return True
    if type(value) is tuple:
        return all(_plain(v) for v in value)
    return type(value) is np.ndarray and not value.flags.writeable


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_values_hold_only_plain_settings(cls):
    rng = random.Random(0)
    accepted = 0
    for _ in range(SWEEP):
        args = CONSTRUCTORS[cls](rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = cls(*args)
            except ValueError:
                continue
        accepted += 1
        if cls is Mesh1D:  # its cached arrays land in vars() too
            _ = (value.centers, value.interfaces)
        assert all(_plain(v) for v in vars(value).values()), (args, vars(value))
        # rebuilt from what it stores, it is the same value, repr included
        twin = cls(*(getattr(value, name) for name in cls._fields))
        assert twin == value and repr(twin) == repr(value), args
    assert 20 <= accepted < SWEEP, accepted
