"""Every cached builder in the package goes through ``qpoly.memoized`` and
serves one shared, read-only object: a repeat call returns the same
object, and that object refuses attribute assignment, so no caller can
change what later callers get."""

import importlib
import pkgutil

import pytest

import k3moonshine
from k3moonshine.qpoly import memoized

# One small argument tuple per memoized builder; a builder missing here
# fails ``test_every_cached_builder_is_listed``.
SAMPLE_ARGS = {
    "cyclotomic._power_reduction": (5,),
    "qpoly._cyclotomic_coeffs": (6,),
    "modforms.eta_power": (-3, 48),
    "modforms.eisenstein_e2": (48,),
    "modforms.weak_jacobi_columns": (-2, 48),
    "modforms.weak_jacobi_phi": (0, 48),
    "genus.rational_form": ("5A",),
    "genus._traces": (5,),
    "genus.equivariant_elliptic_genus": ("3A", 48),
    "n4char.g_sum": (1, 48),
    "n4char.h_series": (2, 48),
    "n4char._h_column": (2, 3),
    "n4char._theta3_over_eta3": (48,),
    "n4char._typical_prefactor": (48,),
    "n4char._typical_row": (2, 3),
    "n4char._genus_multiplicities": (2,),
    "n4char.mathieu_h": (48,),
    "mill.class_data": ("M23",),
    "tables.load_m23": (),
    "tables.load_m24": (),
    "tables.load_mukai": (1,),
    "tables.load_co0_restricted": (),
}


def _cached_builders() -> dict:
    found = {}
    for info in pkgutil.iter_modules(k3moonshine.__path__):
        module = importlib.import_module(f"k3moonshine.{info.name}")
        for name, obj in vars(module).items():
            if (callable(obj) and hasattr(obj, "cache_info")
                    and obj.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = obj
    return found


def _assert_read_only(obj):
    if isinstance(obj, tuple):
        for item in obj:
            _assert_read_only(item)
    names = {"cache_probe"}
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    for name in sorted(names):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_every_cached_builder_is_listed():
    assert sorted(_cached_builders()) == sorted(SAMPLE_ARGS)


def test_every_cache_is_memoized():
    # one cache rule: each builder is the wrapper memoized returns
    wrapper = memoized(lambda: None).__code__
    assert [name for name, builder in _cached_builders().items()
            if getattr(builder, "__code__", None) is not wrapper] == []


@pytest.mark.parametrize("name", sorted(SAMPLE_ARGS))
def test_cached_builder_serves_one_read_only_object(name):
    builder = _cached_builders()[name]
    first = builder(*SAMPLE_ARGS[name])
    assert builder(*SAMPLE_ARGS[name]) is first
    _assert_read_only(first)


# The builders with int arguments, private helpers included, read them
# through require_int before their caches: a float or a bool hashes as the
# int it equals, so a warm cache would serve it that int's entry.
CHECKED = sorted(name for name, args in SAMPLE_ARGS.items()
                 if any(type(a) is int for a in args))


@pytest.mark.parametrize("name", CHECKED)
def test_a_warm_cache_refuses_a_float(name):
    builder, args = _cached_builders()[name], SAMPLE_ARGS[name]
    builder(*args)
    for i, value in enumerate(args):
        if type(value) is int:
            with pytest.raises(TypeError, match="must be an int"):
                builder(*args[:i], float(value), *args[i + 1:])


@pytest.mark.parametrize("name,args", [
    ("modforms.weak_jacobi_phi", (0, 48)),
    ("n4char.g_sum", (1, 48)),
    ("n4char.h_series", (1, 48)),
    ("tables.load_mukai", (1,)),
])
def test_a_warm_cache_refuses_a_bool(name, args):
    builder = _cached_builders()[name]
    builder(*args)
    with pytest.raises(TypeError, match="must be an int"):
        builder(bool(args[0]), *args[1:])
