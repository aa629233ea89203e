"""covwalk._record against stdlib dataclasses as the reference: each toy
class is declared both ways and every instance behaviour the records rely on
must agree."""

import dataclasses
import math
from typing import ClassVar

import pytest

from covwalk._record import FrozenRecordError, record


def both(body, slots=False):
    """The class that ``body`` declares, once as a record and once as a
    frozen dataclass."""
    rec = record(body(), slots=slots)
    ref = dataclasses.dataclass(frozen=True, slots=slots)(body())
    return rec, ref


def plain():
    class P:
        x: float
        y: int
    return P


def defaults():
    class D:
        a: int
        b: str = "b"
        c: tuple = ()
        d: float = math.nan
    return D


def post_init():
    class Q:
        y: float
        z: float = 1.0

        def __post_init__(self):
            if not self.y > 0.0:
                raise ValueError(f"y > 0 needed, got {self.y}")
    return Q


def own_repr():
    class R:
        a: float
        b: float

        def __repr__(self):
            return f"<{self.a} {self.b}>"
    return R


def one_field():
    class O:
        rep: object
    return O


def no_field():
    class N:
        pass
    return N


BODIES = [plain, defaults, post_init, own_repr, one_field, no_field]
ARGS = {
    plain: [((1.5, 2), {}), ((), {"x": 1.5, "y": 2}), ((1.5,), {"y": 2})],
    defaults: [((1,), {}), ((1, "x"), {"d": 0.5}), ((), {"a": 2, "c": (1,)})],
    post_init: [((0.5,), {}), ((2.0, 3.0), {}), ((), {"z": 0.0, "y": 1.0})],
    own_repr: [((1.0, -2.0), {}), ((), {"b": 0.0, "a": 1.0})],
    one_field: [((math.nan,), {}), ((), {"rep": (1, 2)})],
    no_field: [((), {})],
}


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # the exception's type and message must agree
        return (type(exc).__name__ if not isinstance(exc, AttributeError)
                else "AttributeError", str(exc))


@pytest.mark.parametrize("slots", [False, True], ids=["dict", "slots"])
@pytest.mark.parametrize("body", BODIES, ids=lambda b: b.__name__)
class TestAgainstDataclasses:
    def test_init_repr_eq_hash(self, body, slots):
        rec, ref = both(body, slots)
        for args, kwargs in ARGS[body]:
            a, b = rec(*args, **kwargs), ref(*args, **kwargs)
            assert repr(a).replace(rec.__qualname__, "X") == repr(b).replace(
                ref.__qualname__, "X"
            )
            assert hash(a) == hash(b)
            assert (a == rec(*args, **kwargs)) == (b == ref(*args, **kwargs))
            assert (a != rec(*args, **kwargs)) == (b != ref(*args, **kwargs))
            # never equal to another class, even with the same fields
            assert a != b and b != a
            assert (a == (*args,)) is False

    def test_unequal_fields(self, body, slots):
        rec, ref = both(body, slots)
        cases = ARGS[body]
        for (a1, k1), (a2, k2) in zip(cases, cases[1:]):
            assert (rec(*a1, **k1) == rec(*a2, **k2)) == (
                ref(*a1, **k1) == ref(*a2, **k2)
            )

    def test_bad_calls(self, body, slots):
        rec, ref = both(body, slots)
        for args, kwargs in [((1, 2, 3, 4, 5), {}), ((), {"nope": 1}), ((0.0,), {}),
                             ((-1.0, 0.0), {})]:
            assert outcome(lambda: rec(*args, **kwargs))[0] == outcome(
                lambda: ref(*args, **kwargs)
            )[0]

    def test_frozen(self, body, slots):
        rec, ref = both(body, slots)
        args, kwargs = ARGS[body][0]
        a, b = rec(*args, **kwargs), ref(*args, **kwargs)
        names = [f.name for f in dataclasses.fields(ref)]
        # a frozen dataclass with slots on Python 3.11 raises TypeError for a
        # name that is not a field (its __setattr__ calls super() with the
        # class that the slots replaced); there the reference is the layout
        # with a __dict__
        if not slots:
            names.append("other")
        for n in names:
            got = outcome(lambda: setattr(a, n, 0))
            want = outcome(lambda: setattr(b, n, 0))
            assert got == want
            got = outcome(lambda: delattr(a, n))
            want = outcome(lambda: delattr(b, n))
            assert got == want
        with pytest.raises(FrozenRecordError, match="cannot assign to field 'other'"):
            a.other = 0
        with pytest.raises(FrozenRecordError, match="cannot delete field 'other'"):
            del a.other
        assert issubclass(FrozenRecordError, AttributeError)

    def test_layout(self, body, slots):
        rec, ref = both(body, slots)
        args, kwargs = ARGS[body][0]
        a, b = rec(*args, **kwargs), ref(*args, **kwargs)
        assert hasattr(a, "__dict__") == hasattr(b, "__dict__") == (not slots)
        assert getattr(rec, "__slots__", None) == getattr(ref, "__slots__", None)
        assert rec.__qualname__ == ref.__qualname__
        assert rec.__init__.__qualname__ == f"{rec.__qualname__}.__init__"


def test_covwalk_records_keep_their_layout():
    from covwalk import config, cover, fuchsian, hyp2, stats, walk

    slotted = {hyp2.GroupElement, hyp2.PointH, hyp2.UnitTangent, hyp2.IwasawaCoords,
               hyp2.CartanCoords, hyp2.Classification, fuchsian.HalfPlane,
               fuchsian.Vertex, walk.CheckpointRecord}
    records = {c for m in (config, cover, fuchsian, hyp2, stats, walk)
               for c in vars(m).values()
               if isinstance(c, type) and "__record_fields__" in vars(c)}
    assert len(records) == 36
    assert {c for c in records if "__slots__" in vars(c)} == slotted
    # a frozen default is shared, never mutated
    assert walk.WalkConfig(1, 1).checkpoints is walk.WalkConfig(2, 2).checkpoints


class TestUnsupported:
    def test_base_class(self):
        class Base:
            pass

        class Child(Base):
            x: int

        with pytest.raises(TypeError, match="base class"):
            record(Child)
        P = record(plain())

        class Sub(P):
            z: int

        with pytest.raises(TypeError, match="base class"):
            record(Sub)

    def test_field(self):
        class F:
            x: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="field"):
            record(F)

    @pytest.mark.parametrize("ann", [ClassVar[int], "ClassVar[int]",
                                     "typing.ClassVar[int]"])
    def test_classvar(self, ann):
        F = type("F", (), {"__annotations__": {"x": ann}, "x": 1})
        with pytest.raises(TypeError, match="ClassVar"):
            record(F)

    def test_no_default_after_default(self):
        class F:
            x: int = 0
            y: int

        with pytest.raises(TypeError, match="default"):
            record(F)

    @pytest.mark.parametrize("method", ["__eq__", "__hash__", "__setattr__",
                                        "__delattr__"])
    def test_own_method(self, method):
        F = type("F", (), {"__annotations__": {"x": "int"},
                           method: lambda self, *a: None})
        with pytest.raises(TypeError, match=method):
            record(F)
