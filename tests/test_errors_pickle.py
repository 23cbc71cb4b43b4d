"""Pickle round-trips for the whole error hierarchy.

The parallel serving layer ships errors across worker pipes, so every
:class:`ReproError` subclass — current and future — must survive
pickling with its message, args and structured context intact.  The
hierarchy is enumerated via ``__subclasses__()`` after importing every
``repro`` module, so a subclass added anywhere in the tree is covered
automatically, and a subclass that keeps state outside ``context``
without a pickle hook of its own fails here.
"""

import importlib
import pickle
import pkgutil
import sys

import pytest

import repro
from repro.errors import ReproError


def _import_everything():
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(module.name)


def _error_classes():
    _import_everything()
    found = []
    frontier = [ReproError]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                frontier.append(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


ERROR_CLASSES = _error_classes()


def test_hierarchy_enumeration_found_the_known_errors():
    names = {cls.__name__ for cls in ERROR_CLASSES}
    assert {"SchemaError", "IntegrityError", "SnapshotError"} <= names
    assert len(ERROR_CLASSES) >= 10


def assert_survives_pickling(error):
    """Every protocol restores ``error``'s type, message, args, context
    and instance state."""
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(error, protocol))
        assert type(restored) is type(error)
        assert restored.args == error.args
        assert str(restored) == str(error)
        assert restored.context == error.context
        assert restored.__dict__ == error.__dict__


def has_pickle_hook_for_its_state(cls):
    """A subclass may add state in ``__init__`` only alongside a pickle
    hook of its own."""
    defines_init = "__init__" in cls.__dict__
    defines_hook = any(
        hook in cls.__dict__
        for hook in ("__reduce__", "__reduce_ex__", "__getstate__")
    )
    return not defines_init or defines_hook


@pytest.mark.parametrize(
    "cls", ERROR_CLASSES, ids=lambda cls: cls.__qualname__
)
def test_roundtrip_preserves_message_args_and_context(cls):
    error = cls("boom", shard=3, hint="xml")
    assert error.context == {"shard": 3, "hint": "xml"}
    assert_survives_pickling(error)


@pytest.mark.parametrize(
    "cls", ERROR_CLASSES, ids=lambda cls: cls.__qualname__
)
def test_roundtrip_does_not_rerender_context_into_message(cls):
    # The PR 5 bug: unpickling re-ran __init__ on the already-rendered
    # message, doubling the context details.  One round-trip must be a
    # fixed point.
    error = cls("boom", shard=3)
    once = pickle.loads(pickle.dumps(error))
    twice = pickle.loads(pickle.dumps(once))
    assert str(once) == str(error)
    assert str(twice) == str(once)
    assert once.context == twice.context == {"shard": 3}


def test_contextless_error_roundtrip():
    error = ReproError("plain")
    restored = pickle.loads(pickle.dumps(error))
    assert str(restored) == "plain"
    assert restored.context == {}


@pytest.mark.parametrize(
    "cls", ERROR_CLASSES, ids=lambda cls: cls.__qualname__
)
def test_subclasses_stay_pickle_safe_by_construction(cls):
    # Everything today inherits the base __init__/__reduce__ pair.
    assert has_pickle_hook_for_its_state(cls), (
        f"{cls.__qualname__} overrides __init__ without a pickle hook; "
        "its state will be lost crossing worker pipes"
    )


def test_stateful_subclass_without_a_pickle_hook_is_rejected(monkeypatch):
    # The bug class worker pipes once hit: a subclass keeps a field of
    # its own, the inherited __reduce__ rebuilds only message and
    # context, and the field is gone on the far side of a worker pipe.
    # Both checks above must refuse that shape.
    class RegressionShardError(ReproError):
        def __init__(self, message, shard):
            super().__init__(message)
            self.shard = shard

    # Picklable by reference, as a module-level class would be.
    RegressionShardError.__qualname__ = "RegressionShardError"
    monkeypatch.setattr(
        sys.modules[__name__], "RegressionShardError", RegressionShardError,
        raising=False,
    )
    error = RegressionShardError("boom", shard=3)
    assert "shard" not in pickle.loads(pickle.dumps(error)).__dict__
    with pytest.raises(AssertionError):
        assert_survives_pickling(error)
    assert not has_pickle_hook_for_its_state(RegressionShardError)
