"""Canonical, deterministic text rendering and ordering for set elements."""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Tuple

_MISSING = object()


def cached_on_self(method: Callable) -> Callable:
    """Compute a no-argument method of an immutable object once per object.

    The value is stored as an instance attribute (set with
    ``object.__setattr__``, so frozen dataclasses accept it) and lives
    exactly as long as the object; it takes no part in equality, hashing
    or repr.
    """
    slot = f"_cached_{method.__name__}"

    @functools.wraps(method)
    def cached(self):
        value = getattr(self, slot, _MISSING)
        if value is _MISSING:
            value = method(self)
            object.__setattr__(self, slot, value)
        return value

    return cached


class Path(tuple):
    """A tree path as a tuple of atoms; the empty path is the root."""

    @cached_on_self
    def render(self) -> str:
        if not self:
            return "/"
        return "/" + "/".join(render(a) for a in self)

    def __repr__(self) -> str:
        return f"Path({self.render()})"

    def child(self, atom: Any) -> "Path":
        return Path(self + (atom,))

    def parent(self) -> "Path":
        return Path(self[:-1])

    def starts_with(self, prefix: tuple) -> bool:
        return self[: len(prefix)] == tuple(prefix)

    @cached_on_self
    def sort_key(self) -> Tuple:
        return ("p",) + tuple(sort_key(a) for a in self)

    def order_key(self) -> Tuple:
        """Length first, then atom order; ties the processing order down."""
        return (len(self), sort_key(self))


def render(e: Any) -> str:
    """Render an element canonically; equal elements always render identically."""
    if type(e) is str:
        return e
    if isinstance(e, Path):
        return e.render()
    if isinstance(e, str):
        return e
    if isinstance(e, bool):
        return "true" if e else "false"
    if isinstance(e, int):
        return str(e)
    if hasattr(e, "render"):
        return e.render()
    if isinstance(e, (tuple, list)):
        return "(" + ",".join(render(x) for x in e) + ")"
    if isinstance(e, (set, frozenset)):
        return "[" + ",".join(sorted(render(x) for x in e)) + "]"
    raise TypeError(f"cannot render {type(e).__name__}")


def sort_key(e: Any) -> Tuple:
    """Type-tagged recursive key making heterogeneous elements totally ordered."""
    kind = type(e)
    if kind is str:
        return ("s", e)
    if kind is tuple:
        return ("t",) + tuple(sort_key(x) for x in e)
    if e is None:
        return ("",)
    if isinstance(e, Path):
        return e.sort_key()
    if isinstance(e, bool):
        return ("b", e)
    if isinstance(e, str):
        return ("s", e)
    if isinstance(e, int):
        return ("i", e)
    if hasattr(e, "canon_key"):
        return ("o", kind.__name__, e.canon_key())
    if isinstance(e, (tuple, list)):
        return ("t",) + tuple(sort_key(x) for x in e)
    raise TypeError(f"cannot order {kind.__name__}")


def sorted_elements(elems: Iterable[Any]) -> list:
    return sorted(elems, key=sort_key)
