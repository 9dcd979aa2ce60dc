"""Hierarchical names: ordered components rendered as ``ndn:/a/b/c``.

Comparison and prefix tests are always component-wise, never substring-wise.
A component is a non-empty str without ``/``. It is validated once, where it
enters a name: the constructor, ``/`` and ``append`` check their new
components, and the packet decoder checks what it reads off the wire.
Slices, ``prefix`` and ``+`` reuse components that are already valid.
"""

from __future__ import annotations

from typing import Iterable, Iterator

_SCHEME = "ndn:"


def _check(comps: tuple) -> None:
    for c in comps:
        if not isinstance(c, str):
            raise TypeError(f"name component must be str, got {type(c).__name__}")
        if not c or "/" in c:
            raise ValueError(f"invalid name component: {c!r}")


class Name:
    """Immutable hierarchical name."""

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[str] = ()):
        comps = tuple(components)
        _check(comps)
        object.__setattr__(self, "_components", comps)

    @classmethod
    def _of(cls, comps: tuple[str, ...]) -> "Name":
        """A name over components that are already valid; no check."""
        name = object.__new__(cls)
        object.__setattr__(name, "_components", comps)
        return name

    @classmethod
    def parse(cls, uri: str) -> "Name":
        """Parse ``ndn:/a/b/c`` (the scheme prefix is optional)."""
        s = uri.strip()
        if s.startswith(_SCHEME):
            s = s[len(_SCHEME):]
        if not s.startswith("/"):
            raise ValueError(f"name uri must start with '/': {uri!r}")
        s = s[1:]
        if not s:
            return cls(())
        return cls(s.split("/"))

    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    def to_uri(self) -> str:
        return _SCHEME + "/" + "/".join(self._components)

    def is_prefix_of(self, other: "Name") -> bool:
        n = len(self._components)
        return other._components[:n] == self._components

    def prefix(self, n: int) -> "Name":
        return Name._of(self._components[:n])

    def append(self, *components: str) -> "Name":
        _check(components)
        return Name._of(self._components + components)

    def __truediv__(self, component: str) -> "Name":
        _check((component,))
        return Name._of(self._components + (component,))

    def __add__(self, other: "Name") -> "Name":
        return Name._of(self._components + other._components)

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[str]:
        return iter(self._components)

    def __getitem__(self, idx):
        got = self._components[idx]
        return Name._of(got) if isinstance(idx, slice) else got

    def __eq__(self, other) -> bool:
        return isinstance(other, Name) and self._components == other._components

    def __lt__(self, other: "Name") -> bool:
        return self._components < other._components

    def __le__(self, other: "Name") -> bool:
        return self._components <= other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __str__(self) -> str:
        return self.to_uri()

    def __repr__(self) -> str:
        return f"Name({self.to_uri()!r})"

    def __setattr__(self, *_):
        raise AttributeError("Name is immutable")
