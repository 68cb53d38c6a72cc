"""Names a package exports but imports on first access (PEP 562).

A layer a process may never run is imported where it is first built,
so a package surface that re-exports it must not import it either: the
package's ``__getattr__`` imports the submodule defining a name the
first time the name is read, and keeps the name in the package so the
next read is a plain attribute lookup.  ``from package import name`` and
``package.name`` return the very object the submodule defines.
"""

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, homes: dict[str, str]):
    """A module ``__getattr__`` for ``package``: ``homes`` maps each
    submodule (relative to ``package``) to the space-separated names it
    exports through ``package``."""
    home_of = {name: home for home, names in homes.items() for name in names.split()}
    namespace = import_module(package).__dict__

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home_of[name], package), name)
        return value

    return __getattr__
