"""Records with checks: the `record` class decorator.

`@record` (or `@record(frozen=True)`) turns the annotated class attributes
into fields, in order, and gives the class an `__init__` that takes them
positionally or by name, fills defaults, then runs `__post_init__` when the
class defines one, plus field-wise `__eq__` and `__repr__`.  A frozen record
refuses assignment and deletion and hashes by its fields; any other record
is unhashable.  The methods are closures over the field list: nothing is
compiled at import.

Plain value records with no checks are `typing.NamedTuple`s instead, which
build faster still.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Field(NamedTuple):
    """A field of a record: its name and annotation, and for a mutable
    default the factory that makes a fresh one per instance."""

    name: str = ""
    type: object = None
    default_factory: Callable | None = None


def field(*, default_factory: Callable) -> Field:
    """A default made by calling default_factory() for each instance."""
    return Field(default_factory=default_factory)


def fields(obj) -> tuple:
    """The Fields of a record class or instance, in declaration order."""
    return obj.__record_fields__


def replace(obj, **changes):
    """A new record with `changes` applied; runs __init__'s checks again."""
    values = {f.name: getattr(obj, f.name) for f in obj.__record_fields__}
    return type(obj)(**{**values, **changes})


def record(cls=None, *, frozen: bool = False):
    """Class decorator: `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    own = cls.__dict__
    flds, defaults, factories = [], {}, {}
    for name, kind in own.get("__annotations__", {}).items():
        if isinstance(own.get(name), Field):
            factories[name] = own[name].default_factory
            delattr(cls, name)
        elif name in own:
            defaults[name] = own[name]
        flds.append(Field(name, kind, factories.get(name)))
    names = tuple(f.name for f in flds)
    post = own.get("__post_init__")
    label = cls.__qualname__

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{label}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{label}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in names[:len(args)]:
                raise TypeError(f"{label}() got multiple values for "
                                f"argument {name!r}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
            elif name in defaults:
                values[name] = defaults[name]
            elif name in factories:
                values[name] = factories[name]()
            else:
                raise TypeError(f"{label}() missing required argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if len(args) == len(names) and not kwargs:
            self.__dict__.update(zip(names, args))
        else:
            self.__dict__.update(bind(args, kwargs))
        if post is not None:
            post(self)

    def values(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(values(self))

    cls.__record_fields__ = tuple(flds)
    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = None
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        cls.__hash__ = __hash__
    return cls
