"""Frozen value classes: one compiled `__init__` each, shared code for the rest."""

import operator


def frozen(cls):
    """Make cls an immutable value over its annotated fields, in order.

    The same behaviour as `@dataclass(frozen=True)` where the package uses
    it: `__init__` takes the fields (a class attribute is a field's
    default) and then calls `__post_init__` if there is one; `==` needs the
    same class, and `==`, `hash` and `repr` read the tuple of fields;
    assigning or deleting an attribute raises AttributeError; and
    `v.replace(**changes)` is a copy with some fields changed.
    `__init__` is straight-line code, compiled once per class, that stores
    each field in the instance `__dict__`, because every certificate
    constructs dozens of values; a `__post_init__` stores what it derives
    the same way.
    """
    names = tuple(cls.__annotations__)
    space = {f"_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    params = "".join(f", {n}=_{n}" if f"_{n}" in space else f", {n}"
                     for n in names)
    body = "    d = self.__dict__\n" + "".join(
        f"    d[{n!r}] = {n}\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self{params}):\n{body}", space)
    fields = operator.attrgetter(*names) if len(names) > 1 else (
        lambda v: tuple(getattr(v, n) for n in names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        d = self.__dict__
        return cls(**{**{n: d[n] for n in names}, **changes})

    for fn in (space["__init__"], __eq__, __hash__, __repr__, __setattr__,
               __delattr__, replace):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls
