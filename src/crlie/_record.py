"""``_record`` does what ``dataclasses.dataclass`` does, without importing
inspect and ast or compiling code per class.  The annotations, in order, are
the fields (``_fields``); methods the class defines are kept."""

from operator import attrgetter


def _record(cls=None, *, frozen=False, eq=True):
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen, eq=eq)
    names = cls._fields = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    post_init = getattr(cls, "__post_init__", None)
    values = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() needs {name!r}")
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        if post_init:
            post_init(self)

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return values(self) == values(other)

    def refuse(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is frozen")

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        methods["__eq__"] = __eq__
        methods["__hash__"] = (lambda s: hash(values(s))) if frozen else None
    if frozen:
        methods.update(__setattr__=refuse, __delattr__=refuse)
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls
