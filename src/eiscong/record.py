"""Frozen records as @dataclass(frozen=True) made them, without generated
code: the fields are a class's own annotations; ``eq=False`` keeps identity
equality; ``replace`` builds anew through ``__init__``, its fields passed
positionally; cached_property works."""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, eq: bool = True):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = attrgetter("__class__", *cls._fields)  # a tuple for any field count
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            given = dict(zip(self._fields, args))
            bound = self._defaults | kwargs | given
            if len(args) > len(given) or given.keys() & kwargs or bound.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__}() takes each of {self._fields} once")
            args = [bound[f] for f in self._fields]
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    __post_init__ = object.__init__  # no check unless the subclass defines one

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


field_names = attrgetter("_fields")


def replace(obj: Record, **changes) -> Record:
    """A new record of obj's class with the given fields changed, built
    through __init__ (so __post_init__ checks it again); TypeError on a name
    that is no field."""
    values = obj.__dict__
    args = [changes.pop(f, values[f]) for f in obj._fields]
    if changes:
        raise TypeError(f"{type(obj).__name__} has no field {', '.join(changes)}")
    return type(obj)(*args)
