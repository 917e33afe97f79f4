"""Frozen value records without `dataclasses`, whose `inspect` import costs about 10 ms cold."""


class Record:
    """A frozen record: its fields are its class annotations, in order, given
    by position or keyword, except a field with a class value, which
    `__post_init__` sets with `object.__setattr__`. A record refuses
    assignment and deletion, compares and hashes by its fields and reprs
    like a dataclass; `functools.cached_property` writes to `__dict__`."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._init_fields = tuple(name for name in cls._fields if name not in vars(cls))

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._init_fields, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._init_fields):
            raise TypeError(f"{type(self).__name__} takes fields {', '.join(self._init_fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
