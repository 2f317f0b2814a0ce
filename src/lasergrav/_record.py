"""Immutable value records: frozen dataclasses without importing ``dataclasses``."""


class Record:
    """Immutable value whose fields are the class annotations, in order; a
    class attribute of a field's name is its default.  Records compare and
    hash by their fields and validate them in the ``_check`` hook."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        values = {**self._defaults, **kwargs}
        clash = False
        if args:  # positional values may neither outnumber the fields nor repeat a keyword
            named = self._fields[:len(args)]
            clash = len(args) > len(named) or not kwargs.keys().isdisjoint(named)
            values.update(zip(named, args))
        if clash or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}; "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        self.__dict__.update(values)
        self._check()

    def _check(self):
        """Raise ``ValueError`` on an invalid field value."""

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new record."""
        return type(self)(**{**self.__dict__, **changes})

    def asdict(self) -> dict:
        """Field name -> value in field order, nested records as dicts."""
        return {f: v.asdict() if isinstance(v, Record) else v
                for f, v in zip(self._fields, self._values())}
