"""Exceptions and the record base class shared across the package.

`Record` is the base of the package's record classes.  Creating one costs
microseconds.  A named tuple of the `typing` module costs tenths of a
millisecond per class with string annotations, since it compiles a forward
reference per annotation and a `__new__` per class, and it loads `typing`
into every process.
"""

from operator import itemgetter


class _RecordType(type):
    """Makes the annotated names of a class body its tuple fields, in order;
    the annotations stay strings and are never evaluated.  A value assigned
    to a field in the body is its default."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        for i, field in enumerate(fields):
            namespace[field] = property(itemgetter(i))
        namespace.update(__slots__=(), _fields=fields, _field_defaults=defaults)
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    """An immutable tuple with named fields: equal, hashed and unpacked as a
    tuple, built from positional or keyword arguments, with `_fields`,
    `_replace` and the repr of the `typing` module's named tuples."""

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if len(args) == len(fields) and not kwargs:
            return tuple.__new__(cls, args)
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._field_defaults:
                values.append(cls._field_defaults[field])
            else:
                raise TypeError(f"{cls.__name__} missing field {field!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {list(kwargs)}")
        return tuple.__new__(cls, values)

    def __getnewargs__(self):
        """What `copy` and `pickle` pass back to `__new__`: the fields."""
        return tuple(self)

    def _replace(self, **changes):
        values = tuple(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return tuple.__new__(type(self), values)

    def __repr__(self):
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__name__}({pairs})"


class VerificationError(Exception):
    """Base class for failures of the certified computations."""


class CertificationError(VerificationError):
    """A certificate that the construction requires could not be established.

    This signals a genuine negative answer (or an input violating a
    precondition of a certified routine), not a lack of precision.
    """


class PrecisionBudgetError(VerificationError):
    """The working precision was too low to decide a certificate.

    Raised instead of silently returning an inconclusive answer; callers may
    run again at a higher working precision.
    """
