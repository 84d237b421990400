"""The text and JSON forms shared by kernel and weight specs.

Text form: ``family[:key=value,...][;key=value,...]``. Only fourier uses the
``;`` groups, one per term. :func:`tokenize` splits the text into the family
and one dict of values per group, a value that spells a number read as that
number; :meth:`Spec.parse` turns those into the JSON-object form and reads it
with :func:`read_fields`, so the text and JSON forms accept and reject the
same keys and values.

:class:`Spec`, the base of ``KernelSpec`` and ``WeightSpec``, reads, checks
and writes both forms from each family's :class:`Param` rows in its ``TABLE``.
Simulation models and experiment plans have no text form but read their JSON
form through the same functions, and every dataclass with ``Param`` rows
(specs, models, check-in records and grids) reads its own fields with
:func:`read_fields` too, through :func:`validate`.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Any, Callable, ClassVar, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import BadWeightParam, InvalidValue, ParseError


_REAL = (float, int, numbers.Real)  # builtins first: an ABC's isinstance check is slow


def real(value):
    """A real number as given, so a spec writes back the JSON it was read from."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise TypeError(f"not a real number: {value!r}")
    return value


def integer(value) -> int:
    """An integer as an int; a bool, a float such as 2.0 or a string is rejected."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


def _check_count(value, what: str) -> int:
    """value as an int; what ``integer`` refuses, a bool or 2.0 too, is an InvalidValue."""
    try:
        return integer(value)
    except TypeError:
        raise InvalidValue(f"{what} must be an integer, got {value!r}") from None


def real_float(value) -> float:
    """A real number as a float; a string or a bool is rejected, as by :func:`real`."""
    return float(real(value))


def string(value) -> str:
    """A string; unlike ``str``, any other value is rejected."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


class Param(NamedTuple):
    """One parameter of a spec family.

    ``field`` is the spec dataclass field and the JSON key; ``text``, when
    set, is the key the canonical text writes, and both spellings are read
    in either form. ``read`` converts a JSON or text value. A numeric value
    must lie in the open interval (low, high); ``low = None`` skips that
    check and ``high = None`` leaves the interval open above.
    """

    field: str
    read: Callable[[Any], Any] = real_float
    # repr reads back exactly; a whole number is written without ".0"
    show: Callable[[Any], str] = lambda value: repr(float(value)).removesuffix(".0")
    low: Optional[float] = None
    high: Optional[float] = None
    text: Optional[str] = None
    required: bool = True

    @property
    def key(self) -> str:
        return self.text or self.field


def _number(text: str):
    """The int or float that ``text`` spells, else the text itself."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def tokenize(text: str, what: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Split a text spec into its family and one key -> value dict per group."""
    text = text.strip()
    if not text:
        raise ParseError(f"empty {what} spec")
    family, _, rest = text.partition(":")
    groups = []
    for group in rest.split(";") if rest.strip() else ():
        fields: Dict[str, Any] = {}
        for part in group.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ParseError(f"expected key=value in {what} spec, got {part!r}")
            # the family is named before the colon; "family=" would name it twice
            if key in fields or key == "family":
                raise ParseError(f"{what} spec repeats key {key!r}")
            fields[key] = _number(value.strip())
        groups.append(fields)
    return family.strip(), groups


def family_of(obj: Any, families: Mapping, short: Mapping[str, str], what: str) -> Tuple[str, dict]:
    """The family a JSON object names and its other keys; ``short`` holds text aliases."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError(f"{what} JSON object needs a 'family' field")
    name, rest = obj["family"], {k: v for k, v in obj.items() if k != "family"}
    for family, alias in short.items():
        if name == alias:
            return family, rest
    if not isinstance(name, str) or name not in families:
        raise ParseError(f"unknown {what} family {name!r}")
    return name, rest


def read_fields(obj: Any, params: Sequence[Param], where: str, error=ParseError) -> dict:
    """Field values read from every key of the JSON object ``obj``.

    A non-object, a key no parameter has, two keys for one field, a missing
    required parameter or a value ``Param.read`` rejects raises ``error``.
    """
    if not isinstance(obj, Mapping):
        raise error(f"{where} must be a JSON object")
    by_key = {key: p for p in params for key in (p.field, p.key)}
    values = {}
    for key, raw in obj.items():
        p = by_key.get(key)
        if p is None:
            raise error(f"{where} has no parameter {key!r}")
        if p.field in values:
            raise error(f"{where} repeats parameter {p.key!r}")
        try:
            values[p.field] = p.read(raw)
        except (TypeError, ValueError):
            raise error(f"{where} parameter {key!r} has a bad value {raw!r}") from None
    for p in params:
        if p.required and p.field not in values:
            raise error(f"{where} requires parameter {p.key!r}")
    return values


def check_range(p: Param, value, where: str, error=BadWeightParam) -> None:
    """A real value must be finite and lie in (p.low, p.high)."""
    # inf or NaN would pass an open or missing bound
    if isinstance(value, _REAL) and not -math.inf < value < math.inf:
        raise error(f"{where} requires a finite {p.key}, got {value}")
    if p.low is None or p.low < value and (p.high is None or value < p.high):
        return
    bound = f"> {p.low:g}" if p.high is None else f"in ({p.low:g},{p.high:g})"
    raise error(f"{where} requires {p.key} {bound}, got {value}")


def validate(spec, params: Sequence[Param], where: str, error: type) -> None:
    """Read a frozen dataclass's set fields, all but ``family``, through
    :func:`read_fields`, range-check each and write it back; a failure
    raises ``error``."""
    fields = vars(spec)  # written directly, past the frozen __setattr__
    values = read_fields(
        {f: v for f, v in fields.items() if v is not None and f != "family"}, params, where, error
    )
    for p in params:
        if p.field in values:
            check_range(p, values[p.field], where, error)
    fields.update(values)


def to_text(name: str, params: Sequence[Param], rows: Sequence[Sequence]) -> str:
    """Canonical text: ``name[:key=value,...][;...]``, one group per row."""
    groups = ";".join(
        ",".join(f"{p.key}={p.show(v)}" for p, v in zip(params, row)) for row in rows
    )
    return f"{name}:{groups}" if groups else name


class Spec:
    """Base of a frozen spec dataclass whose first field is ``family``."""

    TABLE: ClassVar[Mapping[str, Sequence[Param]]]  # family -> its Params, in text order
    SHORT: ClassVar[Mapping[str, str]] = {}  # family -> its text name; both are read
    WHAT: ClassVar[str]  # the noun in messages

    def __post_init__(self):
        if self.family not in self.TABLE:
            raise BadWeightParam(f"unknown {self.WHAT} family {self.family!r}")
        validate(self, self.TABLE[self.family], self.name, BadWeightParam)

    @property
    def name(self) -> str:
        """The family as the text writes it."""
        return self.SHORT.get(self.family, self.family)

    def to_json_obj(self) -> dict:
        """The JSON-object form; a nested spec is written as its own."""
        obj: dict = {"family": self.family}
        for p in self.TABLE[self.family]:
            value = getattr(self, p.field)
            obj[p.field] = value.to_json_obj() if isinstance(value, Spec) else value
        return obj

    def to_string(self) -> str:
        """The canonical text, which :meth:`parse` reads back."""
        params = self.TABLE[self.family]
        return to_text(self.name, params, [[getattr(self, p.field) for p in params]])

    @classmethod
    def from_json_obj(cls, obj):
        """Inverse of :meth:`to_json_obj` (config-file form)."""
        family, fields = family_of(obj, cls.TABLE, cls.SHORT, cls.WHAT)
        return cls(family, **read_fields(fields, cls.TABLE[family], cls.SHORT.get(family, family)))

    @classmethod
    def parse(cls, text: str):
        """Inverse of :meth:`to_string`: ``family[:key=value,...]``."""
        return cls.from_json_obj(cls._json_of(*tokenize(text, cls.WHAT)))

    @classmethod
    def _json_of(cls, family: str, groups: List[Dict[str, Any]]) -> dict:
        """The JSON-object form of a tokenized text, which has at most one group."""
        if len(groups) > 1:
            raise ParseError(f"{cls.WHAT} {family!r} takes no ';' groups")
        return {"family": family, **(groups[0] if groups else {})}

    @classmethod
    def read(cls, raw):
        """A spec given as itself, its text or its JSON object."""
        if isinstance(raw, cls):
            return raw
        return cls.parse(raw) if isinstance(raw, str) else cls.from_json_obj(raw)
