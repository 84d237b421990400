"""The text and JSON forms shared by kernel and weight specs.

Text form: ``family[:key=value,...][;key=value,...]``. Only fourier uses the
``;`` groups, one per term. :func:`tokenize` splits the text into the family
and one dict of values per group, a value that spells a number read as that
number; the spec modules turn those into the JSON-object form and read it
with :func:`read_fields`, so the text and JSON forms accept and reject the
same keys and values.

Each family's parameters are :class:`Param` rows in its module's table,
which also drives validation (:func:`validate`) and the canonical text
(:func:`to_text`). Simulation models and experiment plans have no text form
but read their JSON form through the same functions.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import BadWeightParam, ParseError


def real(value):
    """A real number as given, so a spec writes back the JSON it was read from."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a real number: {value!r}")
    return value


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


def single_group(family: str, groups: List[Dict[str, Any]], what: str) -> dict:
    """The JSON-object form of a tokenized spec that has at most one group."""
    if len(groups) > 1:
        raise ParseError(f"{what} {family!r} takes no ';' groups")
    return {"family": family, **(groups[0] if groups else {})}


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


def read_fields(obj: Any, params: Sequence[Param], where: str) -> dict:
    """Field values read from every key of the JSON object ``obj``.

    A non-object, a key no parameter has, two keys for one field, a missing
    required parameter or a value ``Param.read`` rejects is a ParseError.
    """
    if not isinstance(obj, Mapping):
        raise ParseError(f"{where} must be a JSON object")
    by_key = {key: p for p in params for key in (p.field, p.key)}
    values = {}
    for key, raw in obj.items():
        p = by_key.get(key)
        if p is None:
            raise ParseError(f"{where} has no parameter {key!r}")
        if p.field in values:
            raise ParseError(f"{where} repeats parameter {p.key!r}")
        try:
            values[p.field] = p.read(raw)
        except (TypeError, ValueError):
            raise ParseError(f"{where} parameter {key!r} has a bad value {raw!r}") from None
    for p in params:
        if p.required and p.field not in values:
            raise ParseError(f"{where} requires parameter {p.key!r}")
    return values


def check_range(p: Param, value, where: str, error=BadWeightParam) -> None:
    if p.low is None or p.low < value and (p.high is None or value < p.high):
        return
    bound = f"> {p.low:g}" if p.high is None else f"in ({p.low:g},{p.high:g})"
    raise error(f"{where} requires {p.key} {bound}, got {value}")


def validate(spec, params: Sequence[Param], where: str, error=BadWeightParam) -> None:
    """Check and normalize the fields of a frozen spec dataclass in place.

    A field outside ``params`` must be None and a required one must be set;
    every set value is converted by ``Param.read`` and range-checked. A
    failed check raises ``error``.
    """
    own = {p.field: p for p in params}
    for f in dataclasses.fields(spec):
        if f.name == "family":
            continue
        p = own.get(f.name)
        value = getattr(spec, f.name)
        if value is None:
            if p is not None and p.required:
                raise error(f"{where} requires parameter {p.key!r}")
        elif p is None:
            raise error(f"{where} takes no parameter {f.name!r}")
        else:
            value = p.read(value)
            check_range(p, value, where, error)
            object.__setattr__(spec, f.name, value)


def to_text(name: str, params: Sequence[Param], rows: Sequence[Sequence]) -> str:
    """Canonical text: ``name[:key=value,...][;...]``, one group per row."""
    groups = ";".join(
        ",".join(f"{p.key}={p.show(v)}" for p, v in zip(params, row)) for row in rows
    )
    return f"{name}:{groups}" if groups else name
