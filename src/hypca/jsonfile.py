"""The keys of the JSON input files: rules, automata, regions, snapshots
and render specs.  A file that is no JSON object, lacks a key or holds a
value of the wrong form raises a ValueError naming the key (exit 2), and
one nested too deeply for the parser one naming the file."""
from __future__ import annotations

import json

_REQUIRED = object()


def json_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"the {what} file nests its JSON too deeply to "
                         "read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"the {what} file must hold one JSON object")
    return doc


def read_key(doc: dict, what: str, key: str, convert=lambda value: value,
             default=_REQUIRED):
    """doc[key] through `convert`, or `default` where the key is absent
    and a default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{what} file lacks the '{key}' key")
        return default
    try:
        return convert(doc[key])
    except ValueError as e:
        raise ValueError(f"{what} key '{key}': {e}") from None
    except (TypeError, AttributeError, KeyError, IndexError, OverflowError):
        raise ValueError(f"{what} key '{key}' has the wrong form") from None


def exactly(*kinds: type):
    """A converter that passes only values of the types `kinds` themselves,
    so that no JSON float or boolean is taken for an integer."""
    def check(value):
        if type(value) not in kinds:
            raise TypeError
        return value
    return check
