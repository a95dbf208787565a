"""The package supports Python 3.10 and numpy 1.24 (pyproject.toml), but
the suite may run only on newer versions.  These tests search the sources
and the tests for names that exist only in numpy 2 or only in Python
3.11, used as attributes, imports or the syntax that needs them, so that
such a use fails here and not only on the oldest supported pair.
"""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# name -> pattern of a use that needs it; a bare word in prose or a local
# variable of the same name does not match
_FROM_NUMPY = r"|from numpy\S* import .*\b"

NEWER_ONLY = {
    # numpy 2
    "bitwise_count": r"\.bitwise_count\b" + _FROM_NUMPY + r"bitwise_count\b",
    "unique_values": r"\.unique_values\b" + _FROM_NUMPY + r"unique_values\b",
    "np.astype": r"\b(np|numpy)\.astype\(",
    "isdtype": r"\.isdtype\b" + _FROM_NUMPY + r"isdtype\b",
    "copy=None": r"\bcopy\s*=\s*None\b",
    ".mT": r"\.mT\b",
    "vecdot": r"\.vecdot\b" + _FROM_NUMPY + r"vecdot\b",
    # Python 3.11
    "ExceptionGroup": r"\bExceptionGroup\s*[(),:]|except\s*\*",
    "tomllib": r"^\s*(import|from)\s+tomllib\b",
    "typing.Self": r"\btyping\.Self\b"
                   r"|from typing(_extensions)? import .*\bSelf\b",
    "TaskGroup": r"\.TaskGroup\b|from asyncio import .*\bTaskGroup\b",
}


def _sources():
    here = Path(__file__).resolve()
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.resolve() != here:
                yield path


@pytest.mark.parametrize("name,line", [
    ("bitwise_count", "n = np.bitwise_count(mask)"),
    ("bitwise_count", "from numpy import bitwise_count"),
    ("unique_values", "u = np.unique_values(a)"),
    ("np.astype", "b = np.astype(a, np.int32)"),
    ("isdtype", "if numpy.isdtype(a.dtype, 'integral'):"),
    ("copy=None", "a = np.array(b, copy=None)"),
    (".mT", "t = stack.mT"),
    ("vecdot", "d = np.linalg.vecdot(a, b)"),
    ("ExceptionGroup", "raise ExceptionGroup('many', errors)"),
    ("ExceptionGroup", "except* ValueError:"),
    ("tomllib", "import tomllib"),
    ("typing.Self", "from typing import Any, Self"),
    ("TaskGroup", "async with asyncio.TaskGroup() as tg:"),
])
def test_patterns_find_newer_only_uses(name, line):
    assert re.search(NEWER_ONLY[name], line)


@pytest.mark.parametrize("line", [
    "unique_values = sorted(set(values))",
    "The cell itself, Self in the table, reads the left letter.",
    "a = a.astype(np.int64, copy=False)",
    "mT = 3; exceptions = []",
    "from numpy import ndarray",
])
def test_patterns_pass_supported_code(line):
    assert not any(re.search(p, line) for p in NEWER_ONLY.values())


def test_no_newer_only_names_in_sources():
    found = []
    for path in _sources():
        for k, line in enumerate(path.read_text().splitlines(), 1):
            for name, pattern in NEWER_ONLY.items():
                if re.search(pattern, line):
                    found.append(f"{path.relative_to(ROOT)}:{k}: {name}")
    assert not found, "\n".join(found)
