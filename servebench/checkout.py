"""Locate the checkout this benchmark lives in and import its program.

The benchmark directory sits at the root of a checkout, next to
``src/``.  The program under test is always the one in that ``src/``:
an installed copy elsewhere on the path would measure other code, so
the import is refused when ``repro`` resolves outside the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``servebench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where the benchmark keeps what it writes (fingerprints); ignored by
#: git.
STATE_DIR = ROOT / ".bench_build" / "servebench"


class MissingProgram(RuntimeError):
    """The checkout holds no importable ``src/repro``."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and return it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {source}/repro")
    sys.path.insert(0, str(source))
    import repro

    located = Path(repro.__file__).resolve()
    if source.resolve() not in located.parents:
        raise MissingProgram(
            f"repro imported from {located}, outside {source}"
        )
    return repro
