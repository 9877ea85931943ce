"""Every name the benchmark's tracer wraps must still exist in bellshot.

`bench/tracer.py` rebinds the functions listed in its SPANNED and COUNTED
tables, and `Tracer.install` fails on a name that no longer resolves, which
breaks `bench/run.py --trace 1`. The tables are read as literals from the
source, so the test neither imports nor writes anything under bench/.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_resolves():
    tables = tracer_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    missing = [
        f"bellshot.{module}.{name}"
        for table in tables.values()
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bellshot.{module}"), name, None))
    ]
    assert missing == []
