"""Child interpreters started by the tests import anisolab from src/ as well.

pyproject's ``pythonpath`` puts src/ on this process's sys.path only; the
CLI tests that run ``python -m anisolab.cli`` inherit it through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
