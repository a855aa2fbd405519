"""Let the ``python -m calr`` subprocesses of the tests import this checkout's package."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_inherited = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _inherited if _inherited else "")
