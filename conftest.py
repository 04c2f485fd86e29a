"""Puts this checkout's ``src`` first on PYTHONPATH, so that the interpreters
the tests start import the tree under test, installed or not."""

import os
import pathlib

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(pathlib.Path(__file__).resolve().parent / "src"), os.environ.get("PYTHONPATH")]))
