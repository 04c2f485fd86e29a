"""One set-up of the CLI, timed by the caller from process start.

Imports ``relpower.cli``, validates the config named on the command line
(which pays the lazy jsonschema set-up every CLI call pays) and prints
the system monotonic clock, which the parent compares with the moment
it started this interpreter.
"""

import sys
import time

from relpower import cli  # noqa: F401  (importing the CLI is part of set-up)
from relpower.scenarios import load_config_file, validate_config

validate_config(load_config_file(sys.argv[1]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
