"""Set-up probe: a fresh interpreter gets one job ready to run, then reports.

    python3 bench/setup_probe.py <config.json>

Imports steerctl.cli (with numpy, scipy and jsonschema), reads the config and
validates it against the CLI schema, then prints ``ready <path of cli.py>``.
The harness times this from process start to that line.  PYTHONPATH must
name the checkout's src directory.
"""

import json
import sys

import jsonschema

from steerctl import cli

with open(sys.argv[1], "r", encoding="utf-8") as fh:
    raw = json.load(fh)
jsonschema.validate(raw, cli.CONFIG_SCHEMA)
print("ready", cli.__file__, flush=True)
