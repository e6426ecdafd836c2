"""One set-up start: import levy_stein and validate a file of spec documents.

run.py times this script from process start to exit; see setup_s there.
"""

import json
import sys

from levy_stein.cli import build_spec

with open(sys.argv[1], encoding="utf-8") as fh:
    for doc in json.load(fh):
        build_spec(doc)
