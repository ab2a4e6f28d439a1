"""Check that the JSON report on stdin is exactly what the stdlib writes for
it, ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, and that it
holds no float; exit nonzero with the reason otherwise.

    python -m orbitint.cli --no-timestamp analyze --map x^2+1 | python tests/same_as_stdlib.py
"""

import json
import sys


def _refuse_float(text: str):
    sys.exit(f"report holds the float {text}")


if __name__ == "__main__":
    s = sys.stdin.read()
    doc = json.loads(s, parse_float=_refuse_float)
    if s != json.dumps(doc, indent=2, sort_keys=True) + "\n":
        sys.exit("report differs from json.dumps")
