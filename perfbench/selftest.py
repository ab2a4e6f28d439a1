"""Oracle self-test: every oracle accepts a genuine CLI report and rejects
the same report with one deliberate corruption.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from orbitint import cli  # noqa: E402

# x^2+1 from u = 0 against w = 1 with S empty: some pairs, most cells not
WITNESS_OP = {
    "id": 0, "kind": "pairs", "num": [1, 0, 1], "den": [1], "degree": 2,
    "u": [0, 1], "w": [1, 1], "S": [], "window": [4, 4],
    "argv": ["--no-timestamp", "pairs", "--map=x^2+1", "--u=0", "--w=1", "--S=",
             "--window=4x4"],
}
# x^2-x+3 from u = 1/2 against w = inf with S = {2}: every cell integral
VERDICT_OP = {
    "id": 1, "kind": "pairs", "num": [1, -1, 3], "den": [1], "degree": 2,
    "u": [1, 2], "w": [1, 0], "S": [2], "window": [4, 4],
    "argv": ["--no-timestamp", "pairs", "--map=x^2-x+3", "--u=1/2", "--w=inf",
             "--S=2", "--window=4x4"],
}
DIVISOR_OP = {
    "id": 2, "kind": "divisor", "num": [1, 0, 2], "den": [2, 1], "degree": 2,
    "depth": 3, "argv": ["--no-timestamp", "divisor", "--map=(x^2+2)/(2x+1)", "--n=3"],
}
ANALYZE_OP = {
    "id": 3, "kind": "analyze", "num": [1, 0, -1, 1], "den": [1], "degree": 3,
    "argv": ["--no-timestamp", "analyze", "--map=x^3-x+1"],
}


def _body(op: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(op["argv"])
    if status != 0:
        raise RuntimeError(f"{op['argv']} exited {status}")
    return json.loads(buf.getvalue())["body"]


class OracleSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bodies = {op["id"]: _body(op) for op in
                      (WITNESS_OP, VERDICT_OP, DIVISOR_OP, ANALYZE_OP)}

    def corrupted(self, op: dict) -> dict:
        return copy.deepcopy(self.bodies[op["id"]])

    def test_genuine_reports_pass(self):
        for op in (WITNESS_OP, VERDICT_OP, DIVISOR_OP, ANALYZE_OP):
            self.assertEqual(oracle.check(op, self.bodies[op["id"]]), [], op["argv"])
        self.assertGreater(len(self.bodies[0]["pairs"]), 0)
        self.assertEqual(len(self.bodies[1]["pairs"]), 25)

    def test_dropped_pair_is_rejected(self):
        for op in (WITNESS_OP, VERDICT_OP):
            body = self.corrupted(op)
            del body["pairs"][len(body["pairs"]) // 2]
            self.assertTrue(oracle.check(op, body))

    def test_flipped_verdict_is_rejected(self):
        for op in (WITNESS_OP, VERDICT_OP):
            body = self.corrupted(op)
            body["pairs"][0]["witness"]["verdict"] = False
            self.assertTrue(oracle.check(op, body))
        # a non-integral cell reported as integral
        body = self.corrupted(WITNESS_OP)
        listed = {(p["m"], p["n"]) for p in body["pairs"]}
        m, n = next((m, n) for m in range(5) for n in range(5) if (m, n) not in listed)
        body["pairs"].append({"m": m, "n": n, "witness": {"verdict": True, "cross_term": "1"}})
        self.assertTrue(oracle.check(WITNESS_OP, body))

    def test_changed_b_coefficient_is_rejected(self):
        body = self.corrupted(DIVISOR_OP)
        head, sep, rest = body["b_forms"][2].partition(":")
        coeff, space, tail = rest.partition(" ")
        body["b_forms"][2] = f"{head}{sep}{int(coeff) + 1}{space}{tail}"
        self.assertTrue(oracle.check(DIVISOR_OP, body))

    def test_changed_ramification_is_rejected(self):
        body = self.corrupted(ANALYZE_OP)
        body["critical_data"][0]["ramification_index"] += 1
        self.assertTrue(oracle.check(ANALYZE_OP, body))

    def test_other_map_is_rejected(self):
        body = self.corrupted(VERDICT_OP)
        body["map"] = "num=1,-1,2;den=1"
        self.assertTrue(oracle.check(VERDICT_OP, body))


if __name__ == "__main__":
    unittest.main()
