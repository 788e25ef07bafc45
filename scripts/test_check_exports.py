#!/usr/bin/env python3
"""Self-test of check_exports.py: a fixture tree with one planted problem
of each kind must fail the check, and each problem must be named.

Run it from anywhere: python3 scripts/test_check_exports.py (exit 0 on
success).
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURE = {
    # `ghost` is declared only inside a comment, so it is no export.
    "lib/demo/shapes.mli": """\
(* val ghost : int *)
val area : float -> float
val unused : int
val helper : int -> int
val probe : unit -> int
val seam : unit -> int
val bare : unit -> int
val perimeter : float -> float
val circle : float -> float
val square : float -> float
val tri : unit -> float
val length : int list -> int
""",
    # `Array.length` in its own module is no use of `Shapes.length`.
    "lib/demo/shapes.ml": """\
let helper x = x + 1
let area r = (3.14 *. r *. r) +. float_of_int (helper 0)
let unused = 42
let probe () = 1
let seam () = 2
let bare () = 3
let perimeter r = 6.28 *. r
let circle = area
let square s = s *. s
let tri () = 0.5
let length l = Array.length (Array.of_list l)
""",
    "lib/demo/grid.mli": """\
val perimeter : int -> int
""",
    "lib/demo/grid.ml": """\
let perimeter n = 4 * n
""",
    # Names in strings and comments are no references, and neither is
    # another module's value of the same name: Grid.perimeter does not
    # reach Shapes.perimeter.
    "bin/main.ml": """\
let () = print_float (Shapes.area 1.0); print_string "Shapes.unused"
let () = print_int (Grid.perimeter 2)
""",
    # An alias, an open and a local open each reach a Shapes value.
    "bin/alias.ml": """\
module S = Shapes
let c = S.circle 1.0
""",
    "bin/opened.ml": """\
open Shapes
let s = 2. +. square 3.
""",
    "bin/local.ml": """\
let t = Shapes.(tri () +. 1.)
""",
    "test/test_shapes.ml": """\
let () = assert (Shapes.probe () = 1 && Shapes.seam () + Shapes.bare () = 5)
let () = assert (Shapes.length [ 1 ] = 1)
(* Shapes.unused {|Shapes.helper|} *)
""",
    "scripts/exports_allow.txt": """\
# Module.value  reason
Shapes.seam   seam: the fixture's test needs it
Shapes.gone   names no export
Shapes.area   bin/main.ml calls it
Shapes.bare
""",
}

EXPECTED = [
    "unreferenced export Shapes.unused",
    "unreferenced export Shapes.perimeter",
    "internal-only export Shapes.helper",
    "test-only export Shapes.probe",
    "test-only export Shapes.length",
    "stale entry Shapes.gone: no such export",
    "stale entry Shapes.area: not a test-only export",
    "entry Shapes.bare gives no reason",
]


def run(root):
    return subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "check_exports.py")],
        capture_output=True, text=True)


def main():
    failures = []
    with tempfile.TemporaryDirectory() as root:
        for path, text in FIXTURE.items():
            os.makedirs(os.path.join(root, os.path.dirname(path)),
                        exist_ok=True)
            with open(os.path.join(root, path), "w") as f:
                f.write(text)
        shutil.copy(os.path.join(HERE, "check_exports.py"),
                    os.path.join(root, "scripts"))
        r = run(root)
        lines = r.stdout.splitlines()
        if r.returncode == 0:
            failures.append("the planted problems passed the check")
        for want in EXPECTED:
            if not any(want in line for line in lines):
                failures.append(f"not reported: {want}")
        if len(lines) != len(EXPECTED):
            failures.append(f"expected {len(EXPECTED)} problems, got:\n"
                            + r.stdout)
    for f in failures:
        print("test_check_exports: " + f, file=sys.stderr)
    if failures:
        return 1
    print("test_check_exports: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
