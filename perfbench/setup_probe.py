"""The set-up every CLI run pays, in a fresh interpreter.

Usage: python3 setup_probe.py MODEL_JSON

Imports teamlqg, loads and validates the model, and solves its gain and
filter schedules once.  The caller times the whole process.
"""

import sys


def main(path: str) -> int:
    from teamlqg import (
        load_model,
        precompute_global,
        precompute_local,
        solve_riccati,
        validate,
    )

    model = load_model(path)
    if not validate(model).ok:
        return 1
    solve_riccati(model)
    precompute_local(model)
    precompute_global(model)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
