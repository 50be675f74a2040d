"""What the commands print and write, byte for byte, against tests/golden
(re-recorded by `python tests/golden/record.py`)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).resolve().parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def first_difference(want, got):
    """The first line where two outputs differ, as 'line n: want != got'."""
    a, b = want.splitlines(), got.splitlines()
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    return f"{len(a)} lines recorded, {len(b)} written"


def test_command_outputs_are_the_recorded_ones():
    drift = []
    for name in record.RUNS:
        want, got = record.recorded(name), record.run(name)
        if want.keys() != got.keys():
            drift.append(f"{name}: files {sorted(want)} recorded, {sorted(got)} written")
        drift += [f"{f}: {first_difference(want[f], got[f])}"
                  for f in sorted(want.keys() & got.keys()) if want[f] != got[f]]
    assert not drift, "\n".join(drift)
