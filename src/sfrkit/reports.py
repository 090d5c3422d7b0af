"""Deterministic CSV/JSON writers for traces, maps and sweeps.

All floats are printed with 9 significant digits, '.' decimal separator and
'\n' line endings, so repeated runs produce byte-identical artifacts.
"""
from __future__ import annotations

import itertools
import json
import math

from .errors import InvalidInputError
from .model import FrequencyTrace

__all__ = ["fmt", "write_trace_csv", "write_csv", "write_json"]


def fmt(value) -> str:
    """Format one number with 9 significant digits."""
    return format(float(value), ".9g")


def write_csv(path, header, rows) -> None:
    """Write rows of one number per header column, each formatted as fmt formats it.

    As in write_json, a non-finite value raises InvalidInputError, naming its
    column and its row's first value, before the file is opened.
    """
    rows = list(rows)
    line = ",".join(["{:.9g}"] * len(header)) + "\n"
    body = "".join(itertools.starmap(line.format, rows))
    if "n" in body:  # finite values format to digits, '.', '-', '+' and 'e'; nan and inf hold an n
        row = rows[body.count("\n", 0, body.index("n"))]
        j = next(j for j, value in enumerate(row) if not math.isfinite(value))
        raise InvalidInputError(f"{header[j]} at {header[0]} = {float(row[0])!r} is "
                                f"{float(row[j])!r}: a CSV artifact must be finite")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def write_trace_csv(path, trace: FrequencyTrace) -> None:
    """Standard trace artifact: t_s,delta_f_hz."""
    write_csv(path, ("t_s", "delta_f_hz"), zip(trace.times.tolist(), trace.samples.tolist()))


def write_json(path, obj) -> None:
    """Stable JSON artifact: sorted keys, trailing newline.

    A non-finite float raises InvalidInputError naming its key path before
    the file is opened, so no artifact ever holds the non-JSON tokens NaN or
    Infinity.
    """
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        found = _first_non_finite(obj)
        if found is None:
            raise
        raise InvalidInputError(f"{found[0]} = {found[1]}: {exc}") from exc
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.write("\n")


def _first_non_finite(obj, path=""):
    """(key path, value) of the first non-finite float in obj, in json.dumps's order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for key, value in items:
        found = _first_non_finite(value, key)
        if found is not None:
            return found
    return None
