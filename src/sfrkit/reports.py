"""Deterministic CSV/JSON writers for traces, maps and sweeps.

All floats are printed with 9 significant digits, '.' decimal separator and
'\n' line endings, so repeated runs produce byte-identical artifacts.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import InvalidInputError
from .model import FrequencyTrace

__all__ = ["fmt", "write_trace_csv", "write_csv", "write_json"]


def fmt(value) -> str:
    """Format one number with 9 significant digits."""
    return format(float(value), ".9g")


def write_csv(path, header, rows) -> None:
    """Write rows of one number per header column, each formatted as fmt formats it."""
    line = ",".join(["{:.9g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(itertools.starmap(line.format, rows))


def write_trace_csv(path, trace: FrequencyTrace) -> None:
    """Standard trace artifact: t_s,delta_f_hz. As in write_json, a non-finite
    sample raises InvalidInputError, naming its time, before the file is opened."""
    finite = np.isfinite(trace.samples)
    if not finite.all():
        i = int(finite.argmin())
        raise InvalidInputError(f"delta_f_hz at t_s = {trace.times[i].item()!r} is "
                                f"{trace.samples[i].item()!r}: a trace must be finite")
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
