"""Ranges that config dataclass fields declare where they are defined, as in
``dim: int = bounded(32, lo=1)``; ``check_bounds`` is every config
dataclass's ``__post_init__``, and only cross-field rules are hand-written."""

import dataclasses
import math


def bounded(default, *, lo=None, hi=None, above=None, below=None):
    """A field that ``check_bounds`` keeps finite, with ``lo <= value <= hi``
    and ``above < value < below``; each bound is optional."""
    low, high = (lo if above is None else above), (hi if below is None else below)
    if high is not None:
        rule = f"lie in {'[' if above is None else '('}{low},{high}{']' if below is None else ')'}"
    elif type(default) is int:
        rule = f"be at least {low}"
    else:
        sign = ">=" if above is None else ">"
        rule = "be a finite number" + ("" if low is None else f" {sign} {low}")

    def holds(v) -> bool:
        return (-math.inf < v < math.inf and (lo is None or lo <= v) and (hi is None or v <= hi)
                and (above is None or above < v) and (below is None or v < below))

    return dataclasses.field(default=default, metadata={"bounds": (holds, rule)})


def check_bounds(cfg) -> None:
    """ValueError("<field> must <rule>") for the first field out of its range."""
    for f in dataclasses.fields(cfg):
        holds, rule = f.metadata.get("bounds", (None, None))
        if holds is not None and not holds(getattr(cfg, f.name)):
            raise ValueError(f"{f.name} must {rule}")
