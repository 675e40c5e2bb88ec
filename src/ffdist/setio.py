"""Point-set text files.

Format: first line "q s n", then n lines of s space-separated integers
in [0, q).  Duplicate points are rejected, as are coordinates out of
range; parse failures carry the offending line number.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .distance import PointSet, check_indexable, sorted_point_set
from .errors import ConfigError, DuplicatePoint, ParseError


def read_pointset(path) -> PointSet:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"{path}:1: header must be 'q s n'")
    try:
        q, s, n = (int(v) for v in head)
    except ValueError:
        raise ParseError(f"{path}:1: header must be three integers") from None
    try:
        check_indexable(q, s)
    except ConfigError as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    if n < 1:
        raise ParseError(f"{path}:1: need n >= 1")
    if len(lines) < n + 1:
        raise ParseError(f"{path}: expected {n} point lines, found {len(lines) - 1}")

    pts = np.empty((n, s), dtype=np.int64)
    for k in range(n):
        lineno = k + 2
        fields = lines[k + 1].split()
        if len(fields) != s:
            raise ParseError(f"{path}:{lineno}: expected {s} coordinates")
        try:
            row = [int(v) for v in fields]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer coordinate") from None
        for v in row:
            if not 0 <= v < q:
                raise ParseError(f"{path}:{lineno}: coordinate {v} outside [0, {q})")
        pts[k] = row
    tail = [t for t in lines[n + 1:] if t.strip()]
    if tail:
        raise ParseError(f"{path}:{n + 2}: trailing content after {n} points")

    try:
        return sorted_point_set(q, s, np.ravel_multi_index(pts.T, (q,) * s))
    except DuplicatePoint as exc:
        raise DuplicatePoint(f"{path}:{exc.row + 2}: duplicate point") from None


def write_pointset(E: PointSet, path) -> None:
    out = [f"{E.q} {E.s} {E.size}"]
    out.extend(" ".join(str(int(c)) for c in p) for p in E.points)
    Path(path).write_text("\n".join(out) + "\n")
