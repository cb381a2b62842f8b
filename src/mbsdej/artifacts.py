"""The two artifact formats: every file mbsdej writes goes through here.

CSV cells are ``g``-formatted to 17 significant digits, which round-trips
floats and prints integer-valued indices as ``str(int)`` does; lines end in
``\\n``.  JSON is indented by 2 with sorted keys, and strict: non-finite
floats are written as ``null``.  Both are byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

CHUNK_PATHS = 1024   # paths per row block; bounds the memory a writer holds


def write_csv(path, header, blocks) -> None:
    """Header line, then each 2-D block of rows, formatted in one operation."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def _strict(obj):
    """``obj`` as JSON text reads back, with ``null`` for every non-finite
    float: tuples become lists and keys strings."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else json.dumps(k): _strict(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True)


def path_step_rows(n_steps: int, n_paths: int, read):
    """Row blocks (path, step, *columns) of CHUNK_PATHS paths each, path-major;
    ``read(rows)`` gives the columns on the paths of the slice ``rows``, each
    (paths, s[, c]) with s <= n_steps, and steps past s read 0."""
    for p in range(0, n_paths, CHUNK_PATHS):
        cells = [np.atleast_3d(c) for c in read(slice(p, p + CHUNK_PATHS))]
        index = np.meshgrid(np.arange(p, p + len(cells[0])), np.arange(n_steps),
                            indexing="ij")
        block = np.dstack([*index, *(np.pad(c, ((0, 0), (0, n_steps - c.shape[1]),
                                                (0, 0))) for c in cells)])
        yield block.reshape(-1, block.shape[2])
