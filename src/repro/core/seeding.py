"""Collision-proof derivation of per-run seeds from structured keys.

Seeds all over the campaign layer are derived by hashing a tuple of key
parts (operator, area, location, run index, ...).  A naive
``"|".join(str(p) for p in parts)`` encoding is not injective: any part
containing the delimiter collides with a shifted split — e.g.
``("A1-P1|0",)`` and ``("A1-P1", 0)`` encode to the same string — which
silently reuses run seeds and retry jitter across distinct runs.

:func:`encode_key_parts` therefore escapes the delimiter (and the
escape character) inside each part before joining, making the encoding
injective on the parts' string forms while staying *byte-identical* to
the legacy encoding for parts that contain neither ``|`` nor ``\\`` —
so every seed derived from ordinary operator/area/location names is
unchanged.

:func:`scratch_rng` serves one-shot seeded draws (a shadowing lattice
node, an execution-time re-draw, a run's fading series) from one legacy
generator per thread, reseeded per call, instead of building a new
``RandomState`` each time.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

__all__ = ["encode_key_parts", "scratch_rng", "stable_seed"]

#: Joins the escaped parts; escaped inside parts, so splits are unambiguous.
_DELIMITER = "|"
_ESCAPE = "\\"


def encode_key_parts(*parts: object) -> str:
    """Injective string encoding of a key tuple (delimiter-escape based)."""
    return _DELIMITER.join(
        str(part).replace(_ESCAPE, _ESCAPE + _ESCAPE)
                 .replace(_DELIMITER, _ESCAPE + _DELIMITER)
        for part in parts)


def stable_seed(*parts: object) -> int:
    """Deterministic 32-bit seed from a key tuple (collision-proof)."""
    return zlib.crc32(encode_key_parts(*parts).encode("utf-8"))


_scratch = threading.local()


def scratch_rng(*parts: object) -> np.random.RandomState:
    """This thread's scratch generator, reseeded with ``stable_seed(*parts)``.

    It draws exactly what a new ``np.random.RandomState(stable_seed(*parts))``
    would (reseeding also drops the cached second Gaussian of a pair), for
    a fraction of the cost of building one.  Every caller in the thread
    shares it, so it is valid only until the next call in the same
    thread: take the draws at once, never keep the generator, and never
    hand it to another thread.
    """
    rng = getattr(_scratch, "rng", None)
    if rng is None:
        rng = _scratch.rng = np.random.RandomState()
    rng.seed(stable_seed(*parts))
    return rng
