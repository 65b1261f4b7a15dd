"""File formats for modules, centre objects and right modules.

All rationals are strings "p" or "p/q" in lowest terms; all matrices are
flat arrays.  Action tensors are indexed (basis element, row, column);
coactions and right actions are stored column-major (the images of the
source basis vectors, one after another), matching the convention that a
column is the image of a basis vector.
"""

from __future__ import annotations

import json

from .linalg import Matrix, rat, rat_str
from .qha import QuasiHopfAlgebra
from .repcat import HModule
from .center import CenterObject
from .mod_a import AModule
from .algebra_a import AlgebraA


def module_from_obj(h: QuasiHopfAlgebra, obj: dict, label: str = "") -> HModule:
    try:
        d = int(obj["dim"])
        flat = obj["action"]
        if len(flat) != h.dim * d * d:
            raise ValueError(f"action must have {h.dim * d * d} entries, got {len(flat)}")
        action = []
        for i in range(h.dim):
            action.append(Matrix.from_flat(
                d, d, [rat(c) for c in flat[i * d * d:(i + 1) * d * d]]))
        return HModule(h, d, action, label=label or obj.get("name", ""))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed module data: {exc}") from exc


def module_to_obj(m: HModule) -> dict:
    flat = []
    for mat in m.action:
        flat.extend(rat_str(c) for c in mat.to_flat())
    return {"dim": m.dim, "action": flat}


def center_from_obj(h: QuasiHopfAlgebra, obj: dict, label: str = "") -> CenterObject:
    base = module_from_obj(h, obj, label=label)
    d, n = base.dim, h.dim
    flat = obj.get("coaction")
    if flat is None or len(flat) != d * n * d:
        raise ValueError(f"coaction must have {d * n * d} entries")
    cols = []
    for j in range(d):
        col = {}
        for k in range(n * d):
            c = rat(flat[j * n * d + k])
            if c:
                col[k] = c
        cols.append(col)
    return CenterObject(base, Matrix(n * d, d, cols), label=label)


def center_to_obj(m: CenterObject) -> dict:
    out = module_to_obj(m.base)
    d, n = m.dim, m.h.dim
    flat = []
    for j in range(d):
        col = m.coaction.col(j)
        flat.extend(rat_str(col.get(k, 0)) for k in range(n * d))
    out["coaction"] = flat
    return out


def amodule_from_obj(a: AlgebraA, obj: dict, label: str = "") -> AModule:
    center = center_from_obj(a.h, obj, label=label)
    d, n = center.dim, a.h.dim
    flat = obj.get("mu")
    if flat is None or len(flat) != d * n * d:
        raise ValueError(f"mu must have {d * n * d} entries")
    cols = []
    for j in range(d * n):
        col = {}
        for k in range(d):
            c = rat(flat[j * d + k])
            if c:
                col[k] = c
        cols.append(col)
    return AModule(a, center, Matrix(d, d * n, cols), label=label)


def amodule_to_obj(m: AModule) -> dict:
    out = center_to_obj(m.center)
    d, n = m.dim, m.a.h.dim
    flat = []
    for j in range(d * n):
        col = m.mu.col(j)
        flat.extend(rat_str(col.get(k, 0)) for k in range(d))
    out["mu"] = flat
    return out


def morphism_from_obj(ctx, obj: dict):
    """A named morphism: object expressions for the endpoints, a flat matrix.

    The linearity check happens in Context.add_morphism.
    """
    from .dsl import Elaborator, parse
    from .repcat import HLinearMap
    el = Elaborator(ctx)
    try:
        src = el.resolve_module(parse(obj["source"]))
        dst = el.resolve_module(parse(obj["target"]))
        flat = obj["matrix"]
    except KeyError as exc:
        raise ValueError(f"morphism entry needs source/target/matrix: {exc}") from exc
    if len(flat) != src.dim * dst.dim:
        raise ValueError(f"matrix must have {src.dim * dst.dim} entries")
    return HLinearMap(src, dst, Matrix.from_flat(dst.dim, src.dim,
                                                 [rat(c) for c in flat]))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
