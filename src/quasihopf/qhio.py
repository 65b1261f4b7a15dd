"""File formats for modules, centre objects and right modules.

All rationals are strings "p" or "p/q" in lowest terms; all matrices are
flat arrays.  Action tensors are indexed (basis element, row, column);
coactions and right actions are stored column-major (the images of the
source basis vectors, one after another), matching the convention that a
column is the image of a basis vector.
"""

from __future__ import annotations

import json

from .linalg import Matrix, rat_str
from .qha import QuasiHopfAlgebra, json_dim, json_name, json_rats
from .repcat import HModule
from .center import CenterObject, _h_leg_blocks
from .mod_a import AModule
from .algebra_a import AlgebraA


def module_from_obj(h: QuasiHopfAlgebra, obj: dict, label: str = "") -> HModule:
    try:
        d, name = json_dim(obj), json_name(obj)
        flat = json_rats(obj, "action", h.dim * d * d)
        action = [Matrix.from_flat(d, d, flat[i * d * d:(i + 1) * d * d])
                  for i in range(h.dim)]
        return HModule(h, d, action, label=label or name)
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
    coaction = Matrix.from_flat(d, n * d, json_rats(obj, "coaction", d * n * d)).transpose()
    return CenterObject(base, _h_leg_blocks(coaction, n), label=label)


def center_to_obj(m: CenterObject) -> dict:
    out = module_to_obj(m.base)
    coaction_t = Matrix.hstack([b.transpose() for b in m.blocks])  # d x (n d)
    out["coaction"] = [rat_str(c) for c in coaction_t.to_flat()]
    return out


def amodule_from_obj(a: AlgebraA, obj: dict, label: str = "") -> AModule:
    center = center_from_obj(a.h, obj, label=label)
    d, n = center.dim, a.h.dim
    mu = Matrix.from_flat(d * n, d, json_rats(obj, "mu", d * n * d)).transpose()
    return AModule(a, center, mu, label=label)


def morphism_from_obj(ctx, obj: dict):
    """A named morphism: object expressions for the endpoints, a flat matrix.

    The linearity check happens in Context.add_morphism.
    """
    from .dsl import Elaborator, parse
    from .repcat import HLinearMap
    if not (isinstance(obj, dict) and isinstance(obj.get("source"), str)
            and isinstance(obj.get("target"), str)):
        raise ValueError("morphism entry needs source/target expressions and a matrix")
    el = Elaborator(ctx)
    src = el.resolve_module(parse(obj["source"]))
    dst = el.resolve_module(parse(obj["target"]))
    flat = json_rats(obj, "matrix", src.dim * dst.dim)
    return HLinearMap(src, dst, Matrix.from_flat(dst.dim, src.dim, flat))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
