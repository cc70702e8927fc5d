"""The delta kernels before they stopped widening each operand.

:func:`ef_residual_reference`, :func:`reconstruct_reference` and
:func:`advance_accumulator_reference` are ``repro.fl.delta``'s
``ef_residual``, ``reconstruct`` and ``advance_accumulator`` as they stood
when every float operand was copied to float64 first.  The tests hold the
kernels to them bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


def ef_residual_reference(state: dict, reference: dict,
                          acc: "dict | None") -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, arr in state.items():
        ref = reference.get(name)
        if ref is None or ref.shape != arr.shape:
            raise ValueError(f"reference state does not match the update: "
                             f"tensor {name!r} missing or reshaped")
        if arr.dtype.kind == "f":
            res = arr.astype(np.float64) - ref.astype(np.float64)
            if acc is not None and name in acc:
                res = res + acc[name]
            out[name] = res.astype(arr.dtype)
        else:
            out[name] = np.subtract(arr, ref.astype(arr.dtype, copy=False))
    return out


def reconstruct_reference(reference: dict,
                          residual: dict) -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, res in residual.items():
        ref = reference.get(name)
        if ref is None or ref.shape != res.shape:
            raise ValueError(f"decoded residual does not match the reference: "
                             f"tensor {name!r} missing or reshaped")
        if res.dtype.kind == "f":
            out[name] = (ref.astype(np.float64)
                         + res.astype(np.float64)).astype(res.dtype)
        else:
            out[name] = np.add(ref.astype(res.dtype, copy=False), res)
    return out


def advance_accumulator_reference(state: dict, recon: dict,
                                  acc: "dict | None") -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, arr in state.items():
        if arr.dtype.kind != "f":
            continue
        err = arr.astype(np.float64) - recon[name].astype(np.float64)
        if acc is not None and name in acc:
            err = err + acc[name]
        out[name] = err
    return out
