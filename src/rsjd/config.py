"""Model resolution: built-ins by name, or user models from structured config.

A model reference is either

* ``example51`` / ``example52`` / ``example52:<delta>`` -- built-ins, or
* a path to a YAML/JSON file with a ``model:`` mapping.

Config schema (see docs/cli.md for a worked example)::

    model:
      name: my-model            # optional label
      builtin: example52        # shortcut; exclusive with the fields below
      delta: 1.0                #   (builtin parameter)
      dimension: 1
      drift: "-x/(2*k[..., None]**2)"   # numpy expression in x ((...,d) array), k
      sigma: "cbrt(x[..., 0])**2 + 1"   # scalar multiple of the identity
      jump:                     # optional; power-law family du/|u|^p on 0<|u|<1
        family: power_law
        exponent: 2.0
        coeff: "u * x / k[..., None]"   # expression in x, k, u
        epsilon: 0.05
      rates:                    # optional; zero-rate model when omitted
        expr: "k*exp(-(l+k)*log(3.0))/(1+l*norm2(x))"
        tail_coeff: "0.5*k*3.0**(-k)"   # tail bound = tail_coeff(k) * ratio**L
        tail_ratio: 0.3333333333333333
      ellipticity_floor: 1.0    # optional declared constants
      growth_constant: 4.0
      regime_tol: 1.0e-9        # optional truncation tolerance default

Expressions are evaluated with numpy in a restricted namespace; they must
broadcast over a leading batch axis (the built-ins are the reference for the
conventions).  This is a research tool: configs are trusted input.
"""

from __future__ import annotations

import ast
import json
import math
import types
from pathlib import Path

import numpy as np

from ._linalg import row_norm, sum_last
from .examples import example51, example52
from .model import JumpMeasureSpec, ModelSpec, RateMatrixSpec

__all__ = ["resolve_model", "load_model_config", "BUILTINS"]

BUILTINS = ("example51", "example52")


def _namespace():
    ns = {name: getattr(np, name) for name in (
        "abs", "cos", "sin", "tan", "exp", "log", "sqrt", "cbrt", "tanh",
        "arctan", "sign", "minimum", "maximum", "pi", "e", "where")}
    ns["np"] = np
    ns["norm"] = row_norm
    ns["norm2"] = lambda x: sum_last(np.asarray(x, dtype=float) ** 2)
    return ns


def _compile(expr: str, args: tuple):
    """``expr`` as a function of ``args``; ``ValueError`` when it is not a
    Python expression string, reads a name that is neither an argument nor
    in the namespace, or reads an attribute that a namespace module lacks
    (``np.foo``, ``np.linalg.foo``)."""
    if not isinstance(expr, str):
        raise ValueError(f"expression must be a string, got {expr!r}")
    try:
        tree = ast.parse(expr, "<model-config>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"invalid expression {expr!r}: {exc.msg}") from None
    base = _namespace()
    nodes = list(ast.walk(tree))
    # names the expression binds itself: lambda, comprehension and := targets
    bound = {n.arg for n in nodes if isinstance(n, ast.arg)}
    bound |= {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    unknown = {n.id for n in nodes if isinstance(n, ast.Name)} - bound - base.keys() - set(args)
    if unknown:
        raise ValueError(f"unknown name {', '.join(sorted(unknown))} in {expr!r}; "
                         f"arguments: {', '.join(args)}")
    for node in nodes:
        if isinstance(node, ast.Attribute):
            _check_attribute(node, base, bound | set(args), expr)
    code = compile(tree, "<model-config>", "eval")

    def fn(*vals):
        local = dict(base)
        local.update(zip(args, vals))
        return eval(code, {"__builtins__": {}}, local)

    return fn


def _check_attribute(node: ast.Attribute, base: dict, local: set, expr: str) -> None:
    """Resolve the attribute chain ``node`` from its root name while each link
    is a module of the namespace; ``ValueError`` names a missing link.  A
    chain on an argument or on a non-module value is left to run time."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id in local or node.id not in base:
        return
    obj, path = base[node.id], node.id
    for attr in reversed(chain):
        if not isinstance(obj, types.ModuleType):
            return
        if not hasattr(obj, attr):
            raise ValueError(f"unknown attribute {path}.{attr} in {expr!r}")
        obj, path = getattr(obj, attr), f"{path}.{attr}"


def _power_law_measure(exponent: float, epsilon: float) -> JumpMeasureSpec:
    """1-d mark measure du/|u|^p on 0 < |u| < 1 (p > 1 so every eps-restriction
    has finite mass while the full measure may be infinite)."""
    p = float(exponent)
    if p <= 1.0:
        raise ValueError("power-law exponent must exceed 1")

    def density(u):
        return np.abs(np.asarray(u, dtype=float)[..., 0]) ** -p

    def rate(eps):
        if abs(p - 1.0) < 1e-12:
            return 2.0 * math.log(1.0 / eps)
        return 2.0 * (eps ** (1.0 - p) - 1.0) / (p - 1.0)

    def quantile(eps, U):
        # inverse CDF of the normalized |u|^-p tail on (eps, 1); row 1 picks
        # the sign
        a = eps ** (1.0 - p)
        mag = (a - U[0] * (a - 1.0)) ** (1.0 / (1.0 - p))
        sign = np.where(U[1] < 0.5, -1.0, 1.0)
        return (sign * mag)[:, None]

    return JumpMeasureSpec(
        mark_dim=1,
        density=density,
        epsilon=float(epsilon),
        large_jump_rate=rate,
        large_jump_quantile=quantile,
    )


def _read_config(path) -> dict:
    """The mapping of a YAML/JSON config file.  YAML goes through libyaml's
    ``CSafeLoader`` when PyYAML was built with it, else ``SafeLoader``; both
    build the same mapping, the C one several times faster."""
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        return json.loads(text)
    import yaml

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ValueError(f"not valid YAML: {exc}") from None


def _field(m: dict, key: str, where: str = "model"):
    """``m[key]``; ``ValueError`` naming ``where.key`` when it is missing."""
    try:
        return m[key]
    except KeyError:
        raise ValueError(f"missing key '{where}.{key}'") from None


def _expr(m: dict, key: str, args: tuple, where: str = "model"):
    """The compiled expression ``m[key]``; ``ValueError`` names the key."""
    expr = _field(m, key, where)
    try:
        return _compile(expr, args)
    except ValueError as exc:
        raise ValueError(f"'{where}.{key}': {exc}") from None


def load_model_config(path) -> ModelSpec:
    """Build a ModelSpec from a YAML/JSON config file.  A file that cannot be
    read as a model raises ``ValueError`` naming the file and, where one is
    at fault, the key."""
    try:
        return _build_model(_read_config(path))
    except ValueError as exc:
        raise ValueError(f"model config {path}: {exc}") from None


def _build_model(raw) -> ModelSpec:
    if not isinstance(raw, dict) or "model" not in raw:
        raise ValueError("config must contain a top-level 'model' mapping")
    m = raw["model"]
    if not isinstance(m, dict):
        raise ValueError(f"'model' must be a mapping, got {m!r}")
    for key in ("jump", "rates"):
        if m.get(key) and not isinstance(m[key], dict):
            raise ValueError(f"'model.{key}' must be a mapping, got {m[key]!r}")

    if "builtin" in m:
        name = m["builtin"]
        if name == "example51":
            return example51()
        if name == "example52":
            return example52(float(m.get("delta", 1.0)))
        raise ValueError(f"unknown builtin '{name}'; available: {', '.join(BUILTINS)}")

    d = int(_field(m, "dimension"))
    drift_fn = _expr(m, "drift", ("x", "k"))
    sigma_scalar = _expr(m, "sigma", ("x", "k"))

    def drift(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        return _fresh(drift_fn(x, k), x.shape, (x, k))

    def sigma(x, k):
        x = np.asarray(x, dtype=float)
        k = np.asarray(k, dtype=float)
        s = np.asarray(sigma_scalar(x, k), dtype=float)
        return s[..., None, None] * np.eye(d)

    jump_coeff = None
    measure = None
    if m.get("jump"):
        j = m["jump"]
        if j.get("family", "power_law") != "power_law":
            raise ValueError("only the power_law jump family is supported in configs")
        measure = _power_law_measure(_field(j, "exponent", "model.jump"),
                                     j.get("epsilon", 0.05))
        coeff_fn = _expr(j, "coeff", ("x", "k", "u"), "model.jump")

        def jump_coeff(x, k, u):
            x = np.asarray(x, dtype=float)
            k = np.asarray(k, dtype=float)
            u = np.asarray(u, dtype=float)
            shape = np.broadcast_shapes(x.shape[:-1], k.shape, u.shape[:-1]) + (d,)
            return _fresh(coeff_fn(x, k, u), shape, (x, k, u))

    if m.get("rates"):
        r = m["rates"]
        rate_fn = _expr(r, "expr", ("x", "k", "l"), "model.rates")
        tail_coeff = _expr(r, "tail_coeff", ("k",), "model.rates")
        ratio = float(_field(r, "tail_ratio", "model.rates"))
        if not (0.0 < ratio < 1.0):
            raise ValueError("tail_ratio must lie in (0, 1)")

        def rate(x, k, l):
            return np.asarray(rate_fn(np.asarray(x, dtype=float),
                                      np.asarray(k, dtype=float),
                                      np.asarray(l, dtype=float)), dtype=float)

        def tail_bound(k, L):
            return float(tail_coeff(float(k))) * ratio ** L

        rates = RateMatrixSpec(rate=rate, tail_bound=tail_bound)
    else:
        def zero_rate(x, k, l):
            shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(k), np.asarray(l)).shape
            return np.zeros(shape)

        rates = RateMatrixSpec(rate=zero_rate, tail_bound=lambda k, L: 0.0)

    return ModelSpec(
        d=d,
        drift=drift,
        sigma=sigma,
        rates=rates,
        jump_coeff=jump_coeff,
        jump_measure=measure,
        ellipticity_floor=_optional_float(m, "ellipticity_floor"),
        growth_constant=_optional_float(m, "growth_constant"),
        regime_tol=float(m.get("regime_tol", 1e-9)),
        name=m.get("name", "config-model"),
    )


def _fresh(value, shape: tuple, args: tuple) -> np.ndarray:
    """An expression's ``value`` as a float array of ``shape`` that no caller
    shares: the value itself when it already is a new array of that shape
    (the usual result of numpy arithmetic), else a broadcast copy.  The
    mark-quadrature fallback calls a jump coefficient on every step, where
    the copy of an (n, m, d) result costs as much as the arithmetic."""
    out = np.asarray(value, dtype=float)
    if out.shape == shape and out.flags.owndata and all(out is not a for a in args):
        return out
    return np.broadcast_to(out, shape).copy()


def _optional_float(m: dict, key: str) -> float | None:
    """``float(m[key])``, None when the key is absent; ``ValueError`` names
    the key when the value is not a number."""
    v = m.get(key)
    if v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {v!r}") from None


def resolve_model(ref: str) -> ModelSpec:
    """Resolve 'example51', 'example52[:delta]' or a config file path."""
    if ref == "example51":
        return example51()
    if ref == "example52":
        return example52()
    if ref.startswith("example52:"):
        return example52(float(ref.split(":", 1)[1]))
    p = Path(ref)
    if p.exists():
        return load_model_config(p)
    raise ValueError(
        f"unknown model '{ref}'; built-ins: example51, example52[:delta], "
        "or pass a config file path")
