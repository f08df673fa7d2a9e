"""Reading config files: libyaml when PyYAML has it, the pure-Python loader
otherwise, and an input error that names the file and the key for a file
that is not a model.

Every test runs under both loaders: ``pure`` takes ``yaml.CSafeLoader`` away,
as on a PyYAML built without libyaml.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from rsjd import config
from rsjd.cli import run
from rsjd.config import load_model_config

from test_config_cli import DRIFT_ONLY_YAML, FULL_YAML
from test_simulate import JUMP_YAML

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "drift-only": DRIFT_ONLY_YAML,
    "full": FULL_YAML,
    **{f"jump-p{p}": JUMP_YAML.format(exponent=p) for p in (1.5, 2.0, 2.5)},
    "builtin": "model:\n  builtin: example52\n  delta: 0.75\n",
    **{f"perfbench/{p.name}": p.read_text()
       for p in sorted((ROOT / "perfbench" / "models").glob("*.yaml"))},
}


@pytest.fixture(params=["libyaml", "pure"])
def loader(request, monkeypatch):
    """The loader ``load_model_config`` is expected to use; ``pure`` removes
    ``yaml.CSafeLoader``.  Every ``yaml.load`` call records its loader."""
    if request.param == "libyaml" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader")
    used = []
    inner = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return inner(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    want = yaml.SafeLoader if request.param == "pure" else yaml.CSafeLoader
    yield want, used


@pytest.mark.parametrize("name", list(CONFIGS))
def test_both_loaders_read_the_same_mapping(name, tmp_path, loader):
    want, used = loader
    p = tmp_path / "m.yaml"
    p.write_text(CONFIGS[name])
    raw = config._read_config(p)
    assert used == [want]
    # repr also tells 1 from 1.0 and "1" from 1
    assert repr(raw) == repr(yaml.load(CONFIGS[name], Loader=yaml.SafeLoader))


def test_perfbench_models_are_covered():
    assert any(name.startswith("perfbench/") for name in CONFIGS)


def test_model_built_under_either_loader(tmp_path, loader):
    want, used = loader
    p = tmp_path / "m.yaml"
    p.write_text(FULL_YAML)
    spec = load_model_config(p)
    assert used == [want]
    assert (spec.name, spec.d, spec.regime_tol, spec.ellipticity_floor) == \
        ("custom-switching", 1, 1e-9, 1.0)
    x, k = np.array([[0.5], [-2.0]]), np.array([1, 3])
    assert spec.drift(x, k).tolist() == [[-0.25], [2.0 / 18.0]]


MALFORMED = {
    # (file text, what the message must name)
    "syntax": ("model:\n  dimension: 1\n  drift: \"-x\"\n  sigma: [1\n", "not valid YAML"),
    "bad-expression": (DRIFT_ONLY_YAML.replace('"0.0 * x[..., 0]"', '"1+"'),
                       "'model.sigma': invalid expression '1\\+'"),
    "missing-sigma": (DRIFT_ONLY_YAML.replace('  sigma: "0.0 * x[..., 0]"\n', ""),
                      "missing key 'model.sigma'"),
    "missing-dimension": (DRIFT_ONLY_YAML.replace("  dimension: 1\n", ""),
                          "missing key 'model.dimension'"),
    "number-expression": (DRIFT_ONLY_YAML.replace('"-x"', "3"),
                          "'model.drift': expression must be a string"),
    "missing-tail-ratio": (FULL_YAML.replace("    tail_ratio: 0.33333333333333333\n", ""),
                           "missing key 'model.rates.tail_ratio'"),
    "bad-jump-coeff": (FULL_YAML.replace('"u * x / (sqrt(2.0) * k[..., None])"', '"u *"'),
                       "'model.jump.coeff': invalid expression"),
    "unknown-function": (DRIFT_ONLY_YAML.replace('"0.0 * x[..., 0]"', '"foo(x)"'),
                         "'model.sigma': unknown name foo in 'foo\\(x\\)'"),
    "unknown-variable": (FULL_YAML.replace("l*norm2(x)", "l*norm2(y)"),
                         "'model.rates.expr': unknown name y in"),
    "unknown-attribute": (DRIFT_ONLY_YAML.replace('"-x"', '"np.foo(x)"'),
                          "'model.drift': unknown attribute np.foo in 'np.foo\\(x\\)'"),
    "unknown-submodule-attribute": (
        FULL_YAML.replace('"u * x / (sqrt(2.0) * k[..., None])"', '"u * np.linalg.foo(x)"'),
        "'model.jump.coeff': unknown attribute np.linalg.foo in"),
    "model-not-a-mapping": ("model: 3\n", "'model' must be a mapping"),
    "rates-not-a-mapping": (DRIFT_ONLY_YAML + "  rates: 3\n", "'model.rates' must be a mapping"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_is_an_input_error(case, tmp_path, loader, capsys):
    text, names = MALFORMED[case]
    p = tmp_path / "bad.yaml"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"model config {p}: .*{names}"):
        load_model_config(p)
    assert run(["validate", "--model", str(p), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: model config ") and str(p) in err
    assert not (tmp_path / "validate.json").exists()


def test_names_bound_in_the_expression(tmp_path):
    # only the names an expression reads without binding them must exist
    p = tmp_path / "m.yaml"
    p.write_text(DRIFT_ONLY_YAML.replace('"-x"', '"(lambda y: -y)(x) + [z for z in [0.0]][0]"'))
    spec = load_model_config(p)
    assert spec.drift(np.array([[2.0]]), np.array([1])).tolist() == [[-2.0]]


def test_attribute_chains_that_resolve(tmp_path):
    # module chains are resolved at load time; attributes of arguments and of
    # non-module values are left to evaluation
    p = tmp_path / "m.yaml"
    p.write_text(DRIFT_ONLY_YAML.replace(
        '"-x"', '"-x * np.linalg.norm(x, axis=-1)[..., None] + 0.0 * x.real + np.pi.real"'))
    spec = load_model_config(p)
    assert spec.drift(np.array([[2.0]]), np.array([1])).tolist() == [[np.pi - 4.0]]


@pytest.mark.parametrize("drift, coeff", [("x", "x"), ("x[...]", "u"), ("x + 0.0", "u * x"),
                                           ("0.0 * x[..., 0, None]", "u[..., 0, None]"),
                                           ("1.0", "0.5 * abs(u[..., 0, None]) * x")])
def test_coefficients_never_share_memory(drift, coeff, tmp_path):
    # a coefficient's result is returned as is only when it is a new array of
    # the full shape; an argument, a view of one, or a broadcast is copied
    p = tmp_path / "m.yaml"
    p.write_text(FULL_YAML.replace('"-x/(2*k[..., None]**2)"', f'"{drift}"')
                 .replace('"u * x / (sqrt(2.0) * k[..., None])"', f'"{coeff}"'))
    spec = load_model_config(p)
    x = np.array([[0.5], [-2.0]])
    k = np.array([1, 3])
    u = np.array([[[0.25]], [[-0.5]]])
    for out, args in ((spec.drift(x, k), (x, k)),
                      (spec.jump_coeff(x[:, None], k[:, None], u), (x, k, u))):
        assert out.flags.writeable and out.flags.owndata
        assert not any(np.shares_memory(out, a) for a in args)
    assert spec.jump_coeff(x[:, None], k[:, None], u).shape == (2, 1, 1)


def test_malformed_json_names_the_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"model": {"dimension": 1}})[:-2])
    with pytest.raises(ValueError, match=f"model config {p}: "):
        load_model_config(p)
