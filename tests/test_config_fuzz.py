"""Config fuzz: a single-key mutation of a shipped config runs, or exits 2 or
3 with ``error.json``; it never ends in a traceback.

Every example pins ``h`` to 1/4 or 1/8 and ``T`` to a few steps, so a run
takes milliseconds.  A mutation then replaces one value anywhere in the
config (a section, a key, a list entry) by a value of the wrong type, an
out-of-range or non-finite number, or deletes it.  No value makes a run
long or large: none is a small positive spacing, and a ``T`` of 1e300 is
far past the step budget, so config load rejects it.  A run that exits 0
must write no NaN or Infinity into any JSON artifact.
"""

import copy
import functools
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from sphereflow.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASES = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}

BAD_VALUES = [None, True, False, "x", "auto", [], {}, [0.5], [[0.1, 0.2]],
              {"kind": "box"}, -1, 0, 0.5, 1, 2, 3, -0.25, 1e300, -1e300,
              float("nan"), float("inf"), float("-inf")]


def _few_steps(cfg: dict, h: float, steps: int) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["h"] = h
    dt = cfg["solver"].get("cfl", 0.9) * h * h / (2.0 * cfg["domain"]["d"])
    cfg["solver"]["T"] = (steps - 0.5) * dt
    return cfg


def _paths(node, prefix=()):
    """Every key path into the nested dicts and lists of a config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


@st.composite
def mutated_configs(draw):
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    cfg = _few_steps(base, draw(st.sampled_from([0.25, 0.125])),
                     draw(st.integers(min_value=1, max_value=4)))
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return cfg


def _with_value(cfg: dict, path: tuple, value) -> dict:
    functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
    return cfg


def _reject_constant(name: str):
    raise AssertionError(f"exit 0 with {name} in a JSON artifact")


@given(cfg=mutated_configs())
@example(cfg=_with_value(_few_steps(BASES["hedgehog_ball"], 0.125, 2),
                         ("diagnostics", "singular", "eps0"), float("nan")))
@example(cfg=_with_value(_few_steps(BASES["hedgehog_ball"], 0.125, 2),
                         ("solver", "T"), 1e300))
@example(cfg=_with_value(_few_steps(BASES["onesided_cap"], 0.25, 4),
                         ("diagnostics", "small_energy", "eps0"), 1e300))
@settings(max_examples=150, deadline=None)
def test_mutated_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        p, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        p.write_text(json.dumps(cfg))          # NaN / Infinity literals
        code = main(["run", "--config", str(p), "--out", str(out)])
        assert code in (0, 2, 3)
        assert (code == 0) == (out / "manifest.json").exists()
        assert (code != 0) == (out / "error.json").exists()
        if code == 0:
            for artifact in out.rglob("*.json"):
                json.loads(artifact.read_text(), parse_constant=_reject_constant)
