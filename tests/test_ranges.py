"""Every numeric range declared in hindpo is refused at its bound, in the
one message form, and accepted at the nearest value inside it.

A range is declared in one of two places: as ``fileio.ranged`` metadata on
a config field, which ``check_kinds`` reads, or as the literal (name, kind,
range) of a ``fileio.check_value`` call in a function body, which this file
finds by reading the package source. A range added to either is tested here
without a new test. A ``check_value`` call in a function that ``CALLERS``
cannot call yet fails ``test_every_declaring_function_has_a_caller``.
"""

import ast
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import hindpo
from hindpo.cli import RunConfig, main
from hindpo.evalharness import generate
from hindpo.fileio import check_seed
from hindpo.losses import LossConfig, LossExample
from hindpo.policy import EOS, BigramPolicy, Vocabulary, check_decoding
from hindpo.textmetrics import rouge_n
from hindpo.trainer import TrainConfig, gradcheck

FIELD_RANGES = [
    (cls, f.name, f.type, f.metadata["range"])
    for cls in (LossConfig, TrainConfig, RunConfig)
    for f in fields(cls)
    if "range" in f.metadata
]


def _argument_ranges():
    """(module, function, name, kind, range) of every ``check_value`` call
    in the package, read from its source."""
    found = set()
    for path in sorted(Path(hindpo.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            for call in ast.walk(function):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_value":
                    name, kind, limit = (ast.literal_eval(arg) for arg in call.args[:3])
                    found.add((path.stem, function.name, name, kind, limit))
    return sorted(found)


ARGUMENT_RANGES = _argument_ranges()


def _policy():
    return BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]))


def _cli_gradcheck(name, value, tmp_path):
    # --traceback raises the error instead of printing it; a check that runs returns 0 or 1.
    return main(["gradcheck", "--out", str(tmp_path / "out"), "--mode", "dpo", "--traceback", "%s=%r" % (name, value)])


# How to call each function that declares an argument range, with the
# argument ``name`` set to ``value`` and every other argument valid.
CALLERS = {
    ("fileio", "check_seed"): lambda name, value, tmp_path: check_seed(value),
    ("policy", "check_decoding"): lambda name, value, tmp_path: check_decoding(**{"max_len": 1, "temperature": 1.0, name: value}),
    ("policy", "new"): lambda name, value, tmp_path: BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]), **{name: value}),
    ("trainer", "gradcheck"): lambda name, value, tmp_path: gradcheck(
        _policy(), [LossExample(["a"], ["a", EOS], ["b", EOS])], LossConfig(mode="dpo"), **{name: value}
    ),
    ("evalharness", "generate"): lambda name, value, tmp_path: generate(_policy(), ["a"], **{name: value}),
    ("textmetrics", "rouge_n"): lambda name, value, tmp_path: rouge_n(["a"], ["a"], **{name: value}),
    ("cli", "cmd_gradcheck"): _cli_gradcheck,
}


def edge_values(kind, limit):
    """(the value at the range's bound that is refused, the nearest value
    that is accepted), of the range's kind."""
    op, bound = limit
    if kind == "int":
        return (bound, bound + 1) if op == ">" else (bound - 1, bound)
    bound = float(bound)
    return (bound, math.nextafter(bound, math.inf)) if op == ">" else (math.nextafter(bound, -math.inf), bound)


def message(name, limit, value):
    return "^%s$" % re.escape("%s must be %s %s, got %r" % (name, *limit, value))


def test_every_declaring_function_has_a_caller():
    # The scans find what they should, so a test below is not missing for want of a match.
    assert {(cls.__name__, name) for cls, name, _, _ in FIELD_RANGES} >= {("LossConfig", "beta"), ("RunConfig", "noise_std")}
    assert {(module, function) for module, function, *_ in ARGUMENT_RANGES} == set(CALLERS)


@pytest.mark.parametrize(
    "cls, name, kind, limit", FIELD_RANGES, ids=["%s.%s" % (cls.__name__, name) for cls, name, _, _ in FIELD_RANGES]
)
def test_field_range_refused_at_its_bound_and_accepted_inside(cls, name, kind, limit):
    refused, accepted = edge_values(kind, limit)
    with pytest.raises(ValueError, match=message(name, limit, refused)):
        cls(**{name: refused})
    assert getattr(cls(**{name: accepted}), name) == accepted


@pytest.mark.parametrize(
    "module, function, name, kind, limit",
    ARGUMENT_RANGES,
    ids=["%s.%s:%s" % (module, function, name) for module, function, name, _, _ in ARGUMENT_RANGES],
)
def test_argument_range_refused_at_its_bound_and_accepted_inside(tmp_path, module, function, name, kind, limit):
    call = CALLERS[module, function]
    refused, accepted = edge_values(kind, limit)
    with pytest.raises(ValueError, match=message(name, limit, refused)):
        call(name, refused, tmp_path)
    call(name, accepted, tmp_path)  # raises nothing
