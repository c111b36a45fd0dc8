"""Every limit declared in hindpo (a numeric range, a [0, 1] score bound or
a choice) is refused at its edge, in the one message form, and every value
just inside it is accepted.

A limit is declared in one of two places: as ``fileio.limited`` metadata on
a dataclass field, which ``check_kinds`` reads (and ``check_object``, for a
config file), or among the limits of a ``fileio.check_value(name, kind,
value, *limits)`` call in a function body, which this file finds by reading
the package source and evaluating the limits in their module, so a shared
constant such as ``fileio.SCORE`` is read as the module reads it. A limit
added to either is tested here without a new test. A dataclass with limited
fields that ``BUILDERS`` cannot build, or a ``check_value`` call in a
function that ``CALLERS`` cannot call yet, fails
``test_every_declaring_function_has_a_caller``.
"""

import ast
import importlib
import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import hindpo
from hindpo.cli import _EVAL_KEYS, _TRAIN_KEYS, RunConfig, main
from hindpo.corpora import toy_corpus
from hindpo.dataforge import ACTUALITY_ROLES, ArticleRecord, PreferencePair, bucketize, embed_actuality, score_and_rank
from hindpo.fileio import KINDS, check_seed
from hindpo.losses import LossConfig, LossExample
from hindpo.policy import EOS, BigramPolicy, Vocabulary, check_decoding
from hindpo.textmetrics import final_score, rouge_n
from hindpo.trainer import TrainConfig, gradcheck

MODULES = [importlib.import_module("hindpo." + path.stem) for path in sorted(Path(hindpo.__file__).parent.glob("*.py"))]

BASE_RECORD = toy_corpus()[0]
BASE_PAIR = score_and_rank(BASE_RECORD)[0]


def _validated(base):
    """A builder of copies of the valid ``base`` with some fields changed, each checked by ``validate()``."""

    def build(**changes):
        part = replace(base, **changes)
        part.validate()
        return part

    return build


# How to build each dataclass that declares limits, from keyword fields.
BUILDERS = {
    LossConfig: LossConfig,
    TrainConfig: TrainConfig,
    RunConfig: RunConfig,
    ArticleRecord: lambda **changes: replace(BASE_RECORD, **changes),
    PreferencePair: _validated(BASE_PAIR),
}

LIMITED_CLASSES = {
    value
    for module in MODULES
    for value in vars(module).values()
    if isinstance(value, type) and is_dataclass(value) and any("limits" in f.metadata for f in fields(value))
}

FIELD_LIMITS = [
    (cls, f.name, f.type, limit) for cls in BUILDERS for f in fields(cls) for limit in f.metadata.get("limits", ())
]
NULLABLE_FIELDS = [
    (cls, f.name) for cls in BUILDERS for f in fields(cls) if f.type in KINDS and f.type.endswith(" | None")
]


def _name(node):
    """The name a ``check_value`` call refuses by; a ``"...[%d]" % i``
    template names entry 0, where its caller puts the value."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return ast.literal_eval(node.left) % 0
    return ast.literal_eval(node)


def _limits(module, nodes):
    """The limits of a ``check_value`` call, each argument evaluated in ``module``."""
    found = []
    for node in nodes:
        starred = isinstance(node, ast.Starred)
        value = eval(compile(ast.Expression(node.value if starred else node), module.__file__, "eval"), vars(module))
        found.extend(value if starred else [value])
    return found


def _argument_limits():
    """(module, function, name, kind, limit) of every limit of every
    ``check_value`` call in the package, read from its source."""
    found = set()
    for module in MODULES:
        for function in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            for call in ast.walk(function):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_value":
                    name, kind = _name(call.args[0]), ast.literal_eval(call.args[1])
                    for limit in _limits(module, call.args[3:]):
                        found.add((module.__name__.split(".")[-1], function.name, name, kind, limit))
    return sorted(found, key=repr)


ARGUMENT_LIMITS = _argument_limits()


def _policy():
    return BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]))


def _cli_gradcheck(name, value, tmp_path):
    # --traceback raises the error instead of printing it; a check that runs returns 0 or 1.
    return main(["gradcheck", "--out", str(tmp_path / "out"), "--mode", "dpo", "--traceback", "%s=%r" % (name, value)])


def _actuality_file(tmp_path):
    return tmp_path / "actuality.txt"


def _embed_actuality(name, value, tmp_path):
    path = _actuality_file(tmp_path)
    scores = {role: 0.5 for role in ACTUALITY_ROLES}
    scores["pref"] = value
    path.write_text("".join("%s %s %r\n" % (BASE_RECORD.id, role, score) for role, score in scores.items()))
    embed_actuality([BASE_RECORD], path)


# How to call each function that declares an argument limit, with the
# argument ``name`` set to ``value`` and every other argument valid.
CALLERS = {
    ("fileio", "check_seed"): lambda name, value, tmp_path: check_seed(value),
    ("policy", "check_decoding"): lambda name, value, tmp_path: check_decoding(**{"max_len": 1, "temperature": 1.0, name: value}),
    ("policy", "new"): lambda name, value, tmp_path: BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]), **{name: value}),
    ("trainer", "gradcheck"): lambda name, value, tmp_path: gradcheck(
        _policy(), [LossExample(["a"], ["a", EOS], ["b", EOS])], LossConfig(mode="dpo"), **{name: value}
    ),
    ("textmetrics", "rouge_n"): lambda name, value, tmp_path: rouge_n(["a"], ["a"], **{name: value}),
    ("textmetrics", "final_score"): lambda name, value, tmp_path: final_score(
        **{"semantic": 0.5, "rouge_l_f1": 0.5, "meteor_score": 0.5, name: value}
    ),
    ("dataforge", "__post_init__"): lambda name, value, tmp_path: replace(
        BASE_RECORD, actuality_candidates=[value, 0.5, 0.5]
    ),
    ("dataforge", "embed_actuality"): _embed_actuality,
    ("dataforge", "bucketize"): lambda name, value, tmp_path: bucketize(score_and_rank(BASE_RECORD), **{name: value}),
    ("cli", "cmd_gradcheck"): _cli_gradcheck,
}

# What each function's message names before the argument, where it names more.
PREFIXES = {("dataforge", "embed_actuality"): lambda tmp_path: "%s:1: " % _actuality_file(tmp_path)}


def edge_values(kind, limit):
    """(the value just outside the limit that is refused, the values just
    inside it that are accepted), of the limit's kind: for a choice, a
    choice in capitals, then every choice."""
    op, bound = limit
    if op == "one of":
        assert bound[0].upper() not in bound
        return bound[0].upper(), bound
    if kind == "int":
        below, above = bound - 1, bound + 1
    else:
        bound = float(bound)
        below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
    refused, accepted = {">": (bound, above), ">=": (below, bound), "<=": (above, bound)}[op]
    return refused, (accepted,)


def message(name, limit, value, prefix=""):
    return "^%s$" % re.escape("%s%s must be %s %s, got %r" % (prefix, name, *limit, value))


def test_every_declaring_function_has_a_caller():
    # The scans find what they should, so a test below is not missing for want of a match.
    assert {(cls.__name__, name) for cls, name, _, _ in FIELD_LIMITS} >= {
        ("LossConfig", "beta"),
        ("LossConfig", "mode"),
        ("RunConfig", "noise_std"),
        ("RunConfig", "order"),
        ("ArticleRecord", "label"),
        ("ArticleRecord", "actuality_preferred"),
        ("PreferencePair", "s_w"),
    }
    assert LIMITED_CLASSES == set(BUILDERS)
    assert {(module, function) for module, function, *_ in ARGUMENT_LIMITS} == set(CALLERS)


@pytest.mark.parametrize(
    "cls, name, kind, limit",
    FIELD_LIMITS,
    ids=["%s.%s" % (cls.__name__, name) for cls, name, _, _ in FIELD_LIMITS],
)
def test_field_range_refused_at_its_bound_and_accepted_inside(cls, name, kind, limit):
    refused, accepted = edge_values(kind, limit)
    with pytest.raises(ValueError, match=message(name, limit, refused)):
        BUILDERS[cls](**{name: refused})
    for value in accepted:
        assert getattr(BUILDERS[cls](**{name: value}), name) == value


@pytest.mark.parametrize(
    "cls, name", NULLABLE_FIELDS, ids=["%s.%s" % (cls.__name__, name) for cls, name in NULLABLE_FIELDS]
)
def test_nullable_field_accepts_none(cls, name):
    assert getattr(BUILDERS[cls](**{name: None}), name) is None


CONFIG_LIMITS = [
    (cls, f.name, f.type, limit)
    for cls in (RunConfig, LossConfig)
    for f in fields(cls)
    for limit in f.metadata.get("limits", ())
]


def _config_key(cls, name):
    """(section or None, key) of the config-file key that sets the field ``name`` of ``cls``."""
    if cls is LossConfig:
        return "loss", name
    if name in _TRAIN_KEYS:
        return "train", name
    if name.startswith("eval_"):
        return "eval", name[len("eval_") :]
    return None, name


@pytest.mark.parametrize(
    "cls, name, kind, limit", CONFIG_LIMITS, ids=["%s.%s" % (cls.__name__, name) for cls, name, _, _ in CONFIG_LIMITS]
)
def test_config_file_limit_refused_naming_section_and_key(tmp_path, cls, name, kind, limit):
    section, key = _config_key(cls, name)
    path = tmp_path / "config.json"

    def load(value):
        path.write_text(json.dumps({key: value} if section is None else {section: {key: value}}), encoding="utf-8")
        config = RunConfig.from_file(path)
        return getattr(config.loss if cls is LossConfig else config, name)

    refused, accepted = edge_values(kind, limit)
    where = "config %s %skey %r" % (path, "" if section is None else "section %r " % section, key)
    with pytest.raises(ValueError, match=message(where, limit, refused)):
        load(refused)
    for value in accepted:
        assert load(value) == value


@pytest.mark.parametrize(
    "module, function, name, kind, limit",
    ARGUMENT_LIMITS,
    ids=["%s.%s:%s" % (module, function, name) for module, function, name, _, _ in ARGUMENT_LIMITS],
)
def test_argument_range_refused_at_its_bound_and_accepted_inside(tmp_path, module, function, name, kind, limit):
    call = CALLERS[module, function]
    prefix = PREFIXES.get((module, function), lambda tmp_path: "")(tmp_path)
    refused, accepted = edge_values(kind, limit)
    with pytest.raises(ValueError, match=message(name, limit, refused, prefix)):
        call(name, refused, tmp_path)
    for value in accepted:
        call(name, value, tmp_path)  # raises nothing
