"""Faults injected into the train loop at one step, named by its place.

A run whose epoch holds a non-finite value trains again from the start,
checking every step, so a step is reached once per attempt: a fault is
named by its (stage, epoch, batch), each from 1, and applied every time
training reaches that step, not at the n-th ``loss_steps`` call.
"""

from __future__ import annotations

import numpy as np

from hindpo import trainer


class StepFault:
    """Wraps ``trainer.encode_runs``, ``trainer.plan_runs`` and
    ``trainer.loss_steps`` so that the step at ``at`` = (stage name,
    epoch, batch) returns ``corrupt(plan, b, (visited, gradient))``;
    with ``at`` None no step is corrupted, and the steps are only counted.

    A stage is told by its encoded examples' tokens, named in
    first-encoded order by ``stages``; each encoding starts its epoch
    count again. ``hits`` counts the corrupted steps, ``calls`` every
    step; with ``record``, ``tables`` holds the live table each step was
    given and ``seen`` a copy of it as the step began."""

    def __init__(self, monkeypatch, stages, at, corrupt, record=False):
        self.hits = self.calls = 0
        self.tables, self.seen = [], []
        self.stage = self.epoch = None
        encodings = []
        real_encode, real_plan, real_step = trainer.encode_runs, trainer.plan_runs, trainer.loss_steps

        def encode(examples, *args):
            key = [(e.prompt, e.preferred, e.rejected) for e in examples]
            if key not in encodings:
                encodings.append(key)
            self.stage, self.epoch = stages[encodings.index(key)], 0
            return real_encode(examples, *args)

        def plan(*args):
            self.epoch += 1
            return real_plan(*args)

        def step(plan, b, logits):
            self.calls += 1
            if record:
                self.tables.append(logits)
                self.seen.append(logits.copy())
            result = real_step(plan, b, logits)
            if (self.stage, self.epoch, b + 1) == at:
                self.hits += 1
                result = corrupt(plan, b, result)
            return result

        monkeypatch.setattr(trainer, "encode_runs", encode)
        monkeypatch.setattr(trainer, "plan_runs", plan)
        monkeypatch.setattr(trainer, "loss_steps", step)


def set_value(field, value, run=None):
    """A corruption that sets one of a step's values to ``value``, for
    every run or only run ``run``: its ``gradient``, or what its
    ``loss``, ``margin`` or ``grad_norm`` is taken from in the plan (u,
    r_w - r_l and its rows' squared-gradient sums)."""

    def corrupt(plan, b, result):
        # Each run's gradient rows are the k-th of K equal blocks of the batch's.
        count, gradient = len(plan.beta), result[1]
        squares = plan.row_squares[plan.row_bounds[b] : plan.row_bounds[b + 1]]
        pairs = slice(b * plan.batch_size, (b + 1) * plan.batch_size)
        for k in range(count) if run is None else [run]:
            if field == "gradient":
                np.split(gradient, count)[k][:] = value
            elif field == "grad_norm":
                np.split(squares, count)[k][:] = value
            else:
                {"loss": plan.u, "margin": plan.diff}[field][k, pairs] = value
        return result

    return corrupt
