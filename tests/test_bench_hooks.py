"""The benchmark's end-to-end hooks must keep resolving.

``perfbench/tracer.py`` wraps ``E2E_HOOKS`` to find where set-up ends and the
slot loop begins.  A hook whose target is gone is reported as absent and the
run goes on, so set-up time would fold into ``us_per_slot`` unnoticed; this
test makes such a rename fail instead.
"""

import dataclasses
import importlib.util
import inspect
import os
import sys
from collections import Counter

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("hook", tracer.E2E_HOOKS, ids=lambda hook: hook.name)
def test_end_to_end_hook_resolves(hook):
    spans = tracer.Tracer()
    try:
        assert spans.install([hook]) == []
    finally:
        spans.uninstall()


# per-layer hook targets already gone; a later benchmark change re-points them
RETIRED_LAYER_HOOKS = {"optimizer.ideal_gradient_slot", "analysis.averaged_steps_grid",
                       "analysis.binomial_weights"}


def test_layer_hooks_resolve():
    # a refactor that drops a per-layer hook target would zero its figures unnoticed
    spans = tracer.Tracer()
    try:
        assert set(spans.install(tracer.LAYER_HOOKS)) <= RETIRED_LAYER_HOOKS
    finally:
        spans.uninstall()


def test_step_index_counter_reads_live_third():
    # the tracer's index counter reads the live entries as the third positional argument
    from dosp.optimizer import sample_step_index

    assert list(inspect.signature(sample_step_index).parameters)[2] == "live"


def test_rows_counter_reads_actions_second_and_samples_fourth():
    # the tracer's Monte-Carlo row counter reads actions.shape[0] * n_samples
    # from these positions; a moved parameter would zero the rows figure
    from dosp.harness import eval_F_batch

    params = list(inspect.signature(eval_F_batch).parameters)
    assert params[1] == "actions" and params[3] == "n_samples"


@pytest.mark.parametrize("algorithm", ["dosp_s", "ideal_gradient"])
def test_block_draws_call_the_hooked_step_methods(algorithm):
    # perfbench's core.StepSizeSchedule and sample_step_index rows time these
    # calls; a block that inlined their formulas would read "not called"
    from dosp import harness, optimizer
    from dosp.core import role_streams

    from reference_configs import quadratic_config

    cfg = quadratic_config(horizon=40, replications=3, algorithm=algorithm, baseline_step="beta")
    targets = ("StepSizeSchedule.beta", "StepSizeSchedule.gamma", "sample_step_index")
    hooks = [dataclasses.replace(hook, name=hook.target) for hook in tracer.LAYER_HOOKS
             if hook.target in targets]
    rngs = role_streams(cfg.seed)
    states = optimizer.initialize_states(cfg.bounds, cfg.schedule, cfg.perturbation,
                                         cfg.network, cfg.replications, rngs)
    spans = tracer.Tracer()
    try:
        assert spans.install(hooks) == []
        learner = algorithm == "dosp_s"
        steps = (dict(schedule=cfg.schedule, pert=cfg.perturbation, sigma_eta=cfg.sigma_eta)
                 if learner else dict(step_fn=harness.baseline_step_fn(cfg)))
        optimizer._advance(states, 1, 8, harness.build_model(cfg), cfg.network, rngs,
                           cfg.bounds, **steps)
    finally:
        spans.uninstall()
    calls = Counter(span[tracer.NAME] for span in spans.spans)
    assert calls == {"StepSizeSchedule.beta": 1, "sample_step_index": 1,
                     **({"StepSizeSchedule.gamma": 1} if learner else {})}
