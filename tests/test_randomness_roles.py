"""One sampler per randomness role: every random draw in ``src/dosp`` is a
method call on a generator inside one of the program's samplers.  A second
copy of a draw elsewhere (for instance a Monte-Carlo check with its own
activity law) fails here."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "dosp")

DRAWS = {
    "random", "binomial", "poisson", "choice", "integers", "uniform", "normal",
    "standard_normal", "exponential", "permutation", "shuffle",
}

SAMPLERS = {
    ("network", "sample_activity"),
    ("network", "sample_obs_noise"),
    ("optimizer", "sample_step_index"),
    ("optimizer", "initialize_states"),  # the "init" role
    ("core", "PerturbationSpec.sample"),
    ("objectives", "PowerControlModel.sample_env"),
    ("objectives", "QuadraticModel.sample_env"),
    ("estimator", "sample_reception"),
    # the constant-estimation action draws
    ("harness", "constants_sample"),
}


def _is_generator(node) -> bool:
    """``rng``, ``rng_...`` or ``rngs[...]``."""
    if isinstance(node, ast.Name):
        return node.id.startswith("rng")
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "rngs")


def _draw_sites(path):
    """(qualified function name, line) of every generator draw in ``path``."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in DRAWS and _is_generator(node.func.value)):
            sites.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read(), filename=path), ())
    return sites


def test_every_draw_sits_in_a_sampler():
    stray = []
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        for func, line in _draw_sites(path):
            found.add((module, func))
            if (module, func) not in SAMPLERS:
                stray.append(f"{module}.py:{line} in {func or '<module>'}")
    assert not stray, "random draws outside the samplers: " + ", ".join(stray)
    # a sampler that lost its draws (renamed, moved) must leave this list too
    assert found == SAMPLERS


def test_receiver_filter_ignores_non_generators(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(rng, rngs, bounds):\n"
        "    bounds.uniform(3, 0, 1)\n"
        "    rng.random(2)\n"
        "    rngs['noise'].normal()\n"
    )
    assert _draw_sites(path) == [("f", 3), ("f", 4)]
