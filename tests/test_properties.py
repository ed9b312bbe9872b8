"""Property tests: configs drawn from the kind tables, random valid instances."""
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bwklab.core import InstanceParams
from bwklab.environments import (
    AdversarialMatrixSpec,
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    UniformOn,
)
from bwklab.harness import (
    ARMS,
    DISTRIBUTIONS,
    ENVIRONMENTS,
    INT,
    NUMBER,
    POLICIES,
    REQUIRED,
    STR,
    PolicyConfig,
    parse_config,
    resolved_config_dict,
    run_episode,
)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
BAD_NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(), JUNK)
GOOD_NUMBERS = st.one_of(st.floats(0.0, 1.0), st.integers(0, 3))
GOOD_BUDGETS = st.lists(st.floats(1.0, 1e4), min_size=1, max_size=3, unique=True).map(sorted)


def typed(good, bad, dirty):
    """``good`` values; in a dirty document ill-typed ones are mixed in."""
    return st.one_of(good, bad) if dirty else good


def tagged(tag, table, dirty):
    """Objects naming an entry of ``table``, with its fields drawn by codec."""

    @st.composite
    def draw_doc(draw):
        name = draw(typed(st.sampled_from(list(table)), st.text(max_size=3), dirty))
        doc = {tag: name}
        for f in table[name].fields if name in table else ():
            if f.default is REQUIRED or draw(st.booleans()):
                doc[f.key] = draw(values(f.codec, dirty))
        if dirty and draw(st.booleans()):
            doc["bogus"] = 1
        return doc

    return draw_doc()


def values(codec, dirty):
    if codec is INT:
        return typed(st.integers(0, 3), st.one_of(st.floats(-2.0, 6.0), JUNK), dirty)
    if codec is NUMBER:
        return typed(GOOD_NUMBERS, BAD_NUMBERS, dirty)
    if codec is STR:
        return typed(st.text(max_size=4), JUNK, dirty)
    if codec is ARMS:
        dist = st.deferred(lambda: tagged("type", DISTRIBUTIONS, dirty))
        arm = st.fixed_dictionaries({"reward": dist, "cost": dist})
        return typed(st.lists(arm, min_size=1, max_size=3), JUNK, dirty)
    pair = st.lists(GOOD_NUMBERS, min_size=2, max_size=2)  # level_span
    return typed(pair, st.lists(BAD_NUMBERS, max_size=3), dirty)


@st.composite
def config_docs(draw):
    dirty = draw(st.booleans())
    doc = {
        "policy": draw(tagged("name", POLICIES, dirty)),
        "environment": draw(tagged("kind", ENVIRONMENTS, dirty)),
        "budgets": draw(typed(GOOD_BUDGETS, st.lists(BAD_NUMBERS, max_size=3), dirty)),
        "replications": draw(typed(st.integers(1, 3), st.one_of(st.floats(-2.0, 6.0), JUNK), dirty)),
        "base_seed": draw(typed(st.integers(), JUNK, dirty)),
    }
    if draw(st.booleans()):
        doc["output"] = draw(typed(st.text(max_size=5), JUNK, dirty))
    return doc


@given(config_docs())
@settings(max_examples=150, deadline=None)
def test_config_round_trips_or_is_rejected(doc):
    try:
        config = parse_config(doc)
    except ValueError:
        return
    echoed = json.loads(json.dumps(resolved_config_dict(config), allow_nan=False))
    assert parse_config(echoed) == config


def intervals(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted)


def distributions(lo, hi):
    return st.one_of(
        st.floats(lo, hi).map(PointMass),
        intervals(lo, hi).map(lambda iv: UniformOn(*iv)),
        st.builds(lambda p, iv: ScaledBernoulli(p, iv[1], iv[0]), st.floats(0.0, 1.0), intervals(lo, hi)),
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_random_valid_instances_stay_within_budget(data):
    draw = data.draw
    k = draw(st.integers(1, 4))
    cost_min = draw(st.floats(0.05, 1.0))
    cost_max = draw(st.floats(cost_min, 1.0))
    budget = draw(st.floats(0.5, 20.0))
    params = InstanceParams(k, budget, cost_min, cost_max)
    if draw(st.booleans()):
        spec = StochasticEnvSpec(
            params,
            tuple(draw(distributions(0.0, 1.0)) for _ in range(k)),
            tuple(draw(distributions(cost_min, cost_max)) for _ in range(k)),
        )
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32)))
        shape = (math.ceil(budget / cost_min), k)
        costs = np.clip(cost_min + gen.random(shape) * (cost_max - cost_min), cost_min, cost_max)
        spec = AdversarialMatrixSpec(params, gen.random(shape), costs)
    name = draw(st.sampled_from(sorted(POLICIES)))
    if name == "exp3pp_bwk" and budget < k * cost_max:
        name = "exp3bwk"  # the initial sweep would not be affordable
    policy = PolicyConfig(name, {"arm": draw(st.integers(0, k - 1))} if name == "fixed_arm" else {})
    trace = run_episode(policy, spec, budget, draw(st.integers(0, 1000)), 1)
    assert math.isfinite(trace.total_cost) and trace.total_cost <= budget
    assert math.isfinite(trace.total_reward)
