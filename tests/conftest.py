"""Shared fixtures, model builders, and the acceptance summary hook.

The summary hook prints one PASS/FAIL line per acceptance criterion after
the run, aggregated over all tests named test_criterion_<k>_* in
test_acceptance.py, plus any informative notes those tests record.
"""
import dataclasses
import re

import numpy as np
import pytest

from mvmdp import (
    DeterministicPolicy,
    JointState,
    MdpModel,
    WindStorageSpec,
    action_values,
    build,
    build_abandonment,
    build_no_abandonment,
    decompose_action,
    sample_random_policy,
    state_index,
)

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_criterion_outcomes = {}
_criterion_notes = []


def record_note(text: str) -> None:
    """Attach an informative line to the end-of-run acceptance summary."""
    _criterion_notes.append(text)


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if m is None:
        return
    k = int(m.group(1))
    if report.when == "call":
        _criterion_outcomes.setdefault(k, []).append(report.passed)
    elif report.failed:
        _criterion_outcomes.setdefault(k, []).append(False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_criterion_outcomes):
        status = "PASS" if all(_criterion_outcomes[k]) else "FAIL"
        terminalreporter.write_line(f"CRITERION {k}: {status}")
    for note in _criterion_notes:
        terminalreporter.write_line(note)


def random_mdp(rng, max_states=6, max_actions=4, beta_range=(0.05, 2.0)):
    """Fully connected random model; dirichlet rows are almost surely
    strictly positive, so every policy induces an irreducible chain."""
    S = int(rng.integers(2, max_states + 1))
    A = int(rng.integers(2, max_actions + 1))
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    reward = rng.normal(0.0, 1.0, size=(S, A))
    beta = float(rng.uniform(*beta_range))
    feasible = tuple(tuple(range(A)) for _ in range(S))
    return MdpModel(
        num_states=S,
        num_actions=A,
        feasible=feasible,
        kernel=kernel,
        reward=reward,
        beta=beta,
    )


def restrict_feasible(rng, model):
    """The same model with a random nonempty feasible subset at each state."""
    A = model.num_actions
    feasible = tuple(
        tuple(rng.choice(A, size=int(rng.integers(1, A + 1)), replace=False))
        for _ in range(model.num_states)
    )
    return dataclasses.replace(model, feasible=feasible)


def model_policy_cases(models, seed, random_models=6, policies_per_model=4):
    """(model, policy) pairs for comparing vectorised code with loop
    references: the given models plus seeded random_mdp models, each also
    with random feasible subsets, at seeded random irreducible policies."""
    rng = np.random.default_rng(seed)
    models = list(models)
    for _ in range(random_models):
        m = random_mdp(rng)
        models += [m, restrict_feasible(rng, m)]
    for m in models:
        for _ in range(policies_per_model):
            yield m, sample_random_policy(m, rng)


def threshold_policy(spec):
    """Charge 1 MW when there is wind and room, discharge 1 MW in calm with
    charge left, otherwise hold: irreducible at every battery capacity."""
    values = action_values(spec)
    charge, hold, discharge = values.index(-1), values.index(0), values.index(1)
    B = spec.battery_capacity
    action = np.empty(spec.num_states, dtype=int)
    for w, wind in enumerate(spec.wind_states):
        for b in range(B + 1):
            if wind >= 1 and b < B:
                a = charge
            elif wind == 0 and b > 0:
                a = discharge
            else:
                a = hold
            action[state_index(spec, w, b)] = a
    return DeterministicPolicy(action)


def dense_wind_kernel(spec, model):
    """Per-pair reference of the wind model's kernel as a dense (S, A, S)
    array: each feasible decision moves the battery as `decompose_action`
    says and the wind by its own chain, kernel row by kernel row."""
    S, A = model.num_states, model.num_actions
    kernel = np.zeros((S, A, S))
    values = action_values(spec)
    B = spec.battery_capacity
    for i, acts in enumerate(model.feasible):
        state = JointState.from_flat(i, B)
        for a in acts:
            power, _ = decompose_action(spec, state, values[a])
            for w2 in range(len(spec.wind_states)):
                kernel[i, a, state_index(spec, w2, state.battery - power)] = spec.wind_kernel[state.wind, w2]
    return kernel


WIND_SIZES = [(b, s) for b in (5, 50, 200) for s in ("no-abandon", "abandon")]


@pytest.fixture(scope="module", params=WIND_SIZES, ids=lambda p: f"B{p[0]}-{p[1]}")
def wind_case(request):
    """(spec, model, dense reference kernel) of a wind model at B = 5, 50
    and 200 in both scenarios; one is alive at a time."""
    battery, scenario = request.param
    spec = WindStorageSpec(battery_capacity=battery, abandonment=scenario == "abandon")
    model = build(spec)
    return spec, model, dense_wind_kernel(spec, model)


def outcome(fn, *args, **kwargs):
    """fn's result, or the class name and message of the exception it
    raised, so that two implementations can be compared on failures too."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the class is part of what is compared
        return type(exc).__name__, str(exc)


def assert_reports_equal(got, want):
    """Every EvaluationReport field equal, arrays bit for bit."""
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def constant_mean_mdp(rng, num_states=3, num_actions=2):
    """All policies share the same long-run mean.

    Rewards have the form c + g0(i) - sum_j p^a(i, j) g0(j); the potential
    correction telescopes, leaving mean c under every stationary policy.
    """
    S, A = num_states, num_actions
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    g0 = rng.normal(0.0, 1.0, size=S)
    c = float(rng.uniform(0.0, 2.0))
    reward = c + g0[:, None] - kernel @ g0
    return MdpModel(
        num_states=S,
        num_actions=A,
        feasible=tuple(tuple(range(A)) for _ in range(S)),
        kernel=kernel,
        reward=reward,
        beta=float(rng.uniform(0.05, 2.0)),
    )


@pytest.fixture(scope="session")
def wind_spec():
    return WindStorageSpec(beta=0.1)


@pytest.fixture(scope="session")
def wind_model(wind_spec):
    return build_no_abandonment(wind_spec)


@pytest.fixture(scope="session")
def abandon_model_beta1():
    return build_abandonment(WindStorageSpec(beta=1.0, abandonment=True))


@pytest.fixture(scope="session")
def abandon_model_b20():
    """B=20 with abandonment at beta=1: seeded multi-start runs hit
    multichain iterates here."""
    return build_abandonment(WindStorageSpec(battery_capacity=20, beta=1.0, abandonment=True))


@pytest.fixture
def single_state_model():
    return MdpModel(
        num_states=1,
        num_actions=1,
        feasible=((0,),),
        kernel=np.ones((1, 1, 1)),
        reward=np.array([[3.0]]),
        beta=0.1,
    )


@pytest.fixture
def two_state_hand_model():
    """Both states jump to a fair coin; r = [1, 0] makes the potential
    exactly [0, -1] for any beta."""
    return MdpModel(
        num_states=2,
        num_actions=1,
        feasible=((0,), (0,)),
        kernel=np.array([[[0.5, 0.5]], [[0.5, 0.5]]]),
        reward=np.array([[1.0], [0.0]]),
        beta=0.1,
    )


@pytest.fixture
def frozen_battery_policy(wind_model):
    """Never moves the battery; the joint chain splits into one closed
    class per battery level."""
    zero_charge = 2
    return DeterministicPolicy(np.full(wind_model.num_states, zero_charge))
