"""Model container, policies, induced chains, structure checks, and I/O."""
import copy
import dataclasses
import itertools
import json
import operator
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import dense_wind_kernel, model_policy_cases, random_mdp, restrict_feasible, threshold_policy
import mvmdp.evaluation
import mvmdp.model
from mvmdp import (
    DeterministicPolicy,
    EvaluationReport,
    FeasibilityError,
    GradientConfig,
    MdpModel,
    MixedPolicy,
    ModelIOError,
    RandomizedPolicy,
    ValidationError,
    WindStorageSpec,
    action_values,
    build,
    check_ergodicity,
    check_necessary_condition,
    cli,
    closed_class_count,
    evaluate,
    gradient_solver,
    improvement_vector,
    induced_chain,
    induced_chain_mixed,
    induced_chain_randomized,
    is_irreducible,
    load_model,
    load_policy,
    model_from_dict,
    model_to_dict,
    multi_start,
    policy_iteration,
    sample_random_policy,
    save_model,
    save_policy,
    simulate_path,
    stationary_distribution,
)
from mvmdp.sensitivity import _kernel_times, _score_table
from mvmdp.solvers import _propose_epsilon


def small_model(**overrides):
    kw = dict(
        num_states=2,
        num_actions=2,
        feasible=((0, 1), (0, 1)),
        kernel=np.array(
            [[[0.2, 0.8], [0.7, 0.3]], [[0.5, 0.5], [0.1, 0.9]]]
        ),
        reward=np.array([[1.0, 2.0], [0.5, -1.0]]),
        beta=0.5,
    )
    kw.update(overrides)
    return MdpModel(**kw)


class TestModelValidation:
    def test_valid_model_builds(self):
        m = small_model()
        assert m.num_states == 2
        assert m.kernel.dtype == np.float64

    def test_arrays_are_frozen(self):
        m = small_model()
        with pytest.raises(ValueError):
            m.kernel[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            m.reward[0, 0] = 0.0

    def test_bad_row_sum_names_the_pair(self):
        k = np.array([[[0.2, 0.7], [0.7, 0.3]], [[0.5, 0.5], [0.1, 0.9]]])
        with pytest.raises(ValidationError, match=r"row 0,0 sums to"):
            small_model(kernel=k)

    def test_negative_kernel_entry(self):
        k = np.array([[[-0.1, 1.1], [0.7, 0.3]], [[0.5, 0.5], [0.1, 0.9]]])
        with pytest.raises(ValidationError, match="negative"):
            small_model(kernel=k)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValidationError, match="beta"):
            small_model(beta=0.0)
        with pytest.raises(ValidationError, match="beta"):
            small_model(beta=-1.0)

    def test_beta_must_be_finite(self):
        """An infinite beta would be written as `Infinity`, which is not JSON."""
        with pytest.raises(ValidationError, match="beta must be finite, got inf"):
            small_model(beta=np.inf)
        with pytest.raises(ValidationError, match=r"beta must be > 0, got nan"):
            small_model(beta=np.nan)

    def test_nan_kernel_row_rejected(self):
        """A NaN entry makes the row sum NaN, which is not within the
        tolerance of 1 (it used to fail only later, in evaluate)."""
        k = np.array([[[np.nan, 1.0], [0.7, 0.3]], [[0.5, 0.5], [0.1, 0.9]]])
        with pytest.raises(ValidationError, match=r"row 0,0 sums to nan, expected 1"):
            small_model(kernel=k)
        data = model_to_dict(small_model())
        data["kernel"]["1,1"] = [float("nan"), 1.0]
        with pytest.raises(ValidationError, match=r"row 1,1 sums to nan"):
            model_from_dict(data)

    def test_infeasible_rows_are_not_read(self):
        k = np.array([[[0.2, 0.8], [np.nan, -1.0]], [[0.5, 0.5], [0.1, 0.9]]])
        r = np.array([[1.0, np.inf], [0.5, -1.0]])
        m = small_model(feasible=((0,), (0, 1)), kernel=k, reward=r)
        assert m.feasible_mask().tolist() == [[True, False], [True, True]]

    def test_empty_feasible_set_rejected(self):
        with pytest.raises(ValidationError, match="no feasible action"):
            small_model(feasible=((0, 1), ()))

    def test_out_of_range_action_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            small_model(feasible=((0, 2), (0, 1)))

    def test_duplicate_action_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            small_model(feasible=((0, 0), (0, 1)))

    @pytest.mark.parametrize("action", [1.5, 1.0, "1", np.float64(1.0)])
    def test_non_integer_action_rejected(self, action):
        """An action is not truncated to an integer: (0, 1.5) is not (0, 1)."""
        with pytest.raises(ValidationError, match="integer actions"):
            small_model(feasible=((0, action), (0, 1)))
        assert small_model(feasible=((0, np.int64(1)), (0, 1))).feasible == ((0, 1), (0, 1))

    @pytest.mark.parametrize("feasible, error", [
        ([[0], [0, "a"], 5], "'str' object cannot be interpreted as an integer"),
        ([[0], 5, [0, "a"]], "'int' object is not iterable"),
    ])
    def test_first_state_that_is_not_an_integer_list_is_named(self, feasible, error):
        with pytest.raises(ValidationError, match=f"^feasible must hold lists of integer actions: {error}$"):
            MdpModel(3, 2, feasible, np.full((3, 2, 3), 1 / 3), np.zeros((3, 2)), 0.1)

    def test_feasible_lists_are_sorted_python_ints(self):
        m = small_model(feasible=(np.array([1, 0]), [np.int64(1)]))
        assert m.feasible == ((0, 1), (1,))
        assert all(type(a) is int for acts in m.feasible for a in acts)

    def test_nonfinite_reward_rejected(self):
        r = np.array([[1.0, np.nan], [0.5, -1.0]])
        with pytest.raises(ValidationError, match="finite"):
            small_model(reward=r)

    def test_shape_mismatches(self):
        with pytest.raises(ValidationError, match="kernel shape"):
            small_model(kernel=np.ones((2, 2)))
        with pytest.raises(ValidationError, match="reward shape"):
            small_model(reward=np.ones(2))

    def test_feasible_mask_and_policy_count(self):
        m = small_model(feasible=((0,), (0, 1)))
        mask = m.feasible_mask()
        assert mask.tolist() == [[True, False], [True, True]]
        assert m.num_policies() == 2

    def test_feasible_mask_is_read_only(self):
        m = small_model(feasible=((0,), (0, 1)))
        with pytest.raises(ValueError):
            m.feasible_mask()[0, 1] = True
        assert m.feasible_mask() is m.feasible_mask()


class TestPolicies:
    def test_deterministic_validate(self):
        m = small_model(feasible=((0,), (0, 1)))
        DeterministicPolicy(np.array([0, 1])).validate_for(m)
        with pytest.raises(FeasibilityError, match="infeasible at state 0"):
            DeterministicPolicy(np.array([1, 1])).validate_for(m)
        with pytest.raises(ValidationError):
            DeterministicPolicy(np.array([0])).validate_for(m)

    @pytest.mark.parametrize("action", [[0.7, 1.2], [0.0, 1.0], ["0", "1"], [0, None]])
    def test_deterministic_action_table_must_hold_integers(self, action):
        """Entries are not truncated: [0.7, 1.2] is not the policy [0, 1]."""
        with pytest.raises(ValidationError, match="must hold integers"):
            DeterministicPolicy(action)
        assert DeterministicPolicy(np.array([0, 1], dtype=np.uint8)) == DeterministicPolicy([0, 1])

    @pytest.mark.parametrize("make, table, message", [
        (DeterministicPolicy, [[0, 1]], "policy action table must be 1-dimensional"),
        (RandomizedPolicy, [0.5, 0.5], "theta must be 2-dimensional (states x actions)"),
    ], ids=["2-D action table", "1-D theta"])
    def test_table_of_the_wrong_dimension_rejected(self, make, table, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(np.array(table))

    def test_deterministic_validate_out_of_range_actions(self):
        m = small_model(feasible=((0,), (0, 1)))
        with pytest.raises(FeasibilityError, match="action -1 is infeasible at state 1"):
            DeterministicPolicy(np.array([0, -1])).validate_for(m)
        with pytest.raises(FeasibilityError, match="action 2 is infeasible at state 0"):
            DeterministicPolicy(np.array([2, 5])).validate_for(m)
        with pytest.raises(FeasibilityError, match="action 7 is infeasible at state 1"):
            DeterministicPolicy(np.array([0, 7])).validate_for(m)

    def test_deterministic_eq_hash(self):
        a = DeterministicPolicy(np.array([0, 1]))
        b = DeterministicPolicy(np.array([0, 1]))
        c = DeterministicPolicy(np.array([1, 1]))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_each_policy_hashes_its_table_once(self, monkeypatch):
        tables = []

        def counting_hash(value):
            tables.append(value)
            return hash(value)

        monkeypatch.setattr(mvmdp.model, "hash", counting_hash, raising=False)
        a = DeterministicPolicy(np.array([0, 1, 2]))
        b = DeterministicPolicy(np.array([0, 1, 2]))
        assert tables == [a.action.tobytes()] * 2
        memo = {a: 1}
        for _ in range(5):
            assert memo[b] == 1 and hash(a) == hash(b)
        assert len(tables) == 2

    def test_copies_hash_their_own_table(self):
        a = DeterministicPolicy(np.array([0, 1, 2]))
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a.action.tobytes())
            assert not b.action.flags.writeable
        # bytes hash differently under another hash seed: an unpickled
        # policy takes its hash in the process that loads it
        code = "import pickle, sys; p = pickle.load(sys.stdin.buffer); print(hash(p) == hash(p.action.tobytes()))"
        src = os.path.dirname(os.path.dirname(mvmdp.model.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(a), capture_output=True, env=env, check=True
        )
        assert run.stdout.split() == [b"True"]

    def test_as_randomized_is_one_hot(self):
        m = small_model()
        d = DeterministicPolicy(np.array([1, 0]))
        theta = d.as_randomized(m).theta
        assert np.array_equal(theta, [[0.0, 1.0], [1.0, 0.0]])

    def test_randomized_validate(self):
        m = small_model(feasible=((0,), (0, 1)))
        RandomizedPolicy(np.array([[1.0, 0.0], [0.3, 0.7]])).validate_for(m)
        with pytest.raises(FeasibilityError):
            RandomizedPolicy(np.array([[0.9, 0.1], [0.3, 0.7]])).validate_for(m)
        with pytest.raises(ValidationError, match="sums to"):
            RandomizedPolicy(np.array([[0.9, 0.0], [0.3, 0.7]])).validate_for(m)
        with pytest.raises(ValidationError, match="negative"):
            RandomizedPolicy(np.array([[1.1, -0.1], [0.3, 0.7]])).validate_for(m)

    def test_randomized_validate_rejects_nan_and_inf(self, wind_model):
        mask = wind_model.feasible_mask()
        uniform = mask / mask.sum(axis=1, keepdims=True)
        RandomizedPolicy(uniform).validate_for(wind_model)
        nan_row = uniform.copy()
        nan_row[0, mask[0]] = np.nan
        with pytest.raises(ValidationError, match="theta row 0 sums to nan"):
            RandomizedPolicy(nan_row).validate_for(wind_model)
        inf_entry = uniform.copy()
        inf_entry[3, np.flatnonzero(mask[3])[0]] = np.inf
        with pytest.raises(ValidationError, match="theta row 3 sums to inf"):
            RandomizedPolicy(inf_entry).validate_for(wind_model)

    def test_mixed_delta_range(self):
        base = DeterministicPolicy(np.array([0, 0]))
        alt = DeterministicPolicy(np.array([1, 1]))
        MixedPolicy(base, alt, 0.25)
        with pytest.raises(ValidationError, match="delta"):
            MixedPolicy(base, alt, 1.5)
        with pytest.raises(ValidationError, match="delta"):
            MixedPolicy(base, alt, -0.1)


class TestInducedChains:
    def test_deterministic_rows_come_from_kernel(self):
        m = small_model()
        d = DeterministicPolicy(np.array([1, 0]))
        P, r = induced_chain(m, d)
        assert np.array_equal(P[0], m.kernel[0, 1])
        assert np.array_equal(P[1], m.kernel[1, 0])
        assert r.tolist() == [2.0, 0.5]

    def test_randomized_mixes_rows_and_moments(self):
        m = small_model()
        theta = RandomizedPolicy(np.array([[0.5, 0.5], [0.2, 0.8]]))
        P, r_mean, r_m2 = induced_chain_randomized(m, theta)
        assert np.allclose(P[0], 0.5 * m.kernel[0, 0] + 0.5 * m.kernel[0, 1])
        assert r_mean[0] == pytest.approx(1.5)
        assert r_m2[0] == pytest.approx(0.5 * 1.0 + 0.5 * 4.0)
        assert r_m2[1] == pytest.approx(0.2 * 0.25 + 0.8 * 1.0)

    def test_one_hot_randomized_matches_deterministic(self):
        m = small_model()
        d = DeterministicPolicy(np.array([0, 1]))
        Pd, rd = induced_chain(m, d)
        Pt, rm, _ = induced_chain_randomized(m, d.as_randomized(m))
        assert np.allclose(Pd, Pt)
        assert np.allclose(rd, rm)

    def test_mixed_endpoints(self):
        m = small_model()
        base = DeterministicPolicy(np.array([0, 0]))
        alt = DeterministicPolicy(np.array([1, 1]))
        P0, r0 = induced_chain_mixed(m, MixedPolicy(base, alt, 0.0))
        P1, r1 = induced_chain_mixed(m, MixedPolicy(base, alt, 1.0))
        Pb, rb = induced_chain(m, base)
        Pa, ra = induced_chain(m, alt)
        assert np.allclose(P0, Pb) and np.allclose(r0, rb)
        assert np.allclose(P1, Pa) and np.allclose(r1, ra)

    def test_mixed_interpolates_linearly(self):
        m = small_model()
        base = DeterministicPolicy(np.array([0, 0]))
        alt = DeterministicPolicy(np.array([1, 1]))
        Pm, rm = induced_chain_mixed(m, MixedPolicy(base, alt, 0.3))
        Pb, rb = induced_chain(m, base)
        Pa, ra = induced_chain(m, alt)
        assert np.allclose(Pm, Pb + 0.3 * (Pa - Pb))
        assert np.allclose(rm, rb + 0.3 * (ra - rb))
        # the same chain as the mixture's randomized policy
        Pt, rt, _ = induced_chain_randomized(m, MixedPolicy(base, alt, 0.3).as_randomized(m))
        assert np.allclose(Pt, Pm) and np.allclose(rt, rm)


class TestStructure:
    def test_closed_class_counts(self):
        assert closed_class_count(np.eye(3)) == 3
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert closed_class_count(cycle) == 1
        absorbing = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert closed_class_count(absorbing) == 1
        two_blocks = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
        assert closed_class_count(two_blocks) == 2

    def test_is_irreducible(self):
        assert is_irreducible(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not is_irreducible(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_check_ergodicity_enumerates_small_models(self):
        m = small_model()
        report = check_ergodicity(m)
        assert report.mode == "enumeration"
        assert report.policies_checked == 4
        assert report.all_irreducible

    def test_check_ergodicity_flags_violations(self):
        k = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        m = small_model(kernel=k)
        report = check_ergodicity(m)
        assert report.union_irreducible
        assert len(report.violations) == 2
        assert not report.all_irreducible
        assert all(p.action[0] == 0 for p in report.violations)

    def test_check_ergodicity_samples_large_models(self, wind_model):
        report = check_ergodicity(wind_model, sample_size=50, seed=0)
        assert report.mode == "sampling"
        assert report.policies_checked == 50
        assert report.union_irreducible

    def test_sample_random_policy_feasible_and_irreducible(self):
        m = small_model(feasible=((0,), (0, 1)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = sample_random_policy(m, rng)
            d.validate_for(m)
            P, _ = induced_chain(m, d)
            assert is_irreducible(P)

    def test_sample_random_policy_gives_up_when_impossible(self):
        m = small_model(
            kernel=np.stack([np.stack([np.eye(2)[i]] * 2) for i in range(2)])
        )
        with pytest.raises(ValidationError, match="no irreducible policy"):
            sample_random_policy(m, np.random.default_rng(0), max_tries=10)

    def test_sample_is_reproducible(self):
        m = small_model()
        a = sample_random_policy(m, np.random.default_rng(11))
        b = sample_random_policy(m, np.random.default_rng(11))
        assert a == b


def loop_closed_class_count(P):
    """Per-class reference: a class is closed when P has no mass from it to
    the rest."""
    n, labels = connected_components(csr_matrix(P > 0), connection="strong")
    count = 0
    for c in range(n):
        members = labels == c
        if P[np.ix_(members, ~members)].sum() == 0:
            count += 1
    return count


def loop_is_irreducible(P):
    n, _ = connected_components(csr_matrix(P > 0), connection="strong")
    return n == 1


def random_chain(rng):
    """Seeded stochastic matrix on a random sparse support; self-loops,
    several closed classes and transient states all occur."""
    S = int(rng.integers(1, 13))
    support = rng.random((S, S)) < rng.uniform(0.0, 0.5)
    support[np.arange(S), rng.integers(0, S, size=S)] = True
    P = np.where(support, rng.random((S, S)), 0.0)
    return P / P.sum(axis=1, keepdims=True)


def hand_chains():
    """S=1, self-loops only, two closed classes with a transient state
    between them, and a unichain whose state 0 is transient."""
    yield np.ones((1, 1))
    yield np.eye(4)
    yield np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.2, 0.3, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    yield np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])


class TestStructureLoopReference:
    """The edge-list checks reproduce the per-class reference exactly."""

    def test_random_chains(self):
        rng = np.random.default_rng(60)
        counts = []
        transient = 0
        for P in [*hand_chains(), *(random_chain(rng) for _ in range(400))]:
            want = loop_closed_class_count(P)
            assert closed_class_count(P) == want
            assert is_irreducible(P) == loop_is_irreducible(P)
            counts.append(want)
            transient += want == 1 and not loop_is_irreducible(P)
        assert {1, 2, 3} <= set(counts)
        assert transient > 0

    def test_model_chains(self, wind_model, abandon_model_beta1, frozen_battery_policy):
        """The irreducible chains of model_policy_cases; on the same models,
        unfiltered draws, which include reducible chains; and the frozen
        battery's one closed class per level."""
        rng = np.random.default_rng(61)
        reducible = 0
        cases = [(wind_model, frozen_battery_policy)]
        for m, d in model_policy_cases([wind_model, abandon_model_beta1], seed=61):
            cases.append((m, d))
            cases += [(m, sample_random_policy(m, rng, require_irreducible=False)) for _ in range(4)]
        for m, policy in cases:
            P, _ = induced_chain(m, policy)
            assert closed_class_count(P) == loop_closed_class_count(P)
            assert is_irreducible(P) == loop_is_irreducible(P)
            reducible += not loop_is_irreducible(P)
        assert reducible > 1


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 8).flatmap(
        lambda S: arrays(
            np.float64,
            (S, S),
            elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        )
    )
)
def test_structure_matches_loop_reference_on_nonnegative_matrices(P):
    assert closed_class_count(P) == loop_closed_class_count(P)
    assert is_irreducible(P) == loop_is_irreducible(P)


def loop_sample_random_policy(model, rng, require_irreducible=True, max_tries=1000):
    """Per-state reference: one rng.choice over each feasible set."""
    for _ in range(max_tries):
        action = np.array([rng.choice(np.asarray(acts)) for acts in model.feasible])
        d = DeterministicPolicy(action)
        if not require_irreducible:
            return d
        P, _ = induced_chain(model, d)
        if is_irreducible(P):
            return d
    raise ValidationError("no irreducible policy found")


class TestSampleLoopReference:
    """One vector draw per policy gives the per-state loop's actions and
    leaves the generator in the same state."""

    def test_draws_and_stream(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(62)
        models = [wind_model, abandon_model_beta1]
        for _ in range(8):
            m = random_mdp(rng, max_states=12, max_actions=6)
            models += [m, restrict_feasible(rng, m)]
        single = sum(sum(len(acts) == 1 for acts in m.feasible) for m in models)
        assert single > 0
        for k, m in enumerate(models):
            for require in (True, False):
                got_rng = np.random.default_rng([63, k])
                want_rng = np.random.default_rng([63, k])
                for _ in range(5):
                    got = sample_random_policy(m, got_rng, require_irreducible=require)
                    want = loop_sample_random_policy(m, want_rng, require_irreducible=require)
                    assert got == want
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def sparse_mdp(rng):
    """A random_mdp with random feasible subsets whose kernel keeps a random
    few entries of each row: several closed classes, transient states and
    self-loops all occur. Infeasible rows keep positive entries, which no
    structural check may read."""
    full = random_mdp(rng, max_states=9, max_actions=4)
    # the restricted model keeps no rows of infeasible pairs: take them from full
    m = restrict_feasible(rng, full)
    S = m.num_states
    keep = rng.random(full.kernel.shape) < rng.uniform(0.05, 0.6)
    keep[..., 0] |= ~keep.any(axis=2)
    kernel = np.where(keep, full.kernel, 0.0)
    kernel = kernel[..., rng.permutation(S)]
    return dataclasses.replace(m, kernel=kernel / kernel.sum(axis=2, keepdims=True))


def random_actions(rng, model):
    """A uniform feasible action table, drawn without the package."""
    return np.array([rng.choice(np.asarray(acts)) for acts in model.feasible])


def loop_check_ergodicity(model, sample_size=100, seed=0, enumeration_cap=10**6):
    """Gather-and-scan reference: the dense union chain, then one dense
    induced chain per policy."""
    union = model.kernel.sum(axis=1, where=model.feasible_mask()[:, :, None])
    union_ok = is_irreducible(union)
    if model.num_policies() <= enumeration_cap:
        mode = "enumeration"
        policies = [DeterministicPolicy(np.array(c)) for c in itertools.product(*model.feasible)]
    else:
        mode = "sampling"
        rng = np.random.default_rng(seed)
        policies = [loop_sample_random_policy(model, rng, False) for _ in range(sample_size)]
    violations = tuple(d for d in policies if not is_irreducible(induced_chain(model, d)[0]))
    return mvmdp.model.ErgodicityReport(mode, union_ok, violations, len(policies))


def wind_models():
    for battery in (5, 20, 50):
        for abandonment in (False, True):
            spec = WindStorageSpec(battery_capacity=battery, abandonment=abandonment)
            yield spec, build(spec)


class TestSuccessorTable:
    """The structural checks of a policy read the successor table and give
    the dense chain's verdicts."""

    def check_table(self, model):
        indptr, succ = model.successor_table()
        S, A = model.num_states, model.num_actions
        assert indptr.shape == (S * A + 1,) and not indptr.flags.writeable
        assert not succ.flags.writeable
        mask = model.feasible_mask()
        for i in range(S):
            for a in range(A):
                p = i * A + a
                want = np.flatnonzero(model.kernel[i, a] > 0) if mask[i, a] else []
                assert np.array_equal(succ[indptr[p]:indptr[p + 1]], want)

    def check_policy(self, model, action):
        """The gathered graph is the dense chain's, edge for edge, and both
        verdicts agree; returns (irreducible, closed classes)."""
        P, _ = induced_chain(model, DeterministicPolicy(action))
        got = mvmdp.model._policy_support(model, action)
        want = mvmdp.model._support(P)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        verdict = (mvmdp.model._irreducible(*got), mvmdp.model._closed_classes(*got))
        assert verdict == (is_irreducible(P), closed_class_count(P))
        return verdict

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_random_models(self, seed):
        rng = np.random.default_rng(seed)
        for m in (random_mdp(rng), sparse_mdp(rng)):
            self.check_table(m)
            for _ in range(4):
                self.check_policy(m, random_actions(rng, m))

    def test_random_models_reach_every_verdict(self):
        rng = np.random.default_rng(80)
        seen = set()
        for _ in range(200):
            m = sparse_mdp(rng)
            irreducible, closed = self.check_policy(m, random_actions(rng, m))
            seen.add((irreducible, min(closed, 2)))
        assert seen == {(True, 1), (False, 1), (False, 2)}

    def test_wind_models(self):
        rng = np.random.default_rng(81)
        seen = set()
        for spec, m in wind_models():
            self.check_table(m)
            actions = [random_actions(rng, m) for _ in range(12)]
            actions += [threshold_policy(spec).action, np.full(m.num_states, action_values(spec).index(0))]
            seen |= {self.check_policy(m, a) for a in actions}
        assert {(True, 1), (False, 1)} <= seen
        assert any(closed > 1 for _, closed in seen)

    def test_union_counts_each_chain(self):
        """evaluate's batch gate: one strong-components pass over the
        disjoint union of a batch's chains gives each chain's closed-class
        count, on batches that mix irreducible, unichain-with-transient and
        multichain members; the union lists no edge twice."""
        rng = np.random.default_rng(87)
        models = [sparse_mdp(rng) for _ in range(30)] + [m for _, m in wind_models()]
        mixed = 0
        for m in models:
            for _ in range(3):
                actions = [random_actions(rng, m) for _ in range(8)]
                chain = mvmdp.evaluation._policy_chains(m, np.array(actions))[0]
                indptr, cols = mvmdp.model._positive_rows(chain.indptr, chain.cols, chain.values)[:2]
                rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
                edges = rows * (indptr.size - 1) + cols
                assert np.unique(edges).size == edges.size
                got = mvmdp.model._closed_class_counts(indptr, cols, len(actions))
                verdicts = [self.check_policy(m, a) for a in actions]
                assert got.tolist() == [closed for _, closed in verdicts]
                kinds = {(irreducible, min(closed, 2)) for irreducible, closed in verdicts}
                mixed += kinds == {(True, 1), (False, 1), (False, 2)}
        assert mixed > 0

    def test_feasible_action_table(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            m = restrict_feasible(rng, random_mdp(rng))
            actions, counts = m.feasible_actions()
            assert not actions.flags.writeable and not counts.flags.writeable
            for i, acts in enumerate(m.feasible):
                assert actions[i].tolist() == [*acts, *[m.num_actions] * (m.num_actions - len(acts))]
                assert counts[i] == len(acts)

    def test_table_is_built_on_first_use(self):
        m = sparse_mdp(np.random.default_rng(83))
        assert "_positive" not in m.__dict__
        sample_random_policy(m, np.random.default_rng(0), require_irreducible=False)
        assert "_positive" not in m.__dict__
        outcome(sample_random_policy, m, np.random.default_rng(0), True, 1)
        table = m.__dict__["_positive"]
        assert all(got is want for got, want in zip(m.successor_table(), table[:2]))

    def test_sampler_matches_gather_and_scan(self):
        """Same draws, same give-ups and the same stream as the dense loop,
        with and without the irreducibility requirement."""
        rng = np.random.default_rng(84)
        outcomes = set()
        for k in range(60):
            m = sparse_mdp(rng)
            for require, max_tries in ((True, 1), (True, 30), (False, 1)):
                got_rng = np.random.default_rng([85, k])
                want_rng = np.random.default_rng([85, k])
                for _ in range(3):
                    got = outcome(sample_random_policy, m, got_rng, require, max_tries)
                    want = outcome(loop_sample_random_policy, m, want_rng, require, max_tries)
                    if got[0] == "ok":
                        assert got == want
                    else:
                        assert got[0] is want[0] is ValidationError
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    outcomes.add(got[0])
        assert outcomes == {"ok", ValidationError}

    def test_check_ergodicity_matches_gather_and_scan(self):
        rng = np.random.default_rng(86)
        models = [sparse_mdp(rng) for _ in range(30)]
        models += [build(WindStorageSpec(abandonment=a)) for a in (False, True)]
        modes = set()
        for k, m in enumerate(models):
            for cap in (2000, 1):
                got = check_ergodicity(m, sample_size=15, seed=k, enumeration_cap=cap)
                want = loop_check_ergodicity(m, sample_size=15, seed=k, enumeration_cap=cap)
                assert got == want
                modes.add((got.mode, got.union_irreducible, bool(got.violations)))
        assert {mode for mode, _, _ in modes} == {"enumeration", "sampling"}
        assert {(u, v) for _, u, v in modes} >= {(True, False), (True, True), (False, True)}

    def test_negative_sample_size_is_rejected(self, wind_model):
        with pytest.raises(ValidationError, match="^sample_size must be >= 0, got -1$"):
            check_ergodicity(wind_model, sample_size=-1, enumeration_cap=1)
        report = check_ergodicity(wind_model, sample_size=0, enumeration_cap=1)
        assert (report.mode, report.policies_checked) == ("sampling", 0)

    def test_no_dense_chain_is_gathered(self, monkeypatch, wind_model, abandon_model_beta1):
        def refuse(*args, **kwargs):
            raise AssertionError("dense chain gathered")

        for name in ("induced_chain", "is_irreducible", "closed_class_count"):
            monkeypatch.setattr(mvmdp.model, name, refuse)
        for m in (wind_model, abandon_model_beta1, small_model()):
            start = sample_random_policy(m, np.random.default_rng(0))
            check_ergodicity(m, sample_size=5)
            check_ergodicity(m, sample_size=5, enumeration_cap=1)
            _propose_epsilon(m, start, 0.5, np.random.default_rng(1))

    def test_sampler_gives_up_at_b200(self):
        """Rejection sampling fails at B=200; the bounded call must raise."""
        m = build(WindStorageSpec(battery_capacity=200))
        with pytest.raises(ValidationError, match="no irreducible policy found in 20"):
            sample_random_policy(m, np.random.default_rng(0), max_tries=20)


def random_graphs(rng, count):
    """Seeded 0/1 matrices of S = 0..39 states at densities from 0 to 0.3;
    their entries > 0 are duplicate-free graphs."""
    for _ in range(count):
        S = int(rng.integers(0, 40))
        yield (rng.random((S, S)) < rng.uniform(0.0, 0.3)).astype(float)


class TestStrongComponents:
    """`_strong_components` calls csgraph's routine on the CSR arrays
    directly; it must number the components as the public function does."""

    def test_matches_connected_components(self):
        rng = np.random.default_rng(90)
        graphs = [np.zeros((0, 0)), np.ones((1, 1)), np.zeros((1, 1)), np.eye(5), *hand_chains()]
        graphs += [random_chain(rng) for _ in range(300)]
        graphs += list(random_graphs(rng, 1500))
        sizes, counts = set(), set()
        for P in graphs:
            indptr, cols = mvmdp.model._support(P)
            assert indptr.dtype == np.int64 and cols.dtype == np.int32
            want_n, want_labels = connected_components(csr_matrix(P > 0), connection="strong")
            for ptr in (indptr, indptr.astype(np.int32)):
                n, labels = mvmdp.model._strong_components(ptr, cols)
                assert n == want_n
                assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
            sizes.add(P.shape[0])
            counts.add(min(want_n, 3))
        assert sizes >= set(range(40)) and counts == {0, 1, 2, 3}

    def test_no_check_builds_a_sparse_matrix(self, monkeypatch, wind_model, abandon_model_beta1, frozen_battery_policy):
        def refuse(self, *args, **kwargs):
            raise AssertionError("scipy sparse matrix built")

        formats = [name for name in scipy.sparse.__all__ if name.endswith(("_array", "_matrix"))]
        assert "csr_array" in formats and "csr_matrix" in formats
        for name in formats:
            monkeypatch.setattr(getattr(scipy.sparse, name), "__init__", refuse)
        with pytest.raises(AssertionError, match="sparse matrix built"):
            scipy.sparse.csr_array(np.eye(2))
        for m in (wind_model, abandon_model_beta1):
            start = sample_random_policy(m, np.random.default_rng(0))
            evaluate(m, start)
            check_ergodicity(m, sample_size=5)
            P, _ = induced_chain(m, start)
            assert (closed_class_count(P), is_irreducible(P)) == (1, True)
        P, _ = induced_chain(wind_model, frozen_battery_policy)
        assert closed_class_count(P) > 1 and not is_irreducible(P)

    @pytest.mark.parametrize("battery", [5, 50])
    @pytest.mark.parametrize("abandonment", [False, True])
    def test_check_ergodicity_graphs_have_no_repeated_edge(self, monkeypatch, battery, abandonment):
        """The routine does not return on a repeated edge. The union graph's
        edges, read from the successor table's rows, are out of order and,
        with abandonment, repeated; its np.unique sorts them and drops the
        repeats."""
        model = build(WindStorageSpec(battery_capacity=battery, abandonment=abandonment))
        S, A = model.num_states, model.num_actions
        strong_components = mvmdp.model._strong_components
        calls = []

        def checked(indptr, cols):
            # checked before the call, which would not return on a repeat
            edges = np.repeat(np.arange(S), np.diff(indptr)) * S + cols
            assert np.unique(edges).size == edges.size
            calls.append(edges.size)
            return strong_components(indptr, cols)

        monkeypatch.setattr(mvmdp.model, "_strong_components", checked)
        report = check_ergodicity(model, sample_size=20)
        assert len(calls) == 1 + report.policies_checked
        table_ptr, succ = model.successor_table()
        raw = np.repeat(np.arange(S * A) // A, np.diff(table_ptr)) * S + succ
        assert not np.all(np.diff(raw) > 0)
        assert (np.unique(raw).size < raw.size) == abandonment

    def test_public_checks_take_square_matrices_only(self):
        for P, shape in ((np.ones((2, 3)), "(2, 3)"), (np.ones(3), "(3,)")):
            for check in (closed_class_count, is_irreducible):
                with pytest.raises(ValidationError, match=re.escape(f"must be square, got shape {shape}")):
                    check(P)
        nested = [[[1.0, 0.0], [0.0, 1.0]]]
        with pytest.raises(ValidationError, match=re.escape("got shape (1, 2, 2)")):
            closed_class_count(nested)
        assert (closed_class_count([[0.0, 1.0], [1.0, 0.0]]), is_irreducible([[0.0, 1.0], [1.0, 0.0]])) == (1, True)
        assert (closed_class_count([[1, 0], [0, 2]]), is_irreducible([[1, 0], [0, 2]])) == (2, False)
        assert (closed_class_count(np.zeros((0, 0))), is_irreducible(np.zeros((0, 0)))) == (0, False)
        assert (closed_class_count(np.ones((1, 1))), is_irreducible(np.ones((1, 1)))) == (1, True)


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        m = small_model(feasible=((0,), (0, 1)))
        path = tmp_path / "m.json"
        save_model(m, str(path))
        back = load_model(str(path))
        assert back.num_states == m.num_states
        assert back.feasible == m.feasible
        assert np.array_equal(back.kernel[0, 0], m.kernel[0, 0])
        assert np.array_equal(back.reward[1], m.reward[1])
        assert back.beta == m.beta

    def test_dict_round_trip_preserves_bits(self):
        m = random_mdp(np.random.default_rng(8))
        back = model_from_dict(model_to_dict(m))
        for i, acts in enumerate(m.feasible):
            for a in acts:
                assert np.array_equal(back.kernel[i, a], m.kernel[i, a])
                assert back.reward[i, a] == m.reward[i, a]

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(ModelIOError, match="cannot read"):
            load_model(str(tmp_path / "absent.json"))

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(ModelIOError, match=r"line 1"):
            load_model(str(p))

    def test_missing_field_is_validation_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"num_states": 2}))
        with pytest.raises(ValidationError, match="missing"):
            load_model(str(p))

    def test_missing_kernel_entry(self, tmp_path):
        m = small_model()
        data = model_to_dict(m)
        del data["kernel"]["1,1"]
        with pytest.raises(ValidationError, match="1,1"):
            model_from_dict(data)

    def test_policy_round_trips(self, tmp_path):
        d = DeterministicPolicy(np.array([1, 0]))
        pd = tmp_path / "d.json"
        save_policy(d, str(pd))
        assert load_policy(str(pd)) == d

        theta = RandomizedPolicy(np.array([[0.25, 0.75], [1.0, 0.0]]))
        pt = tmp_path / "t.json"
        save_policy(theta, str(pt))
        back = load_policy(str(pt))
        assert isinstance(back, RandomizedPolicy)
        assert np.array_equal(back.theta, theta.theta)

    @pytest.mark.parametrize("write, what", [
        (lambda path: save_model(small_model(), path), "model"),
        (lambda path: save_policy(DeterministicPolicy([1, 0]), path), "policy"),
        (lambda path: save_policy(RandomizedPolicy([[0.5, 0.5], [1.0, 0.0]]), path), "policy"),
    ], ids=["model", "deterministic policy", "randomized policy"])
    def test_write_failure_is_io_error_naming_the_file_kind(self, tmp_path, write, what):
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(ModelIOError, match=f"^cannot write {what} file {path}: "):
            write(path)

    def test_unsupported_policy_type_is_not_saved(self, tmp_path):
        base = DeterministicPolicy(np.array([0, 0]))
        path = tmp_path / "mixed.json"
        with pytest.raises(ValidationError, match="^cannot serialize policy of type MixedPolicy$"):
            save_policy(MixedPolicy(base, base, 0.5), str(path))
        assert not path.exists()

    def test_policy_file_without_keys(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"weights": [1, 2]}))
        with pytest.raises(ValidationError, match="neither"):
            load_policy(str(p))

    @pytest.mark.parametrize("content", [
        5,
        None,
        {"action": ["a"]},
        {"action": [0.5, 1]},
        {"action": [[0, 1], [0]]},
        {"theta": [["x", 1.0]]},
    ], ids=["number", "null", "word action", "fractional action", "ragged action", "word theta"])
    def test_mistyped_policy_file(self, tmp_path, content):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(content))
        with pytest.raises(ValidationError, match="policy file"):
            load_policy(str(p))

    @pytest.mark.parametrize("field, value", [
        ("feasible", [["x"], [0]]),
        ("feasible", 5),
        ("kernel", 5),
        ("reward", None),
        # a size or action that is not an integer is refused, not truncated
        ("num_states", 2.5),
        ("num_states", 2.0),
        ("num_actions", "2"),
        ("feasible", [[0, 1.5], [0, 1]]),
        ("feasible", [[0, "1"], [0, 1]]),
    ], ids=["word action", "number feasible", "number kernel", "null reward", "fractional size",
            "integral float size", "string size", "fractional action", "string action"])
    def test_mistyped_model_field(self, field, value):
        data = model_to_dict(small_model())
        data[field] = value
        with pytest.raises(ValidationError, match="model file"):
            model_from_dict(data)


def loop_model_to_dict(model):
    """Per-pair reference of the model file's content and order."""
    kernel = {}
    reward = {}
    for i, acts in enumerate(model.feasible):
        for a in acts:
            kernel[f"{i},{a}"] = [float(x) for x in model.kernel[i, a]]
            reward[f"{i},{a}"] = float(model.reward[i, a])
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "beta": model.beta,
        "feasible": [list(acts) for acts in model.feasible],
        "kernel": kernel,
        "reward": reward,
    }


def loop_model_from_dict(data):
    """Per-pair reference reader: one np.asarray and one assignment per row.
    Every malformed dict raises ValidationError, as in model_from_dict;
    text is not a number, even "0.5", and neither is an integer beyond the
    float range."""
    try:
        S = operator.index(data["num_states"])
        A = operator.index(data["num_actions"])
        beta = float(data["beta"])
        feasible = data["feasible"]
        kernel_map = data["kernel"]
        reward_map = data["reward"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"model file is missing or mistypes field: {exc}") from exc
    if S < 1 or A < 1:
        raise ValidationError(f"need at least one state and action, got S={S}, A={A}")
    if len(feasible) != S:
        raise ValidationError(f"feasible has {len(feasible)} entries, expected {S}")
    kernel = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    for i, acts in enumerate(feasible):
        for a in acts:
            try:
                a = operator.index(a)
            except TypeError as exc:
                raise ValidationError(f"model file feasible is not a list of integer lists: {exc}") from exc
            key = f"{i},{a}"
            if not 0 <= a < A:
                raise ValidationError(f"feasible pair {key} has an action outside [0, {A})")
            if key not in kernel_map:
                raise ValidationError(f"kernel entry {key} missing for feasible pair")
            if key not in reward_map:
                raise ValidationError(f"reward entry {key} missing for feasible pair")
            try:
                row = np.asarray(kernel_map[key])
            except ValueError:
                row = None
            # JSON numbers and booleans only: no text, no null
            if row is None or (row.size and row.dtype.kind not in "biuf"):
                raise ValidationError(f"kernel row {key} is not a list of numbers")
            if row.shape != (S,):
                raise ValidationError(f"kernel row {key} has length {row.size}, expected {S}")
            kernel[i, a] = row
            value = reward_map[key]
            try:
                if isinstance(value, str):
                    raise TypeError
                reward[i, a] = float(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"reward {key} is not a number") from None
    return MdpModel(S, A, tuple(tuple(acts) for acts in feasible), kernel, reward, beta)


def loop_validation_error(S, A, feasible, kernel, reward, beta):
    """Per-pair reference of MdpModel validation: the message of the first
    problem, or None. `feasible` is sorted per state, as MdpModel stores it.
    The sum test reads `not ... <=`, so a NaN row fails as it must."""
    if not beta > 0:
        return f"beta must be > 0, got {beta}"
    if not np.isfinite(beta):
        return f"beta must be finite, got {beta}"
    for i, acts in enumerate(feasible):
        if not acts:
            return f"state {i} has no feasible action"
        if acts[0] < 0 or acts[-1] >= A:
            return f"state {i} lists action outside [0, {A}): {acts}"
        if len(set(acts)) != len(acts):
            return f"state {i} lists duplicate actions: {acts}"
        for a in acts:
            row = kernel[i, a]
            if np.any(row < 0):
                return f"kernel row {i},{a} has a negative entry"
            s = row.sum()
            if not abs(s - 1.0) <= 1e-12:
                return f"kernel row {i},{a} sums to {float(s)!r}, expected 1"
            if not np.isfinite(reward[i, a]):
                return f"reward {i},{a} is not finite"
    return None


def outcome(fn, *args):
    """What a call does: ("ok", value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


EXTREME_FLOATS = (-0.0, 0.0, 5e-324, 2.5e-310, 1e-300, -1e-300, 1e308, -1e308, 0.1, -1 / 3, 12345.678)


def extreme_model(rng):
    """A random valid model that stresses the file layout: S and A may be 1,
    states may have one action, the last action may be infeasible
    everywhere, rewards take extreme values and kernel rows carry zeros,
    -0.0 and subnormals."""
    S = int(rng.integers(1, 6))
    A = int(rng.integers(1, 5))
    usable = A - 1 if A > 1 and rng.random() < 0.5 else A
    feasible = tuple(
        tuple(rng.choice(usable, size=int(rng.integers(1, usable + 1)), replace=False))
        for _ in range(S)
    )
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    kernel[rng.random((S, A, S)) < 0.4] = 0.0
    kernel[..., 0] += kernel.sum(axis=2) == 0
    kernel /= kernel.sum(axis=2, keepdims=True)
    tiny = rng.choice([0.0, -0.0, 5e-324, 2.5e-310], size=(S, A, S))
    kernel = np.where(kernel == 0, tiny, kernel)
    reward = rng.choice(EXTREME_FLOATS, size=(S, A))
    reward = np.where(rng.random((S, A)) < 0.3, rng.normal(size=(S, A)), reward)
    beta = float(rng.choice([5e-324, 1e-3, 0.1, 1.0, 1e308]))
    return MdpModel(S, A, feasible, kernel, reward, beta)


class TestWriterReference:
    """save_model writes the bytes json.dump writes for the per-pair dict."""

    @staticmethod
    def check(model, path):
        save_model(model, str(path))
        want = json.dumps(loop_model_to_dict(model), indent=2) + "\n"
        assert path.read_text() == want
        assert json.dumps(model_to_dict(model), indent=2) + "\n" == want

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_extreme_models(self, tmp_path_factory, seed):
        self.check(extreme_model(np.random.default_rng(seed)), tmp_path_factory.mktemp("w") / "m.json")

    def test_layout_corners(self, tmp_path):
        """S = A = 1, and a model whose last action is never feasible."""
        one = MdpModel(1, 1, ((0,),), np.ones((1, 1, 1)), np.array([[-0.0]]), 5e-324)
        self.check(one, tmp_path / "one.json")
        assert (tmp_path / "one.json").read_text() == (
            '{\n  "num_states": 1,\n  "num_actions": 1,\n  "beta": 5e-324,\n'
            '  "feasible": [\n    [\n      0\n    ]\n  ],\n'
            '  "kernel": {\n    "0,0": [\n      1.0\n    ]\n  },\n'
            '  "reward": {\n    "0,0": -0.0\n  }\n}\n'
        )
        k = np.zeros((2, 3, 2))
        k[:, :2] = [[[1.0, -0.0], [0.5, 0.5]], [[5e-324, 1.0], [0.25, 0.75]]]
        unused = MdpModel(2, 3, ((0, 1), (1,)), k, np.full((2, 3), 1e308), 1.0)
        self.check(unused, tmp_path / "unused.json")

    @pytest.mark.parametrize("battery", [5, 20])
    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind_models(self, tmp_path, battery, abandonment):
        m = build(WindStorageSpec(battery_capacity=battery, abandonment=abandonment))
        self.check(m, tmp_path / "wind.json")


def malformed_dicts():
    """(name, dict) pairs: one defect each on a valid small model's dict."""
    base = model_to_dict(small_model())

    def edit(change):
        data = json.loads(json.dumps(base))
        change(data)
        return data

    def put(section, key, value):
        return lambda d: d[section].__setitem__(key, value)

    def feasible(lists, extra=()):
        def change(d):
            d["feasible"] = lists
            for key in extra:
                d["kernel"][key] = [0.5, 0.5]
                d["reward"][key] = 1.0
        return change

    yield "valid", edit(lambda d: None)
    yield "missing kernel key", edit(lambda d: d["kernel"].pop("1,0"))
    yield "missing reward key", edit(lambda d: d["reward"].pop("0,1"))
    yield "missing field", edit(lambda d: d.pop("reward"))
    yield "short row", edit(put("kernel", "1,0", [0.5]))
    yield "long row", edit(put("kernel", "0,0", [0.5, 0.25, 0.25]))
    yield "scalar row", edit(put("kernel", "0,1", 0.5))
    yield "null row", edit(put("kernel", "0,1", None))
    yield "nested row", edit(put("kernel", "0,1", [[0.7, 0.3]]))
    yield "ragged row", edit(put("kernel", "1,1", [[0.7], 0.3]))
    yield "string numbers", edit(put("kernel", "1,1", ["0.1", "0.9"]))
    yield "string reward", edit(put("reward", "1,0", "0.5"))
    yield "word in a row", edit(put("kernel", "0,0", ["a", "b"]))
    yield "null reward", edit(put("reward", "1,0", None))
    yield "list reward", edit(put("reward", "1,0", [0.5]))
    yield "infinite reward", edit(put("reward", "0,0", 1e309))
    yield "reward beyond the float range", edit(put("reward", "1,0", 10**400))
    yield "beta beyond the float range", edit(lambda d: d.__setitem__("beta", 10**400))
    yield "negative entry", edit(put("kernel", "1,0", [-0.5, 1.5]))
    yield "bad sum", edit(put("kernel", "1,1", [0.1, 0.8]))
    yield "NaN", edit(put("kernel", "0,0", [float("nan"), 1.0]))
    yield "NaN and negative", edit(put("kernel", "0,0", [float("nan"), -1.0]))
    yield "infinite beta", edit(lambda d: d.__setitem__("beta", float("inf")))
    yield "out-of-range action", edit(feasible([[0, 1], [0, 2]]))
    yield "out-of-range action with entries", edit(feasible([[0, 1], [0, 2]], ["1,2"]))
    yield "negative action with entries", edit(feasible([[-1, 0], [0, 1]], ["0,-1"]))
    yield "extra state with entries", edit(feasible([[0, 1], [0, 1], [0]], ["2,0"]))
    yield "missing state", edit(feasible([[0, 1]]))
    yield "duplicate action", edit(feasible([[0, 0], [0, 1]]))
    yield "empty action list", edit(feasible([[], [0, 1]]))
    yield "no action anywhere", edit(feasible([[], []]))
    yield "unsorted actions", edit(feasible([[1, 0], [1, 0]]))
    yield "string action", edit(feasible([["1", 0], [0, 1]]))
    yield "fractional action", edit(feasible([[0, 1.5], [0, 1]]))
    yield "integral float action", edit(feasible([[0, 1.0], [0, 1]]))
    yield "fractional num_states", edit(lambda d: d.__setitem__("num_states", 2.5))
    yield "negative num_states", edit(lambda d: d.__setitem__("num_states", -2))
    yield "zero num_actions", edit(lambda d: d.__setitem__("num_actions", 0))


def same_model(a, b):
    return (
        (a.num_states, a.num_actions, a.feasible, a.beta) == (b.num_states, b.num_actions, b.feasible, b.beta)
        and np.array_equal(a.kernel, b.kernel)
        and np.array_equal(a.reward, b.reward)
    )


class TestReaderReference:
    """model_from_dict gives the per-pair reader's arrays, and its exception
    type and message on each malformed dict."""

    def test_valid_dicts(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(64)
        models = [wind_model, abandon_model_beta1, *(extreme_model(rng) for _ in range(40))]
        for m in models:
            data = json.loads(json.dumps(model_to_dict(m)))
            got, want = model_from_dict(data), loop_model_from_dict(data)
            assert same_model(got, want)
            mask = m.feasible_mask()
            assert np.array_equal(got.kernel[mask], m.kernel[mask])
            assert np.array_equal(got.reward[mask], m.reward[mask])

    @pytest.mark.parametrize("name, data", list(malformed_dicts()), ids=lambda x: x if isinstance(x, str) else "")
    def test_malformed_dicts(self, name, data):
        got = outcome(model_from_dict, data)
        want = outcome(loop_model_from_dict, data)
        if got[0] == "ok":
            assert want[0] == "ok" and same_model(got[1], want[1])
        else:
            assert got == want
            assert got[0] is ValidationError


@pytest.mark.parametrize("section", ["kernel", "reward"])
def test_numeric_text_is_not_a_number(wind_model, tmp_path, section):
    """A kernel row or a reward written as text, such as "0.53", is not
    read as a number, from a dict or from a model file; a row of text is
    named before its reward."""
    data = json.loads(json.dumps(model_to_dict(wind_model)))
    key = "3,2"
    data["reward"][key] = repr(data["reward"][key])
    want = f"reward {key} is not a number"
    if section == "kernel":
        data["kernel"][key] = [repr(x) for x in data["kernel"][key]]
        want = f"kernel row {key} is not a list of numbers"
    path = tmp_path / "text.json"
    path.write_text(json.dumps(data, indent=2))
    for read in (lambda: model_from_dict(data), lambda: load_model(str(path))):
        with pytest.raises(ValidationError, match=f"^{want}$"):
            read()


@pytest.mark.parametrize("field", ["reward", "beta"])
def test_integer_beyond_the_float_range_is_a_validation_error(wind_model, tmp_path, field):
    """A JSON integer too large for a float, from a dict or from a model
    file, is a ValidationError, not a bare OverflowError."""
    data = json.loads(json.dumps(model_to_dict(wind_model)))
    if field == "reward":
        data["reward"]["3,2"] = 10**400
        want = "^reward 3,2 is not a number$"
    else:
        data["beta"] = 10**400
        want = "^model file is missing or mistypes field: int too large to convert to float$"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    for read in (lambda: model_from_dict(data), lambda: load_model(str(path))):
        with pytest.raises(ValidationError, match=want):
            read()


class TestReaderChunks:
    """model_from_dict converts the kernel rows a fixed number at a time."""

    S, A = 300, 3  # 900 feasible pairs: more than three chunks, the last one partial

    def model_dict(self):
        rng = np.random.default_rng(66)
        S, A = self.S, self.A
        kernel = rng.dirichlet(np.ones(S), size=(S, A))
        m = MdpModel(S, A, tuple(tuple(range(A)) for _ in range(S)), kernel, rng.normal(size=(S, A)), 0.5)
        return m, json.loads(json.dumps(model_to_dict(m)))

    def test_rows_span_several_chunks(self):
        m, data = self.model_dict()
        assert len(data["kernel"]) > 3 * mvmdp.model._KERNEL_CHUNK_ROWS
        assert same_model(model_from_dict(data), m)

    def test_first_short_row_is_named_in_any_chunk(self):
        _, data = self.model_dict()
        keys = list(data["kernel"])
        chunk = mvmdp.model._KERNEL_CHUNK_ROWS
        # a short row, and a long row after it that must not be the one named
        for first, later in ((chunk - 1, chunk), (chunk, 3 * chunk), (2 * chunk + 5, -1), (-1, None)):
            bad = copy.deepcopy(data)
            bad["kernel"][keys[first]].pop()
            if later is not None:
                bad["kernel"][keys[later]].append(0.0)
            want = (ValidationError, f"kernel row {keys[first]} has length {self.S - 1}, expected {self.S}")
            assert outcome(model_from_dict, bad) == outcome(loop_model_from_dict, bad) == want

    def test_peak_holds_one_chunk_beside_the_kernel(self):
        m, data = self.model_dict()
        tracemalloc.start()
        try:
            model_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float block of every row would add another kernel's worth
        assert peak - m.kernel.nbytes < 0.5 * m.kernel.nbytes


def json_load_model(path):
    """load_model's json route: what any file that save_model did not
    write goes through."""
    return model_from_dict(mvmdp.model._read_json(path, "model"))


def same_fields(a, b):
    """The two models hold the same sizes, feasible lists, bits of beta and
    reward, and CSR arrays of the same dtypes and bytes."""
    return (
        (a.num_states, a.num_actions, a.feasible) == (b.num_states, b.num_actions, b.feasible)
        and np.float64(a.beta).tobytes() == np.float64(b.beta).tobytes()
        and same_bits(a.reward, b.reward)
        and same_bits(a.feasible_mask(), b.feasible_mask())
        and a.kernel_csr.shape == b.kernel_csr.shape
        and all(same_bits(x, y) for x, y in zip(a.kernel_csr[1:], b.kernel_csr[1:]))
    )


def same_outcome(path):
    """load_model gives the json route's model, or raises its exception
    class with its message."""
    got, want = outcome(load_model, path), outcome(json_load_model, path)
    if got[0] == "ok" and want[0] == "ok":
        return same_fields(got[1], want[1])
    return got == want


def kernel_rows(text: bytes):
    """The spans of the kernel rows of a saved model file, key to bracket."""
    return [m.span() for m in re.finditer(rb'    "\d+,\d+": \[\n.*?\n    \]', text, re.S)]


def feasible_mutants(text: bytes, rng):
    """(name, bytes) pairs: the saved file `text` with one state's feasible
    list dropped, a list of several actions reversed, and an action
    repeated, at seeded states."""
    at = text.index(b'  "feasible": [\n')
    end = text.index(b"\n  ],\n", at)
    lists = [m.span() for m in re.finditer(rb"    \[\n.*?\n    \]", text[at:end], re.S)]
    lists = [(at + lo, at + hi) for lo, hi in lists]
    lo, hi = lists[int(rng.integers(len(lists)))]
    if hi + 2 < end:
        yield "feasible list dropped", text[:lo] + text[hi + 2 :]
    else:
        yield "feasible list dropped", text[: lo - 2] + text[hi:]
    several = [(lo, hi) for lo, hi in lists if b"," in text[lo:hi]]
    lo, hi = several[int(rng.integers(len(several)))]
    # the action lines of the list, each but the last ending in a comma
    lines = text[lo:hi].split(b"\n")[1:-1]
    reverse = b",\n".join(line.rstrip(b",") for line in reversed(lines))
    yield "feasible list reversed", text[:lo] + b"    [\n" + reverse + b"\n    ]" + text[hi:]
    k = int(rng.integers(len(lines) - 1))
    repeated = b"\n".join([b"    [", *lines[: k + 1], *lines[k:], b"    ]"])
    yield "feasible action repeated", text[:lo] + repeated + text[hi:]


def mutants(text: bytes, rng):
    """(name, bytes) pairs: the saved file `text` with one seeded change
    each, some of which json reads as the same model and most not."""
    lines = text.split(b"\n")
    zero = [n for n, line in enumerate(lines) if line == b"      0.0,"]
    entries = [n for n, line in enumerate(lines) if line.startswith(b"      ") and b"." in line]
    nonzero = [n for n in entries if lines[n].strip(b" ,") != b"0.0"]

    def line_edit(n, new):
        out = list(lines)
        out[n] = new
        return b"\n".join(out)

    digits = [k for k, c in enumerate(text) if c in b"123456789"]
    for _ in range(4):
        k = int(rng.choice(digits))
        yield "digit", text[:k] + bytes([text[k] % 9 + 49]) + text[k + 1:]
    for form in (b"0", b"0.00", b"-0.0", b"0e0", b"0.0 ", b"+0.0"):
        yield f"zero as {form!r}", line_edit(int(rng.choice(zero)), b"      " + form + b",")
    n = int(rng.choice(nonzero))
    for form in (b"NaN", b"Infinity", b"-Infinity", b"1"):
        yield f"entry as {form!r}", line_edit(n, b"      " + form + (b"," if lines[n].endswith(b",") else b""))
    ones = [n for n, line in enumerate(lines) if line.strip(b" ,") == b"1.0"]
    if ones:
        n = ones[0]
        yield "1 for 1.0", line_edit(n, lines[n].replace(b"1.0", b"1"))
    yield "CRLF", text.replace(b"\n", b"\r\n")
    yield "BOM", b"\xef\xbb\xbf" + text
    yield "no final newline", text[:-1]
    yield "two final newlines", text + b"\n"
    k = int(rng.choice([k for k, c in enumerate(text) if c == 10]))
    yield "trailing space", text[:k] + b" " + text[k:]
    yield "non-UTF-8 byte", text[:k] + b"\xff" + text[k:]
    for _ in range(3):
        cut = int(rng.integers(1, len(text)))
        yield "truncated", text[:cut]
    rows = kernel_rows(text)
    (a0, a1), (b0, b1) = sorted(rows[k] for k in rng.choice(len(rows), 2, replace=False))
    yield "swapped rows", text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]
    yield "duplicated row", text[:a1] + b",\n" + text[a0:a1] + text[a1:]
    first = text[a0:a1].replace(b"0.0,", b"0.5,", 1)
    yield "duplicated row, first copy differs", text[:a0] + first + b",\n" + text[a0:]
    extra = re.sub(rb'"\d+,\d+"', b'"0,99"', text[a0:a1], count=1)
    yield "extra row", text[:a1] + b",\n" + extra + text[a1:]
    yield "row dropped", text[:a0] + text[a1 + 2:]
    head = text.split(b"\n", 3)
    yield "reordered header keys", b"\n".join([head[0], head[2], head[1], head[3]])
    yield "duplicated header key", text.replace(b"{\n", b'{\n  "beta": 7.0,\n', 1)
    yield "reordered reward keys", re.sub(rb'(\n    "[^\n]*),\n(    "[^\n]*)\n  }\n}', rb"\n\2,\n\1\n  }\n}", text)
    yield "compact", json.dumps(json.loads(text)).encode()
    yield "row sum off", line_edit(int(rng.choice(nonzero)), b"      0.123456789,")


class TestSavedFileReader:
    """load_model reads a file in save_model's own layout without json and
    gives the json route's model; any other file gives the json route's
    model or exception."""

    @staticmethod
    def saved(model, path):
        save_model(model, str(path))
        return str(path)

    def check_fast(self, model, path):
        path = self.saved(model, path)
        fast = mvmdp.model._read_saved(open(path, "rb").read())
        assert fast is not None, "a file save_model wrote must not need json"
        assert same_fields(fast, json_load_model(path))
        assert same_fields(load_model(path), fast)

    @pytest.mark.parametrize("battery", [5, 50])
    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind_files(self, tmp_path, battery, abandonment):
        spec = WindStorageSpec(battery_capacity=battery, abandonment=abandonment)
        self.check_fast(build(spec), tmp_path / "wind.json")

    def test_random_and_extreme_files(self, tmp_path):
        rng = np.random.default_rng(70)
        for n in range(30):
            model = random_mdp(rng) if n % 3 == 0 else extreme_model(rng)
            self.check_fast(model, tmp_path / f"m{n}.json")

    def test_layout_corners(self, tmp_path):
        """S = 1, -0.0, subnormal and exponent-written entries, a row whose
        last entry is stored, and a last action never feasible."""
        self.check_fast(MdpModel(1, 1, ((0,),), np.ones((1, 1, 1)), np.array([[-0.0]]), 5e-324), tmp_path / "one.json")
        k = np.zeros((3, 3, 3))
        k[:, :2] = [
            [[1.0 - 1e-05, 1e-05, -0.0], [0.5, 0.0, 0.5]],
            [[0.0, 0.0, 1.0], [5e-324, 1.0, -0.0]],
            [[-0.0, 0.25, 0.75], [1e-05, 0.0, 1.0 - 1e-05]],
        ]
        model = MdpModel(3, 3, ((0, 1), (1,), (0,)), k, np.full((3, 3), -1e-05), 1e-05)
        path = self.saved(model, tmp_path / "corners.json")
        text = open(path).read()
        assert "1e-05" in text and "5e-324" in text and "-0.0" in text
        self.check_fast(model, tmp_path / "corners.json")

    @pytest.mark.parametrize("seed", range(3))
    def test_mutated_files_give_the_json_outcome(self, tmp_path, seed):
        rng = np.random.default_rng(80 + seed)
        model = build(WindStorageSpec(battery_capacity=5, abandonment=bool(seed % 2)))
        if seed == 2:
            model = extreme_model(rng)
        text = open(self.saved(model, tmp_path / "base.json"), "rb").read()
        names = set()
        for n, (name, data) in enumerate(mutants(text, rng)):
            path = tmp_path / f"mutant{n}.json"
            path.write_bytes(data)
            assert same_outcome(str(path)), name
            names.add(name)
        assert len(names) > 25

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_mutations_give_the_json_outcome(self, tmp_path, seed):
        """A feasible list dropped, reversed or with an action repeated is
        declined by the write-back alone, and read by the json route."""
        rng = np.random.default_rng(90 + seed)
        model = build(WindStorageSpec(battery_capacity=5, abandonment=bool(seed % 2)))
        text = open(self.saved(model, tmp_path / "base.json"), "rb").read()
        for n, (name, data) in enumerate(feasible_mutants(text, rng)):
            assert mvmdp.model._read_saved(data) is None, name
            path = tmp_path / f"mutant{n}.json"
            path.write_bytes(data)
            assert same_outcome(str(path)), name

    def test_far_too_many_states_are_declined_without_allocating(self, tmp_path):
        """A saved file whose num_states is mistyped far too large is
        declined before any array is sized by it, on both routes."""
        model = build(WindStorageSpec(battery_capacity=5))
        text = open(self.saved(model, tmp_path / "base.json"), "rb").read()
        wrong = 10**6
        head = b'  "num_states": %d,\n' % model.num_states
        assert text.count(head) == 1
        path = tmp_path / "states.json"
        path.write_bytes(text.replace(head, b'  "num_states": %d,\n' % wrong))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"^feasible has 36 entries, expected {wrong}$"):
                load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than one byte per state; one float per state would be 8 MB
        assert peak < wrong

    @pytest.mark.parametrize("name, data", list(malformed_dicts()), ids=lambda x: x if isinstance(x, str) else "")
    def test_malformed_files(self, tmp_path, name, data):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        got, want = outcome(load_model, str(path)), outcome(model_from_dict, data)
        if want[0] == "ok":
            assert got[0] == "ok" and same_fields(got[1], want[1])
        else:
            assert got == want

    def test_saved_file_skips_whole_file_json(self, tmp_path, monkeypatch):
        path = self.saved(build(WindStorageSpec(battery_capacity=5)), tmp_path / "wind.json")
        size = os.path.getsize(path)
        parsed = []
        real_loads = json.loads

        def loads(text, *args, **kwargs):
            parsed.append(len(text))
            return real_loads(text, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the whole file went through json")

        monkeypatch.setattr(json, "loads", loads)
        monkeypatch.setattr(json, "load", refuse)
        monkeypatch.setattr(mvmdp.model, "_read_json", refuse)
        load_model(path)
        assert parsed and max(parsed) < size / 10

    def test_declined_file_is_read_once(self, tmp_path, monkeypatch):
        """A file the fast route declines is read from disk once: the json
        route parses the bytes already read."""
        text = open(self.saved(build(WindStorageSpec(battery_capacity=5)), tmp_path / "wind.json"), "rb").read()
        path = tmp_path / "near.json"
        path.write_bytes(text.replace(b'"beta": 0.1', b'"beta": 0.10'))
        want = json_load_model(str(path))
        opened = []
        real_open = open

        def counted(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(mvmdp.model, "open", counted, raising=False)
        assert same_fields(load_model(str(path)), want)
        assert opened == [str(path)]

    @pytest.mark.parametrize("data", [
        b'{\r\n  "a": [1,\r\n  2,, 3]\r\n}\r\n',
        b'{\r  "a": [1,\r  2,, 3]\r}\r',
        b'{\r\n  "a": "x\ry"\n}',
        b'{\r\n  "a": 1\r\n}\r\n',
        b'\xef\xbb\xbf{"a": 1}',
        b'{"a": "\xc3\xa9\xff"}',
        b'{"a": 1}\r\n\xe9',
        b'',
    ])
    def test_json_route_decodes_as_a_text_mode_open(self, tmp_path, data):
        """The json route parses the bytes as `open(path, encoding="utf-8")`
        reads them: universal newlines move an error's line and column, and
        a BOM or bytes that are not UTF-8 fail with the same message."""
        path = str(tmp_path / "f.json")
        with open(path, "wb") as fh:
            fh.write(data)

        def text_mode(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        got = outcome(mvmdp.model._read_json, path, "model")
        kind, want = outcome(text_mode, path)
        if kind == "ok":
            assert got == (kind, want)
        elif kind is UnicodeDecodeError:
            assert got == (ModelIOError, f"model file {path} is not UTF-8 text: {want}")
        else:
            msg, line, column = re.fullmatch(r"(.*): line (\d+) column (\d+) \(char \d+\)", want).groups()
            assert got == (ModelIOError, f"model file {path} is not valid JSON (line {line}, column {column}): {msg}")

    def test_peak_below_the_json_route(self, tmp_path):
        path = self.saved(build(WindStorageSpec(battery_capacity=50)), tmp_path / "wind.json")
        peaks = []
        for read in (load_model, json_load_model):
            tracemalloc.start()
            try:
                read(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


def corrupt(rng, model):
    """(feasible, kernel, reward, beta) of the model with 1 to 3 seeded
    random defects, some on infeasible rows, which must not count."""
    S, A = model.num_states, model.num_actions
    feasible = [list(acts) for acts in model.feasible]
    kernel = np.array(model.kernel)
    reward = np.array(model.reward)
    beta = model.beta
    for _ in range(int(rng.integers(1, 4))):
        i, a, j = int(rng.integers(S)), int(rng.integers(A)), int(rng.integers(S))
        kind = int(rng.integers(12))
        if kind == 0:
            kernel[i, a, j] -= 0.3
            kernel[i, a, (j + 1) % S] += 0.3
        elif kind == 1:
            kernel[i, a, j] += float(rng.choice([1e-11, 1e-13, -1e-11, 0.5]))
        elif kind == 2:
            kernel[i, a, j] = np.nan
        elif kind == 3:
            kernel[i, a, j] = float(rng.choice([np.inf, -np.inf]))
        elif kind == 4:
            reward[i, a] = float(rng.choice([np.nan, np.inf, -np.inf]))
        elif kind == 5:
            feasible[i] = []
        elif kind == 6:
            feasible[i] = feasible[i] + [int(rng.choice([A, -1]))]
        elif kind == 7:
            feasible[i] = feasible[i] + feasible[i][:1]
        elif kind == 8:
            beta = float(rng.choice([0.0, -1.0, np.inf, np.nan]))
        elif kind == 9:
            kernel[i, a, j] = -0.0
        elif kind == 10:
            kernel[i, a] = np.nan  # a whole row, feasible or not
        else:
            # NaN makes the row minimum NaN; the negative entry must still be named
            kernel[i, a, j] = np.nan
            kernel[i, a, (j + 1) % S] = -0.5
    return feasible, kernel, reward, beta


class TestValidationReference:
    """The whole-array checks name the per-pair loop's first problem."""

    def test_seeded_corruptions(self, wind_model, abandon_model_beta1):
        rng = np.random.default_rng(65)
        models = [wind_model, abandon_model_beta1]
        for _ in range(10):
            m = random_mdp(rng)
            models += [m, restrict_feasible(rng, m), extreme_model(rng)]
        messages = []
        for k in range(600):
            m = models[k % len(models)]
            feasible, kernel, reward, beta = corrupt(rng, m)
            S, A = m.num_states, m.num_actions
            srt = tuple(tuple(sorted(acts)) for acts in feasible)
            want = loop_validation_error(S, A, srt, kernel, reward, beta)
            got = outcome(MdpModel, S, A, feasible, kernel, reward, beta)
            if want is None:
                assert got[0] == "ok"
                mask = np.zeros((S, A), dtype=bool)
                for i, acts in enumerate(srt):
                    mask[i, list(acts)] = True
                assert np.array_equal(got[1].feasible_mask(), mask)
            else:
                assert got == (ValidationError, want)
            messages.append(want or "valid")
        kinds = ("valid", "beta", "no feasible", "outside", "duplicate", "negative", "sums to nan", "sums to 1.", "not finite")
        assert all(any(kind in text for text in messages) for kind in kinds)



ROW_CHECKS = {
    "kernel row {},0": lambda rows: small_model(
        num_actions=1, feasible=((0,), (0,)), kernel=rows[:, None, :], reward=np.zeros((2, 1))
    ),
    "theta row {}": lambda rows: RandomizedPolicy(rows).validate_for(small_model()),
    "transition row {}": stationary_distribution,
    "wind kernel row {}": lambda rows: WindStorageSpec(
        wind_states=(0, 1), charge_actions=(0,), wind_kernel=rows
    ),
}


class TestRowRule:
    """Model kernel rows, theta rows, transition rows and wind kernel rows
    share one check and one message form, naming the first bad row."""

    @pytest.mark.parametrize("noun", sorted(ROW_CHECKS))
    @pytest.mark.parametrize(
        "row, problem",
        [
            ([1.5, -0.5], "has a negative entry"),
            ([np.nan, -0.5], "has a negative entry"),
            ([0.6, 0.5], "sums to 1.1, expected 1"),
            ([0.3, 0.6], "sums to 0.8999999999999999, expected 1"),
            ([np.nan, 0.5], "sums to nan, expected 1"),
            ([np.inf, 0.0], "sums to inf, expected 1"),
        ],
    )
    def test_message(self, noun, row, problem):
        for bad in (0, 1):
            rows = np.array([[0.25, 0.75], [0.25, 0.75]])
            rows[bad] = row
            with pytest.raises(ValidationError) as info:
                ROW_CHECKS[noun](rows)
            assert str(info.value) == f"{noun.format(bad)} {problem}"

    @pytest.mark.parametrize("noun", sorted(ROW_CHECKS))
    def test_first_bad_row_is_named(self, noun):
        with pytest.raises(ValidationError) as info:
            ROW_CHECKS[noun](np.array([[0.6, 0.5], [1.5, -0.5]]))
        assert str(info.value) == f"{noun.format(0)} sums to 1.1, expected 1"


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_random_models_are_valid_and_round_trip(seed):
    m = random_mdp(np.random.default_rng(seed))
    assert np.allclose(m.kernel.sum(axis=2), 1.0, atol=1e-9)
    back = model_from_dict(model_to_dict(m))
    assert np.array_equal(back.kernel, m.kernel)
    assert np.array_equal(back.reward, m.reward)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
def test_mixed_chain_rows_are_stochastic(seed, delta):
    rng = np.random.default_rng(seed)
    m = random_mdp(rng)
    base = sample_random_policy(m, rng, require_irreducible=False)
    alt = sample_random_policy(m, rng, require_irreducible=False)
    P, _ = induced_chain_mixed(m, MixedPolicy(base, alt, delta))
    assert np.all(P >= -1e-15)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def dense_row_text(row):
    """The model file text of one dense kernel row, as the dense writer made
    it: every entry that is not +0.0 through float.__repr__."""
    parts = ["0.0"] * row.size
    for j in np.flatnonzero((row != 0) | np.signbit(row)).tolist():
        parts[j] = float.__repr__(row[j])
    return ",\n      ".join(parts)


def uniform_theta(model):
    theta = model.feasible_mask().astype(float)
    return RandomizedPolicy(theta / theta.sum(axis=1, keepdims=True))


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSparseKernelReaders:
    """Each reader of the sparse kernel gives the floats, messages and bytes
    of a dense reference kernel (conftest.dense_wind_kernel), at B = 5, 50
    and 200 in both scenarios."""

    def test_storage_and_dense_view(self, wind_case):
        _, model, dense = wind_case
        csr = model.kernel_csr
        assert csr.shape == dense.shape
        assert csr.values.size == np.count_nonzero((dense != 0) | np.signbit(dense))
        assert all(not a.flags.writeable for a in (csr.indptr, csr.cols, csr.values))
        # a copy shares the CSR and builds its own view, dropped after the check
        view = dataclasses.replace(model, beta=2.0).kernel
        assert same_bits(view, dense) and not view.flags.writeable

    def test_successor_table_is_the_positive_pattern(self, wind_case):
        _, model, dense = wind_case
        self.check_positive_table(model, dense)

    def test_induced_chain(self, wind_case):
        spec, model, dense = wind_case
        rng = np.random.default_rng(90)
        idx = np.arange(model.num_states)
        for d in (threshold_policy(spec), sample_random_policy(model, rng, require_irreducible=False)):
            P, r = induced_chain(model, d)
            assert same_bits(P, dense[idx, d.action])
            assert same_bits(r, model.reward[idx, d.action])

    def test_randomized_chain(self, wind_case):
        _, model, dense = wind_case
        theta = uniform_theta(model)
        P, _, _ = induced_chain_randomized(model, theta)
        assert same_bits(P, np.einsum("ia,iaj->ij", theta.theta, dense))

    def test_row_check_messages(self, wind_case):
        """Broken kernels give the per-pair loop's first message, borderline
        sums included, from a dense kernel and from a model file."""
        _, model, dense = wind_case
        S, A = model.num_states, model.num_actions
        rng = np.random.default_rng(91)
        pairs = np.argwhere(model.feasible_mask())
        kernel = dense.copy()
        edits = [
            lambda row, j: row.__setitem__(j, row[j] + 1e-11),
            lambda row, j: row.__setitem__(j, row[j] + 1e-12 * (1 + 1e-4)),
            lambda row, j: row.__setitem__(j, row[j] + 1e-12 * (1 - 1e-4)),
            lambda row, j: row.__setitem__(j, row[j] - 1e-12 * (1 + 1e-4)),
            lambda row, j: (row.__setitem__(j, row[j] - 1.5), row.__setitem__(j - 1, row[j - 1] + 1.5)),
            lambda row, j: row.__setitem__(j, np.nan),
            lambda row, j: row.__setitem__(j, np.inf),
            lambda row, j: row.__setitem__(j - 1, -0.0 if row[j - 1] == 0 else row[j - 1]),
        ]
        messages = []
        for edit in edits:
            i, a = pairs[rng.integers(len(pairs))]
            j = int(rng.choice(np.flatnonzero(kernel[i, a] > 0)))
            saved = kernel[i, a].copy()
            edit(kernel[i, a], j)
            want = loop_validation_error(S, A, model.feasible, kernel, model.reward, model.beta)
            expected = "ok" if want is None else (ValidationError, want)
            got = outcome(MdpModel, S, A, model.feasible, kernel, model.reward, model.beta)
            assert (got[0] if want is None else got) == expected
            if S <= 306:
                data = model_to_dict(model)
                data["kernel"][f"{i},{a}"] = kernel[i, a].tolist()
                got = outcome(model_from_dict, data)
                assert (got[0] if want is None else got) == expected
            messages.append(want or "valid")
            kernel[i, a] = saved
        assert sum("sums to" in text for text in messages) >= 3
        assert any("negative" in text for text in messages) and "valid" in messages

    def test_sums_at_the_tolerance_follow_the_dense_row(self):
        """Rows whose sum in the CSR's order and in the dense row's order
        fall on different sides of ROW_SUM_TOL get the dense verdict."""
        S, tol = 300, mvmdp.model.ROW_SUM_TOL
        kernel = np.eye(S)[:, None, :].copy()
        sides = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            row = np.zeros(S)
            cols = np.sort(rng.choice(S, 150, replace=False))
            row[cols] = rng.random(150)
            row /= row.sum()
            row[cols[0]] += tol - (row.sum() - 1.0)
            for _ in range(80):
                dense_ok = abs(row.sum() - 1.0) <= tol
                if dense_ok != (abs(np.add.reduce(row[cols]) - 1.0) <= tol):
                    break
                row[cols[0]] = np.nextafter(row[cols[0]], -np.inf)
            else:
                continue
            sides.add(dense_ok)
            kernel[seed] = row
            want = loop_validation_error(S, 1, ((0,),) * S, kernel, np.zeros((S, 1)), 1.0)
            assert (want is None) == dense_ok
            got = outcome(MdpModel, S, 1, ((0,),) * S, kernel, np.zeros((S, 1)), 1.0)
            assert (got[0] if want is None else got) == ("ok" if want is None else (ValidationError, want))
            kernel[seed] = np.eye(S)[seed]
        assert sides == {True, False}

    def test_written_bytes(self, wind_case, tmp_path):
        """The model file's kernel rows are the dense rows' text; at B <= 50
        the whole file is json.dumps of the dense reference's dict."""
        _, model, dense = wind_case
        pieces = mvmdp.model._model_chunks(model)
        head = next(pieces)
        rows, cols = np.nonzero(model.feasible_mask())
        sep = ""
        piece, pos = "", 0
        for i, a in zip(rows.tolist(), cols.tolist()):
            if pos == len(piece):  # each piece holds whole rows
                piece, pos = next(pieces), 0
            row = f'{sep}    "{i},{a}": [\n      {dense_row_text(dense[i, a])}\n    ]'
            assert piece.startswith(row, pos)
            pos += len(row)
            sep = ",\n"
        assert pos == len(piece)
        assert next(pieces).startswith('\n  },\n  "reward"')
        if model.num_states <= 306:
            path = tmp_path / "m.json"
            save_model(model, str(path))
            data = model_to_dict(model)
            data["kernel"] = {f"{i},{a}": dense[i, a].tolist() for i, a in zip(rows.tolist(), cols.tolist())}
            text = json.dumps(data, indent=2) + "\n"
            assert text.startswith(head)
            assert path.read_text() == text

    def test_negative_zero_round_trips(self, tmp_path):
        """A -0.0 kernel entry is stored, written with its sign and read back,
        so the file round-trips byte for byte."""
        k = np.array([[[1.0, -0.0], [0.5, 0.5]], [[-0.0, 1.0], [0.25, 0.75]]])
        m = small_model(kernel=k)
        assert np.signbit(m.kernel_csr.values).sum() == 2
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, str(first))
        assert first.read_text().count("-0.0") == 2
        back = load_model(str(first))
        save_model(back, str(second))
        assert second.read_bytes() == first.read_bytes()
        assert same_bits(back.kernel, k)

    def check_decoders(self, spec, model, dense, monkeypatch):
        """Every `_scatter_rows` call site gives the dense reference's bits:
        the dense view, the kernel blocks of kernel @ g (also blocks of one
        state) and a policy's chain, and each row the row check rebuilds."""
        assert same_bits(dataclasses.replace(model, beta=1.0).kernel, dense)
        idx = np.arange(model.num_states)
        d = threshold_policy(spec)
        assert same_bits(induced_chain(dataclasses.replace(model, beta=1.0), d)[0], dense[idx, d.action])
        G = np.random.default_rng(92).normal(size=(2, model.num_states))
        check_kernel_times(model, G, monkeypatch, dense)
        # with no tolerance, the row check rebuilds every selected row
        rebuilt = []

        def check_rows(rows, name):
            i, a = map(int, name.removeprefix("kernel row ").split(","))
            rebuilt.append((i, a, same_bits(rows, dense[i, a][None])))

        monkeypatch.setattr(mvmdp.model, "ROW_SUM_TOL", 0.0)
        monkeypatch.setattr(mvmdp.model, "_check_rows", check_rows)
        mvmdp.model._check_kernel_rows(model, model.feasible_mask())
        monkeypatch.undo()
        assert rebuilt == [(i, a, True) for i, a in np.argwhere(model.feasible_mask()).tolist()]

    def check_encoders(self, model, dense):
        """Every `_csr_of_entries` call site gives one CSR: the wind
        builder's, a dense kernel's and a saved model file's."""
        csr = model.kernel_csr
        assert csr.values.size == np.count_nonzero((dense != 0) | np.signbit(dense))
        S, A = model.num_states, model.num_actions
        from_dense = MdpModel(S, A, model.feasible, dense, model.reward, model.beta).kernel_csr
        data = "".join(mvmdp.model._model_chunks(model)).encode()
        from_file = mvmdp.model._saved_model(data).kernel_csr
        del data
        for other in (from_dense, from_file):
            assert other.shape == csr.shape
            assert all(same_bits(got, want) for got, want in zip(other[1:], csr[1:]))

    def check_positive_table(self, model, dense):
        """The positive-entry table is the CSR of the dense entries > 0, and
        the successor table its first two arrays."""
        indptr, succ, prob = model._positive
        rows = dense.reshape(-1, model.num_states)
        positive = rows > 0
        assert np.array_equal(np.diff(indptr), positive.sum(axis=1))
        assert np.array_equal(succ, np.nonzero(positive)[1])
        assert same_bits(prob, rows[positive])
        assert all(not array.flags.writeable for array in model._positive)
        assert all(got is want for got, want in zip(model.successor_table(), (indptr, succ)))

    def test_decoders(self, wind_case, monkeypatch):
        self.check_decoders(*wind_case, monkeypatch)

    def test_encoders(self, wind_case):
        _, model, dense = wind_case
        self.check_encoders(model, dense)

    def test_negative_zeros_are_decoded_and_not_positive(self, monkeypatch):
        """A wind kernel with -0.0 entries: the CSR stores them, every
        decoder writes them with their sign, and the positive-entry table
        leaves them out, at B = 50, a kernel of several blocks."""
        K = mvmdp.wind_storage.WIND_KERNEL.copy()
        K[0, 0] += K[0, 4]
        K[3, 1] += K[3, 2]
        K[0, 4] = K[3, 2] = -0.0
        spec = WindStorageSpec(battery_capacity=50, wind_kernel=K)
        model = build(spec)
        dense = dense_wind_kernel(spec, model)
        assert several_blocks(model)
        zeros = (dense == 0) & np.signbit(dense)
        assert zeros.any() and np.signbit(model.kernel_csr.values).sum() == zeros.sum()
        self.check_decoders(spec, model, dense, monkeypatch)
        self.check_encoders(model, dense)
        self.check_positive_table(model, dense)
        assert np.all(model._positive[2] > 0)


def several_blocks(model) -> bool:
    """Whether the dense kernel is larger than one block of _BLOCK_BYTES."""
    S, A = model.num_states, model.num_actions
    return S * A * S * 8 > mvmdp.model._BLOCK_BYTES


def check_kernel_times(model, G, monkeypatch, dense=None):
    """`_kernel_times` of the potentials G, stacked, is one gemv per
    (potential, state) whatever the block size: with blocks of 4096 bytes
    (one or two states on the wind models) it has the default's bits, and
    those of the dense kernel's product, from `dense` or else the model's
    view."""
    reports = [SimpleNamespace(potential=g) for g in G]
    want = _kernel_times(model, reports)
    monkeypatch.setattr(mvmdp.sensitivity, "_BLOCK_BYTES", 4096)
    got = _kernel_times(model, reports)
    monkeypatch.undo()
    assert same_bits(got, want)
    dense = model.kernel if dense is None else dense
    assert all(same_bits(kg, dense @ g) for kg, g in zip(want, G))


def theta_with_zeros(rng, model):
    """A random theta on the feasible actions in which about a third of
    the feasible weights are zero, every row keeping one positive; state 0
    takes its first feasible action only."""
    mask = model.feasible_mask()
    w = np.where(mask & (rng.random(mask.shape) < 0.65), rng.random(mask.shape), 0.0)
    first = mask.argmax(axis=1)
    rows = np.arange(model.num_states)
    w[rows, first] += (w.sum(axis=1) == 0) * rng.random()
    w[0] = np.arange(model.num_actions) == first[0]
    return RandomizedPolicy(w / w.sum(axis=1, keepdims=True))


class TestMixtureScatter:
    """`induced_chain_randomized` mixes the chain with one scatter-add of
    the theta-weighted CSR entries; it has the bits of the dense
    np.einsum("ia,iaj->ij", theta, kernel)."""

    @staticmethod
    def check(model, theta):
        P, _, _ = induced_chain_randomized(model, theta)
        assert same_bits(P, np.einsum("ia,iaj->ij", theta.theta, model.kernel))

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_random_models(self, seed):
        rng = np.random.default_rng(seed)
        full = random_mdp(rng, max_states=12, max_actions=8)
        for model in (full, restrict_feasible(rng, full), sparse_mdp(rng)):
            self.check(model, theta_with_zeros(rng, model))

    @pytest.mark.parametrize("battery", [5, 50])
    @pytest.mark.parametrize("abandonment", [False, True])
    def test_wind_models(self, battery, abandonment):
        model = build(WindStorageSpec(battery_capacity=battery, abandonment=abandonment))
        assert several_blocks(model) == (battery == 50)
        rng = np.random.default_rng(93)
        for theta in (uniform_theta(model), theta_with_zeros(rng, model)):
            self.check(model, theta)


class TestKernelTimesBlocks:
    """`sensitivity._kernel_times` scatters (k, A, S) kernel blocks from the
    CSR into one buffer at every size; the block size changes no bit."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_random_models(self, seed):
        rng = np.random.default_rng(seed)
        full = random_mdp(rng, max_states=12, max_actions=8)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for model in (full, restrict_feasible(rng, full), sparse_mdp(rng)):
                check_kernel_times(model, rng.normal(size=(3, model.num_states)), monkeypatch)

    @pytest.mark.parametrize("abandonment", [False, True])
    def test_b50(self, abandonment, monkeypatch):
        model = build(WindStorageSpec(battery_capacity=50, abandonment=abandonment))
        assert several_blocks(model)
        G = np.random.default_rng(94).normal(size=(3, model.num_states))
        check_kernel_times(model, G, monkeypatch)


def dense_view_built(model) -> bool:
    return "kernel" in model.__dict__


class TestNoDenseView:
    """No package path builds the dense (S, A, S) kernel, of a model larger
    than one block or of the paper's B=5 models."""

    @pytest.mark.parametrize("abandonment", [False, True])
    def test_paths_at_b5(self, abandonment):
        spec = WindStorageSpec(abandonment=abandonment)
        model = build(spec)
        assert not several_blocks(model)
        multi_start(model, 2, seed=0)
        policy = threshold_policy(spec)
        report = evaluate(model, policy)
        improvement_vector(model, report, policy)
        theta = uniform_theta(model)
        evaluate(model, theta)
        gradient_solver(model, theta, GradientConfig(max_iterations=3))
        assert not dense_view_built(model)

    def test_paths_at_b50(self, tmp_path):
        spec = WindStorageSpec(battery_capacity=50, abandonment=True)
        model = build(spec)
        assert several_blocks(model)
        policy, _ = policy_iteration(model, threshold_policy(spec))
        report = evaluate(model, policy)
        improvement_vector(model, report, policy)
        check_necessary_condition(model, report, policy)
        other = dataclasses.replace(model, beta=0.5)
        assert other.kernel_csr is model.kernel_csr
        evaluate(other, policy)
        cli.sweep_beta(model, (0.1, 0.5), 1, seed=3)
        simulate_path(model, uniform_theta(model), 500, seed=0)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        back = load_model(str(path))
        evaluate(back, policy)
        assert not any(map(dense_view_built, (model, other, back)))

    def test_b1000_builds_validates_and_scores_in_bounded_memory(self):
        """S = 6006 and A = 8: the dense kernel alone would be ~2.3 GB."""
        spec = WindStorageSpec(battery_capacity=1000, abandonment=True)
        tracemalloc.start()
        try:
            model = build(spec)
            indptr, succ = model.successor_table()
            policy = threshold_policy(spec)
            S = model.num_states
            # a report whose potential solves the Poisson equation of the
            # policy's chain with J = 0, from the CSR rows of its pairs
            csr = model.kernel_csr
            chain_ptr, cols, values = mvmdp.model._gather_rows(
                csr.indptr, np.arange(S) * model.num_actions + policy.action, csr.cols, csr.values
            )
            g = np.sin(np.arange(S, dtype=float))
            pg = np.add.reduceat(values * g[cols], chain_ptr[:-1])
            report = EvaluationReport(
                pi=np.full(S, 1.0 / S), j_mean=0.0, j_var=0.0, j_combined=0.0, cost=g - pg,
                potential=g, potential_mean=g, potential_var=np.zeros(S), beta=model.beta,
            )
            score, kg = _score_table(model, report, policy, "policy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (S, model.num_actions) == (6006, 8)
        assert indptr.size == S * 8 + 1 and succ.size == model.kernel_csr.values.size
        assert np.isfinite(score[model.feasible_mask()]).all()
        assert not dense_view_built(model)
        assert peak < 64 * 2**20


class TestConstructorErrors:
    """MdpModel's own checks, each with its message."""

    def test_no_kernel(self):
        with pytest.raises(TypeError, match=r"^MdpModel needs a kernel \(or kernel_csr\), reward and beta$"):
            MdpModel(1, 1, ((0,),), reward=[[0.0]], beta=0.1)

    def test_no_states(self):
        with pytest.raises(ValidationError, match=r"^need at least one state and action, got S=0, A=1$"):
            MdpModel(0, 1, (), np.zeros((0, 1, 0)), np.zeros((0, 1)), 0.1)

    def test_feasible_of_the_wrong_length(self):
        with pytest.raises(ValidationError, match=r"^feasible has 1 entries, expected 2$"):
            small_model(feasible=((0, 1),))


def test_kernel_entry_longer_than_any_float_takes_the_json_route(tmp_path, monkeypatch):
    """A kernel entry text longer than 32 bytes stops the saved-file reader
    in `_parse_floats`; the json route then loads the file, and it gives the
    model `model_from_dict` gives for the same text."""
    model = build(WindStorageSpec())
    path = tmp_path / "m.json"
    save_model(model, str(path))
    text = path.read_text()
    entry = "      0.53,\n"
    assert entry in text
    path.write_text(text.replace(entry, "      0.530000000000000000000000000,\n", 1))
    raised = []
    parse_floats = mvmdp.model._parse_floats

    def spy(*args):
        try:
            return parse_floats(*args)
        except ValueError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(mvmdp.model, "_parse_floats", spy)
    got = load_model(str(path))
    assert raised == ["longer than the text of any float"]
    want = model_from_dict(json.loads(path.read_text()))
    for back in (want, model):
        assert model_to_dict(got) == model_to_dict(back)
        for a, b in zip(got.kernel_csr[1:], back.kernel_csr[1:]):
            assert np.array_equal(a, b)
