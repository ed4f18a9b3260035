"""Command-line behavior: artifacts, determinism, and exit codes."""
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import outcome, random_mdp, restrict_feasible, threshold_policy
from mvmdp import (
    DeterministicPolicy,
    GradientConfig,
    JointState,
    MdpModel,
    MvmdpError,
    RandomizedPolicy,
    ValidationError,
    WindStorageSpec,
    build,
    check_ergodicity,
    estimate_metrics,
    estimate_potential,
    evaluate,
    improvement_vector,
    load_model,
    load_policy,
    gradient_solver,
    multi_start,
    policy_iteration,
    sample_random_policy,
    save_model,
    save_policy,
    simulate_path,
)
from mvmdp import cli, solvers
from mvmdp.cli import ParetoPoint, _build_parser, _optima_path, cross_check, main, sweep_beta


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding wind.json and the policy pol.json that solve-pi
    finds on it from seed 0, with its trace trace.csv."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["wind-build", "--scenario", "no-abandon", "--beta", "0.1",
                 "--out", str(d / "wind.json")]) == 0
    assert main(["solve-pi", "--model", str(d / "wind.json"), "--seed", "0",
                 "--out", str(d / "trace.csv"), "--policy-out", str(d / "pol.json")]) == 0
    return d


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestArguments:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, workdir, tmp_path, capsys, monkeypatch):
        """The parser is built once per process, and no call leaves state
        for the next: after an argparse error, `--seed 3` and then no
        `--seed` give what each gives in a fresh process, seed 0 the
        second time."""
        assert _build_parser() is _build_parser()
        monkeypatch.delenv("MVMDP_SEED", raising=False)
        model = str(workdir / "wind.json")
        with pytest.raises(SystemExit) as exc:
            main(["solve-pi", "--model", model, "--no-such-option"])
        assert exc.value.code == 2
        capsys.readouterr()
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        traces = []
        for name, seed in (("seed3", ["--seed", "3"]), ("default", [])):
            argv = ["solve-pi", "--model", model, *seed, "--out"]
            assert main([*argv, str(tmp_path / f"{name}.csv")]) == 0
            err = capsys.readouterr().err
            fresh = subprocess.run(
                [sys.executable, "-m", "mvmdp.cli", *argv, str(tmp_path / f"{name}_fresh.csv")],
                env=env, capture_output=True, text=True,
            )
            assert (fresh.returncode, fresh.stderr) == (0, err)
            trace = (tmp_path / f"{name}.csv").read_bytes()
            assert trace == (tmp_path / f"{name}_fresh.csv").read_bytes()
            traces.append(trace)
        assert main(["solve-pi", "--model", model, "--seed", "0", "--out", str(tmp_path / "seed0.csv")]) == 0
        assert traces[1] == (tmp_path / "seed0.csv").read_bytes() != traces[0]

    def test_bad_beta_grid_exits_2(self, workdir, capsys):
        cases = [
            ("1.0,0.5", "strictly increasing"),
            ("0.0,0.5", "> 0"),
            ("0.1,x", "bad beta grid"),
            ("", "bad beta grid"),
            ("0.1,nan", "beta must be > 0, got nan"),
            ("0.1,inf", "beta must be finite, got inf"),
        ]
        for grid, message in cases:
            assert main(["sweep-beta", "--model", str(workdir / "wind.json"),
                         "--beta-grid", grid]) == 2
            assert message in capsys.readouterr().err

    def test_zero_starts_per_beta_exits_2(self, workdir, tmp_path, capsys):
        """Every beta would fail; the sweep refuses before writing a CSV."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep-beta", "--model", str(workdir / "wind.json"),
                     "--beta-grid", "0.1", "--starts", "0", "--out", str(out)]) == 2
        assert "starts per beta must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValidationError, match="starts per beta"):
            sweep_beta(load_model(str(workdir / "wind.json")), (0.1,), -1)

    def test_theta_row_off_one_exits_2(self, workdir, tmp_path, capsys):
        theta = np.full((36, 5), 0.2)
        theta[0] = [0.1, 0.2, 0.2, 0.2, 0.2]
        policy = tmp_path / "theta.json"
        policy.write_text(json.dumps({"theta": theta.tolist()}))
        assert main(["evaluate", "--model", str(workdir / "wind.json"),
                     "--policy", str(policy)]) == 2
        assert capsys.readouterr().err == "error: theta row 0 sums to 0.8999999999999999, expected 1\n"

    def test_negative_iteration_cap_exits_2(self, workdir):
        assert main(["solve-pi", "--model", str(workdir / "wind.json"),
                     "--max-iterations", "-1"]) == 2

    def test_zero_gradient_iterations_exits_2(self, workdir):
        """--max-iterations 0 is refused, not read as the default of 500."""
        assert main(["solve-gd", "--model", str(workdir / "wind.json"),
                     "--max-iterations", "0"]) == 2


class TestWindBuild:
    def test_abandon_scenario(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(["wind-build", "--scenario", "abandon", "--beta", "1.0",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["num_states"] == 36
        assert data["num_actions"] == 8
        assert data["beta"] == 1.0

    def test_custom_kernel_file(self, tmp_path):
        kf = tmp_path / "k.json"
        kf.write_text(json.dumps([[1.0 / 6] * 6] * 6))
        out = tmp_path / "m.json"
        assert main(["wind-build", "--kernel", str(kf), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kernel"]["0,2"][0] == pytest.approx(1.0 / 6)

    def test_bad_kernel_shape_is_validation_error(self, tmp_path):
        kf = tmp_path / "k.json"
        kf.write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
        assert main(["wind-build", "--kernel", str(kf), "--out",
                     str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("kernel", [
        [[0.5, 0.5], [1.0]],
        [["x"] * 6] * 6,
        {"0": [1.0]},
    ], ids=["ragged", "word", "object"])
    def test_malformed_kernel_is_validation_error(self, tmp_path, kernel):
        kf = tmp_path / "k.json"
        kf.write_text(json.dumps(kernel))
        assert main(["wind-build", "--kernel", str(kf), "--out",
                     str(tmp_path / "m.json")]) == 2

    def test_kernel_json_error_names_position(self, tmp_path, capsys):
        kf = tmp_path / "k.json"
        kf.write_text("[[1.0,\n")
        assert main(["wind-build", "--kernel", str(kf), "--out",
                     str(tmp_path / "m.json")]) == 4
        assert "(line 2, column 1)" in capsys.readouterr().err

    def test_rebuild_is_byte_identical(self, workdir, tmp_path):
        again = tmp_path / "again.json"
        main(["wind-build", "--out", str(again)])
        assert again.read_bytes() == (workdir / "wind.json").read_bytes()


class TestSolveAndEvaluate:
    def test_solve_pi_artifacts(self, workdir):
        trace = workdir / "trace.csv"
        pol = workdir / "pol.json"
        header, rows = read_csv(trace)
        assert header == ["iter", "j_mean", "j_var", "j_combined", "states_changed"]
        assert rows[0][0] == "0" and rows[0][4] == "0"
        assert rows[-1][4] == "0"
        combined = [float(r[3]) for r in rows]
        assert combined == sorted(combined)
        assert isinstance(load_policy(str(pol)), DeterministicPolicy)

    def test_solve_pi_rerun_is_byte_identical(self, workdir, tmp_path):
        t2 = tmp_path / "t2.csv"
        main(["solve-pi", "--model", str(workdir / "wind.json"), "--seed", "0",
              "--out", str(t2)])
        assert t2.read_bytes() == (workdir / "trace.csv").read_bytes()

    def test_solve_pi_iteration_cap_is_solver_failure(self, workdir):
        code = main(["solve-pi", "--model", str(workdir / "wind.json"),
                     "--seed", "0", "--max-iterations", "1"])
        assert code == 3

    def test_solve_pi_from_degenerate_initial_fails_with_code_3(self, workdir, tmp_path):
        frozen = tmp_path / "frozen.json"
        save_policy(DeterministicPolicy(np.full(36, 2)), str(frozen))
        code = main(["solve-pi", "--model", str(workdir / "wind.json"),
                     "--initial", str(frozen)])
        assert code == 3

    def test_evaluate_report_and_scores(self, workdir):
        rep = workdir / "report.json"
        scores = workdir / "scores.csv"
        code = main(["evaluate", "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--out", str(rep), "--scores-out", str(scores)])
        assert code == 0
        data = json.loads(rep.read_text())
        assert data["j_combined"] == pytest.approx(
            data["j_mean"] - data["beta"] * data["j_var"], abs=1e-10
        )
        header, rows = read_csv(scores)
        assert header == ["state", "action", "score"]
        assert len(rows) == 131  # one row per feasible pair
        # the rows of a loop over model.feasible, byte for byte
        model = load_model(str(workdir / "wind.json"))
        policy = load_policy(str(workdir / "pol.json"))
        score = improvement_vector(model, evaluate(model, policy), policy).score
        want = "state,action,score\n" + "".join(
            f"{i},{a},{float(score[i, a])!r}\n" for i, acts in enumerate(model.feasible) for a in acts
        )
        assert scores.read_text() == want

    def test_evaluate_frozen_policy_exit_3(self, workdir, tmp_path):
        frozen = tmp_path / "frozen.json"
        save_policy(DeterministicPolicy(np.full(36, 2)), str(frozen))
        code = main(["evaluate", "--model", str(workdir / "wind.json"),
                     "--policy", str(frozen)])
        assert code == 3

    def test_solve_gd_artifacts(self, workdir):
        trace = workdir / "gd.csv"
        pol = workdir / "gd_pol.json"
        code = main(["solve-gd", "--model", str(workdir / "wind.json"),
                     "--out", str(trace), "--policy-out", str(pol)])
        assert code == 0
        header, rows = read_csv(trace)
        assert header == ["iter", "j_mean", "j_var", "j_combined", "states_changed"]
        assert len(rows) >= 2
        assert isinstance(load_policy(str(pol)), RandomizedPolicy)

    def test_multi_start_csv(self, workdir):
        out = workdir / "starts.csv"
        code = main(["multi-start", "--model", str(workdir / "wind.json"),
                     "--starts", "4", "--seed", "0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["policy_id", "j_mean", "j_var", "j_combined"]
        assert [r[0] for r in rows] == ["start0", "start1", "start2", "start3"]

    def test_solver_summary_lines(self, workdir, tmp_path, capsys):
        """The stop line of solve-pi and solve-gd, and the error line after
        it when the trace did not converge."""
        model_path = str(workdir / "wind.json")
        model = load_model(model_path)
        initial = sample_random_policy(model, np.random.default_rng(0))
        capped = "error: policy iteration stopped by iteration cap (max_iterations)\n"
        for cap, end in ((None, ""), (1, capped)):
            _, trace = policy_iteration(model, initial, max_iterations=cap)
            last = trace.iterations[-1]
            argv = ["solve-pi", "--model", model_path, "--seed", "0"]
            argv += [] if cap is None else ["--max-iterations", str(cap)]
            assert main(argv) == (3 if end else 0)
            assert capsys.readouterr().err == (
                f"stop={trace.stop_reason} iterations={len(trace.iterations) - 1} "
                f"j_mean={last.j_mean!r} j_var={last.j_var!r} j_combined={last.j_combined!r}\n{end}"
            )
        theta = RandomizedPolicy(solvers._uniform_feasible(model))
        for cap, end in ((500, ""), (1, "error: gradient solver did not reach the stop threshold\n")):
            result = gradient_solver(model, theta, GradientConfig(max_iterations=cap))
            argv = ["solve-gd", "--model", model_path, "--max-iterations", str(cap)]
            assert main(argv) == (3 if end else 0)
            assert capsys.readouterr().err == (
                f"stop={result.trace.stop_reason} iterations={len(result.trace.iterations) - 1} "
                f"j_mean={result.report.j_mean!r} j_var={result.report.j_var!r} "
                f"j_combined={result.report.j_combined!r}\n{end}"
            )

    @pytest.mark.parametrize("command, option, what", [
        ("wind-build", "--out", "model"),
        ("solve-pi", "--out", "output"),
        ("solve-pi", "--policy-out", "policy"),
        ("evaluate", "--out", "output"),
        ("evaluate", "--scores-out", "output"),
    ], ids=["model file", "trace csv", "policy file", "report json", "scores csv"])
    def test_write_failure_exits_4(self, workdir, tmp_path, capsys, command, option, what):
        path = str(tmp_path / "missing" / "out")
        model = str(workdir / "wind.json")
        policy = str(tmp_path / "policy.json")
        save_policy(sample_random_policy(load_model(model), np.random.default_rng(0)), policy)
        args = {
            "wind-build": [],
            "solve-pi": ["--model", model],
            "evaluate": ["--model", model, "--policy", policy],
        }[command]
        assert main([command, *args, option, path]) == 4
        assert f"error: cannot write {what} file {path}: " in capsys.readouterr().err

    def test_missing_model_is_io_error(self):
        assert main(["evaluate", "--model", "nope.json", "--policy", "nope2.json"]) == 4

    def test_malformed_model_is_validation_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((workdir / "wind.json").read_text())
        data["kernel"]["0,2"][0] -= 0.1
        bad.write_text(json.dumps(data))
        assert main(["evaluate", "--model", str(bad),
                     "--policy", str(workdir / "pol.json")]) == 2

    @pytest.mark.parametrize("defect", [
        lambda d: d["kernel"]["0,2"].__setitem__(0, "a"),
        lambda d: d["reward"].__setitem__("0,2", None),
        lambda d: d["reward"].__setitem__("0,2", [0.5]),
        lambda d: (d["feasible"][0].append(9), d["kernel"].__setitem__("0,9", d["kernel"]["0,2"]),
                   d["reward"].__setitem__("0,9", 0.0)),
        lambda d: d.__setitem__("num_states", -1),
    ], ids=["word in a row", "null reward", "list reward", "action past num_actions", "negative num_states"])
    def test_mistyped_model_file_exits_2(self, workdir, tmp_path, capsys, defect):
        bad = tmp_path / "bad.json"
        data = json.loads((workdir / "wind.json").read_text())
        defect(data)
        bad.write_text(json.dumps(data))
        policy = tmp_path / "policy.json"
        save_policy(DeterministicPolicy(np.zeros(36, dtype=int)), str(policy))
        assert main(["evaluate", "--model", str(bad), "--policy", str(policy)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("defect", [
        lambda d: d.__setitem__("num_states", 36.5),
        lambda d: d["feasible"][0].__setitem__(0, 2.0),
    ], ids=["fractional num_states", "integral float action"])
    def test_non_integer_model_file_exits_2(self, workdir, tmp_path, capsys, defect):
        """A size or action that is not an integer is refused, not truncated
        to a model that a feasible policy could evaluate."""
        bad = tmp_path / "bad.json"
        data = json.loads((workdir / "wind.json").read_text())
        defect(data)
        bad.write_text(json.dumps(data))
        policy = tmp_path / "policy.json"
        model = load_model(str(workdir / "wind.json"))
        save_policy(sample_random_policy(model, np.random.default_rng(0)), str(policy))
        assert main(["evaluate", "--model", str(bad), "--policy", str(policy)]) == 2
        assert "cannot be interpreted as an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--model", "--policy"])
    def test_file_that_is_not_utf8_is_io_error(self, workdir, tmp_path, capsys, option):
        """Bytes that do not decode end the command like any unreadable
        file: a message and exit 4, no traceback."""
        files = {"--model": str(workdir / "wind.json"), "--policy": str(tmp_path / "policy.json")}
        save_policy(DeterministicPolicy(np.zeros(36, dtype=int)), files["--policy"])
        files[option] = str(tmp_path / "binary.json")
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
        assert main(["evaluate", "--model", files["--model"], "--policy", files["--policy"]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not UTF-8 text" in err


class TestSweepBeta:
    def test_points_and_optima_files(self, workdir):
        out = workdir / "sweep.csv"
        code = main(["sweep-beta", "--model", str(workdir / "wind.json"),
                     "--beta-grid", "0.1,0.5,1.0", "--starts", "4",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["beta", "j_mean", "j_var", "j_combined"]
        assert [float(r[0]) for r in rows] == [0.1, 0.5, 1.0]
        for r in rows:
            beta, jm, jv, jc = map(float, r)
            assert jc == pytest.approx(jm - beta * jv, abs=1e-10)
        header2, rows2 = read_csv(workdir / "sweep_optima.csv")
        assert header2 == header
        assert len(rows2) >= len(rows)

    def test_singleton_grid_matches_multi_start(self, workdir):
        model_path = str(workdir / "wind.json")
        from mvmdp import load_model

        model = load_model(model_path)
        points, optima, failures = sweep_beta(model, (0.1,), 4, seed=0)
        assert failures == []
        assert len(points) == 1
        ms = multi_start(model, 4, seed=0)
        assert points[0].j_combined == pytest.approx(ms.best_report.j_combined)
        assert points[0].policy_id == f"start{ms.best_index}"

    def test_failing_beta_is_skipped_not_fatal(self, tmp_path):
        # no deterministic policy of this model induces a single recurrent
        # class, so every beta fails and is reported rather than raised
        m = MdpModel(
            num_states=2,
            num_actions=1,
            feasible=((0,), (0,)),
            kernel=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
            reward=np.array([[1.0], [2.0]]),
            beta=0.5,
        )
        path = tmp_path / "split.json"
        save_model(m, str(path))
        out = tmp_path / "sweep.csv"
        code = main(["sweep-beta", "--model", str(path),
                     "--beta-grid", "0.5,1.0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert rows == [] or rows == [[""]]

    def test_sweep_matches_per_beta_multi_start(
        self, wind_model, abandon_model_beta1, abandon_model_b20
    ):
        grid = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
        rng = np.random.default_rng(83)
        m = random_mdp(rng)
        cases = [
            (wind_model, grid, 8),
            (abandon_model_beta1, grid, 8),
            (abandon_model_b20, (0.1, 1.0), 10),
            (m, grid, 6),
            (restrict_feasible(rng, m), grid, 6),
        ]
        failed = 0
        for model, betas, starts in cases:
            for seed in (0, 1):
                got = outcome(sweep_beta, model, betas, starts, seed)
                want = outcome(per_beta_sweep, model, betas, starts, seed)
                assert got == want
                failed += len(want[1][2])
        assert failed > 0

    def test_starts_are_drawn_once_per_sweep(self, monkeypatch, wind_model):
        draws = []
        inner = solvers.sample_random_policy

        def counting(model, rng):
            draws.append(model.beta)
            return inner(model, rng)

        monkeypatch.setattr(solvers, "sample_random_policy", counting)
        points, _, failures = sweep_beta(wind_model, (0.1, 0.5, 2.0), 4, seed=0)
        assert len(points) == 3 and failures == []
        assert draws == [wind_model.beta] * 4

    def test_optima_sidecar_beside_a_dotted_directory(self, workdir, tmp_path):
        """The sidecar's extension comes from the file name, not from a dot
        in a directory name."""
        (tmp_path / "d.v2").mkdir()
        out = tmp_path / "d.v2" / "sweep"
        assert main(["sweep-beta", "--model", str(workdir / "wind.json"),
                     "--beta-grid", "0.1", "--starts", "2", "--out", str(out)]) == 0
        header, _ = read_csv(tmp_path / "d.v2" / "sweep_optima")
        assert header == ["beta", "j_mean", "j_var", "j_combined"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.v2"]
        assert _optima_path("out/x_sweep.csv") == "out/x_sweep_optima.csv"
        assert _optima_path("a.tar.gz") == "a.tar_optima.gz"
        assert _optima_path("sweep") == "sweep_optima"

    def test_empty_grid_rejected(self, workdir):
        model_path = str(workdir / "wind.json")
        from mvmdp import load_model

        with pytest.raises(ValidationError, match="nonempty"):
            sweep_beta(load_model(model_path), (), 2)

    @pytest.mark.parametrize("beta, message", [
        (float("nan"), "beta must be > 0, got nan"),
        (float("inf"), "beta must be finite, got inf"),
        (-1.0, "beta must be > 0, got -1.0"),
    ])
    def test_bad_beta_rejected_before_any_run(self, monkeypatch, wind_model, beta, message):
        runs = []
        monkeypatch.setattr(cli, "_multi_start", lambda *args: runs.append(args))
        assert outcome(sweep_beta, wind_model, (0.1, 0.5, beta), 2) == ("ValidationError", message)
        assert runs == []


class TestSimulateAndCheck:
    def test_simulate_artifacts(self, workdir):
        est = workdir / "est.json"
        path_csv = workdir / "path.csv"
        code = main(["simulate", "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--horizon", "5000", "--burn-in", "100", "--seed", "2",
                     "--out", str(est), "--path-out", str(path_csv)])
        assert code == 0
        data = json.loads(est.read_text())
        assert data["horizon"] == 5000
        assert data["half_width_mean"] > 0
        header, rows = read_csv(path_csv)
        assert header == ["t", "state", "action", "reward"]
        assert len(rows) == 5100

    @pytest.mark.parametrize("scenario", ["no-abandon", "abandon"])
    def test_path_out_bytes_match_per_row_formatting(self, tmp_path, scenario):
        """--path-out writes the bytes of formatting each row of the path on
        its own, burn-in steps included, for both policy kinds."""
        spec = WindStorageSpec(abandonment=scenario == "abandon")
        model = build(spec)
        theta = model.feasible_mask().astype(float)
        policies = [threshold_policy(spec), RandomizedPolicy(theta / theta.sum(axis=1, keepdims=True))]
        save_model(model, str(tmp_path / "model.json"))
        for k, policy in enumerate(policies):
            save_policy(policy, str(tmp_path / "policy.json"))
            out = tmp_path / f"path{k}.csv"
            assert main(["simulate", "--model", str(tmp_path / "model.json"),
                         "--policy", str(tmp_path / "policy.json"), "--horizon", "60000",
                         "--burn-in", "250", "--seed", str(k + 1), "--out", str(tmp_path / "est.json"),
                         "--path-out", str(out)]) == 0
            path = simulate_path(load_model(str(tmp_path / "model.json")), policy, 60250, seed=k + 1)
            rows = zip(path.states, path.actions, path.rewards)
            want = "t,state,action,reward\n" + "".join(
                ",".join((str(t), str(int(s)), str(int(a)), repr(float(r)))) + "\n"
                for t, (s, a, r) in enumerate(rows)
            )
            assert out.read_bytes() == want.encode()

    def test_check_passes_on_converged_policy(self, workdir):
        out = workdir / "check.json"
        code = main(["check", "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--horizon", "200000", "--seed", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        for key in ("j_mean", "j_var", "j_combined"):
            assert data[key]["pass"] is True
            assert data[key]["half_width"] > 0

    def test_check_tiny_horizon_still_exits_zero(self, workdir):
        code = main(["check", "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--horizon", "10", "--burn-in", "0", "--seed", "4"])
        assert code == 0

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_negative_burn_in_exits_2(self, workdir, command, capsys):
        code = main([command, "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--horizon", "1000", "--burn-in", "-5"])
        assert code == 2
        assert "burn-in must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize("horizon, burn_in", [("1", "1000"), ("-5", "10")])
    def test_horizon_below_2_exits_2_before_simulating(self, workdir, command, horizon, burn_in, capsys):
        """A horizon below the 2 steps estimate_metrics needs is named as the
        horizon, also when burn-in would make the path long enough to run."""
        code = main([command, "--model", str(workdir / "wind.json"),
                     "--policy", str(workdir / "pol.json"),
                     "--horizon", horizon, "--burn-in", burn_in])
        assert code == 2
        assert capsys.readouterr().err == f"error: horizon must be >= 2, got {horizon}\n"

    def test_cross_check_rejects_negative_burn_in(self, workdir):
        model = load_model(str(workdir / "wind.json"))
        policy = load_policy(str(workdir / "pol.json"))
        with pytest.raises(ValidationError, match="burn-in must be >= 0"):
            cross_check(model, policy, T=100, burn_in=-1)

    def test_cross_check_constant_reward_is_exact(self):
        m = MdpModel(
            num_states=2,
            num_actions=1,
            feasible=((0,), (0,)),
            kernel=np.array([[[0.5, 0.5]], [[0.5, 0.5]]]),
            reward=np.array([[2.0], [2.0]]),
            beta=0.3,
        )
        d = DeterministicPolicy(np.zeros(2, dtype=int))
        out = cross_check(m, d, T=500, seed=0, burn_in=10)
        assert out["j_mean"]["pass"] and out["j_var"]["pass"]
        assert out["j_mean"]["estimate"] == 2.0
        assert out["j_var"]["half_width"] == 0.0


class TestSeedEnvironment:
    def test_env_seed_is_the_default(self, workdir, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit.csv"
        main(["solve-pi", "--model", str(workdir / "wind.json"),
              "--seed", "6", "--out", str(explicit)])
        monkeypatch.setenv("MVMDP_SEED", "6")
        from_env = tmp_path / "env.csv"
        main(["solve-pi", "--model", str(workdir / "wind.json"),
              "--out", str(from_env)])
        assert from_env.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("command, extra", [
        ("solve-pi", []),
        ("multi-start", []),
        ("sweep-beta", ["--beta-grid", "0.1"]),
        ("simulate", ["--policy", "none.json"]),
        ("check", ["--policy", "none.json"]),
    ])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
    def test_bad_seed_exits_2(self, workdir, capsys, command, extra, seed):
        argv = [command, "--model", str(workdir / "wind.json"), "--seed", seed, *extra]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --seed must be an integer >= 0, got {seed!r}\n"

    @pytest.mark.parametrize("seed", ["abc", "1.5", "-2", ""])
    def test_bad_env_seed_exits_2(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.setenv("MVMDP_SEED", seed)
        assert main(["wind-build", "--out", str(tmp_path / "w.json")]) == 2
        assert capsys.readouterr().err == f"error: MVMDP_SEED must be an integer >= 0, got {seed!r}\n"
        assert not (tmp_path / "w.json").exists()
        # --seed overrides the environment variable, which then goes unread
        assert main(["wind-build", "--seed", "3", "--out", str(tmp_path / "w.json")]) == 0


def per_beta_sweep(model, beta_grid, starts_per_beta, seed):
    """sweep_beta as one public multi_start per beta, each drawing its
    starts from the same seed."""
    points, optima_rows, failures = [], [], []
    for beta in beta_grid:
        model_b = dataclasses.replace(model, beta=float(beta))
        try:
            result = multi_start(model_b, starts_per_beta, seed)
        except MvmdpError as exc:
            failures.append((float(beta), str(exc)))
            continue
        best = result.best_report
        points.append(
            ParetoPoint(float(beta), best.j_mean, best.j_var, best.j_combined,
                        f"start{result.best_index}")
        )
        seen = []
        for trace in result.traces:
            last = trace.iterations[-1]
            if any(abs(last.j_combined - v) <= 1e-6 for v in seen):
                continue
            seen.append(last.j_combined)
            optima_rows.append((float(beta), last.j_mean, last.j_var, last.j_combined))
    return points, optima_rows, failures


NON_INTEGER_SIZES = {
    "simulate_path T": (lambda m, d: simulate_path(m, d, 2.5), "path length"),
    "simulate_path start_state": (lambda m, d: simulate_path(m, d, 10, start_state=1.5), "start_state"),
    "estimate_metrics num_batches": (
        lambda m, d: estimate_metrics([1.0, 2.0, 0.5, 3.0], 0.1, num_batches=2.5), "num_batches"
    ),
    "estimate_potential truncation": (lambda m, d: estimate_potential(m, d, 1, truncation=2.5), "truncation"),
    "estimate_potential state": (lambda m, d: estimate_potential(m, d, 1.5), "state"),
    "estimate_potential num_replications": (
        lambda m, d: estimate_potential(m, d, 1, num_replications=10.5), "num_replications"
    ),
    "check_ergodicity sample_size": (lambda m, d: check_ergodicity(m, sample_size=2.5), "sample_size"),
    "sample_random_policy max_tries": (
        lambda m, d: sample_random_policy(m, np.random.default_rng(0), max_tries=2.5), "max_tries"
    ),
    "build battery_capacity": (lambda m, d: build(WindStorageSpec(battery_capacity=2.5)), "battery capacity"),
    "spec battery_capacity text": (lambda m, d: WindStorageSpec(battery_capacity="5"), "battery capacity"),
    "cross_check T": (lambda m, d: cross_check(m, d, 2.5), "horizon"),
    "sweep_beta starts": (lambda m, d: sweep_beta(m, (0.1,), 2.5), "starts per beta"),
    "simulate_path T bool": (lambda m, d: simulate_path(m, d, True), "path length"),
    "multi_start num_starts bool": (lambda m, d: multi_start(m, True), "num_starts"),
    "policy_iteration max_iterations bool": (
        lambda m, d: policy_iteration(m, d, max_iterations=True), "max_iterations"
    ),
    "spec battery_capacity bool": (lambda m, d: WindStorageSpec(battery_capacity=True), "battery capacity"),
    "check_ergodicity enumeration_cap": (lambda m, d: check_ergodicity(m, enumeration_cap=2.5), "enumeration_cap"),
    "check_ergodicity enumeration_cap None": (
        lambda m, d: check_ergodicity(m, enumeration_cap=None), "enumeration_cap"
    ),
    "from_flat index": (lambda m, d: JointState.from_flat(3.0, 5), "index"),
    "from_flat battery_capacity": (lambda m, d: JointState.from_flat(3, 2.5), "battery capacity"),
}


@pytest.mark.parametrize("case", NON_INTEGER_SIZES)
def test_non_integer_size_is_a_validation_error(case, wind_model, wind_spec):
    """A size, count or index that is not an integer raises ValidationError
    naming the argument, not a bare TypeError; sweep_beta raises it before
    the sweep instead of listing every beta as failed."""
    call, name = NON_INTEGER_SIZES[case]
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got "):
        call(wind_model, threshold_policy(wind_spec))


SEEDED_CALLS = {
    "simulate_path": lambda m, d, seed: simulate_path(m, d, 10, seed=seed),
    "estimate_metrics": lambda m, d, seed: estimate_metrics([1.0, 2.0, 3.0], 0.1, seed=seed),
    "estimate_potential": lambda m, d, seed: estimate_potential(m, d, 1, seed=seed),
    "multi_start": lambda m, d, seed: multi_start(m, 2, seed=seed),
    "sweep_beta": lambda m, d, seed: sweep_beta(m, (0.1,), 2, seed=seed),
    "check_ergodicity": lambda m, d, seed: check_ergodicity(m, sample_size=2, seed=seed, enumeration_cap=1),
    "ExplorationConfig": lambda m, d, seed: solvers.ExplorationConfig(seed=seed),
}


@pytest.mark.parametrize("seed", [2.5, -1, True, "3"], ids=repr)
@pytest.mark.parametrize("call", SEEDED_CALLS)
def test_seed_is_an_integer_of_at_least_0(call, seed, wind_model, wind_spec):
    """Every seed of the public API is an integer >= 0, as numpy's
    generators take: any other raises a ValidationError naming `seed`, not
    numpy's bare TypeError or ValueError, and no result echoes it.
    sweep_beta raises it before the sweep instead of listing every beta as
    failed."""
    with pytest.raises(ValidationError, match=r"^seed must be an integer"):
        SEEDED_CALLS[call](wind_model, threshold_policy(wind_spec), seed)


# name, floor, and a call passing floor - 1 for that count
BELOW_FLOOR = {
    "sweep_beta starts": ("starts per beta", 1, lambda m, d: sweep_beta(m, (0.1,), 0)),
    "cross_check burn_in": ("burn-in", 0, lambda m, d: cross_check(m, d, 100, burn_in=-1)),
    "cross_check T": ("horizon", 2, lambda m, d: cross_check(m, d, 1)),
    "check_ergodicity sample_size": ("sample_size", 0, lambda m, d: check_ergodicity(m, sample_size=-1)),
    "check_ergodicity enumeration_cap": (
        "enumeration_cap", 0, lambda m, d: check_ergodicity(m, enumeration_cap=-1)
    ),
    "sample_random_policy max_tries": (
        "max_tries", 1, lambda m, d: sample_random_policy(m, np.random.default_rng(0), max_tries=0)
    ),
    "simulate_path T": ("path length", 1, lambda m, d: simulate_path(m, d, 0)),
    "estimate_metrics num_batches": (
        "num_batches", 1, lambda m, d: estimate_metrics([1.0, 2.0, 0.5, 3.0], 0.1, num_batches=0)
    ),
    "estimate_potential truncation": (
        "truncation", 1, lambda m, d: estimate_potential(m, d, 1, truncation=0)
    ),
    "estimate_potential num_replications": (
        "num_replications", 1, lambda m, d: estimate_potential(m, d, 1, num_replications=0)
    ),
    "ExplorationConfig budget": ("budget", 1, lambda m, d: solvers.ExplorationConfig(budget=0)),
    "GradientConfig max_iterations": ("max_iterations", 1, lambda m, d: GradientConfig(max_iterations=0)),
    "policy_iteration max_iterations": (
        "max_iterations", 0, lambda m, d: policy_iteration(m, d, max_iterations=-1)
    ),
    "multi_start num_starts": ("num_starts", 1, lambda m, d: multi_start(m, 0)),
    "spec battery_capacity": ("battery capacity", 1, lambda m, d: WindStorageSpec(battery_capacity=0)),
    "from_flat index": ("index", 0, lambda m, d: JointState.from_flat(-1)),
    "from_flat battery_capacity": ("battery capacity", 1, lambda m, d: JointState.from_flat(3, 0)),
}


@pytest.mark.parametrize("case", BELOW_FLOOR)
def test_count_below_its_floor_is_named_with_the_floor(case, wind_model, wind_spec):
    """Every floored count one below its floor raises the one message form,
    naming the count, the floor and the value given."""
    name, low, call = BELOW_FLOOR[case]
    with pytest.raises(ValidationError, match=rf"^{name} must be >= {low}, got {low - 1}$"):
        call(wind_model, threshold_policy(wind_spec))


def test_numpy_integer_seed_is_accepted(wind_model, wind_spec):
    d = threshold_policy(wind_spec)
    got = simulate_path(wind_model, d, 50, seed=np.int64(3))
    assert np.array_equal(got.states, simulate_path(wind_model, d, 50, seed=3).states)
