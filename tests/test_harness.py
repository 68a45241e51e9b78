"""Experiment harness: metrics, aggregation, result files, and the CLI."""

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sbsopt import (
    BudgetExceeded,
    BudgetTooSmall,
    ConfigError,
    ExperimentConfig,
    FunctionSpec,
    MethodSpec,
    average_rank,
    derive_seed,
    ecr,
    make_benchmark,
    run_experiment,
    run_method,
    write_results,
)
from sbsopt import TrajectoryLog, harness
from sbsopt.cli import main
from sbsopt.harness import ECR_CLIP, ECR_FLOOR, validate_config


class TestEcr:
    def test_clipped_two_method_case(self):
        # B is 100x worse on f1 and equal on f2: ECR_B = (100 + 1) / 2
        dists = {"A": {"f1": 1.0, "f2": 1.0}, "B": {"f1": 100.0, "f2": 1.0}}
        got = ecr(dists)
        assert got["A"] == pytest.approx(1.0)
        assert got["B"] == pytest.approx(50.5)

    def test_mean_of_ratios(self):
        dists = {
            "A": {"f1": 1.0, "f2": 1.0, "f3": 1.0},
            "B": {"f1": 1.0, "f2": 2.0, "f3": 4.0},
        }
        assert ecr(dists)["B"] == pytest.approx(7.0 / 3.0)

    def test_single_method_is_always_one(self):
        dists = {"only": {"f1": 3.0, "f2": 0.5, "f3": 1e-30}}
        assert ecr(dists)["only"] == pytest.approx(1.0)

    def test_clip_bounds_large_ratios(self):
        dists = {"A": {"f1": 1e-6}, "B": {"f1": 1.0}}
        assert ecr(dists)["B"] == ECR_CLIP

    def test_floor_both_hits_count_as_ties(self):
        # both methods hit the optimum to numerical precision: ratio 1 each
        dists = {"A": {"f1": 1e-15}, "B": {"f1": 1e-13}}
        got = ecr(dists)
        assert got["A"] == 1.0
        assert got["B"] == 1.0

    def test_floor_hit_versus_miss_is_clipped(self):
        dists = {"A": {"f1": 0.0}, "B": {"f1": 1e-3}}
        got = ecr(dists)
        assert got["A"] == 1.0
        assert got["B"] == ECR_CLIP

    def test_floor_value(self):
        assert ECR_FLOOR == 1e-12
        assert ECR_CLIP == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ecr({})


class TestAverageRank:
    def test_symmetric_case_all_tie(self):
        dists = {
            "A": {"f1": 1.0, "f2": 3.0},
            "B": {"f1": 2.0, "f2": 2.0},
            "C": {"f1": 3.0, "f2": 1.0},
        }
        avg, final = average_rank(dists)
        assert avg == {"A": 2.0, "B": 2.0, "C": 2.0}
        assert final == {"A": 1, "B": 1, "C": 1}

    def test_tied_values_share_average_rank(self):
        dists = {"A": {"f1": 1.0}, "B": {"f1": 1.0}, "C": {"f1": 5.0}}
        avg, final = average_rank(dists)
        assert avg["A"] == 1.5 and avg["B"] == 1.5 and avg["C"] == 3.0
        assert final == {"A": 1, "B": 1, "C": 3}

    def test_rank_sum_invariant(self):
        # with no ties, per-function ranks sum to k(k+1)/2
        rng = np.random.default_rng(0)
        methods = ["m1", "m2", "m3", "m4", "m5"]
        dists = {m: {"f1": float(v)} for m, v in zip(methods, rng.permutation(5) + 1.0)}
        avg, _ = average_rank(dists)
        assert sum(avg.values()) == pytest.approx(5 * 6 / 2)

    def test_clear_ordering(self):
        dists = {
            "good": {"f1": 1e-9, "f2": 1e-8},
            "bad": {"f1": 1.0, "f2": 2.0},
        }
        avg, final = average_rank(dists)
        assert final["good"] == 1
        assert final["bad"] == 2


class TestConfig:
    def make_cfg(self, **overrides):
        base = dict(
            functions=[FunctionSpec("Sphere", 2)],
            methods=[MethodSpec("sbs", {"n_particles": 5})],
            budget=500,
            repetitions=2,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_from_dict_roundtrip(self):
        cfg = self.make_cfg()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({
                "functions": [{"name": "Sphere", "dim": 2}],
                "methods": [{"name": "sbs"}],
                "budget": 100,
                "paralellism": 4,
            })
        assert err.value.field == "paralellism"

    @pytest.mark.parametrize("section, value, field", [
        ("functions", [{"name": "Sphere", "dim": 2, "shift": 1.7}], "shift"),
        ("methods", [{"name": "sbs", "param": {"sigma": 1e-150}, "label": "sbs-iso"}],
         "param"),
        ("methods", 5, "methods"),
        ("functions", {"name": "Sphere", "dim": 2}, "functions"),
        ("functions", [{"name": "Sphere"}], "dim"),
        ("methods", ["sbs"], "method"),
        ("functions", [{"name": 5, "dim": 2}], "function"),
    ], ids=["function-key", "method-key", "methods-number", "functions-object",
            "function-without-dim", "method-string", "function-name-number"])
    def test_from_dict_holds_each_object_to_its_fields(self, section, value, field):
        # an unknown key was dropped: "param" ran default sbs as "sbs-iso"
        data = {"functions": [{"name": "Sphere", "dim": 2}],
                "methods": [{"name": "sbs"}], "budget": 100}
        data[section] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data)
        assert err.value.field == field

    def test_from_dict_defaults_are_the_dataclass_defaults(self):
        cfg = ExperimentConfig.from_dict({
            "functions": [{"name": "Sphere", "dim": 2}],
            "methods": [{"name": "sbs"}],
            "budget": 100,
        })
        assert cfg == ExperimentConfig([FunctionSpec("Sphere", 2)], [MethodSpec("sbs")], 100)

    def test_from_dict_requires_budget(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({
                "functions": [{"name": "Sphere", "dim": 2}],
                "methods": [{"name": "sbs"}],
            })

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)

    def test_validate_rejects_empty_sections(self):
        with pytest.raises(ConfigError):
            self.make_cfg(functions=[])
        with pytest.raises(ConfigError):
            self.make_cfg(methods=[])

    def test_validate_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            self.make_cfg(repetitions=0)
        with pytest.raises(ConfigError):
            self.make_cfg(budget=0)
        with pytest.raises(ConfigError):
            self.make_cfg(log_every=-1)

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            self.make_cfg(functions=[FunctionSpec("Sphere", 2), FunctionSpec("Sphere", 2)])
        with pytest.raises(ConfigError):
            self.make_cfg(methods=[MethodSpec("sbs"), MethodSpec("sbs")])

    @pytest.mark.parametrize("other", ["sphere", "SPHERE"])
    def test_rejects_one_benchmark_named_twice(self, other):
        # one registry entry at one dimension, however spelled, is one row
        with pytest.raises(ConfigError) as err:
            self.make_cfg(functions=[FunctionSpec("Sphere", 2), FunctionSpec(other, 2)])
        assert err.value.field == "functions"
        cfg = self.make_cfg(functions=[FunctionSpec("Sphere", 2), FunctionSpec(other, 3)])
        assert [f.key for f in cfg.functions] == ["Sphere-2d", f"{other}-3d"]

    @pytest.mark.parametrize("name", [" sphere", "Sphere\n", "\tSphere "])
    def test_rejects_a_name_with_surrounding_whitespace(self, name):
        # the name as spelled enters cell seeds and the results.csv row
        with pytest.raises(ConfigError) as err:
            FunctionSpec(name, 2)
        assert err.value.field == "function"

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            FunctionSpec("Parabola", 2)
        with pytest.raises(ConfigError):
            MethodSpec("tabu-search")
        with pytest.raises(ConfigError):
            FunctionSpec("Branin", 7)

    @pytest.mark.parametrize("spec, args, field", [
        (FunctionSpec, ("Sphere", 2.5), "dim"),
        (FunctionSpec, ("Sphere", True), "dim"),
        (FunctionSpec, ("Sphere", 0), "dim"),
        (MethodSpec, ("woa", ["n_agents", 5]), "params"),
        (MethodSpec, ("woa", {"n_agents": 1}), "n_agents"),
        (MethodSpec, ("woa", {"n_agents": 10.7}), "n_agents"),
        (MethodSpec, ("tabu-search",), "method"),
        (ExperimentConfig, ([FunctionSpec("Sphere", 2)], [MethodSpec("sbs")], 500.9),
         "budget"),
        (ExperimentConfig, ([FunctionSpec("Sphere", 2)], [MethodSpec("sbs")], 500, 1.5),
         "repetitions"),
        (ExperimentConfig, ([FunctionSpec("Sphere", 2)], [MethodSpec("sbs")], 500, 1,
                            "x"), "base_seed"),
        (MethodSpec, ("sbs", {}, "sbs, tuned"), "label"),
        (MethodSpec, ("sbs", {}, ""), "label"),
        (MethodSpec, ("sbs", {}, "sbs/tuned"), "label"),
        (MethodSpec, ("sbs", {}, "sbs\\tuned"), "label"),
        (MethodSpec, ("sbs", {}, "sbs\ntuned"), "label"),
        (MethodSpec, ("sbs", {}, "sbs\r"), "label"),
        (MethodSpec, ("sbs", {}, 5), "label"),
    ])
    def test_specs_reject_bad_values_when_built(self, spec, args, field):
        with pytest.raises(ConfigError) as err:
            spec(*args)
        assert err.value.field == field

    def test_validate_rejects_warm_start_below_one_cmaes_generation(self):
        # one CMA-ES generation is 10 evaluations in 10 dimensions, 6 in 2
        cfg = self.make_cfg(
            functions=[FunctionSpec("Sphere", 2), FunctionSpec("Rastrigin", 10)],
            methods=[MethodSpec("sbs-hybrid", {"cmaes_budget": 9})],
        )
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "cmaes_budget"
        validate_config(self.make_cfg(
            functions=[FunctionSpec("Sphere", 2)],
            methods=[MethodSpec("sbs-hybrid", {"cmaes_budget": 9})],
        ))

    def test_duplicate_method_allowed_with_labels(self):
        cfg = self.make_cfg(methods=[
            MethodSpec("sbs", {"n_particles": 5}, label="sbs-small"),
            MethodSpec("sbs", {"n_particles": 10}, label="sbs-big"),
        ])
        validate_config(cfg)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(0, "sbs", "Sphere", 2, 0)
        b = derive_seed(0, "sbs", "Sphere", 2, 0)
        c = derive_seed(0, "sbs", "Sphere", 2, 1)
        d = derive_seed(1, "sbs", "Sphere", 2, 0)
        assert a == b
        assert len({a, c, d}) == 3

    def test_order_matters(self):
        assert derive_seed("x", "y") != derive_seed("y", "x")


# a test double patched into the harness reaches the workers only by fork;
# the default start method is read without fixing it
fork_only = pytest.mark.skipif(
    (multiprocessing.get_start_method(allow_none=True)
     or multiprocessing.get_all_start_methods()[0]) != "fork",
    reason="only forked workers inherit a test double")


def use_workers(monkeypatch, workers):
    """Run the harness's cells in `workers` processes, 1 meaning in-process."""
    monkeypatch.setattr(harness, "_default_workers", lambda cells: workers)


def tiny_config(out_dir, log_every=0):
    return ExperimentConfig(
        functions=[FunctionSpec("Sphere", 2), FunctionSpec("Camel", 2)],
        methods=[
            MethodSpec("sbs", {"n_particles": 5}, label="sbs-5"),
            MethodSpec("cma-es"),
        ],
        budget=600,
        repetitions=3,
        base_seed=0,
        output_dir=str(out_dir),
        log_every=log_every,
    )


class TestRunExperiment:
    def test_shapes_and_metrics(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_experiment(cfg)
        assert len(table.runs) == 2 * 2 * 3
        assert set(table.cells) == {
            ("sbs-5", "Sphere-2d"), ("sbs-5", "Camel-2d"),
            ("cma-es", "Sphere-2d"), ("cma-es", "Camel-2d"),
        }
        assert set(table.ecr) == {"sbs-5", "cma-es"}
        assert set(table.final_rank.values()) <= {1, 2}
        for stats in table.cells.values():
            assert stats.mean_evals <= cfg.budget

    def test_every_run_within_budget(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path))
        for rec in table.runs:
            assert rec.result.evals_used <= 600

    def test_cell_seeds_follow_the_derivation(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path))
        rec = table.runs[0]
        assert rec.seed == derive_seed(0, rec.method, rec.function, rec.dim, rec.repetition)

    def test_rerun_is_identical(self, tmp_path):
        t1 = run_experiment(tiny_config(tmp_path / "a"))
        t2 = run_experiment(tiny_config(tmp_path / "b"))
        for key in t1.cells:
            assert t1.cells[key] == t2.cells[key]

    def test_budget_audit_raises_typed_error(self, tmp_path, monkeypatch):
        def over_budget(*args, **kwargs):
            result = run_method(*args, **kwargs)
            return dataclasses.replace(result, evals_used=result.evals_used + 600)

        monkeypatch.setattr(harness, "run_method", over_budget)
        with pytest.raises(BudgetExceeded, match="budget audit failed"):
            run_experiment(tiny_config(tmp_path))

    @fork_only
    def test_budget_audit_raises_typed_error_from_workers(self, tmp_path, monkeypatch):
        def over_budget(*args, **kwargs):
            result = run_method(*args, **kwargs)
            return dataclasses.replace(result, evals_used=result.evals_used + 600)

        monkeypatch.setattr(harness, "run_method", over_budget)
        use_workers(monkeypatch, 2)
        with pytest.raises(BudgetExceeded,
                           match="budget audit failed: sbs-5 on Sphere-2d used"):
            run_experiment(tiny_config(tmp_path))
        assert multiprocessing.active_children() == []


def run_fingerprint(rec):
    """Everything a run record holds, in comparable form."""
    res = rec.result
    log = None if res.trajectory is None else json.dumps(res.trajectory.to_dict())
    return (rec.method, rec.function, rec.dim, rec.repetition, rec.seed, rec.distance,
            res.best_x.tobytes(), res.best_f, res.evals_used, res.iterations_done,
            res.diagnostics, log)


def written_bytes(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestWorkers:
    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"  # one directory, as summary.json names it
        cfg = tiny_config(out, log_every=3)
        cfg.methods.insert(1, MethodSpec(
            "sbs-hybrid", {"n_particles": 5, "cmaes_budget": 60, "woa_iterations": 10}))
        outputs = []
        for workers in (1, 2):
            shutil.rmtree(out, ignore_errors=True)
            use_workers(monkeypatch, workers)
            table = run_experiment(cfg)
            assert multiprocessing.active_children() == []
            write_results(table, cfg)
            outputs.append((table.cells, table.ecr, table.avg_rank, table.final_rank,
                            [run_fingerprint(r) for r in table.runs],
                            written_bytes(out)))
        assert outputs[0] == outputs[1]
        files = outputs[0][-1]
        assert {"results.csv", "summary.json",
                "trajectories/sbs-hybrid_Camel_2d_rep2.json"} <= set(files)

    def test_failing_cell_raises_what_one_worker_raises_first(self, tmp_path,
                                                              monkeypatch):
        # every cell fails when it starts, each with its own message:
        # 5 evaluations cover neither a WOA init nor a CMA-ES generation
        cfg = ExperimentConfig(
            functions=[FunctionSpec("Sphere", 2), FunctionSpec("Rastrigin", 10)],
            methods=[MethodSpec("cma-es"), MethodSpec("woa")],
            budget=5, repetitions=2, output_dir=str(tmp_path),
        )
        raised = []
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            with pytest.raises(BudgetTooSmall) as err:
                run_experiment(cfg)
            assert multiprocessing.active_children() == []
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1]
        assert "(6 evaluations)" in raised[0][1]  # cma-es on Sphere-2d

    @fork_only
    def test_first_failure_in_config_order_wins_over_faster_ones(self, tmp_path,
                                                                  monkeypatch):
        first = derive_seed(0, "sbs-5", "Sphere", 2, 0)

        def failing(method, obj, budget, seed, *args, **kwargs):
            if seed == first:
                time.sleep(0.5)  # the other worker fails every later cell first
            raise ValueError(f"cell with seed {seed}")

        monkeypatch.setattr(harness, "run_method", failing)
        use_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match=f"^cell with seed {first}$"):
            run_experiment(tiny_config(tmp_path))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_of_any_start_method_give_the_same_table(self, method, tmp_path):
        # a fresh interpreter, so it may pick its start method; the pool is
        # forced, as by default cells start no spawned or forkserver worker
        done = run_script(tmp_path, "-c", (
            "import multiprocessing\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "from sbsopt import harness\n"
            + TINY_SCRIPT_CONFIG +
            "tables = []\n"
            "for w in (1, 2):\n"
            "    harness._default_workers = lambda cells: w\n"
            "    tables.append(harness.run_experiment(cfg))\n"
            "runs = [[(r.seed, r.result.best_x.tobytes(), r.result.best_f,\n"
            "          r.result.evals_used) for r in t.runs] for t in tables]\n"
            "assert runs[0] == runs[1] and tables[0].cells == tables[1].cells\n"
            "assert multiprocessing.active_children() == []\n"
        ))
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_unguarded_script_runs_its_cells_in_process(self, method, tmp_path):
        # a spawned or forkserver worker would re-run this script's top level
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing, sys\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "from sbsopt import run_experiment\n"
            + TINY_SCRIPT_CONFIG +
            "table = run_experiment(cfg)\n"
            "assert len(table.runs) == 4\n"
            "assert multiprocessing.active_children() == []\n"
            "assert 'concurrent.futures.process' not in sys.modules  # no pool\n",
            encoding="utf-8")
        done = run_script(tmp_path, str(script))
        assert done.returncode == 0, done.stderr

    def test_default_is_one_forked_worker_per_usable_cpu_unless_observed(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False: "fork")
        assert harness._default_workers(1000) == 3
        assert harness._default_workers(2) == 2
        assert harness._default_workers(1) == 1
        for method in ("spawn", "forkserver"):
            monkeypatch.setattr(multiprocessing, "get_start_method",
                                lambda allow_none=False: method)
            assert harness._default_workers(1000) == 1
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False: "fork")
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: None)
        assert harness._default_workers(1000) == 1


TINY_SCRIPT_CONFIG = (
    "from sbsopt import ExperimentConfig\n"
    "cfg = ExperimentConfig.from_dict(dict(\n"
    "    functions=[dict(name='Sphere', dim=2)],\n"
    "    methods=[dict(name='sbs', params=dict(n_particles=5)),\n"
    "             dict(name='cma-es')],\n"
    "    budget=600, repetitions=2, output_dir='out'))\n"
)


def run_script(cwd, *args):
    """Run python with `args` in a fresh interpreter that imports this sbsopt."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestWriteResults:
    def test_csv_layout(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_experiment(cfg)
        write_results(table, cfg)
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "method,function,dim,mean_distance,std_distance,mean_evals,budget"
        assert len(lines) == 1 + 2 * 2  # methods x functions
        first = lines[1].split(",")
        assert first[0] == "sbs-5" and first[1] == "Sphere" and first[2] == "2"
        assert first[6] == "600"

    def test_rerun_writes_byte_identical_files(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a")
        write_results(run_experiment(cfg1), cfg1)
        cfg2 = tiny_config(tmp_path / "b")
        write_results(run_experiment(cfg2), cfg2)
        csv1 = (tmp_path / "a" / "results.csv").read_bytes()
        csv2 = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv1 == csv2
        s1 = json.loads((tmp_path / "a" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "b" / "summary.json").read_text())
        # output_dir naturally differs; everything else must match
        s1["config"].pop("output_dir")
        s2["config"].pop("output_dir")
        assert s1 == s2

    def test_summary_contents(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_experiment(cfg)
        write_results(table, cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"version", "config", "cells", "ecr",
                                "avg_rank", "final_rank"}
        assert "sbs-5::Sphere-2d" in summary["cells"]
        assert summary["config"]["budget"] == 600

    def test_trajectory_files_when_logging(self, tmp_path):
        cfg = tiny_config(tmp_path, log_every=5)
        table = run_experiment(cfg)
        written = write_results(table, cfg)
        traj_dir = tmp_path / "trajectories"
        assert traj_dir.is_dir()
        logs = sorted(p.name for p in traj_dir.glob("*.json"))
        # only the particle methods produce trajectory logs
        assert "sbs-5_Sphere_2d_rep0.json" in logs
        assert all("cma-es" not in name for name in logs)
        assert len(written) == 2 + len(logs)


# (key, value) of an experiment config that is not an integer of the key's kind
NON_NUMBERS = [
    (key, "many") for key in ("budget", "repetitions", "base_seed", "log_every", "dim")
] + [
    ("dim", 2.5), ("budget", 500.9), ("repetitions", 1.5), ("base_seed", 0.5),
    ("budget", True), ("dim", "2"),
]


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "Ackley" in out and "GoldsteinPrice" in out
        assert "f*(2d)" in out
        assert "domain(2d)" in out

    def test_single_reports_json(self, capsys):
        code = main([
            "single", "--method", "sbs", "--function", "sphere",
            "--budget", "500", "--seed", "1", "--param", "n_particles=5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "sbs"
        assert report["function"] == "sphere"
        assert report["evals_used"] <= 500
        assert len(report["best_x"]) == 2
        assert report["distance"] == pytest.approx(abs(report["best_f"]))

    def test_single_matches_library_call(self, capsys):
        main([
            "single", "--method", "cma-es", "--function", "rastrigin",
            "--budget", "800", "--seed", "3",
        ])
        report = json.loads(capsys.readouterr().out)
        direct = run_method("cma-es", make_benchmark("rastrigin", 2), 800, 3)
        assert report["best_f"] == direct.best_f

    def test_single_unknown_function_exits_2(self, capsys):
        assert main(["single", "--method", "sbs", "--function", "parabola"]) == 2

    def test_single_unsupported_dim_exits_2(self, capsys):
        assert main(["single", "--method", "sbs", "--function", "branin",
                     "--dim", "3"]) == 2

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_single_budget_below_one_exits_2(self, capsys, budget):
        for method in ("sbs", "woa"):
            assert main(["single", "--method", method, "--function", "sphere",
                         "--budget", budget]) == 2
            assert "budget must be at least 1" in capsys.readouterr().err

    def test_one_benchmark_spelled_two_ways_exits_2(self, capsys, tmp_path):
        config = tmp_path / "twice.json"
        config.write_text(json.dumps({
            "functions": [{"name": "sphere", "dim": 2}, {"name": "Sphere", "dim": 2}],
            "methods": [{"name": "cma-es"}],
            "budget": 500, "repetitions": 1, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config)]) == 2
        assert "duplicate function 'Sphere-2d'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_function_name_with_a_line_break_exits_2(self, capsys, tmp_path):
        # accepted, it split the results.csv row across two lines
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "functions": [{"name": "Sphere\n", "dim": 2}],
            "methods": [{"name": "cma-es"}],
            "budget": 500, "repetitions": 1, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config)]) == 2
        assert "whitespace" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", ["sbs, tuned", "", "sbs/tuned"])
    def test_label_that_breaks_the_outputs_exits_2_before_any_cell(
        self, label, monkeypatch, capsys, tmp_path
    ):
        # at the parent these wrote an 8-field csv row, an empty method
        # column, and (trajectory files) raised after every cell had run
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return run_method(*args, **kwargs)

        monkeypatch.setattr(harness, "run_method", counting)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "functions": [{"name": "Sphere", "dim": 2}],
            "methods": [{"name": "cma-es"},
                        {"name": "sbs", "params": {"n_particles": 5}, "label": label}],
            "budget": 500, "repetitions": 1, "log_every": 2,
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config)]) == 2
        assert "label" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, entry, key", [
        ("functions", {"name": "Ackley", "dim": 2, "shift": 1.7}, "shift"),
        ("methods", {"name": "sbs", "param": {"sigma": 1e-150}, "label": "sbs-iso"},
         "param"),
    ], ids=["function-key", "method-key"])
    def test_misspelled_key_exits_2_and_writes_nothing(self, section, entry, key,
                                                        capsys, tmp_path):
        data = {"functions": [{"name": "Ackley", "dim": 2}],
                "methods": [{"name": "sbs", "params": {"n_particles": 5}}],
                "budget": 500, "repetitions": 1, "output_dir": str(tmp_path / "out")}
        data[section] = [entry]
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert f"unknown {section[:-1]} key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exits_1(self, capsys):
        # one plain iteration of 5 particles in 2-d costs 25 evaluations
        assert main(["single", "--method", "sbs", "--function", "sphere",
                     "--budget", "24", "--param", "n_particles=5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("pair", ["n_particles", "n_particles=abc"])
    def test_malformed_param_exits_2(self, pair, capsys):
        # without '=' it is no pair; a value that is not JSON stays a string
        assert main(["single", "--method", "sbs", "--function", "sphere",
                     "--budget", "500", "--param", pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_particles" in err

    def test_diag_ksd_of_a_log_without_benchmark_exits_1(self, capsys, tmp_path):
        log_path = tmp_path / "run.json"
        result = run_method("sbs", make_benchmark("sphere", 2), 500, 0,
                            {"n_particles": 5}, log_every=2)
        assert result.trajectory.benchmark is None
        result.trajectory.save(log_path)
        assert main(["diag", "ksd", str(log_path)]) == 1
        assert "names no benchmark" in capsys.readouterr().err

    def test_unknown_method_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["single", "--method", "annealing", "--function", "sphere"])
        assert err.value.code == 2

    def test_bad_config_path_exits_2(self, capsys, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("key, value", NON_NUMBERS, ids=[
        key if value == "many" else f"{key}-{value}" for key, value in NON_NUMBERS
    ])
    def test_non_number_in_config_exits_2(self, key, value, capsys, tmp_path):
        cfg = {
            "functions": [{"name": "Sphere", "dim": 2}],
            "methods": [{"name": "woa"}],
            "budget": 500,
            "output_dir": str(tmp_path / "out"),
        }
        if key == "dim":
            cfg["functions"][0]["dim"] = value
        else:
            cfg[key] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", [["abc"], "abc", 5, [["n_agents", 5]]])
    def test_malformed_params_exit_2(self, params, capsys, tmp_path):
        cfg = {
            "functions": [{"name": "sphere", "dim": 2}],
            "methods": [{"name": "woa", "params": params}],
            "budget": 500,
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "params" in err
        assert not (tmp_path / "out").exists()

    def test_bad_parameter_of_the_last_method_fails_before_any_cell(
        self, monkeypatch, capsys, tmp_path
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return run_method(*args, **kwargs)

        monkeypatch.setattr(harness, "run_method", counting)
        data = {
            "functions": [{"name": "Rastrigin", "dim": 10}],
            "methods": [{"name": "cma-es"}, {"name": "sbs"},
                        {"name": "woa", "params": {"n_agents": 1}}],
            "budget": 60_000,
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(ConfigError) as err:
            run_experiment(ExperimentConfig.from_dict(data))
        assert err.value.field == "n_agents"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "n_agents" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_warm_start_below_one_cmaes_generation_fails_before_any_cell(
        self, monkeypatch, capsys, tmp_path
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return run_method(*args, **kwargs)

        monkeypatch.setattr(harness, "run_method", counting)
        # one CMA-ES generation in 10 dimensions is 10 evaluations
        data = {
            "functions": [{"name": "Rastrigin", "dim": 10}],
            "methods": [{"name": "cma-es"},
                        {"name": "sbs-hybrid", "params": {"cmaes_budget": 9}}],
            "budget": 60_000,
            "repetitions": 2,
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(ConfigError) as err:
            run_experiment(ExperimentConfig.from_dict(data))
        assert err.value.field == "cmaes_budget"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "cmaes_budget" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_run_command_end_to_end(self, capsys, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "functions": [{"name": "Sphere", "dim": 2}],
            "methods": [{"name": "sbs", "params": {"n_particles": 5}},
                        {"name": "woa"}],
            "budget": 500,
            "repetitions": 2,
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "ecr=" in out and "final_rank=" in out
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_trajectory_plot_and_diag_pipeline(self, capsys, tmp_path):
        log_path = tmp_path / "run.json"
        svg_path = tmp_path / "run.svg"
        assert main([
            "single", "--method", "sbs", "--function", "himmelblau",
            "--budget", "800", "--seed", "2", "--param", "n_particles=5",
            "--log-trajectory", str(log_path), "--log-every", "3",
        ]) == 0
        capsys.readouterr()
        assert log_path.exists()
        assert main(["plot", str(log_path), "-o", str(svg_path)]) == 0
        capsys.readouterr()
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert main(["diag", "ksd", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out and "ksd" in out

    @pytest.mark.parametrize("method", ["cma-es", "woa", "cbo", "langevin"])
    def test_trajectory_of_a_baseline_exits_2(self, method, capsys, tmp_path):
        log_path = tmp_path / "run.json"
        assert main([
            "single", "--method", method, "--function", "ackley", "--budget", "2000",
            "--log-trajectory", str(log_path),
        ]) == 2
        assert "records no trajectory" in capsys.readouterr().err
        assert not log_path.exists()

    @pytest.mark.parametrize("log_every", ["0", "-3"])
    def test_trajectory_with_log_every_below_one_exits_2(self, log_every, capsys,
                                                          tmp_path):
        log_path = tmp_path / "run.json"
        assert main([
            "single", "--method", "sbs", "--function", "sphere", "--budget", "500",
            "--log-trajectory", str(log_path), "--log-every", log_every,
        ]) == 2
        assert "log_every" in capsys.readouterr().err
        assert not log_path.exists()

    def test_bad_parameter_value_exits_2(self, capsys):
        assert main(["single", "--method", "sbs", "--function", "sphere",
                     "--budget", "1000", "--param", "kappa=-1"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_hybrid_cmaes_budget_below_one_generation_exits_2(self, capsys):
        assert main(["single", "--method", "sbs-hybrid", "--function", "rastrigin",
                     "--dim", "10", "--budget", "100000",
                     "--param", "cmaes_budget=5"]) == 2
        assert "cmaes_budget" in capsys.readouterr().err

    def test_hybrid_spent_by_its_init_logs_the_initial_particles(self, capsys, tmp_path):
        # the warm start leaves less than one scoring of the 50 particles
        log_path = tmp_path / "run.json"
        assert main([
            "single", "--method", "sbs-hybrid", "--function", "ackley",
            "--budget", "2150", "--param", "cmaes_budget=100",
            "--param", "woa_iterations=40", "--log-trajectory", str(log_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iterations_done"] == 0
        log = TrajectoryLog.load(log_path)
        assert [snap.iteration for snap in log.snapshots] == [0]
        assert log.method == "sbs-hybrid" and len(log.snapshots[0].ids) == 50
        assert main(["plot", str(log_path), "-o", str(tmp_path / "run.svg")]) == 0
        assert main(["diag", "ksd", str(log_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1].split()[:2] == ["0", "50"]
