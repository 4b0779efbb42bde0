"""The synthetic scenario subsystem: specs, generation, and model invariance.

Locks the acceptance contract of ``repro.workloads.synth``: a scenario
spec round-trips through JSON losslessly, regeneration from the same
(class, seed, knobs) is *byte*-identical, every scenario class runs
under all three programming models (and hybrid) with the checksum of
the sequential reference, the experiment cache keys scenario runs on
content hashes, and every stochastic workload generator in
``repro.workloads`` is bit-identical per seed.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.harness.experiment import _script_cache, run_app
from repro.harness.rankings import run_scenario_bench
from repro.serving.store import resolve_workload
from repro.workloads import plummer_bodies, uniform_bodies
from repro.workloads.synth import (
    SCENARIO_CLASSES,
    ScenarioSpec,
    characterise,
    generate_scenario,
    load_spec,
    regenerate,
    spec_config,
)

CLASSES = sorted(SCENARIO_CLASSES)


def small_spec(cls, seed=11, **knobs):
    return generate_scenario(cls, seed=seed, mesh_n=6, phases=3, solver_iters=4, **knobs)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_json_round_trip(self, cls):
        spec = small_spec(cls)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()
        assert again.content_hash() == spec.content_hash()

    def test_disk_round_trip(self, tmp_path):
        spec = small_spec("multi_front")
        path = spec.save(tmp_path / spec.default_filename())
        assert load_spec(path) == spec

    def test_canonical_json(self):
        # canonical form: sorted keys, compact separators, trailing newline —
        # the byte-identity contract depends on this staying stable
        text = small_spec("hotspot_drift").to_json()
        assert text.endswith("\n")
        d = json.loads(text)
        assert text == json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"

    def test_content_hash_computed_once(self, monkeypatch):
        spec = small_spec("multi_front")
        expect = hashlib.sha256(spec.to_json().encode()).hexdigest()
        calls = []
        to_json = ScenarioSpec.to_json
        monkeypatch.setattr(
            ScenarioSpec, "to_json", lambda self: calls.append(1) or to_json(self)
        )
        assert spec.content_hash() == expect
        assert spec.content_hash() == expect
        assert len(calls) == 1
        # the memo sits outside the dataclass fields: equality, repr and
        # the field list see only the spec
        again = ScenarioSpec.from_json(to_json(spec))
        assert again == spec and repr(again) == repr(spec)
        assert "_content_hash" not in {f.name for f in dataclasses.fields(spec)}

    def test_spec_path_rehashed_after_edit(self, tmp_path):
        a = small_spec("multi_front", seed=1)
        b = small_spec("multi_front", seed=2)
        path = a.save(tmp_path / "spec.json")
        assert resolve_workload("scenario", str(path)).content_hash() == a.content_hash()
        b.save(path)
        assert resolve_workload("scenario", str(path)).content_hash() == b.content_hash()

    def test_bad_version_rejected(self):
        d = json.loads(small_spec("multi_front").to_json())
        d["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ScenarioSpec.from_dict(d)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_same_seed_bit_identical(self, cls):
        a = generate_scenario(cls, seed=5, mesh_n=6, phases=3)
        b = generate_scenario(cls, seed=5, mesh_n=6, phases=3)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("cls", CLASSES)
    def test_regenerate_byte_identical(self, cls):
        # the acceptance lock: a spec regenerated from its own header
        # (class, seed, knobs, shape) reproduces the original bytes
        spec = small_spec(cls, seed=23, intensity=0.8)
        assert regenerate(spec).to_json() == spec.to_json()

    def test_different_seeds_differ(self):
        a = small_spec("multi_front", seed=1)
        b = small_spec("multi_front", seed=2)
        assert a.to_json() != b.to_json()
        assert a.content_hash() != b.content_hash()

    def test_knobs_change_the_scenario(self):
        a = small_spec("imbalance_wave", intensity=0.2)
        b = small_spec("imbalance_wave", intensity=1.0)
        assert a.content_hash() != b.content_hash()

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            generate_scenario("weather_front")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown knob"):
            generate_scenario("multi_front", wiggle=3.0)


class TestCrossModelInvariance:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_all_models_match_reference(self, cls):
        from repro.apps.adapt import build_script

        spec = small_spec(cls)
        ref = build_script(spec_config(spec), 8).reference_checksum
        for model in ("mpi", "shmem", "sas", "hybrid"):
            result = run_app("scenario", model, 8, spec)
            for checksum in result.rank_results:
                assert checksum == pytest.approx(ref, abs=1e-9), (
                    f"{cls} under {model} diverged from the sequential reference"
                )

    def test_cache_keys_on_content_hash(self):
        a = small_spec("multi_front", seed=31)
        b = small_spec("multi_front", seed=32)
        run_app("scenario", "mpi", 4, a)
        run_app("scenario", "mpi", 4, b)
        keys = [k for k in _script_cache if k[0] == "scenario"]
        hashes = {k[1] for k in keys}
        assert a.content_hash() in hashes and b.content_hash() in hashes

    def test_spec_path_accepted(self, tmp_path):
        spec = small_spec("hotspot_drift")
        path = spec.save(tmp_path / spec.default_filename())
        by_path = run_app("scenario", "shmem", 4, str(path))
        by_spec = run_app("scenario", "shmem", 4, spec)
        assert by_path.elapsed_ns == by_spec.elapsed_ns
        assert by_path.rank_results == by_spec.rank_results

    def test_missing_workload_rejected(self):
        with pytest.raises(ValueError, match="scenarios generate"):
            run_app("scenario", "mpi", 4)


class TestInsights:
    def test_characterise_shape(self):
        spec = small_spec("refinement_storm")
        ins = characterise(spec, nprocs=4)
        assert ins["spec"]["content_hash"] == spec.content_hash()
        assert len(ins["per_phase"]) == spec.phases
        assert ins["comm_volume_bytes"] == ins["halo_bytes"] + ins["migration_bytes"]
        assert ins["adaptation_rate"] > 0
        assert ins["peak_imbalance"] >= 1.0
        json.dumps(ins)  # JSON-ready, no numpy scalars


class TestWorkloadSeedAudit:
    """Every stochastic generator is explicit-seed and per-seed identical."""

    def test_plummer_bit_identical(self):
        a = plummer_bodies(64, seed=9)
        b = plummer_bodies(64, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_uniform_bit_identical(self):
        a = uniform_bodies(64, seed=9)
        b = uniform_bodies(64, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_no_module_level_rng_consumed(self):
        # generators must not touch np.random global state
        np.random.seed(1234)
        before = np.random.get_state()[1][:10].copy()
        plummer_bodies(32, seed=3)
        uniform_bodies(32, seed=3)
        generate_scenario("multi_front", seed=3, mesh_n=6, phases=3)
        after = np.random.get_state()[1][:10]
        np.testing.assert_array_equal(before, after)


class TestScenarioBench:
    def test_smoke_record_and_flip_report(self):
        record = run_scenario_bench(
            classes=("multi_front", "imbalance_wave"),
            nprocs_list=(2, 4),
            intensities=(0.2, 1.0),
            mesh_n=6,
            phases=3,
            solver_iters=4,
            include_insights=False,
        )
        assert record["cells"] == 8
        assert len(record["rows"]) == 8 * 3
        assert set(record["ranking"]) == set(record["best"])
        for cell, ordered in record["ranking"].items():
            assert sorted(ordered) == sorted(record["models"])
            assert record["best"][cell] == ordered[0]
        for f in record["flips"]:
            assert f["axis"] in ("nprocs", "intensity", "scenario_class")
            assert f["best_changed"] == (f["from_ranking"][0] != f["to_ranking"][0])
        assert set(record["axes_with_flips"]) == {f["axis"] for f in record["flips"]}
        json.dumps(record)

    def test_deterministic(self):
        kwargs = dict(
            classes=("hotspot_drift",), nprocs_list=(2, 4), intensities=(0.5,),
            mesh_n=6, phases=3, solver_iters=4, include_insights=False,
        )
        assert run_scenario_bench(**kwargs) == run_scenario_bench(**kwargs)


class TestCli:
    def test_generate_describe_list_run(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        rc = main([
            "scenarios", "generate", "imbalance_wave", "--seed", "4",
            "--mesh-n", "6", "--phases", "3", "-k", "intensity=0.6",
            "-o", "specs", "--no-insights",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        spec_path = out.split()[1]
        assert spec_path.endswith(".scenario.json")

        assert main(["scenarios", "describe", spec_path, "-n", "4"]) == 0
        assert "imbalance_wave" in capsys.readouterr().out

        assert main(["scenarios", "list", "--dir", "specs"]) == 0
        assert spec_path in capsys.readouterr().out

        assert main(["run", "mpi", "--scenario", spec_path, "-n", "4"]) == 0
        assert "scenario under mpi" in capsys.readouterr().out

    def test_run_rejects_unknown_names(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="unknown app"):
            main(["run", "weather", "mpi"])
        with pytest.raises(SystemExit, match="unknown model"):
            main(["run", "adapt", "pvm"])
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "mpi", "--scenario", "no_such_class"])

    def test_bench_scenarios_writes_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out_path = tmp_path / "BENCH_SCENARIOS.json"
        rc = main([
            "bench-scenarios", "-p", "2,4", "--classes",
            "multi_front,hotspot_drift", "--intensities", "0.2,1.0",
            "--mesh-n", "6", "--phases", "3", "--solver-iters", "4",
            "--no-insights", "-o", str(out_path),
        ])
        assert rc == 0
        record = json.loads(out_path.read_text())
        assert "flips" in record and "axes_with_flips" in record
        assert record["cells"] == 8
