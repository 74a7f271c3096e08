"""Tests for config ingestion and the command-line runner."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import loschmidt.config as config_module
from loschmidt.cli import COMMANDS, build_parser, main, write_csv
from loschmidt.config import (
    _ALGORITHM_CHECKS,
    _NOISE_CHECKS,
    ExperimentConfig,
    NoiseConfig,
    parse_document,
)
from loschmidt.exceptions import ConfigError, NumericsError
from loschmidt.model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dense_matrix,
    expectation,
    oracle_phase_series,
    tfim,
)
from loschmidt.reconstruct import run_phase_experiment
from loschmidt.spectral import ldos_dft
from loschmidt.statevector import STATEVECTOR_MAX_SITES, product_state


def base_config(**overrides):
    doc = {
        "model": {"model": "tfim", "n": 4, "J": 1.0, "g": 0.5},
        "states": {"psi": "up"},
        "algorithm": {"tau": 0.05, "h": 0.05, "t_max": 0.5},
        "seed": 11,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestConfigParsing:
    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(base_config(extra=1))

    def test_unknown_algorithm_key_rejected(self):
        doc = base_config()
        doc["algorithm"]["taus"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(doc)

    def test_merge_half_layers_key_rejected(self):
        # compiled plans have a single execution path; the old switch is gone
        doc = base_config()
        doc["algorithm"]["merge_half_layers"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(doc)

    def test_nonunitary_operator_rejected(self):
        doc = base_config()
        doc["states"]["operator_a"] = {
            "sites": [0], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        }
        with pytest.raises(ConfigError, match="operator_a must be unitary: .* by 3.00e"):
            parse_document(doc)

    def test_output_block_rejected(self):
        # nothing read output.dir or output.prefix; --out names the directory
        with pytest.raises(ConfigError, match=r"unknown keys \['output'\]"):
            parse_document(base_config(output={"dir": "x", "prefix": "run"}))

    def test_spectral_values_checked_at_load(self):
        with pytest.raises(ConfigError, match="width must be a positive number"):
            parse_document(base_config(spectral={"width": True}))
        with pytest.raises(ConfigError, match="width must be a positive number"):
            parse_document(base_config(spectral={"width": None}))
        with pytest.raises(ConfigError, match="hermitian_extend must be true or false"):
            parse_document(base_config(spectral={"hermitian_extend": 1}))
        # a null taper is the default, no taper
        parse_document(base_config(spectral={"taper_width": None, "width": 0.1}))

    def test_missing_required_key(self):
        doc = base_config()
        del doc["algorithm"]["tau"]
        with pytest.raises(ConfigError, match="missing keys"):
            parse_document(doc)

    def test_negative_tau_rejected(self):
        doc = base_config()
        doc["algorithm"]["tau"] = -0.1
        with pytest.raises(ConfigError):
            parse_document(doc)

    def test_term_list_model(self):
        doc = base_config()
        sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        doc["model"] = {
            "model": "terms",
            "n": 2,
            "terms": [{"support": [0], "matrix": sx, "group": "x"}],
        }
        parsed = parse_document(doc)
        assert parsed.experiment.spec.n_sites == 2
        assert parsed.experiment.spec.terms[0].group == "x"

    def test_per_site_state_list(self):
        doc = base_config()
        doc["states"]["psi"] = ["up", "down", "x+", [[0.6, 0.0], [0.0, 0.8]]]
        parsed = parse_document(doc)
        assert abs(parsed.experiment.psi.norm() - 1.0) < 1e-12

    def test_noisy_backend_requires_noise_block(self):
        doc = base_config()
        doc["algorithm"]["backend"] = "noisy"
        with pytest.raises(ConfigError, match="noise"):
            parse_document(doc)


class TestCliCommands:
    def test_phase_exit_zero_and_header(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "phase.csv").read_text().splitlines()[0]
        assert header == "t,r,p_plus,p_minus,dphi_dt,phi,re_g,im_g"

    def test_amplitude_t_max_zero(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["t_max"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "amplitude.csv")
        assert len(rows) == 1
        assert float(rows[0]["r"]) == 1.0

    def test_amplitude_matches_oracle_magnitudes(self, tmp_path):
        from loschmidt.model import amplitude_series, tfim
        from loschmidt.statevector import STATEVECTOR_MAX_SITES, product_state

        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"].update({"tau": 0.05, "h": 0.05, "t_max": 1.0})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "amplitude.csv")
        t = np.array([float(r["t"]) for r in rows])
        r_meas = np.array([float(r["r"]) for r in rows])
        spec = tfim(6, 1.0, 0.5)
        psi = product_state(["up"] * 6)
        r_or = np.abs(amplitude_series(spec, psi, psi, t))
        assert np.max(np.abs(r_meas - r_or)) < 2e-3  # Trotter tolerance

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(bogus=True))
        assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["phase", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # gamma so large that the mitigation factor underflows
        doc = base_config()
        doc["algorithm"].update({"tau": 0.5, "h": 0.5, "t_max": 2.0})
        doc["noise"] = {"gamma": 0.5, "n_trajectories": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["noise", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_rerun_byte_identical(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["shots"] = 200
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["phase", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["phase", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        doc = base_config()
        doc["algorithm"].update({"tau": 0.1, "h": 0.1, "t_max": 0.5, "order": 1})
        doc["noise"] = {"gamma": 0.01, "n_trajectories": 40, "shots": 500}
        cfg = write_config(tmp_path, doc)
        outputs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            assert main(["noise", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
            outputs.append((out / "phase.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1 = tmp_path / "a"
        assert main(["phase", "--config", cfg, "--out", str(out1)]) == 0
        resolved = out1 / "resolved_config.json"
        out2 = tmp_path / "b"
        assert main(["phase", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()

    #: every shipped config with a command it is shipped for
    SHIPPED = [
        ("phase", ["phase"]), ("phase", ["amplitude"]), ("two_sided", ["two-sided"]),
        ("ldos", ["ldos"]), ("scaling", ["scaling"]), ("cost", ["cost"]),
        ("noise", ["noise"]), ("baseline", ["baseline", "--method", "hadamard"]),
        ("baseline", ["baseline", "--method", "sequential"]),
    ]

    @pytest.mark.parametrize("name, command", SHIPPED)
    def test_shipped_config_replays_from_its_snapshot(self, tmp_path, name, command):
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(command + ["--config", str(config), "--out", str(first)]) == 0
        snapshot = first / "resolved_config.json"
        assert main(command + ["--config", str(snapshot), "--out", str(second)]) == 0
        outputs = sorted(path.name for path in first.glob("*.csv"))
        assert outputs and outputs == sorted(path.name for path in second.glob("*.csv"))
        for output in outputs:
            assert (first / output).read_bytes() == (second / output).read_bytes()
        # the snapshot of the replay is the snapshot it replayed
        assert (second / "resolved_config.json").read_bytes() == snapshot.read_bytes()

    def test_snapshot_keeps_the_command_defaults_of_its_run(self, tmp_path, monkeypatch):
        # a replay reads the defaults the run used, not the current ones
        cfg = write_config(tmp_path, base_config())
        first, second, fresh = tmp_path / "first", tmp_path / "second", tmp_path / "fresh"
        assert main(["cost", "--config", cfg, "--out", str(first)]) == 0
        resolved = json.loads((first / "resolved_config.json").read_text())
        assert resolved["cost"] == {"n": [8, 16, 32, 64], "t": 4.0, "epsilon": 0.01, "p": 2,
                                    "d": 1, "r": 1.0, "i_factor": 1.0}
        assert set(resolved) >= {"spectral", "baseline", "cost"}
        monkeypatch.setattr(config_module, "_COST_CHECKS", tuple(
            (*check[:3], 0.02) if check[0] == "epsilon" else check
            for check in config_module._COST_CHECKS))
        snapshot = str(first / "resolved_config.json")
        assert main(["cost", "--config", snapshot, "--out", str(second)]) == 0
        assert main(["cost", "--config", cfg, "--out", str(fresh)]) == 0
        assert (second / "cost.csv").read_bytes() == (first / "cost.csv").read_bytes()
        assert (fresh / "cost.csv").read_bytes() != (first / "cost.csv").read_bytes()

    def test_snapshot_resolves_the_sweep_t_max(self):
        doc = base_config(sweep={"kind": "h", "n_values": [2], "values": [0.05]})
        resolved = parse_document(doc).resolved()
        assert resolved["sweep"] == {**doc["sweep"], "t_max": doc["algorithm"]["t_max"]}

    def test_resolved_algorithm_block_has_the_checked_keys(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved["algorithm"]) == {key for key, _, _ in _ALGORITHM_CHECKS}

    def test_resolved_noise_block_has_the_checked_keys(self, tmp_path):
        doc = command_config("noise")
        doc["noise"]["seed"] = 5
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved["noise"]) == {key for key, _, _ in _NOISE_CHECKS}
        assert resolved["noise"] == {"gamma": 0.01, "n_trajectories": 2, "shots": None, "seed": 5}

    def test_seed_flag_overrides(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["shots"] = 100
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["phase", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["phase", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "phase.csv").read_bytes() != (out2 / "phase.csv").read_bytes()

    def test_seed_flag_meets_the_seed_check(self, tmp_path, capsys):
        # a snapshot with seed -1 would not load again
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["phase", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must be")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phase", "noise"])
    def test_seed_flag_does_not_hide_an_invalid_file_seed(self, tmp_path, capsys, command):
        # the file does not load alone, so it does not load with a
        # replacement either
        doc = command_config(command)
        doc["seed"] = -3
        out = tmp_path / "out"
        argv = command_argv(command, write_config(tmp_path, doc), out)
        assert main(argv + ["--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must be")
        assert not out.exists()

    @pytest.mark.parametrize("noise_seed, expected", [(None, 4), (9, 9)])
    def test_seed_flag_is_the_noise_seed_default(self, noise_seed, expected):
        doc = command_config("noise")
        if noise_seed is not None:
            doc["noise"]["seed"] = noise_seed
        run = parse_document(doc, seed=4)
        assert run.experiment.seed == 4
        assert run.experiment.noise.master_seed == expected
        assert run.resolved()["seed"] == 4 and run.resolved()["noise"]["seed"] == expected
        # the file itself is left as it was
        assert doc["seed"] == 11 and doc["noise"].get("seed") == noise_seed

    def test_seed_flag_reads_as_the_same_seed_in_the_file(self, tmp_path):
        doc = command_config("noise")
        flag, written = tmp_path / "flag", tmp_path / "written"
        argv = command_argv("noise", write_config(tmp_path, doc), flag)
        assert main(argv + ["--seed", "3"]) == 0
        doc["seed"] = 3
        assert main(command_argv("noise", write_config(tmp_path, doc), written)) == 0
        for name in ("phase.csv", "resolved_config.json", "runinfo.json"):
            assert (flag / name).read_bytes() == (written / name).read_bytes()

    @pytest.mark.parametrize("command", [
        "amplitude", "phase", "noise", "two-sided", "scaling", "ldos", "cost",
    ])
    def test_method_outside_baseline_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # only baseline reads --method; elsewhere it would be accepted and ignored
        out = tmp_path / "out"
        argv = command_argv(command, write_config(tmp_path, command_config(command)), out)
        assert main(argv + ["--method", "hadamard"]) == 2
        assert capsys.readouterr().err == f"config error: {command} takes no --method\n"
        assert not out.exists()

    def test_baseline_without_method_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["baseline", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: baseline requires --method hadamard|sequential\n"
        assert not out.exists()

    def test_the_parser_and_the_dispatch_read_one_table(self):
        parser = build_parser()
        commands = {name.split()[0] for name in COMMANDS}
        methods = {name.split()[1] for name in COMMANDS if " " in name}
        actions = {action.dest: action for action in parser._actions}
        assert set(actions["command"].choices) == commands
        assert set(actions["method"].choices) == methods == {"hadamard", "sequential"}

    def test_runinfo_carries_version(self, tmp_path):
        import loschmidt

        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["phase", "--config", cfg, "--out", str(out)])
        info = json.loads((out / "runinfo.json").read_text())
        assert info["version"] == loschmidt.__version__

    def test_runinfo_records_trace_health(self, tmp_path):
        from loschmidt.reconstruct import run_phase_experiment

        doc = base_config(model={"model": "tfim", "n": 4, "J": 1.0, "g": 3.0})
        doc["algorithm"].update({"tau": 0.05, "h": 0.02, "t_max": 2.0,
                                 "backend": "exact_oracle", "threshold": 0.05})
        # an identity insertion at t' = 0 makes the two-sided run the same trace
        doc["states"]["operator_a"] = {
            "sites": [0],
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        doc["states"]["t_prime"] = 0.0
        experiment = parse_document(doc).experiment
        trace = run_phase_experiment(experiment)
        assert trace.crossings and len(trace.correction_phases) == len(trace.crossings)
        cfg = write_config(tmp_path, doc)
        # amplitude's p+- columns hold the floored values its health names
        for command in ("amplitude", "phase", "two-sided", "ldos"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            info = json.loads((out / "runinfo.json").read_text())
            assert info["floored"] == []
            assert info["crossings"] == trace.crossings
            assert info["skipped_crossings"] == trace.skipped_crossings == []
            assert np.allclose(info["correction_phases"], trace.correction_phases, atol=1e-12)
        spectrum = ldos_dft(
            trace.g_complex, 0.05, times=trace.times,
            center_energy=expectation(experiment.spec, experiment.psi),
        )
        assert info["imag_residue"] == spectrum.max_imag_residue


class TestOracleSectors:
    """``oracle_sectors`` in runinfo.json: the symmetry blocks the dense
    oracle was solved in, on every exact_oracle run and on ldos."""

    @staticmethod
    def _sectors(tmp_path, command, doc):
        out = tmp_path / command
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        return json.loads((out / "runinfo.json").read_text()).get("oracle_sectors")

    def _oracle_config(self, model=None):
        doc = base_config(**({"model": model} if model else {}))
        doc["algorithm"]["backend"] = "exact_oracle"
        doc["states"].update(operator_a={"sites": [0], "name": "x"}, t_prime=0.1)
        return doc

    def _z_field_config(self, site):
        # X fields on 3 sites and one Z field, which breaks the flip
        sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        sz = [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]]
        model = {"model": "terms", "n": 3, "terms": [
            {"support": [i], "matrix": sx} for i in range(3)
        ] + [{"support": [site], "matrix": sz}]}
        doc = self._oracle_config(model)
        # product dynamics: the oracle anchor of an x insertion vanishes
        doc["algorithm"]["anchor"] = 0.0
        return doc

    @pytest.mark.parametrize("command", ["amplitude", "phase", "two-sided", "ldos"])
    def test_tfim_on_the_oracle_backend_records_four(self, tmp_path, command):
        # the flip and the mirror: four blocks at N=4
        assert self._sectors(tmp_path, command, self._oracle_config()) == 4

    @pytest.mark.parametrize("command", ["amplitude", "phase", "two-sided", "ldos"])
    def test_a_z_field_records_one(self, tmp_path, command):
        # off-centre, the field breaks the mirror as well
        assert self._sectors(tmp_path, command, self._z_field_config(0)) == 1

    @pytest.mark.parametrize("command", ["amplitude", "phase", "two-sided", "ldos"])
    def test_a_centred_z_field_keeps_the_mirror_and_records_two(self, tmp_path, command):
        assert self._sectors(tmp_path, command, self._z_field_config(1)) == 2

    def test_ldos_records_the_reference_oracle_on_any_backend(self, tmp_path):
        assert self._sectors(tmp_path, "ldos", base_config()) == 4

    @pytest.mark.parametrize("command", ["amplitude", "phase", "two-sided"])
    def test_absent_off_the_oracle_backend(self, tmp_path, command):
        doc = self._oracle_config()
        doc["algorithm"]["backend"] = "statevector_trotter"
        assert self._sectors(tmp_path, command, doc) is None


class TestTwoSided:
    def test_identity_operator_matches_phase(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {
            "sites": [0],
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        doc["states"]["t_prime"] = 0.0
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "two", tmp_path / "ph"
        assert main(["two-sided", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["phase", "--config", cfg, "--out", str(out2)]) == 0
        two = read_rows(out1 / "two_sided.csv")
        ph = read_rows(out2 / "phase.csv")
        for a, b in zip(two, ph):
            assert abs(float(a["re_g"]) - float(b["re_g"])) < 1e-12
            assert abs(float(a["im_g"]) - float(b["im_g"])) < 1e-12

    def test_diagonal_operator_equal_time(self, tmp_path):
        # t' = 0, sweep starts at the equal-time expectation <psi|A|psi> = 1
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "z"}
        doc["states"]["t_prime"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["two-sided", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "two_sided.csv")
        g0 = complex(float(rows[0]["re_g"]), float(rows[0]["im_g"]))
        assert abs(g0 - 1.0) < 1e-9

    def test_sigma_x_insertion_matches_oracle(self, tmp_path):
        from loschmidt.model import SIGMA_X, amplitude_series, oracle_evolve, tfim
        from loschmidt.statevector import apply_matrix, product_state

        doc = base_config()
        doc["algorithm"].update({"tau": 0.01, "h": 0.01, "t_max": 1.0})
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.5
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["two-sided", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "two_sided.csv")
        s = np.array([float(r["t"]) for r in rows])
        g_rec = np.array([float(r["re_g"]) + 1j * float(r["im_g"]) for r in rows])
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        bra = apply_matrix(oracle_evolve(spec, psi, 0.5), SIGMA_X.conj().T, (0,))
        g_or = amplitude_series(spec, bra, psi, s + 0.5)
        assert np.max(np.abs(g_rec - g_or)) < 2e-3

    def test_parsed_config_not_mutated(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.1
        run_doc = parse_document(doc)
        exp = run_doc.experiment
        before = (exp.psi_final, exp.prefix_steps, exp.anchor)
        run_doc_used, _, extra = COMMANDS["two-sided"](run_doc, "two-sided")
        assert run_doc.experiment is exp
        assert (exp.psi_final, exp.prefix_steps, exp.anchor) == before == (None, 0, None)
        # the returned snapshot still records the anchor the run used
        assert run_doc_used.resolved()["algorithm"]["anchor"] == extra["anchor"]

    @pytest.mark.parametrize("backend", ["statevector_trotter", "exact_oracle"])
    def test_t_prime_rounding_is_accepted_on_every_backend(self, tmp_path, backend):
        # t'/tau within 1e-9 of an integer runs the rounded number of steps,
        # on the Trotter backends as on the oracle
        runs = {}
        for t_prime in (0.1, 0.1 + 1e-12):
            doc = base_config()
            doc["algorithm"]["backend"] = backend
            doc["states"].update(operator_a={"sites": [0], "name": "x"}, t_prime=t_prime)
            out = tmp_path / f"out_{t_prime!r}"
            assert main(["two-sided", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
            rows = read_rows(out / "two_sided.csv")
            runs[t_prime] = np.array([complex(float(r["re_g"]), float(r["im_g"])) for r in rows])
        exact, rounded = runs.values()
        assert np.max(np.abs(rounded - exact)) < 1e-9

    def test_incommensurate_t_prime(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.513
        cfg = write_config(tmp_path, doc)
        assert main(["two-sided", "--config", cfg, "--out", str(tmp_path)]) == 2


def _anchor_case(case):
    """argv and config of a run whose anchor the oracle cannot supply."""
    doc = base_config()
    if case.startswith("two-sided"):
        argv = ["two-sided"]
        doc["states"].update(operator_a={"sites": [0], "name": "x"}, t_prime=0.05)
    else:
        argv = ["baseline", "--method", "sequential"]
        doc["baseline"] = {"flip_sites": [0]}
    if case.endswith("beyond the oracle"):
        doc["model"]["n"] = 13
    elif case == "two-sided vanishing":
        # <up| x |up> = 0 at t' = 0
        doc["states"]["t_prime"] = 0.0
    else:
        # free spins, H = (pi / 2)(X_0 + X_1): G(t_max = 1) = cos(pi / 2)^2
        # vanishes, and its oracle value is rounding noise, whose angle was
        # once taken as the anchor
        doc["model"].update(n=2, J=0.0, g=float(np.pi))
        doc["algorithm"]["t_max"] = 1.0
    return argv, doc


class TestAnchorRule:
    """two-sided and baseline --method sequential resolve their anchor by one
    rule: the config's, else the oracle amplitude's angle at N <= 12."""

    @pytest.mark.parametrize("case", [
        "two-sided beyond the oracle", "two-sided vanishing",
        "sequential beyond the oracle", "sequential vanishing",
    ])
    def test_unavailable_anchor_exits_2_and_writes_nothing(self, tmp_path, capsys, case):
        argv, doc = _anchor_case(case)
        out = tmp_path / "out"
        assert main(argv + ["--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "anchor" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["two-sided beyond the oracle",
                                      "sequential beyond the oracle"])
    def test_a_supplied_anchor_is_used(self, tmp_path, case):
        argv, doc = _anchor_case(case)
        doc["algorithm"]["anchor"] = 0.25
        out = tmp_path / "out"
        assert main(argv + ["--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads((out / "runinfo.json").read_text())["anchor"] == 0.25

    def test_rounding_noise_overlap_is_no_anchor(self, tmp_path, capsys):
        # <psi'|psi> of these states is 5.55e-17: rounding noise, whose angle
        # phase once took as its anchor
        site = [[0.7677497412796078, 0], [0.5814997658650531, -0.26910659052498803]]
        site_final = [[-0.5814997658650531, -0.26910659052498803], [0.7677497412796078, 0]]
        doc = base_config(model={"model": "tfim", "n": 3, "J": 1.0, "g": 0.5})
        doc["algorithm"].update(tau=0.1, h=0.1, t_max=0.5, ite_mode="general_bj")
        doc["states"] = {"psi": [site, "up", "up"], "psi_final": [site_final, "up", "up"]}
        out = tmp_path / "out"
        assert main(["phase", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: anchor undefined: <psi'|psi> vanishes at t = 0\n")
        assert not out.exists()
        exp = parse_document(doc).experiment
        with pytest.raises(ConfigError, match="anchor undefined"):
            run_phase_experiment(exp)
        # a supplied anchor still runs, and the phase starts on it exactly
        for backend, noise in (("exact_oracle", None), ("statevector_trotter", None),
                               ("noisy", NoiseConfig(gamma=0.1, n_trajectories=2))):
            run = replace(exp, anchor=0.25, backend=backend, noise=noise)
            assert run_phase_experiment(run).phi[0] == 0.25

    @pytest.mark.parametrize("case", ["two-sided beyond the oracle", "two-sided vanishing"])
    def test_two_sided_refuses_its_anchor_before_the_bra_evolves(
        self, tmp_path, capsys, monkeypatch, case
    ):
        # the Trotter evolution of psi' ran first, for a time that grows
        # with 2^N, and the missing anchor was refused after it
        import loschmidt.cli as cli_module

        def evolve(*args):
            raise AssertionError("the bra was evolved")

        monkeypatch.setattr(cli_module, "evolve", evolve)
        argv, doc = _anchor_case(case)
        out = tmp_path / "out"
        assert main(argv + ["--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: " + (
            "the anchor must be supplied beyond 12 sites\n" if case.endswith("oracle")
            else "the oracle anchor amplitude vanishes; supply an anchor\n")
        assert not out.exists()

    def test_oracle_backend_evolves_its_bra_once(self, tmp_path, monkeypatch):
        # the oracle backend's bra is the oracle bra the anchor needs
        import loschmidt.cli as cli_module

        calls = []
        evolve_once = cli_module.oracle_evolve
        monkeypatch.setattr(cli_module, "oracle_evolve",
                            lambda *args: calls.append(args) or evolve_once(*args))
        doc = base_config()
        doc["algorithm"]["backend"] = "exact_oracle"
        doc["states"].update(operator_a={"sites": [0], "name": "x"}, t_prime=0.1)
        out = tmp_path / "out"
        assert main(["two-sided", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len(calls) == 1


#: (command, block, key, bad value) of values checked at load; a key of
#: None replaces the whole block
_SWEEP = {"kind": "h", "n_values": [4], "values": [0.1]}
_SX = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]


def _pairs(matrix):
    """A matrix as the config's nested [re, im] pairs."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


_BAD_BLOCK_VALUES = [
    ("cost", "cost", None, {"t": None}),
    ("cost", "cost", None, {"t": "4.0"}),
    ("cost", "cost", None, {"t": True}),
    ("cost", "cost", None, {"t": float("nan")}),
    ("cost", "cost", None, {"t": -1.0}),
    ("cost", "cost", None, {"epsilon": 0.0}),
    ("cost", "cost", None, {"epsilon": float("inf")}),
    ("cost", "cost", None, {"p": 3}),
    ("cost", "cost", None, {"p": 2.0}),
    ("cost", "cost", None, {"d": 0}),
    ("cost", "cost", None, {"n": []}),
    ("cost", "cost", None, {"n": [8, 2.5]}),
    ("cost", "cost", None, {"n": 0}),
    ("cost", "cost", None, {"n": True}),
    ("cost", "cost", None, {"r": -1.0}),
    ("cost", "cost", None, {"i_factor": None}),
    ("scaling", "sweep", None, {**_SWEEP, "kind": "beta"}),
    ("scaling", "sweep", None, {**_SWEEP, "values": None}),
    ("scaling", "sweep", None, {**_SWEEP, "values": []}),
    ("scaling", "sweep", None, {**_SWEEP, "values": [0.1, -0.1]}),
    ("scaling", "sweep", None, {**_SWEEP, "n_values": None}),
    ("scaling", "sweep", None, {**_SWEEP, "n_values": [4, 1]}),
    ("scaling", "sweep", None, {**_SWEEP, "n_values": [4.0]}),
    ("scaling", "sweep", None, {**_SWEEP, "t_max": "2"}),
    ("sequential", "baseline", None, {"flip_sites": [0, 4]}),
    ("sequential", "baseline", None, {"flip_sites": "0"}),
    ("sequential", "baseline", None, {"flip_sites": [0, 1], "thetas": [0.0]}),
    ("sequential", "baseline", None, {"flip_sites": [0, 1], "thetas": [0.0, "pi"]}),
    ("sequential", "baseline", None, {"flip_sites": [0, 1], "fallback_threshold": None}),
    ("sequential", "baseline", None, {"flip_sites": [0, 1], "shots": 0}),
    ("hadamard", "baseline", None, {"part": "both"}),
    ("hadamard", "baseline", None, {"shots": 1.5}),
    ("phase", "algorithm", "zero_correction", "no"),
    ("phase", "algorithm", "zero_correction", 1),
    # non-integers where an integer is required
    ("phase", "algorithm", "order", 2.9),
    ("phase", "algorithm", "shots", 1.5),
    ("phase", "config", "seed", 1.7),
    ("phase", "model", "n", 4.5),
    ("noise", "noise", "n_trajectories", 2.5),
    ("noise", "noise", "seed", 1.5),
    ("two-sided", "operator_a", "sites", [0.7]),
    ("phase", "model", None, {"model": "terms", "n": 2,
                              "terms": [{"support": [0.9], "matrix": _SX}]}),
    # strings and bools where a number is required
    ("phase", "algorithm", "tau", "0.05"),
    ("phase", "algorithm", "threshold", "0.01"),
    ("phase", "model", "J", "1"),
    ("noise", "noise", "gamma", "0.01"),
    ("two-sided", "states", "t_prime", "0.5"),
    ("phase", "model", None, {"model": "terms", "n": 2, "terms": [{
        "support": [0], "matrix": [[[0.0, 0.0], ["1", 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}]}),
    ("phase", "algorithm", "h", True),
    ("phase", "algorithm", "anchor", True),
    ("phase", "states", "psi", ["up", "up", "up", [[True, 0.0], [0.0, 0.0]]]),
    # refusals past the value tables: a block or a model that is not an
    # object, an unknown model kind, a term that LocalTerm or HamiltonianSpec
    # refuses, states and operators their parsers refuse, zero repair's threshold
    # with zero repair off, the noise command without a noise block and the
    # closed-form ITE on a sigma^y term
    ("phase", "config", "algorithm", [0.05, 0.05, 0.5]),
    ("phase", "config", "model", "tfim"),
    ("phase", "model", "model", "ising"),
    ("phase", "model", None, {"model": "terms", "n": 2,
                              "terms": [{"support": [0], "matrix": _pairs([[0, 1], [0, 0]])}]}),
    ("phase", "model", None, {"model": "terms", "n": 3, "terms": [
        {"support": [0, 2], "matrix": _pairs(np.kron(SIGMA_Z, SIGMA_Z))}]}),
    ("phase", "states", "psi", "left"),
    ("phase", "algorithm", None, {"tau": 0.05, "h": 0.05, "t_max": 0.5,
                                  "zero_correction": False, "threshold": 0.05}),
    ("two-sided", "operator_a", "matrix", _pairs(SIGMA_X)),
    ("two-sided", "operator_a", "sites", [0, 1]),
    ("two-sided", "states", "operator_a", {"sites": [0, 1], "matrix": _pairs(SIGMA_X)}),
    ("noise", "config", "noise", None),
    ("phase", "model", None, {"model": "terms", "n": 2,
                              "terms": [{"support": [0], "matrix": _pairs(SIGMA_Y)}]}),
]


def command_config(command):
    """A config the command runs on, with the blocks it reads."""
    doc = base_config()
    if command == "noise":
        doc["noise"] = {"gamma": 0.01, "n_trajectories": 2}
    if command == "two-sided":
        doc["states"].update(operator_a={"sites": [0], "name": "x"}, t_prime=0.1)
    return doc


def command_argv(command, cfg, out):
    argv = [command, "--config", cfg, "--out", str(out)]
    if command in ("hadamard", "sequential"):
        argv = ["baseline", "--method", command] + argv[1:]
    return argv


class TestBadConfigWritesNothing:
    @pytest.mark.parametrize("command", ["phase", "noise", "two-sided"])
    def test_command_config_runs(self, tmp_path, command):
        cfg = write_config(tmp_path, command_config(command))
        assert main(command_argv(command, cfg, tmp_path / "out")) == 0

    @pytest.mark.parametrize("command, block, key, value", _BAD_BLOCK_VALUES)
    def test_bad_value_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command, block, key, value
    ):
        doc = command_config(command)
        if key is None:
            doc[block] = value
        elif block == "config":
            doc[key] = value
        elif block == "operator_a":
            doc["states"]["operator_a"][key] = value
        else:
            doc[block][key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(command_argv(command, cfg, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, block, value", [
        ("phase", "model", {"model": "tfim", "n": 25, "J": 1.0, "g": 0.5}),
        ("phase", "model", {"model": "tfim", "n": 30, "J": 1.0, "g": 0.5}),
        ("phase", "model", {"model": "terms", "n": 25, "terms": []}),
        ("scaling", "sweep", {**_SWEEP, "n_values": [4, 25]}),
    ])
    def test_more_sites_than_the_cap_are_refused_before_any_state(
        self, tmp_path, capsys, monkeypatch, command, block, value
    ):
        # a 25-site state is 512 MiB and a 30-site one 16 GiB: the config
        # is refused before any state of that size is asked for
        assert STATEVECTOR_MAX_SITES == 24
        small_state = config_module.product_state

        def refuse_large(orientations):
            if len(orientations) > STATEVECTOR_MAX_SITES:
                raise AssertionError(f"asked for a {len(orientations)}-site state")
            return small_state(orientations)

        monkeypatch.setattr(config_module, "product_state", refuse_large)
        doc = command_config(command)
        doc[block] = value
        out = tmp_path / "out"
        assert main(command_argv(command, write_config(tmp_path, doc), out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ", 24]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("{'model': 'tfim'}", "config is not valid JSON: "),
        (json.dumps(base_config(model={"model": "tfim", "n": 13, "J": 1.0, "g": 0.5},
                                algorithm={"tau": 0.05, "h": 0.05, "t_max": 0.5,
                                           "backend": "exact_oracle"})),
         "exact_oracle backend is capped at 12 sites, got 13"),
    ])
    def test_a_file_no_block_table_refuses_exits_2_and_writes_nothing(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["phase", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message) and "Traceback" not in err
        assert not out.exists()

    def test_threshold_with_zero_repair_off_is_refused(self):
        # reconstruct_trace reads threshold only when zero repair is on
        cfg = parse_document(base_config()).experiment
        refused = r"^algorithm\.threshold is not read with zero_correction off$"
        with pytest.raises(ConfigError, match=refused):
            replace(cfg, zero_correction=False, threshold=0.05)
        assert replace(cfg, zero_correction=False).threshold is None
        assert replace(cfg, threshold=0.05).threshold == 0.05

    def test_algorithm_shots_next_to_noise_names_noise_shots(self, tmp_path, capsys):
        # the noisy backend samples noise.shots; algorithm.shots was ignored
        doc = command_config("noise")
        doc["algorithm"]["shots"] = 100
        out = tmp_path / "out"
        assert main(command_argv("noise", write_config(tmp_path, doc), out)) == 2
        assert "noise.shots" in capsys.readouterr().err
        assert not out.exists()
        # null is the resolved snapshot's spelling of "not set" and replays
        doc["algorithm"]["shots"] = None
        assert main(command_argv("noise", write_config(tmp_path, doc), out)) == 0

    @pytest.mark.parametrize("argv", [
        ["scaling"],  # no sweep block
        ["two-sided"],  # no states.operator_a
        ["baseline", "--method", "sequential"],  # no baseline.flip_sites
    ])
    def test_command_error_before_the_first_write_leaves_no_directory(self, tmp_path, argv):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_an_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        # the directory cannot be made: a config error, as for an
        # unreadable --config, not a traceback
        (tmp_path / "F").write_text("")
        out = tmp_path / "F" / "out"
        config = Path(__file__).resolve().parents[1] / "configs" / "cost.json"
        assert main(["cost", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ") and str(out) in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "F"]

    def test_a_repeated_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # JSON keeps the last of two values; the config refuses the pair
        text = json.dumps(base_config()).replace('"tau": 0.05', '"tau": 0.1, "tau": 0.05')
        assert text.count('"tau"') == 2
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["phase", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config repeats key 'tau' in one object\n")
        assert not out.exists()

    def test_failure_after_a_table_is_computed_leaves_no_directory(
            self, tmp_path, monkeypatch, capsys):
        # ldos has its spectrum before the oracle reference fails; nothing is
        # written until the command has finished
        import loschmidt.cli as cli_module

        def fail(*_args):
            raise NumericsError("reference failed")

        monkeypatch.setattr(cli_module, "exact_ldos", fail)
        out = tmp_path / "out"
        assert main(["ldos", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: reference failed\n"
        assert not out.exists()

    def test_a_handler_returns_its_tables_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = parse_document(base_config(
            cost={"n": [8, 16], "t": 4.0, "epsilon": 0.01, "p": 2, "d": 1}))
        returned, tables, extra = COMMANDS["cost"](doc, "cost")
        assert returned is doc and extra == {}
        header, columns = tables["cost.csv"]
        assert list(tables) == ["cost.csv"] and header[:2] == ["method", "N"]
        assert len(columns) == len(header) and len(columns[0]) == 6
        assert list(tmp_path.iterdir()) == []

    def test_good_values_pass(self):
        doc = base_config(
            cost={"n": 8, "t": 0, "epsilon": 0.5, "p": 4, "d": 2, "r": 0.5, "i_factor": -1},
            sweep={"kind": "tau", "n_values": [2, 3], "values": [1, 0.5], "t_max": 1},
            baseline={"flip_sites": [], "thetas": [0, 1.5], "part": "imag", "shots": None,
                      "fallback_threshold": 0},
        )
        doc["algorithm"]["zero_correction"] = False
        doc["algorithm"]["tau"] = 1
        doc["model"]["J"] = 1
        parsed = parse_document(doc)
        assert parsed.experiment.zero_correction is False
        assert parsed.experiment.tau == 1 and parsed.experiment.spec.n_sites == 4
        # numpy scalars from Python callers are numbers of the right kind
        cfg = replace(parsed.experiment, order=np.int64(4), tau=np.float64(0.1))
        assert cfg.order == 4 and cfg.tau == 0.1

    def test_experiment_config_checks_python_callers(self):
        cfg = parse_document(base_config()).experiment
        # the messages name the JSON path, as for a config file
        order = r"^algorithm\.order must be one of 1, 2, 4, got 2\.5$"
        with pytest.raises(ConfigError, match=order):
            ExperimentConfig(cfg.spec, cfg.psi, tau=0.1, h=0.1, t_max=0.2, order=2.5)
        tau = r"^algorithm\.tau must be a positive number, got '0\.1'$"
        with pytest.raises(ConfigError, match=tau):
            replace(cfg, tau="0.1")

    @pytest.mark.parametrize("backend", [{}, {"backend": "statevector_trotter"},
                                         {"backend": "exact_oracle"}])
    def test_noise_block_beside_another_backend_refused(self, backend):
        # the noise block's gamma and shots were dropped on these backends
        cfg = parse_document(base_config()).experiment
        noise = NoiseConfig(0.2, 10, shots=100)
        refused = r"^a noise block requires backend 'noisy' \(or leave backend unset\)$"
        with pytest.raises(ConfigError, match=refused):
            ExperimentConfig(cfg.spec, cfg.psi, tau=0.1, h=0.1, t_max=0.2, noise=noise, **backend)
        assert replace(cfg, backend="noisy", noise=noise).noise is noise

    def test_noise_block_beside_another_backend_refused_in_json(self):
        doc = base_config(noise={"gamma": 0.2, "n_trajectories": 10})
        doc["algorithm"]["backend"] = "statevector_trotter"
        with pytest.raises(ConfigError, match="a noise block requires backend 'noisy'"):
            parse_document(doc)
        # an invalid algorithm value is reported first
        doc["algorithm"]["tau"] = -1
        with pytest.raises(ConfigError, match="algorithm.tau must be a positive number"):
            parse_document(doc)
        del doc["algorithm"]["backend"]
        doc["algorithm"]["tau"] = 0.05
        assert parse_document(doc).experiment.backend == "noisy"

    @pytest.mark.parametrize("steps", [-3, 2.5, True, "1", None])
    def test_prefix_steps_must_be_a_nonnegative_integer(self, steps):
        # -3 ran: the first three points were rows of np.empty and t = 0 sat
        # at index 3; 2.5 raised a TypeError inside the run
        cfg = parse_document(base_config()).experiment
        with pytest.raises(ConfigError, match=r"^prefix_steps must be a nonnegative integer"):
            replace(cfg, prefix_steps=steps, anchor=0.0)

    def test_prefix_steps_accepts_integers(self):
        cfg = parse_document(base_config()).experiment
        assert replace(cfg, prefix_steps=np.int64(3), anchor=0.0).prefix_steps == 3
        assert replace(cfg, prefix_steps=0).prefix_steps == 0


class TestScalingLdosCost:
    def test_scaling_single_point(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"kind": "h", "n_values": [4], "values": [0.1], "t_max": 0.5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "scaling_points.csv")
        assert len(rows) == 1

    def test_scaling_tau_sweep_normalizes_by_order_power(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["h"] = 0.01
        doc["sweep"] = {"kind": "tau", "n_values": [4], "values": [0.1, 0.2],
                        "t_max": 1.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "scaling_points.csv")
        for row in rows:
            expected = float(row["max_abs_dphi"]) / (4 * float(row["tau"]) ** 2)
            assert abs(float(row["normalized"]) - expected) < 1e-15
        fits = read_rows(out / "scaling_summary.csv")
        exponents = [float(r["value"]) for r in fits if r["metric"] == "exponent"]
        assert len(exponents) == 1 and np.isfinite(exponents[0])

    def test_scaling_terms_model_writes_nothing(self, tmp_path, capsys):
        doc = base_config()
        sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        doc["model"] = {"model": "terms", "n": 2,
                        "terms": [{"support": [0], "matrix": sx, "group": "x"}]}
        doc["sweep"] = {"kind": "h", "n_values": [2, 3], "values": [0.1]}
        out = tmp_path / "out"
        assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "tfim" in err
        assert not out.exists()

    def test_scaling_runs_the_named_state_at_every_size(self, tmp_path):
        # each point is the config's experiment at that size, the named psi
        # on every site: "x+" does not run as "up"
        doc = base_config(sweep={"kind": "h", "n_values": [3, 4], "values": [0.1], "t_max": 0.5})
        doc["algorithm"]["ite_mode"] = "general_bj"
        rows = {}
        for name in ("x+", "up"):
            doc["states"]["psi"] = name
            out, cfg = tmp_path / name, write_config(tmp_path, doc)
            assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
            rows[name] = read_rows(out / "scaling_points.csv")
        exp = parse_document(doc).experiment
        for row, up_row, n in zip(rows["x+"], rows["up"], (3, 4)):
            spec, psi = tfim(n, 1.0, 0.5), product_state(["x+"] * n)
            trace = run_phase_experiment(replace(exp, spec=spec, psi=psi, h=0.1, t_max=0.5))
            _, phi_or = oracle_phase_series(spec, psi, psi, trace.times)
            assert float(row["max_abs_dphi"]) == float(np.max(np.abs(trace.phi - phi_or)))
            assert row["max_abs_dphi"] != up_row["max_abs_dphi"]

    @pytest.mark.parametrize("states, algorithm, noise, what", [
        ({"psi": ["up", "down", "up", "down"]}, {}, None, "named states.psi"),
        ({"psi": "up", "psi_final": "down"}, {}, None, "psi_final"),
        ({"psi": "up"}, {}, {"gamma": 0.01, "n_trajectories": 2}, "noise block"),
        ({"psi": "up"}, {"backend": "exact_oracle"}, None, "statevector_trotter"),
        ({"psi": "up"}, {"anchor": 0.3}, None, "algorithm.anchor"),
    ])
    def test_scaling_refuses_what_cannot_apply_across_sizes(
        self, tmp_path, capsys, states, algorithm, noise, what
    ):
        doc = base_config(states=states, noise=noise,
                          sweep={"kind": "h", "n_values": [3, 4], "values": [0.1]})
        doc["algorithm"].update(algorithm)
        out = tmp_path / "out"
        assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and what in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["h", "tau"])
    def test_sweep_points_are_the_named_chain_at_each_size(self, kind):
        sweep = {"kind": kind, "n_values": [2, 5], "values": [0.1, 0.2], "t_max": 0.3}
        doc = parse_document(base_config(states={"psi": "x+"}, sweep=sweep))
        points = list(doc.sweep_points())
        assert [(n, value) for n, value, _ in points] == [(2, 0.1), (2, 0.2), (5, 0.1), (5, 0.2)]
        for n, value, exp in points:
            assert np.array_equal(dense_matrix(exp.spec), dense_matrix(tfim(n, 1.0, 0.5)))
            assert np.array_equal(exp.psi.amplitudes, product_state(["x+"] * n).amplitudes)
            swept = {"h": doc.experiment.h, "tau": doc.experiment.tau, kind: value}
            assert (exp.h, exp.tau, exp.t_max) == (swept["h"], swept["tau"], 0.3)
            assert replace(exp, spec=doc.experiment.spec, psi=doc.experiment.psi,
                           h=doc.experiment.h, tau=doc.experiment.tau,
                           t_max=doc.experiment.t_max) == doc.experiment

    def test_sweep_points_refuse_in_order_before_any_state(self, monkeypatch):
        # a document that breaks every sweep rule; each step mends the rule
        # refused last, so the next rule in the order is the one refused
        doc = base_config(
            model={"model": "terms", "n": 4, "terms": [{"support": [0], "matrix": _SX}]},
            states={"psi": ["up"] * 4, "psi_final": "down"},
            noise={"gamma": 0.01, "n_trajectories": 2},
        )
        doc["algorithm"]["anchor"] = 0.3
        steps = [
            ("scaling runs need a sweep block",
             lambda d: d.update(sweep={**_SWEEP, "n_values": [4, 13]})),
            ("the built-in tfim model only", lambda d: d.update(model=base_config()["model"])),
            ("a named states.psi", lambda d: d["states"].update(psi="up")),
            ("remove states.psi_final", lambda d: d["states"].pop("psi_final")),
            ("remove the noise block",
             lambda d: d.update(noise=None) or d["algorithm"].update(backend="exact_oracle")),
            ("statevector_trotter backend, not 'exact_oracle'",
             lambda d: d["algorithm"].pop("backend")),
            ("remove algorithm.anchor", lambda d: d["algorithm"].pop("anchor")),
            ("capped at 12 sites; sweep.n_values holds 13",
             lambda d: d["sweep"].update(n_values=[4, 12])),
        ]
        refused = []
        for what, mend in steps:
            refused.append((what, parse_document(json.loads(json.dumps(doc)))))
            mend(doc)
        valid = parse_document(doc)

        def build(*args):
            raise AssertionError("a sweep chain or state was built")

        monkeypatch.setattr(config_module, "tfim", build)
        monkeypatch.setattr(config_module, "product_state", build)
        for what, parsed in refused:
            with pytest.raises(ConfigError, match=re.escape(what)):
                parsed.sweep_points()
        valid.sweep_points()  # passes every rule and builds nothing yet

    def test_sweep_points_build_each_size_at_its_first_point(self, monkeypatch):
        doc = parse_document(base_config(
            sweep={"kind": "h", "n_values": [2, 3], "values": [0.1, 0.2]}))
        built = []
        for name in ("tfim", "product_state"):
            original = getattr(config_module, name)
            monkeypatch.setattr(config_module, name, lambda *args, name=name, original=original:
                                built.append(name) or original(*args))
        points = doc.sweep_points()
        assert built == []
        sizes = [(next(points)[0], len(built)) for _ in range(4)]
        assert sizes == [(2, 2), (2, 2), (3, 4), (3, 4)]
        assert next(points, None) is None and len(built) == 4

    def test_scaling_beyond_the_oracle_cap_runs_no_point(self, tmp_path, capsys, monkeypatch):
        # N = 4 ran before N = 13 was refused by the oracle
        import loschmidt.cli as cli_module

        runs = []
        monkeypatch.setattr(cli_module, "run_phase_experiment", runs.append)
        doc = base_config(sweep={**_SWEEP, "n_values": [4, 13]})
        out = tmp_path / "out"
        assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: scaling sweeps compare with the oracle, capped at 12 sites; "
            "sweep.n_values holds 13\n")
        assert runs == [] and not out.exists()

    def test_scaling_refuses_a_term_list_model(self, tmp_path, capsys):
        sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        doc = base_config(model={"model": "terms", "n": 2,
                                 "terms": [{"support": [0], "matrix": sx}]},
                          sweep={"kind": "h", "n_values": [3, 4], "values": [0.1]})
        out = tmp_path / "out"
        assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: scaling sweeps support the built-in tfim model only\n"
        assert not out.exists()

    def test_scaling_empty_sweep_rejected(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"kind": "h", "n_values": [], "values": [0.1]}
        cfg = write_config(tmp_path, doc)
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_ldos_normalization(self, tmp_path):
        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"].update({"tau": 0.3, "h": 0.01, "t_max": 9.9,
                                 "backend": "exact_oracle"})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ldos.csv")
        info = json.loads((out / "runinfo.json").read_text())
        weight = info["eta"] * sum(float(r["d"]) for r in rows)
        assert abs(weight - 1.0) < 0.02
        assert (out / "ldos_reference.csv").exists()

    @pytest.mark.parametrize("spectral", [
        {"width": 0},
        {"taper_width": 0},
        {"taper_width": -2.0},
        {"hermitian_extend": "no"},
    ])
    def test_bad_spectral_block_writes_nothing(self, tmp_path, spectral):
        doc = base_config()
        doc["algorithm"]["backend"] = "exact_oracle"
        doc["spectral"] = spectral
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "ldos.csv").exists()

    def test_hermitian_extend_with_psi_final_rejected_before_the_run(self, tmp_path, monkeypatch):
        import loschmidt.cli as cli_module

        def refuse(_config):
            raise RuntimeError("experiment ran")

        monkeypatch.setattr(cli_module, "run_phase_experiment", refuse)
        doc = base_config()
        doc["states"]["psi_final"] = "down"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "ldos.csv").exists()

    def test_ldos_from_noisy_mitigated_run(self, tmp_path):
        # the full composite: trajectories + shots + mitigation feeding the
        # Fourier transform still resolves the ground energy to one bin
        from loschmidt.model import dense_matrix, tfim

        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"] = {"tau": 0.3, "h": 0.3, "t_max": 9.9, "order": 1}
        doc["noise"] = {"gamma": 1e-3, "n_trajectories": 300, "shots": 1000000}
        doc["seed"] = 11
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ldos.csv")
        info = json.loads((out / "runinfo.json").read_text())
        d = np.array([float(r["d"]) for r in rows])
        energies = np.array([float(r["E"]) for r in rows])
        e0 = float(np.linalg.eigvalsh(dense_matrix(tfim(6, 1.0, 0.5)))[0])
        visible = energies[d > 0.1]
        assert len(visible) > 0
        assert abs(visible.min() - e0) <= info["eta"]
        assert abs(info["eta"] * d.sum() - 1.0) < 0.02

    def test_cost_table(self, tmp_path):
        doc = base_config()
        doc["cost"] = {"n": [8, 16], "t": 4.0, "epsilon": 0.01, "p": 2, "d": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["cost", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "cost.csv")
        assert len(rows) == 6
        by_key = {(r["method"], int(r["N"])): float(r["depth"]) for r in rows}
        ratio_8 = by_key[("hadamard", 8)] / by_key[("this_work", 8)]
        ratio_16 = by_key[("hadamard", 16)] / by_key[("this_work", 16)]
        assert abs(ratio_16 / ratio_8 - 4.0) < 1e-9  # 2^(1+1/d), d = 1

    def test_baseline_commands(self, tmp_path):
        doc = base_config()
        doc["algorithm"].update({"tau": 0.02, "h": 0.02, "t_max": 1.0})
        doc["baseline"] = {"flip_sites": [0, 1]}
        cfg = write_config(tmp_path, doc)
        out_h, out_s = tmp_path / "h", tmp_path / "s"
        assert main(["baseline", "--config", cfg, "--out", str(out_h),
                     "--method", "hadamard"]) == 0
        assert main(["baseline", "--config", cfg, "--out", str(out_s),
                     "--method", "sequential"]) == 0
        rows = read_rows(out_h / "baseline_hadamard.csv")
        for row in rows:
            assert abs(float(row["estimate"]) - float(row["oracle"])) < 5e-3
        info = json.loads((out_s / "runinfo.json").read_text())
        diff = (info["phase"] - info["oracle_phase"] + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 5e-3


def _fmt_per_value(value) -> str:
    """The per-value formatter ``write_csv`` used before rows were rendered
    through one %-format string; the byte reference for the faster path."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


class TestWriteCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(23)
        floats = rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)
        floats = np.concatenate(
            [floats, [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e16, 1e17, 0.1]]
        )
        n = len(floats)
        columns = [
            floats,
            list(floats),
            rng.random(n) < 0.5,
            [np.bool_(b) for b in rng.random(n) < 0.5],
            rng.integers(-(2**62), 2**62, n),
            [np.int32(i) for i in range(n)],
            [f"label{i}" for i in range(n)],
            [1] * (n // 2) + [2.5] * (n - n // 2),  # mixed ints and floats
        ]
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "out.csv", header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(_fmt_per_value(v) for v in row) + "\n" for row in zip(*columns)
        )
        assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")

    def test_header_only_without_rows(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[], np.array([])])
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
