"""End-to-end CLI behavior: exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

import qcontract as qc
from qcontract.cli import _build_parser, main

GOLDEN_RHO = (
    '[[[0.65, 0.0], [0.15, 0.1]], [[0.15, -0.1], [0.35, 0.0]]]'
)
GOLDEN_SIGMA = (
    '[[[0.4, 0.0], [0.0, -0.05]], [[0.0, 0.05], [0.6, 0.0]]]'
)
DEPOL = '{"kind": "depolarizing", "p": 0.5}'
PAULI = '{"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1]}'


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDivergence:
    def test_pinned_values_all_families(self, capsys):
        code, env = run_json(
            capsys,
            ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA],
        )
        assert code == 0
        got = {r["family"]: r["value"] for r in env["payload"]["results"]}
        assert set(got) == {"ht", "petz", "matsumoto"}
        assert got["ht"] == pytest.approx(0.2214583150359963, abs=1e-9)
        assert got["petz"] == pytest.approx(0.2214583150359963, abs=1e-9)
        assert got["matsumoto"] == pytest.approx(0.2230609837738290, abs=1e-9)

    def test_family_and_f_filters(self, capsys):
        code, env = run_json(
            capsys,
            [
                "divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
                "--family", "petz", "--f", "chi2", "--f", "hellinger",
            ],
        )
        assert code == 0
        recs = env["payload"]["results"]
        assert [(r["family"], r["f_name"]) for r in recs] == [
            ("petz", "chi2"), ("petz", "hellinger")
        ]

    def test_text_and_csv_formats(self, capsys):
        argv = ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
                "--family", "ht"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "ht" in text and "kl" in text
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,f_name,value"
        assert lines[1].startswith("ht,kl,0.221458315036")

    def test_missing_state_is_input_error(self, capsys):
        assert main(["divergence", "--rho", GOLDEN_RHO]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_unknown_f_name(self, capsys):
        code = main(
            ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
             "--f", "renyi"]
        )
        assert code == 2
        assert "unknown f name" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        code = main(
            ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
             "--family", "sandwiched"]
        )
        assert code == 2

    def test_singular_sigma_is_precondition_error(self, capsys):
        code = main(
            ["divergence", "--family", "matsumoto", "--rho", GOLDEN_RHO,
             "--sigma", "[[1, 0], [0, 0]]"]
        )
        assert code == 3

    def test_missing_file_path(self, capsys):
        code = main(
            ["divergence", "--rho", "/no/such/file.json", "--sigma", GOLDEN_SIGMA]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestSdpi:
    def test_depolarizing_exact_values(self, capsys):
        code, env = run_json(capsys, ["sdpi", "--channel", DEPOL])
        assert code == 0
        assert env["payload"]["sigma_source"] == "fixed_point"
        recs = env["payload"]["results"]
        assert {r["g_name"] for r in recs} == {"kmb", "max"}
        for r in recs:
            assert r["value"] == pytest.approx(0.25, abs=1e-9)
            assert r["method"] == "exact_lambda2"

    def test_variational_block_appended_with_family(self, capsys):
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, "--family", "petz",
             "--restarts", "6", "--seed", "5", "--g", "max"],
        )
        assert code == 0
        recs = env["payload"]["results"]
        kinds = [("g_name" in r, r["family"]) for r in recs]
        assert kinds == [(True, "chi2"), (False, "petz")]
        assert recs[1]["method"] == "variational"
        assert recs[1]["value"] <= 0.25 + 1e-6

    def test_explicit_sigma_used(self, capsys):
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, "--sigma", "[[0.7, 0], [0, 0.3]]"],
        )
        assert code == 0
        assert env["payload"]["sigma_source"] == "explicit"
        # the explicit sigma is not fixed, so a warning is recorded
        assert any(
            "warning" in r["diagnostics"] for r in env["payload"]["results"]
        )

    def test_unitary_channel_not_primitive(self, capsys):
        code = main(
            ["sdpi", "--channel",
             '{"kind": "kraus", "operators": [[[0, 1], [1, 0]]]}']
        )
        assert code == 3
        assert "NotPrimitive" in capsys.readouterr().err

    def test_channel_required(self, capsys):
        assert main(["sdpi"]) == 2

    def test_negative_seed_is_input_error(self, capsys):
        code = main(["sdpi", "--channel", DEPOL, "--family", "petz", "--seed", "-1"])
        assert code == 2
        assert "error[InputError]: seed must be a nonnegative integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        '{"kind": "depolarizing", "p": 0.5, "dim": "x"}',
        '{"kind": "depolarizing", "p": 0.5, "dim": 2.7}',
        '{"kind": "random", "dim": 2, "env": 1.5}',
        '{"kind": "random", "dim": 2, "seed": "a"}',
    ])
    def test_non_integer_channel_field_is_input_error(self, capsys, spec):
        assert main(["sdpi", "--channel", spec]) == 2
        assert "must be an integer" in capsys.readouterr().err


class TestDbCheck:
    def test_pauli_passes(self, capsys):
        code, env = run_json(capsys, ["db-check", "--channel", PAULI])
        assert code == 0
        payload = env["payload"]
        assert payload["verdict"] == "PASS"
        assert payload["gns_implies_all"]
        assert set(payload["residuals"]) == {"gns", "max", "kmb"}
        assert payload["max_residual"] <= qc.DB_TOL

    def test_random_channel_fails(self, capsys):
        code, env = run_json(
            capsys,
            ["db-check", "--channel",
             '{"kind": "random", "dim": 2, "env": 4, "seed": 7}'],
        )
        assert code == 0  # a FAIL verdict is still a successful run
        assert env["payload"]["verdict"] == "FAIL"
        assert env["payload"]["max_residual"] > 1e-3

    def test_text_format_shows_verdict(self, capsys):
        assert main(["db-check", "--channel", PAULI]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "residual[gns]" in out

    def test_sigma_dimension_mismatch_is_input_error(self, capsys):
        code = main([
            "db-check", "--channel",
            '{"kind": "depolarizing", "p": 0.5, "dim": 3}',
            "--sigma", "[[0.5, 0], [0, 0.5]]",
        ])
        assert code == 2
        assert "dimensions differ" in capsys.readouterr().err


class TestExperiment:
    ARGS = [
        "experiment", "--channel", DEPOL, "--n-max", "2",
        "--restarts", "4", "--seed", "3", "--family", "petz",
    ]

    def test_json_payload_contains_rows_and_verdicts(self, capsys):
        code, env = run_json(capsys, self.ARGS)
        assert code == 0
        payload = env["payload"]
        assert payload["csv_schema"] == qc.CSV_SCHEMA_VERSION
        assert [row["n"] for row in payload["rows"]] == [1, 2]
        assert payload["verdicts"]["theorem_rate"]["pass"]
        assert payload["verdicts"]["tightness"]["pass"]

    def test_csv_format_is_bare_table(self, capsys):
        assert main(self.ARGS + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,eta[petz[kl]]")
        assert len(lines) == 3

    def test_text_format_shows_verdicts(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "verdict rate-bound: PASS" in out
        assert "verdict tightness: PASS" in out

    def test_n_max_out_of_range(self, capsys):
        code = main(["experiment", "--channel", DEPOL, "--n-max", "40"])
        assert code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_negative_seed_is_input_error(self, capsys):
        code = main(["experiment", "--channel", DEPOL, "--n-max", "1", "--seed", "-3"])
        assert code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_payload_hash_pinned(self, capsys):
        # a refactor must reproduce the depolarizing experiment bit for bit
        code, env = run_json(
            capsys,
            ["experiment", "--channel", '{"kind":"depolarizing","p":0.5}',
             "--n-max", "2", "--restarts", "2"],
        )
        assert code == 0
        assert env["payload_sha256"] == (
            "8aa47f5448e0ed57253be6a21c2bbcf94cf96aa33c80eab5d856bff028d48f78"
        )

    def test_not_primitive_exit_code(self, capsys):
        code = main(
            ["experiment", "--channel",
             '{"kind": "kraus", "operators": [[[0, 1], [1, 0]]]}',
             "--n-max", "2"]
        )
        assert code == 3


class TestCatalog:
    def test_lists_everything_by_default(self, capsys):
        code, env = run_json(capsys, ["catalog"])
        assert code == 0
        payload = env["payload"]
        assert [r["name"] for r in payload["f"]] == ["chi2", "hellinger", "kl"]
        assert [r["name"] for r in payload["g"]] == ["kmb", "max", "gns"]
        assert payload["families"] == ["ht", "petz", "matsumoto"]
        flags = {r["name"]: r["operator_convex"] for r in payload["f"]}
        assert flags == {"chi2": True, "hellinger": True, "kl": True}

    def test_filters(self, capsys):
        code, env = run_json(capsys, ["catalog", "--f", "kl", "--g", "gns"])
        assert code == 0
        assert [r["name"] for r in env["payload"]["f"]] == ["kl"]
        assert [r["name"] for r in env["payload"]["g"]] == ["gns"]

    def test_unknown_filter_yields_empty_success(self, capsys):
        code, env = run_json(capsys, ["catalog", "--f", "bogus"])
        assert code == 0
        assert env["payload"]["f"] == []

    def test_text_format(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "f-divergence generators:" in out
        assert "families: ht, petz, matsumoto" in out


class TestEnvelope:
    def test_payload_hash_reproducible_across_runs(self, capsys):
        argv = ["sdpi", "--channel", DEPOL, "--seed", "7", "--family", "petz",
                "--restarts", "2"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a["payload_sha256"] == b["payload_sha256"]
        assert a["payload"] == b["payload"]

    def test_hash_matches_payload_bytes(self, capsys):
        import hashlib

        _, env = run_json(capsys, ["catalog"])
        digest = hashlib.sha256(
            json.dumps(env["payload"], sort_keys=True).encode()
        ).hexdigest()
        assert env["payload_sha256"] == digest

    def test_envelope_carries_config_and_timestamps(self, capsys):
        _, env = run_json(capsys, ["db-check", "--channel", PAULI])
        assert env["version"] == qc.cli.__version__
        assert env["config"]["command"] == "db-check"
        assert env["config"]["seed"] == qc.DEFAULT_SEED
        assert set(env["timestamps"]) == {"started", "finished"}
        assert env["diagnostics"]["db_tolerance"] == qc.DB_TOL

    @pytest.mark.parametrize("argv, digest", [
        (["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA],
         "a3dd09c870c051a996bcab6bf123e0db4f483fff0934ee44e7b6af945b12ae35"),
        (["sdpi", "--channel", DEPOL],
         "878b6f875466671d6b688204a44d792399b1c83e0aec55bcaa230719c2bbc068"),
        (["db-check", "--channel", PAULI],
         "3894e2031e5c8cb92410ef74c6c656823ce66f1d54921da9e7fd30320f7d5d86"),
    ], ids=["divergence", "sdpi", "db-check"])
    def test_payload_hash_pinned(self, capsys, argv, digest):
        # a refactor must reproduce each command's payload bit for bit
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload_sha256"] == digest

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["catalog", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        env = json.loads(target.read_text())
        assert env["config"]["command"] == "catalog"

    def test_unwritable_out_is_io_error(self, capsys):
        code = main(
            ["catalog", "--format", "json", "--out", "/nonexistent/dir/x.json"]
        )
        assert code == 2
        assert "error[io]" in capsys.readouterr().err


#: the flags each subcommand reads; every subcommand also takes --format and --out
FLAGS = {
    "divergence": {"--rho", "--sigma", "--f", "--family"},
    "sdpi": {"--channel", "--sigma", "--g", "--f", "--family", "--seed", "--restarts"},
    "db-check": {"--channel", "--sigma"},
    "experiment": {"--channel", "--f", "--g", "--family", "--n-max", "--seed",
                   "--restarts"},
    "catalog": {"--f", "--g"},
}
ALL_FLAGS = set().union(*FLAGS.values()) | {"--format", "--out"}


def taken_flags(command):
    """The flags of ALL_FLAGS that the parser accepts after ``command``."""
    parser = _build_parser()
    taken = set()
    for flag in ALL_FLAGS:
        value = "json" if flag == "--format" else "1"
        try:
            parser.parse_args([command, flag, value])
        except SystemExit as exc:
            assert exc.code == 2
            continue
        taken.add(flag)
    return taken


class TestFlags:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_subcommand_takes_exactly_its_flags(self, capsys, command):
        assert taken_flags(command) == FLAGS[command] | {"--format", "--out"}

    def test_settable_value_count(self, capsys):
        assert sum(len(taken_flags(command)) for command in FLAGS) == 32

    @pytest.mark.parametrize("argv", [
        ["experiment", "--channel", DEPOL, "--sigma", "[[0.9, 0], [0, 0.1]]"],
        ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
         "--channel", DEPOL],
        ["db-check", "--channel", PAULI, "--seed", "3"],
        ["catalog", "--n-max", "40"],
    ], ids=["experiment-sigma", "divergence-channel", "db-check-seed", "catalog-n-max"])
    def test_unread_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [
        ["--f", "bogus"], ["--seed", "5"], ["--restarts", "3"],
        ["--f", "bogus", "--seed", "5", "--restarts", "3"],
    ], ids=["f", "seed", "restarts", "all"])
    def test_sdpi_search_flag_without_family_is_input_error(self, capsys, extra):
        # sdpi reads --f, --seed and --restarts only for a variational search
        code = main(["sdpi", "--channel", DEPOL] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[InputError]: sdpi reads --")
        assert "only together with --family" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcontract.cli", "catalog"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "families: ht, petz, matsumoto" in proc.stdout

    def test_package_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcontract", "catalog"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "families: ht, petz, matsumoto" in proc.stdout

    def test_qcontract_binary(self):
        proc = subprocess.run(
            ["qcontract", "db-check", "--channel", PAULI],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "verdict: PASS" in proc.stdout
