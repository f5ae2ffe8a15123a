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

    def test_states_of_two_dimensions_are_input_error(self, capsys):
        sigma3 = "[[0.4, 0, 0], [0, 0.3, 0], [0, 0, 0.3]]"
        assert main(["divergence", "--rho", GOLDEN_RHO, "--sigma", sigma3]) == 2
        assert capsys.readouterr().err.startswith("error[DimensionMismatch]: rho is 2x2")

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

    def test_unknown_family_lists_the_available_ones(self, capsys):
        code = main(["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA,
                     "--family", "sandwiched"])
        assert code == 2
        assert "unknown family name 'sandwiched'; available: ht, matsumoto, petz" in \
            capsys.readouterr().err

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

    def test_search_counters_keyed_by_record(self, capsys):
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, "--family", "petz", "--family", "matsumoto",
             "--restarts", "2", "--seed", "5", "--g", "max"],
        )
        assert code == 0
        searches = env["diagnostics"]["searches"]
        assert set(searches) == {"petz[kl]", "matsumoto[kl]"}
        for counts in searches.values():
            assert sum(counts["stop_reasons"].values()) == 2
            # exact gradients: at most the two line-search trials per call
            assert 0 < counts["ratio_calls"] < counts["ratio_evaluations"] \
                <= 2 * counts["ratio_calls"]
            assert isinstance(counts["curvature_skips"], int)
        assert all("ratio_calls" not in r["diagnostics"]
                   for r in env["payload"]["results"])

    @pytest.mark.parametrize("families, restarts", [(["petz"], 1), (["petz", "matsumoto"], 2)])
    def test_stacked_calls_in_envelope_diagnostics(self, capsys, families, restarts):
        # the searches run as one wave, one stacked call per round: as many
        # as the ratio calls of one restart alone, fewer for more restarts
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, *(a for fam in families for a in ("--family", fam)),
             "--restarts", str(restarts), "--seed", "5", "--g", "max"],
        )
        assert code == 0
        diag = env["diagnostics"]
        calls = sum(counts["ratio_calls"] for counts in diag["searches"].values())
        assert 0 < diag["stacked_calls"] <= calls
        assert (diag["stacked_calls"] == calls) == (restarts == 1)
        assert "stacked_calls" not in env["payload"]
        code, env = run_json(capsys, ["sdpi", "--channel", DEPOL])
        assert env["diagnostics"]["stacked_calls"] == 0

    def test_ht_and_petz_kl_share_one_search(self, capsys):
        # one search serves both records, with the seed each would have had,
        # so the payload is the one two searches gave
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, "--family", "ht", "--family", "petz",
             "--f", "kl", "--restarts", "2", "--seed", "5", "--g", "max"],
        )
        assert code == 0
        ht, petz = env["payload"]["results"][1:]
        assert ht["value"] == petz["value"]
        assert set(env["diagnostics"]["searches"]) == {"ht[kl]"}
        assert env["diagnostics"]["shared_searches"] == {"petz[kl]": "ht[kl]"}
        assert env["payload_sha256"] == (
            "6a4200140a1bc276698dc90ae0cc86961c6cd82af103cc50592eea9934cd9b6b"
        )

    def test_text_and_csv_formats(self, capsys):
        argv = ["sdpi", "--channel", DEPOL, "--family", "petz", "--restarts", "1", "--g", "max"]
        code, env = run_json(capsys, argv)
        assert code == 0
        recs = env["payload"]["results"]
        table = [
            "family,name,method,value",
            f"chi2,max,exact_lambda2,{recs[0]['value']:.12g}",
            f"petz,kl,variational,{recs[1]['value']:.12g}",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "channel: depolarizing(p=0.5,d=2)  (sigma: fixed_point)", *table,
        ]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == table

    def test_text_puts_a_long_label_in_its_own_cells(self, capsys):
        argv = ["sdpi", "--channel", DEPOL, "--family", "matsumoto", "--f", "hellinger",
                "--restarts", "1", "--g", "max"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].split(",")[:3] == ["matsumoto", "hellinger", "variational"]

    def test_explicit_sigma_used(self, capsys):
        code, env = run_json(
            capsys,
            ["sdpi", "--channel", DEPOL, "--sigma", "[[0.7, 0], [0, 0.3]]"],
        )
        assert code == 0
        assert env["payload"]["sigma_source"] == "explicit"
        # the explicit sigma is not fixed; its exact value is the library's,
        # witnessed by sigma^(1/2)
        for rec in env["payload"]["results"]:
            exact = qc.sdpi_chi2(qc.depolarizing(0.5), [[0.7, 0], [0, 0.3]],
                                 qc.g_catalog()[rec["g_name"]])
            assert rec["value"] == exact.value
            assert rec["diagnostics"]["top_overlap"] == pytest.approx(1.0, abs=1e-12)

    def test_exact_value_is_the_search_supremum_at_an_explicit_sigma(self, capsys):
        # petz[chi2] is chi2_max, so its search bounds the exact chi2_max
        # constant, which weights its output by E(sigma) as the search does
        argv = ["sdpi", "--channel", '{"kind":"random","dim":3,"seed":1}',
                "--sigma", "[[0.5,0,0],[0,0.3,0],[0,0,0.2]]", "--family", "petz",
                "--f", "chi2", "--g", "max", "--restarts", "8", "--format", "csv"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[2] for row in rows] == ["exact_lambda2", "variational"]
        assert rows[0][3] == rows[1][3]

    def test_rank_deficient_output_reference_is_precondition_error(self, capsys):
        reset = '{"kind": "kraus", "operators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]}'
        code = main(["sdpi", "--channel", reset, "--sigma", "[[0.5, 0], [0, 0.5]]"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error[SingularReference]: E(sigma) must be full rank")

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

    def test_zero_restarts_is_the_library_error(self, capsys):
        assert main(["sdpi", "--channel", DEPOL, "--family", "petz", "--restarts", "0"]) == 2
        assert capsys.readouterr().err.startswith(
            "error[InputError]: restarts must be >= 1, got 0")

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
        code, env = run_json(capsys, ["db-check", "--channel", PAULI])
        assert code == 0
        payload = env["payload"]
        assert main(["db-check", "--channel", PAULI]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "g_name,residual"
        assert lines[2] == f"gns,{payload['residuals']['gns']:.12g}"
        assert lines[-1] == (f"verdict: PASS  (max residual {payload['max_residual']:.12g}, "
                             f"tol {payload['tolerance']:g})")

    def test_csv_format(self, capsys):
        code, env = run_json(capsys, ["db-check", "--channel", PAULI])
        assert code == 0
        residuals = env["payload"]["residuals"]
        assert main(["db-check", "--channel", PAULI, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "g_name,residual",
            *(f"{name},{residuals[name]:.12g}" for name in ("gns", "max", "kmb")),
            "verdict,PASS",
        ]

    def test_sigma_dimension_mismatch_is_input_error(self, capsys):
        code = main([
            "db-check", "--channel",
            '{"kind": "depolarizing", "p": 0.5, "dim": 3}',
            "--sigma", "[[0.5, 0], [0, 0.5]]",
        ])
        assert code == 2
        assert "dimensions differ" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["db-check", "sdpi"])
    def test_sigma_dimension_mismatch_names_its_type(self, capsys, command):
        code = main([
            command, "--channel", '{"kind": "depolarizing", "p": 0.5, "dim": 3}',
            "--sigma", "[[0.5, 0], [0, 0.5]]",
        ])
        assert code == 2
        assert "error[DimensionMismatch]: channel and sigma dimensions differ" in \
            capsys.readouterr().err


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

    def test_text_format_marks_a_vacuous_rate_verdict(self, capsys):
        # at p = 0.05 the iterates need more than one power to enter the
        # convergence radius, so no power is checked
        argv = ["experiment", "--channel", '{"kind": "depolarizing", "p": 0.05}',
                "--n-max", "1", "--restarts", "1", "--family", "petz", "--g", "max"]
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload"]["verdicts"]["theorem_rate"]["vacuous"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict rate-bound: PASS (vacuous: convergence radius not reached)" in lines
        assert "verdict tightness: PASS" in lines

    def test_n_max_out_of_range(self, capsys):
        code = main(["experiment", "--channel", DEPOL, "--n-max", "40"])
        assert code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_negative_seed_is_input_error(self, capsys):
        code = main(["experiment", "--channel", DEPOL, "--n-max", "1", "--seed", "-3"])
        assert code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_zero_restarts_is_the_library_error(self, capsys):
        assert main(["experiment", "--channel", DEPOL, "--restarts", "0"]) == 2
        assert capsys.readouterr().err.startswith(
            "error[InputError]: restarts must be >= 1, got 0")

    def test_payload_hash_pinned(self, capsys):
        # a refactor must reproduce the depolarizing experiment bit for bit
        # (its petz[kl] rows are ht[kl]'s: the two share one search)
        code, env = run_json(
            capsys,
            ["experiment", "--channel", '{"kind":"depolarizing","p":0.5}',
             "--n-max", "2", "--restarts", "2"],
        )
        assert code == 0
        assert env["payload_sha256"] == (
            "cf66df23d2032d30e0d415012abdb34824d0ee32f6ed7dbf7e4e14e686c69268"
        )

    def test_search_counters_in_envelope_diagnostics(self, capsys):
        code, env = run_json(capsys, self.ARGS)
        assert code == 0
        totals = env["diagnostics"]["search_totals"]
        # one family, two powers, four restarts per search
        assert sum(totals["stop_reasons"].values()) == 2 * 4
        assert 0 < totals["ratio_calls"] < totals["ratio_evaluations"]
        assert set(totals) == {*qc.contraction.COUNTERS, "stop_reasons"}
        assert "curvature_skips" in totals
        assert "search_totals" not in env["payload"]

    def test_stacked_calls_in_envelope_diagnostics(self, capsys):
        # one wave per power: fewer rounds than the calls of its 4 restarts
        code, env = run_json(capsys, self.ARGS)
        assert code == 0
        diag = env["diagnostics"]
        assert 0 < diag["stacked_calls"] < diag["search_totals"]["ratio_calls"]
        assert "stacked_calls" not in env["payload"]

    def test_shared_search_in_envelope_diagnostics(self, capsys):
        code, env = run_json(
            capsys,
            ["experiment", "--channel", DEPOL, "--n-max", "2", "--restarts", "2"],
        )
        assert code == 0
        assert env["diagnostics"]["shared_searches"] == {"petz[kl]": "ht[kl]"}
        # ht[kl] and matsumoto[kl] searched at two powers, two restarts each
        assert sum(env["diagnostics"]["search_totals"]["stop_reasons"].values()) == 2 * 2 * 2
        for row in env["payload"]["rows"]:
            assert row["eta_f"]["petz[kl]"] == row["eta_f"]["ht[kl]"]
        assert "shared_searches" not in env["payload"]

    def test_not_primitive_exit_code(self, capsys):
        code = main(
            ["experiment", "--channel",
             '{"kind": "kraus", "operators": [[[0, 1], [1, 0]]]}',
             "--n-max", "2"]
        )
        assert code == 3


#: the catalog table, each f with its Pinsker constant and each g with its
#: symmetry convention
CATALOG_TABLE = [
    "kind,name,flag,detail",
    "f,chi2,operator_convex=True,pinsker_constant=1.0",
    "f,hellinger,operator_convex=True,pinsker_constant=0.25",
    "f,kl,operator_convex=True,pinsker_constant=0.5",
    "g,kmb,standard_monotone=True,symmetry_convention=g(1/x) = x g(x)",
    "g,max,standard_monotone=True,symmetry_convention=g(1/x) = x g(x)",
    "g,gns,standard_monotone=False,symmetry_convention=unweighted (g = 1)",
]


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

    def test_csv_format(self, capsys):
        assert main(["catalog", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == CATALOG_TABLE

    def test_text_format(self, capsys):
        assert main(["catalog"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            *CATALOG_TABLE, "families: ht, petz, matsumoto",
        ]


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
         "1a0f9d3184c496e864f332d3a1e508dbd52d070b09dbda3f91bb43d16452a7da"),
        (["sdpi", "--channel", DEPOL],
         "95bcb21eaed251e46c3646102095257a5c83b1246d98225eef17c0a784fa223e"),
        (["db-check", "--channel", PAULI],
         "3894e2031e5c8cb92410ef74c6c656823ce66f1d54921da9e7fd30320f7d5d86"),
        # searches that end inside the d = 3 state space, off the ball's edge
        # (one petz restart stops at max_iters, the other five converge)
        (["sdpi", "--channel", '{"kind":"random","dim":3,"seed":1}', "--family", "ht",
          "--family", "petz", "--family", "matsumoto", "--restarts", "2", "--g", "max"],
         "46bde9fed3f6514d0cde87728d12d563d021a95f8a89cb3c2825c24cba73fa8d"),
    ], ids=["divergence", "sdpi", "db-check", "sdpi-variational-d3"])
    def test_payload_hash_pinned(self, capsys, argv, digest):
        # a refactor must reproduce each command's payload bit for bit
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload_sha256"] == digest

    @pytest.mark.parametrize("argv", [
        ["divergence", "--rho", GOLDEN_RHO, "--sigma", GOLDEN_SIGMA],
        ["sdpi", "--channel", DEPOL, "--restarts", "2"],
        ["experiment", "--channel", DEPOL, "--n-max", "2", "--restarts", "2"],
    ], ids=["divergence", "sdpi", "experiment"])
    def test_repeated_family_runs_once(self, capsys, argv):
        # --family merges repeats in order of first mention, as --f and --g do
        once = run_json(capsys, argv + ["--family", "petz"])
        twice = run_json(capsys, argv + ["--family", "petz", "--family", "petz"])
        assert once[0] == twice[0] == 0
        assert twice[1]["payload_sha256"] == once[1]["payload_sha256"]

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

    def test_library_import_leaves_the_cli_out(self):
        code = ("import sys, qcontract; print(sorted(m for m in ('qcontract.cli', "
                "'argparse', 'hashlib') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_qcontract_binary(self):
        proc = subprocess.run(
            ["qcontract", "db-check", "--channel", PAULI],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "verdict: PASS" in proc.stdout
