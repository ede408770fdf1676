"""End-to-end command line runs: exit codes, files, determinism."""

import json

import numpy as np
import pytest

from crlab.cli import _SCHEMAS, _build_parser, _int_list, _resolve, run


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_state(path, coeffs, family="hol"):
    doc = {"family": family, "time": 0.0,
           "coeffs": [[float(np.real(c)), float(np.imag(c))] for c in coeffs]}
    path.write_text(json.dumps(doc))


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "crlab" in out and "tensor-cache format" in out


def test_unknown_subcommand_exits_three():
    with pytest.raises(SystemExit) as info:
        run(["bogus"])
    assert info.value.code == 3


def test_tensor_writes_cache_and_sidecars(workdir, capsys):
    assert run(["tensor", "--family", "hol", "--n", "5", "--out", "t5.bin"]) == 0
    assert (workdir / "t5.bin").exists()
    resolved = json.loads((workdir / "t5.bin.config.json").read_text())
    assert resolved == {"subcommand": "tensor", "family": "hol", "cutoff": 5,
                        "out": "t5.bin"}
    meta = json.loads((workdir / "t5.bin.meta.json").read_text())
    assert "written_at" in meta and "package_version" in meta
    assert "t5.bin" in capsys.readouterr().out


def test_evolve_zero_time_is_identity(workdir):
    rng = np.random.default_rng(1)
    coeffs = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / 3.0
    write_state(workdir / "init.json", coeffs)
    code = run(["evolve", "--init", "init.json", "--t", "0",
                "--out", "traj.csv", "--state-out", "final.json"])
    assert code == 0
    final = json.loads((workdir / "final.json").read_text())
    assert final["coeffs"] == json.loads((workdir / "init.json").read_text())["coeffs"]
    header = (workdir / "traj.csv").read_bytes().splitlines()[0]
    assert header == b"t,n,Re c_n,Im c_n"


def test_evolve_outputs_are_byte_identical(workdir):
    rng = np.random.default_rng(2)
    coeffs = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / 3.0
    write_state(workdir / "init.json", coeffs)
    args = ["evolve", "--init", "init.json", "--t", "1.0", "--checkpoints", "4",
            "--conservation-out", "cons.csv"]
    assert run(args + ["--out", "a.csv"]) == 0
    first_cons = (workdir / "cons.csv").read_bytes()
    assert run(args + ["--out", "b.csv"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    assert (workdir / "cons.csv").read_bytes() == first_cons
    assert (workdir / "cons.csv").read_bytes().splitlines()[0] == b"t,mass,energy,hamiltonian"


def test_evolve_missing_init_exits_three(workdir, capsys):
    assert run(["evolve", "--t", "1"]) == 3
    assert "init" in capsys.readouterr().err


def test_evolve_tensor_cutoff_mismatch_exits_three(workdir, capsys):
    assert run(["tensor", "--family", "hol", "--n", "3", "--out", "t3.bin"]) == 0
    write_state(workdir / "init.json", np.zeros(8) + 0.1)
    capsys.readouterr()
    assert run(["evolve", "--init", "init.json", "--tensor", "t3.bin", "--t", "1"]) == 3
    assert "tensor" in capsys.readouterr().err


def test_evolve_numerical_error_exits_four(workdir, capsys):
    # the cubic term overflows at this amplitude
    write_state(workdir / "init.json", np.full(4, 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["evolve", "--init", "init.json", "--t", "1", "--out", "traj.csv"]) == 4
    assert "numerical error: state became non-finite" in capsys.readouterr().err


def test_config_file_with_flag_override(workdir):
    (workdir / "cfg.json").write_text(json.dumps(
        {"family": "hol", "cutoff": 4, "out": "from_cfg.bin"}))
    assert run(["tensor", "--config", "cfg.json", "--out", "from_flag.bin"]) == 0
    assert (workdir / "from_flag.bin").exists()
    assert not (workdir / "from_cfg.bin").exists()
    resolved = json.loads((workdir / "from_flag.bin.config.json").read_text())
    assert resolved["cutoff"] == 4
    assert resolved["out"] == "from_flag.bin"


@pytest.mark.parametrize("name", sorted(_SCHEMAS))
def test_every_schema_key_round_trips_through_its_flag(name):
    # each key's flag is --key-with-dashes and parses to the default's type
    schema = _SCHEMAS[name][1]
    given = {key: default for key, default in schema.items()
             if default is not None and not isinstance(default, bool)}
    argv = [name]
    for key, default in given.items():
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        argv += ["--" + key.replace("_", "-"), text]
    args = _build_parser().parse_args(argv)
    resolved = _resolve(args, schema)
    for key, default in given.items():
        value = getattr(args, key)
        if isinstance(default, tuple):
            assert _int_list({key: value}, key) == list(default), key
        else:
            assert value == default and type(value) is type(default), key
        assert resolved[key] == value, key


def test_named_flags():
    parse = _build_parser().parse_args
    assert parse(["tensor", "--n", "5"]).cutoff == 5
    assert parse(["tensor", "--cutoff", "5"]).cutoff == 5
    assert parse(["evolve", "--n", "5"]).cutoff == 5
    assert parse(["invariance", "--no-tables"]).tables is False
    assert parse(["concentration", "--no-resolution-check"]).check_resolution is False
    args = parse(["sample", "--experimental", "--metropolis"])
    assert args.experimental is True and args.metropolis is True
    assert parse(["norms", "--log-correction"]).log_correction is True
    # an absent switch leaves its key to the config file and the schema
    assert parse(["invariance"]).tables is None


def test_unknown_config_key_exits_three(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({"family": "hol", "niter": 3}))
    assert run(["tensor", "--config", "cfg.json"]) == 3
    assert "niter" in capsys.readouterr().err


def test_sample_ndjson_lines_and_indices(workdir):
    args = ["sample", "--kind", "gaussian-free", "--n", "5", "--count", "4",
            "--seed", "9", "--out", "s.ndjson"]
    assert run(args) == 0
    lines = (workdir / "s.ndjson").read_text().splitlines()
    assert len(lines) == 4
    docs = [json.loads(line) for line in lines]
    assert [d["index"] for d in docs] == [0, 1, 2, 3]
    assert all(len(d["coeffs"]) == 6 for d in docs)

    assert run(["sample", "--kind", "gaussian-free", "--n", "5", "--count", "2",
                "--seed", "9", "--start-index", "2", "--out", "s2.ndjson"]) == 0
    shifted = [json.loads(line) for line in (workdir / "s2.ndjson").read_text().splitlines()]
    assert [d["index"] for d in shifted] == [2, 3]
    assert shifted[0]["coeffs"] == docs[2]["coeffs"]


def test_sample_gibbs_stall_exits_two(workdir, capsys):
    code = run(["sample", "--kind", "gibbs", "--beta", "1e12", "--n", "3",
                "--count", "1", "--out", "never.ndjson"])
    assert code == 2
    assert "metropolis" in capsys.readouterr().err


def test_invariance_report_pass_and_reproducible(workdir, capsys):
    args = ["invariance", "--measure", "eigenspace", "--n", "3", "--t", "0.5",
            "--samples", "120", "--seed", "4"]
    assert run(args + ["--report", "r1.json"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(args + ["--report", "r2.json"]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()
    report = json.loads((workdir / "r1.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["spec"]["kind"] == "eigenspace"
    assert len(report["table_initial"]) == 120


def test_oracle_check_config_rejects_other_families(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({"family": "radial"}))
    assert run(["oracle-check", "--config", "cfg.json", "--out", "oracle.json"]) == 3
    assert "holomorphic" in capsys.readouterr().err
    assert not (workdir / "oracle.json").exists()


def test_oracle_check_passes(workdir, capsys):
    assert run(["oracle-check", "--family", "hol", "--max-index", "5",
                "--out", "oracle.json"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "spread" in out
    doc = json.loads((workdir / "oracle.json").read_text())
    assert doc["relative_spread"] < 1e-6


@pytest.mark.parametrize("argv, key", [
    (["oracle-check", "--family", "hol", "--max-index", "-1"], "max_index"),
    (["recurrence", "--level", "0", "--t-max", "1", "--dt", "0.5", "--samples", "2",
      "--theta", "nan"], "theta"),
    (["recurrence", "--level", "0", "--t-max", "1", "--dt", "0.5", "--samples", "2",
      "--theta", "inf"], "theta"),
    (["recurrence", "--level", "0", "--t-max", "inf", "--dt", "0.5", "--samples", "2"], "t_max"),
])
def test_out_of_range_inputs_exit_three_naming_the_key(workdir, capsys, argv, key):
    assert run(argv + ["--out", "o.json"]) == 3
    assert key in capsys.readouterr().err
    assert not (workdir / "o.json").exists()


def test_cauchy_single_mask_fails(workdir):
    # one mask equal to the cutoff: zero decay signal, verdict FAIL
    assert run(["cauchy", "--sigma", "1.5", "--n", "6", "--m-values", "6",
                "--samples", "20", "--out", "c.json"]) == 2


def test_cauchy_small_run_passes(workdir):
    assert run(["cauchy", "--sigma", "1.5", "--n", "12", "--m-values", "2,4,8",
                "--samples", "120", "--seed", "1", "--out", "c.json"]) == 0
    doc = json.loads((workdir / "c.json").read_text())
    assert doc["slope"] < 0


def test_cauchy_zero_mask_runs(workdir):
    assert run(["cauchy", "--sigma", "1.5", "--n", "16", "--m-values", "0,4,8",
                "--samples", "40", "--out", "c.json"]) == 0


@pytest.mark.parametrize("flags, key", [
    (["--m-values", "2,4,8", "--sigma", "nan", "--samples", "20"], "sigma"),
    (["--m-values", "2,4,8", "--sigma", "1.5", "--samples", "1"], "samples"),
    (["--m-values", "4,4,8", "--sigma", "1.5", "--samples", "20"], "m_values"),
])
def test_cauchy_degenerate_inputs_exit_three_naming_the_key(workdir, capsys, flags, key):
    argv = ["cauchy", "--cutoff", "16"] + flags + ["--out", "c.json"]
    assert run(argv) == 3
    assert key in capsys.readouterr().err
    assert not (workdir / "c.json").exists()


def test_recurrence_runs(workdir):
    assert run(["recurrence", "--level", "0", "--t-max", "30", "--dt", "0.5",
                "--samples", "3", "--theta", "0.5", "--out", "rec.json"]) == 0
    doc = json.loads((workdir / "rec.json").read_text())
    assert doc["fraction_recurred"] == 1.0


def test_concentration_runs(workdir):
    assert run(["concentration", "--levels", "3,4", "--samples", "15",
                "--out", "conc.json"]) == 0
    doc = json.loads((workdir / "conc.json").read_text())
    assert set(doc["per_level"]) == {"3", "4"}


def test_concentration_coarse_grid_exits_four(workdir, capsys):
    assert run(["concentration", "--levels", "3,4", "--samples", "5", "--n-radial", "20",
                "--out", "conc.json"]) == 4
    assert "numerical error: sup-norm grid too coarse" in capsys.readouterr().err


def test_norms_runs(workdir):
    assert run(["norms", "--family", "hol", "--p", "inf",
                "--n-values", "16,32,64", "--out", "n.json"]) == 0
    doc = json.loads((workdir / "n.json").read_text())
    assert doc["exponent"] == pytest.approx(-0.25, abs=0.05)


def test_norms_radial_non_even_p_runs(workdir):
    assert run(["norms", "--family", "radial", "--p", "3",
                "--n-values", "16,64,256,1024", "--out", "n.json"]) == 0


def test_norms_nan_p_exits_three(workdir, capsys):
    assert run(["norms", "--family", "hol", "--p", "nan", "--n-values", "4,8",
                "--out", "n.json"]) == 3
    assert "p must be in [2, inf]" in capsys.readouterr().err
    assert not (workdir / "n.json").exists()


def test_tails_runs(workdir):
    assert run(["tails", "--kind", "white-noise", "--n", "4", "--functional", "L2",
                "--samples", "500", "--seed", "3", "--out", "t.json"]) == 0
    doc = json.loads((workdir / "t.json").read_text())
    assert doc["slope"] < 0


def test_tails_holomorphic_spacetime_norm_beyond_150_modes_runs(workdir):
    assert run(["tails", "--kind", "gaussian-free", "--family", "hol", "--cutoff", "160",
                "--samples", "50", "--out", "t.json"]) == 0


@pytest.mark.parametrize("argv, key", [
    (["concentration", "--levels", "", "--samples", "4"], "levels"),
    (["concentration", "--levels", "16", "--samples", "4"], "levels"),
    (["tails", "--kind", "white-noise", "--n", "4", "--functional", "L2", "--lambdas", ""],
     "lambdas"),
])
def test_empty_level_and_threshold_lists_exit_three_naming_the_key(workdir, capsys, argv, key):
    assert run(argv + ["--out", "x.json"]) == 3
    assert f"{key}:" in capsys.readouterr().err
    assert not (workdir / "x.json").exists()


# 10 expected tail hits among 20 samples put the top threshold at the median;
# 25 ask for more hits than there are samples
@pytest.mark.parametrize("hits", ["10", "25"])
def test_tails_degenerate_thresholds_exit_three_naming_the_remedy(workdir, capsys, hits):
    assert run(["tails", "--kind", "white-noise", "--n", "4", "--functional", "L2",
                "--samples", "20", "--min-tail-hits", hits, "--out", "t.json"]) == 3
    err = capsys.readouterr().err
    assert "insufficient tail mass: degenerate functional values" in err
    for flag in ("--samples", "--lambdas", "--min-tail-hits"):
        assert flag in err
    assert not (workdir / "t.json").exists()
