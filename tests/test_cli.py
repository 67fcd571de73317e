import json
import re

import pytest

from irsbeam import cli, harness
from irsbeam.arrays import cascade_dictionary
from irsbeam.cli import build_parser, main
from irsbeam.codebook import build_scan_plan, optimize_constant_modulus, plan_from_json
from irsbeam.config import parse_config
from irsbeam.errors import InvalidParameterError
from irsbeam.harness import CSV_HEADER

SMALL_CONFIG = """
n_t = 16
m_y = 4
m_z = 4
r = 4
q = 4
l = 3
trials = 4
seed = 5
snr_db = none
snr_sweep = -10, 0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestTheoryCommand:
    def test_prints_probabilities(self, capsys):
        rc = main(["theory", "--m", "256", "--nt", "128",
                   "--q", "32", "--r", "4", "--l", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        values = {
            line.split("=")[0].strip(): float(line.split("=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith("p_")
        }
        assert values["p_lower_los"] == pytest.approx(0.9443, abs=5e-5)
        assert "p_nm_round" in values and "p_lower_nlos" in values
        assert "T = U*V*L = 1024" in out

    def test_multipath_argument(self, capsys):
        rc = main(["theory", "--m", "256", "--nt", "128",
                   "--q", "32", "--r", "4", "--l", "5", "--k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        nlos_line = next(l for l in out.splitlines() if l.startswith("p_lower_nlos"))
        assert float(nlos_line.split("=")[1].split()[0]) == pytest.approx(
            0.9863, abs=5e-4
        )

    def test_more_nonzeros_than_bins_fails_before_printing(self, capsys):
        # U*V = 4*4 = 16 bins cannot hold K = 100 nonzero entries
        with pytest.raises(InvalidParameterError, match="more nonzeros than bins"):
            main(["theory", "--m", "16", "--nt", "16", "--q", "4", "--r", "4",
                  "--l", "2", "--k", "100"])
        assert capsys.readouterr().out == ""


class TestRunCommand:
    def test_emits_csv_row(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        rc = main(["run", "--config", config_path])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert int(row[2]) == 4
        assert 0.0 <= float(row[3]) <= 1.0
        assert int(row[7]) == 5

    def test_noiseless_run_reports_budget(self, config_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        main(["run", "--config", config_path])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        # snr_db = none: the row is a point on the T axis, T = U*V*L
        assert row[:2] == ["T", str(4 * 4 * 3)]

    def test_writes_file_and_respects_overrides(self, config_path, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        out = tmp_path / "row.csv"
        rc = main(["run", "--config", config_path, "--out", str(out),
                   "--seed", "9", "--trials", "2"])
        assert rc == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert int(row[2]) == 2
        assert int(row[7]) == 9

    def test_bad_bin_size_fails_before_pool_starts(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was started for an invalid config")

        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        path = tmp_path / "bad.cfg"
        path.write_text("q = 3\ntrials = 4\n")
        with pytest.raises(InvalidParameterError, match="q=3 must divide"):
            main(["run", "--config", str(path)])

    def test_missing_config_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", "--config", str(tmp_path / "nope.cfg")])

    def test_config_with_byte_order_mark_runs(self, tmp_path, capsys, monkeypatch):
        # as Windows editors save UTF-8: the mark is not part of the first key
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + SMALL_CONFIG.lstrip().encode())
        assert main(["run", "--config", str(path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert (row[2], row[7]) == ("4", "5")

    def test_row_equals_the_one_point_sweep(self, tmp_path, capsys, monkeypatch):
        # run is the sweep of its one point: on the snr axis, or on the T
        # axis when noiseless
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        base = SMALL_CONFIG.replace("snr_db = none\n", "")
        for point, sweep_line, axis in [("snr_db = -5", "snr_sweep = -5", "snr"),
                                        ("snr_db = none", "t_sweep = 3", "T")]:
            run_cfg, sweep_cfg = tmp_path / "run.cfg", tmp_path / "sweep.cfg"
            run_cfg.write_text(f"{base}{point}\n")
            sweep_cfg.write_text(f"{base.replace('snr_sweep = -10, 0', sweep_line)}{point}\n")
            assert main(["run", "--config", str(run_cfg)]) == 0
            row = capsys.readouterr().out
            assert main(["sweep", "--config", str(sweep_cfg), "--axis", axis]) == 0
            assert capsys.readouterr().out == row
            assert row.splitlines()[1].split(",")[0] == axis

    def test_config_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\u00e9glages\n".encode("latin-1") + SMALL_CONFIG.encode())
        with pytest.raises(InvalidParameterError, match="latin1.cfg"):
            main(["run", "--config", str(path)])


class TestFlagSet:
    """run, sweep and plan take --config, --out and --seed; run and sweep
    also take --trials."""

    @pytest.mark.parametrize("command,extra", [
        ("run", []), ("sweep", ["--axis", "T"]), ("plan", []),
    ])
    def test_shared_flags(self, command, extra):
        argv = [command, *extra, "--config", "c", "--out", "o", "--seed", "3"]
        if command != "plan":
            argv += ["--trials", "2"]
        args = vars(build_parser().parse_args(argv))
        del args["func"]
        expected = {"command": command, "config": "c", "out": "o", "seed": 3}
        if command != "plan":
            expected["trials"] = 2
        if command != "plan":
            expected["axis"] = "T" if command == "sweep" else None
        assert args == expected

    def test_plan_rejects_trials(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--config", "c", "--trials", "2"])


class TestOutputPath:
    """run, sweep and plan open --out or `output` before any trial or
    solve: a path that cannot be written fails first, naming the path."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("work started before the output was opened")

        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        monkeypatch.setattr(harness, "run_trial", fail)
        monkeypatch.setattr(cli, "build_scan_plan", fail)

    def test_patched_trial_is_the_one_run_calls(self, config_path, tmp_path, no_work):
        with pytest.raises(AssertionError, match="work started"):
            main(["run", "--config", config_path, "--out", str(tmp_path / "row.csv")])

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "snr"], ["plan"]])
    @pytest.mark.parametrize("where", ["missing-dir", "directory", "config-key"])
    def test_unwritable_output_fails_before_any_work(self, config_path, tmp_path, no_work,
                                                     command, where):
        path = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.csv")
        argv = [*command, "--config", config_path]
        if where == "config-key":
            with open(config_path, "a") as fh:
                fh.write(f"output = {path}\n")
        else:
            argv += ["--out", path]
        with pytest.raises(InvalidParameterError, match=re.escape(repr(path))):
            main(argv)


class TestExhaustiveBaseline:
    """Exhaustive search is a config with singleton bins, q = r = l = 1."""

    def test_noiseless_singleton_config_always_succeeds(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        path = tmp_path / "exhaustive.cfg"
        path.write_text(SMALL_CONFIG.replace("r = 4", "r = 1").replace("q = 4", "q = 1")
                        .replace("l = 3", "l = 1").replace("trials = 4", "trials = 20"))
        assert main(["run", "--config", str(path)]) == 0
        row = dict(zip(CSV_HEADER, capsys.readouterr().out.strip().splitlines()[1].split(",")))
        # T = M * N_t: every grid pair measured once
        assert (row["sweep_var"], row["value"], row["trials"]) == ("T", "256", "20")
        assert row["success_rate"] == "1.000000"

    def test_theory_budget_is_the_grid(self, capsys):
        assert main(["theory", "--m", "256", "--nt", "128",
                     "--q", "1", "--r", "1", "--l", "1"]) == 0
        out = capsys.readouterr().out
        assert "T = U*V*L = 32768  (exhaustive: 32768)" in out
        assert "p_lower_los   = 1.000000" in out


class TestSweepCommand:
    def test_snr_sweep_rows(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        rc = main(["sweep", "--config", config_path, "--axis", "snr"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert [l.split(",")[1] for l in lines[1:]] == ["-10.0", "0.0"]

    def test_m_sweep_rows(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        with open(config_path, "a") as fh:
            fh.write("m_sweep = 16, 32\n")
        rc = main(["sweep", "--config", config_path, "--axis", "M"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert [l.split(",")[:3] for l in lines[1:]] == [["M", "16", "4"], ["M", "32", "4"]]
        # U = M/q stays at 4, so q scales with M
        points = harness.sweep_points(parse_config(config_path), "M")
        assert [(p.array.m, p.q) for _, _, p in points] == [(16, 4), (32, 8)]

    def test_bad_axis_rejected(self, config_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", config_path, "--axis", "X"])


class TestPlanCommand:
    def test_plan_round_trips(self, config_path, tmp_path):
        out = tmp_path / "plan.json"
        rc = main(["plan", "--config", config_path, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        payload = json.loads(text)
        plan = plan_from_json(text)
        assert plan.l == 3
        assert plan.cfg.m == 16 and plan.cfg.n_t == 16
        assert payload["seed"] == 5

    def test_constant_modulus_plan_reports_stalled_beams(self, config_path, tmp_path,
                                                         capsys):
        cm = tmp_path / "cm.cfg"
        cm.write_text(SMALL_CONFIG + "mode = constant-modulus\n")
        assert main(["plan", "--config", str(cm), "--out", str(tmp_path / "plan.json")]) == 0
        cfg = parse_config(str(cm))
        plan = build_scan_plan(cfg.array, cfg.q, cfg.l, cfg.mode, cfg.seed)
        bar = cascade_dictionary(cfg.array)
        solves = [optimize_constant_modulus(bar[:, sup])
                  for r in plan.rounds for sup in r.c_design]
        stalled = sum(not s.converged for s in solves)
        iters = [len(s.objectives) - 1 for s in solves]
        err = capsys.readouterr().err
        assert err == (
            f"{stalled} of {len(solves)} constant-modulus beams stopped at max_iters\n"
            f"solver iterations per beam: mean {sum(iters) / len(iters):.1f}, max {max(iters)}\n"
        )

    def test_ideal_sparse_plan_writes_nothing_to_stderr(self, config_path, capsys):
        assert main(["plan", "--config", config_path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "cm_beams" not in captured.out

    def test_seed_override_changes_plan(self, config_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["plan", "--config", config_path, "--out", str(a)])
        main(["plan", "--config", config_path, "--out", str(b)])
        main(["plan", "--config", config_path, "--out", str(c), "--seed", "6"])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()
