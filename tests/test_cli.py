from __future__ import annotations

import argparse
import codecs
import dataclasses
import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newsprop import market, panel, report, sim
from newsprop.cli import SIM_KEYS, _settings, main
from newsprop.sim import SimConfig, simulate

BUNDLE_CONFIG = SimConfig(
    n_firms=40,
    n_sectors=5,
    n_markets=2,
    n_days=120,
    edge_prob=0.05,
    news_rate=6.0,
    gamma_pre=0.2,
    gamma_post=0.6,
    gamma_sup=0.05,
    seed=77,
)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("bundle")
    simulate(BUNDLE_CONFIG).write(outdir)
    return outdir


def bundle_flags(outdir) -> list[str]:
    return [
        "--firms", str(outdir / "firms.csv"),
        "--prices", str(outdir / "prices.csv"),
        "--indices", str(outdir / "indices.csv"),
        "--news", str(outdir / "news.csv"),
        "--edges", str(outdir / "edges.csv"),
    ]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def assert_usage_error(argv: list[str], capsys) -> str:
    """Exit 2 with an argparse-style message that names the problem; returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "_parse_" not in err  # argparse's stand-in for a message it hid
    return err


# inputs that do not exist: a usage error must be reported before any is read
MISSING_INPUTS = bundle_flags(Path("no-such-bundle"))


def config_argv(command: str, config: Path, out: Path) -> list[str]:
    """Argv of ``command`` reading ``config``, with MISSING_INPUTS unless it simulates."""
    inputs = [] if command == "simulate" else MISSING_INPUTS
    outs = [] if command == "validate" else ["--out", str(out)]
    return [command, *inputs, "--config", str(config), *outs]


class TestValidate:
    def test_clean_bundle_exits_zero(self, bundle_dir, capsys):
        assert main(["validate", *bundle_flags(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 rejected" in out

    def test_bad_row_nonzero_only_in_strict(self, bundle_dir, tmp_path, capsys):
        news = tmp_path / "news.csv"
        news.write_text(
            "news_id,date,firm_id,p_pos,p_neu,p_neg\n"
            "n1,2016-02-01,F00001,0.5,0.3,0.2\n"
            "n2,2016-02-02,F00002,0.2,0.2,0.2\n",
            encoding="utf-8",
        )
        flags = bundle_flags(bundle_dir)
        flags[flags.index("--news") + 1] = str(news)
        assert main(["validate", *flags]) == 0
        assert "1 rejected" in capsys.readouterr().out
        assert main(["validate", *flags, "--strict"]) == 1

    def test_unreadable_path_fails(self, bundle_dir, capsys):
        flags = bundle_flags(bundle_dir)
        flags[flags.index("--prices") + 1] = str(bundle_dir / "missing.csv")
        assert main(["validate", *flags]) == 1

    @pytest.mark.parametrize("key", sim.BUNDLE_FILES)
    def test_byte_order_mark_changes_no_report_line(self, bundle_dir, tmp_path, capsys, key):
        assert main(["validate", *bundle_flags(bundle_dir)]) == 0
        plain = capsys.readouterr().out
        marked = tmp_path / f"{key}.csv"
        marked.write_bytes(codecs.BOM_UTF8 + (bundle_dir / marked.name).read_bytes())
        flags = bundle_flags(bundle_dir)
        flags[flags.index(f"--{key}") + 1] = str(marked)
        assert main(["validate", *flags]) == 0
        assert capsys.readouterr().out == plain

    def test_byte_order_mark_in_config_file_parses(self, bundle_dir, tmp_path, capsys):
        assert main(["validate", *bundle_flags(bundle_dir)]) == 0
        plain = capsys.readouterr().out
        config = tmp_path / "run.cfg"
        lines = [f"{key} = {bundle_dir / (key + '.csv')}" for key in sim.BUNDLE_FILES]
        config.write_bytes(codecs.BOM_UTF8 + "\n".join(lines).encode("utf-8") + b"\n")
        assert main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out == plain

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("windos = 1,2\n", encoding="utf-8")
        err = assert_usage_error(["validate", *MISSING_INPUTS, "--config", str(config)], capsys)
        assert "--config windos = '1,2': unknown key" in err

    @pytest.mark.parametrize("config_line", [None, "edges = "])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_missing_input_path_exits_1(self, tmp_path, capsys, command, config_line):
        # the other four paths do not exist either: the check comes before any read
        argv = [command, *MISSING_INPUTS[:MISSING_INPUTS.index("--edges")]]
        if config_line is not None:  # an empty path counts as missing
            config = tmp_path / "run.cfg"
            config.write_text(config_line + "\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert f"{command}: missing required input path --edges" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_field_past_the_csv_limit_exits_1(self, bundle_dir, tmp_path, capsys, command):
        text = (bundle_dir / "news.csv").read_text(encoding="utf-8")
        news = tmp_path / "news.csv"
        news.write_text(text + f"n_long,2016-02-02,{'F' * 200_000},0.2,0.2,0.6\n", encoding="utf-8")
        flags = bundle_flags(bundle_dir)
        flags[flags.index("--news") + 1] = str(news)
        out = tmp_path / "out"
        assert main([command, *flags, *(["--out", str(out)] if command == "run" else [])]) == 1
        err = capsys.readouterr().err
        row = len(text.splitlines())  # the header is row 0
        assert err == f"{command}: {news}: field larger than field limit (131072) at row {row}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_utf8_file_exits_1_naming_the_file(self, bundle_dir, tmp_path, capsys, command):
        data = (bundle_dir / "prices.csv").read_bytes()
        prices = tmp_path / "prices.csv"
        prices.write_bytes(data + b"F00001,2016-02-02,1\xff5\n")
        flags = bundle_flags(bundle_dir)
        flags[flags.index("--prices") + 1] = str(prices)
        out = tmp_path / "out"
        assert main([command, *flags, *(["--out", str(out)] if command == "run" else [])]) == 1
        # the decoder runs a chunk ahead of the rows, so no row number is exact
        assert capsys.readouterr().err == f"{command}: {prices}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
        ("", "MemoryError"),  # an exception without text is named by its class
    ], ids=["message", "no-text"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_out_of_memory_while_loading_exits_1(
        self, bundle_dir, tmp_path, capsys, monkeypatch, command, message, shown
    ):
        def exhaust(path):
            raise MemoryError(message)

        monkeypatch.setattr(market, "load_prices", exhaust)
        out = tmp_path / "out"
        argv = [command, *bundle_flags(bundle_dir), *(["--out", str(out)] if command == "run" else [])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{command}: {shown}\n"
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_one_config_file_serves_run_and_validate(self, bundle_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("windows = 1\nmode = own\n", encoding="utf-8")
        assert main(["validate", *bundle_flags(bundle_dir), "--config", str(config)]) == 0
        lines = [f"{key} = {bundle_dir / (key + '.csv')}"
                 for key in ("firms", "prices", "indices", "news", "edges")]
        lines += ["strict = yes", "robust_se = no", "export_panel = no", "threads = 2",
                  "windows = 1", "mode = own", "polarity = negative", f"out = {tmp_path / 'out'}"]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "fits.csv").exists()


class TestRun:
    def test_default_grid_shapes(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                *bundle_flags(bundle_dir),
                "--windows", "1,2,3",
                "--out", str(out),
            ]
        )
        assert code == 0
        fits = (out / "fits.csv").read_text(encoding="utf-8").splitlines()
        assert len(fits) == 1 + 3
        effects = (out / "effects.csv").read_text(encoding="utf-8").splitlines()
        assert len(effects) == 1 + 6
        assert (out / "table.txt").exists()

    def test_mode_polarity_product(self, bundle_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                *bundle_flags(bundle_dir),
                "--mode", "own,supplier",
                "--polarity", "positive,negative",
                "--windows", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        fits = (out / "fits.csv").read_text(encoding="utf-8").splitlines()
        assert len(fits) == 1 + 2 * 2 * 2

    def test_one_build_per_mode_and_window(self, bundle_dir, tmp_path, monkeypatch):
        builds = []
        build_panel = panel.build_panel

        def counting_build(*args, **kwargs):
            builds.append(kwargs)
            return build_panel(*args, **kwargs)

        monkeypatch.setattr(panel, "build_panel", counting_build)
        code = main([
            "run", *bundle_flags(bundle_dir), "--mode", "own,supplier",
            "--polarity", "positive,negative", "--windows", "1,2", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        # every polarity of a (mode, window) fits the one panel built for it
        assert sorted((b["mode"], b["w"]) for b in builds) == [
            ("own", 1), ("own", 2), ("supplier", 1), ("supplier", 2)]

    def test_unwritable_out_exits_1(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(["run", *bundle_flags(bundle_dir), "--windows", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run: ") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_failing_report_exits_1_keeping_written_files(
        self, bundle_dir, tmp_path, capsys, monkeypatch
    ):
        def fail(results):
            raise ValueError("no plot data")

        monkeypatch.setattr(report, "effect_plot_data", fail)
        out = tmp_path / "out"
        assert main(["run", *bundle_flags(bundle_dir), "--windows", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "run: no plot data\n"
        # fits.csv is written before the plot data; what run already wrote stays
        assert sorted(p.name for p in out.iterdir()) == ["fits.csv"]

    def test_rerun_byte_identical(self, bundle_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", *bundle_flags(bundle_dir), "--windows", "1,2", "--export-panel"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_thread_count_does_not_change_output(self, bundle_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", *bundle_flags(bundle_dir), "--windows", "1,2,3"]
        assert main([*args, "--out", str(out_a), "--threads", "1"]) == 0
        assert main([*args, "--out", str(out_b), "--threads", "8"]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_infeasible_window_fails_cell_and_exit(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", *bundle_flags(bundle_dir), "--windows", "1,365", "--out", str(out)]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "ERROR" in printed
        # the feasible cell still produced its artifacts
        fits = (out / "fits.csv").read_text(encoding="utf-8").splitlines()
        assert len(fits) == 2

    def test_huge_window_fails_like_an_infeasible_one(self, bundle_dir, tmp_path, capsys):
        # 2**64 - 1 is past int64: the cell must fail as an empty panel, not overflow
        code = main(["run", *bundle_flags(bundle_dir), "--windows", f"1,400,{2**64 - 1}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            f"cell mode=own polarity=positive w={w}: ERROR cannot transform an empty panel"
            for w in (400, 2**64 - 1)
        ]

    @pytest.mark.parametrize("flag, value", [
        ("--mode", "own,own"),
        ("--mode", ","),
        ("--mode", ""),
        ("--mode", "own,neighbour"),
        ("--polarity", "positive,positive"),
        ("--polarity", ","),
        ("--polarity", "neutral"),
        ("--windows", "abc"),
        ("--windows", "0"),
        ("--windows", "1,1"),
        ("--windows", ""),
    ])
    def test_bad_mode_or_polarity_list_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert_usage_error(["run", *MISSING_INPUTS, flag, value, "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "mode = own,own",
        "polarity = ",
        "threads = abc",
        "windows = abc",
        "strict = maybe",
        "no equals sign here",
        "no_such_key = 1",
        "windos = 1,2",
    ])
    def test_bad_config_line_exits_2(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        # validate parses every run key too, so one file fails both the same way
        for command in ("run", "validate"):
            assert_usage_error(config_argv(command, config, out), capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate", "simulate"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "run.cfg"
        config.write_text("windows = 1\nwindows = 2\n", encoding="utf-8")
        out = tmp_path / "out"
        err = assert_usage_error(config_argv(command, config, out), capsys)
        assert "--config windows = '2': repeated key" in err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.cfg"
        not_utf8.write_bytes(b"windows = 1\n# caf\xe9 \xff\n")
        for config in (tmp_path / "absent.cfg", not_utf8):
            for command in ("run", "validate"):
                err = assert_usage_error([command, *MISSING_INPUTS, "--config", str(config)], capsys)
                assert f"cannot read --config {config}" in err
            assert_usage_error(["simulate", "--config", str(config)], capsys)

    def test_threads_still_accepted(self, bundle_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("threads = 3\n", encoding="utf-8")
        args = ["run", *bundle_flags(bundle_dir), "--windows", "1"]
        assert main([*args, "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--threads", "4", "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    @pytest.mark.parametrize("key, bad_row, reason", [
        ("news", "n_bad,2016-02-02,F00002,0.2,0.2,0.2", "probabilities sum to 0.6"),
        ("news", "n_bad,2016-02-02,F00002,0.2,0.8", "wrong column count"),
        ("news", "n_bad,2016-02-02,F00002,nan,0.5,0.5", "non-finite probability"),
        ("prices", "F00001,xx,1.0", "malformed date 'xx'"),
        ("firms", "F99999,M00,S00", "wrong column count"),
        ("firms", " ,M00,S00,SIM", "empty firm_id"),
        ("firms", "F00001,M01,S00,SIM", "duplicate firm_id F00001"),
    ], ids=["news", "news-columns", "news-nan", "prices", "firms-columns", "firms-empty-id",
            "firms-duplicate"])
    def test_strict_rejected_row_fails_without_outputs(
        self, bundle_dir, tmp_path, capsys, key, bad_row, reason
    ):
        text = (bundle_dir / f"{key}.csv").read_text(encoding="utf-8")
        bad = tmp_path / f"{key}.csv"
        bad.write_text(text + bad_row + "\n", encoding="utf-8")
        flags = bundle_flags(bundle_dir)
        flags[flags.index(f"--{key}") + 1] = str(bad)
        assert main(["validate", *flags]) == 0
        row = len(text.splitlines())  # the header is row 0
        assert f"  {key} row {row}: {reason}\n" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", *flags, "--windows", "1", "--out", str(out)]) == 0
        assert main(["run", *flags, "--windows", "1", "--strict", "--out", str(out / "s")]) == 1
        assert "strict mode: 1 rejected rows" in capsys.readouterr().err
        assert not (out / "s").exists()

    def test_outputs_get_open_mode_under_umask(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 25\nn_days = 80\nnews_rate = 4\nseed = 9\n", encoding="utf-8")
        data, out = tmp_path / "data", tmp_path / "out"
        old = os.umask(0o027)
        try:
            assert main(["simulate", "--config", str(config), "--windows", "1", "--out", str(data)]) == 0
            assert main(
                ["run", *bundle_flags(data), "--windows", "1", "--export-panel", "--out", str(out)]
            ) == 0
        finally:
            os.umask(old)
        written = sorted(data.iterdir()) + sorted(out.iterdir())
        assert len(written) == 6 + 4
        assert {p.name: p.stat().st_mode & 0o777 for p in written} == {p.name: 0o640 for p in written}

    def test_config_file_with_flag_override(self, bundle_dir, tmp_path):
        config = tmp_path / "run.cfg"
        lines = ["# estimation inputs"]
        for key in ("firms", "prices", "indices", "news", "edges"):
            lines.append(f"{key} = {bundle_dir / (key + '.csv')}")
        lines += ["windows = 1,2", "out = " + str(tmp_path / "ignored")]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "real"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "fits.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSimulate:
    def test_simulate_emits_bundle_and_sidecar(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "n_firms = 20\nn_days = 60\nnews_rate = 3\nseed = 5\n"
            "gamma_pre = 0.0\ngamma_post = 0.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--windows", "1,2", "--out", str(out)]) == 0
        for name in ("firms", "prices", "indices", "news", "edges"):
            assert (out / f"{name}.csv").exists()
        sidecar = (out / "expected_betas.csv").read_text(encoding="utf-8").splitlines()
        assert sidecar[0] == "mode,polarity,w,beta_pre,beta_post"
        assert len(sidecar) == 1 + 12
        # zero-effect config: sidecar of zeros
        assert all(row.endswith(",0,0") for row in sidecar[1:])

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 20\nn_days = 60\nnews_rate = 3\nseed = 5\n", encoding="utf-8")
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out_b), "--seed", "5"]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out_c), "--seed", "6"]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        assert tree_bytes(out_a) != tree_bytes(out_c)

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 20\nn_days = 2\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        config.write_text("n_firms = 0\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line", [
        "n_firms = abc",
        "no_such_key = 1",
        "start_date = someday",
        "start_date = 20160104",  # input files take only YYYY-MM-DD, and so does --config
        "strict = maybe",
        "robust_se = banana",
        "mode = own",
    ])
    def test_bad_config_line_exits_2(self, tmp_path, capsys, line):
        config = tmp_path / "sim.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        err = assert_usage_error(config_argv("simulate", config, out), capsys)
        key, _, value = (part.strip() for part in line.partition("="))
        assert f"{key} = {value!r}" in err
        # simulate takes only the keys it reads; run-only keys are unknown to it
        assert ("unknown key" in err) == (key not in SIM_KEYS)
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "gamma_post = nan", "start_date = 9999-12-01", "seed = -1", "leak_window = 0",
        "news_rate = -1", "n_markets = 200",
    ])
    def test_unusable_setting_exits_1_without_output(self, tmp_path, capsys, line):
        config = tmp_path / "sim.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and line.split()[0] in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_field_parses_from_a_config_file(self, tmp_path):
        changed = SimConfig(
            n_firms=7, n_sectors=3, n_markets=1, n_days=90, weekend_pattern=False,
            edge_prob=0.5, news_rate=2.5, sentiment_alpha=(0.5, 1.5, 2.0), gamma_pre=0.125,
            gamma_post=-0.25, gamma_sup=0.0625, gamma_cli=0.75, market_vol=0.02, idio_vol=0.03,
            leak_window=2, effect_window=3, seed=99, start_date=dt.date(2020, 2, 3),
        )
        # a field added later keeps its default above, and so fails here until it is listed
        fields = dataclasses.fields(SimConfig)
        assert [f.name for f in fields if getattr(changed, f.name) == f.default] == []
        lines = []
        for f in fields:
            value = getattr(changed, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}\n")
        config = tmp_path / "sim.cfg"
        config.write_text("".join(lines), encoding="utf-8")
        settings = _settings(argparse.Namespace(config=str(config)), SIM_KEYS)
        assert SimConfig(**settings) == changed

    def test_start_date_takes_the_input_file_date_form(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("start_date = 2016-01-04 09:30\n", encoding="utf-8")
        settings = _settings(argparse.Namespace(config=str(config)), SIM_KEYS)
        assert settings == {"start_date": dt.date(2016, 1, 4)}

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 10\nn_days = 40\nseed = 3\n", encoding="utf-8")
        out = blocker / "out"
        assert main(["simulate", "--config", str(config), "--windows", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and str(blocker) in err

    def test_bad_windows_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        err = assert_usage_error(["simulate", "--windows", "0", "--out", str(out)], capsys)
        assert "windows must be positive integers" in err
        assert not out.exists()

    def test_huge_window_finishes_with_every_file(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 10\nn_days = 40\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "newsprop.cli", "simulate", "--config", str(config),
             "--windows", "10000000000000000000", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        names = [*sim.BUNDLE_FILES, "expected_betas"]
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{name}.csv" for name in names)
        sidecar = (out / "expected_betas.csv").read_text(encoding="utf-8").splitlines()
        assert len(sidecar) == 1 + 6
        assert all(row.split(",")[2] == "10000000000000000000" for row in sidecar[1:])

    def test_failing_expectation_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("no expectation")

        monkeypatch.setattr(sim, "expected_betas", fail)
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 10\nn_days = 40\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--windows", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "simulate: no expectation\n"
        assert not out.exists()

    def test_out_of_memory_exits_1_without_output(self, tmp_path, capsys, monkeypatch):
        def exhaust(config):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(sim, "simulate", exhaust)
        out = tmp_path / "out"
        assert main(["simulate", "--windows", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "simulate: Unable to allocate 7.28 TiB\n"
        assert not out.exists()

    def test_validate_accepts_simulated_bundle(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("n_firms = 25\nn_days = 80\nnews_rate = 4\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["validate", *bundle_flags(out), "--strict"]) == 0
