import csv

import pytest

from cstack.cli import main
from cstack.compressed import CompressedStack
from cstack.generators import GEN_KINDS
from cstack.metrics import resolve_p
from cstack.problems import UpperHull


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_compare_roundtrip(tmp_path, capsys):
    path = tmp_path / "x.txt"
    code, out, err = run_cli(capsys, "generate", "--kind", "xmas",
                             "--n", "4096", "--seed", "7", "--out", str(path))
    assert code == 0
    assert path.exists()
    code, out, err = run_cli(capsys, "compare", "--problem", "testrun",
                             "--input", str(path), "--p", "10")
    assert code == 0
    assert "ok" in out


def test_run_prints_report_and_metrics_footer(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    run_cli(capsys, "generate", "--kind", "points", "--n", "64",
            "--seed", "3", "--out", str(path))
    code, out, err = run_cli(capsys, "run", "--problem", "upperhull",
                             "--stack", "compressed", "--p", "sqrt",
                             "--input", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    hull = [l for l in lines if not l.startswith("#")]
    footer = [l for l in lines if l.startswith("#")]
    assert len(hull) >= 2
    assert any("peak_bytes=" in l for l in footer)
    assert any("time_s=" in l for l in footer)
    fields = dict(l[2:].split("=", 1) for l in footer if l.count("=") == 1)
    assert int(fields["replay_lines"]) >= 0
    assert int(fields["peak_entries"]) > 0
    assert int(fields["promotions"]) >= 0
    assert int(fields["max_replay_depth"]) >= (int(fields["replay_lines"]) > 0)
    # its 64 data lines size the stack: p = sqrt(64), k = UpperHull's 2
    bound = CompressedStack(64, resolve_p("sqrt", 64), UpperHull.k).resident_data_bound()
    assert int(fields["resident_bound"]) == bound
    xs = [float(l.split(",")[0]) for l in hull]
    assert xs == sorted(xs, reverse=True)  # hull reported right to left


def test_run_matches_between_stacks(tmp_path, capsys):
    path = tmp_path / "t.txt"
    run_cli(capsys, "generate", "--kind", "pushonly", "--n", "200",
            "--rho", "0.4", "--seed", "5", "--out", str(path))
    _, out_classic, _ = run_cli(capsys, "run", "--problem", "testrun",
                                "--stack", "classic", "--input", str(path))
    _, out_compressed, _ = run_cli(capsys, "run", "--problem", "testrun",
                                   "--stack", "compressed", "--p", "3",
                                   "--input", str(path))
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(out_classic) == strip(out_compressed)
    # only a stack that declares resident_data_bound() prints it
    assert "resident_bound=" not in out_classic
    assert "resident_bound=" in out_compressed


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "bench", "--stack", "compressed", "--p", "log",
                         "--kind", "pushonly", "--rho", "1.0",
                         "--sizes", "10..12", "--out", str(out),
                         "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["size"]) for r in rows] == [1024, 2048, 4096]
    assert all(int(r["reconstructions"]) == 0 for r in rows)


def test_bench_without_sizes_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--stack", "classic", "--out", "x.csv")
    assert code == 1


@pytest.mark.parametrize("sizes", ["-1..2", "14..10", "ten", "10.."])
def test_bad_size_range_is_usage_error(tmp_path, capsys, sizes):
    code, out, err = run_cli(capsys, "bench", "--stack", "classic", f"--sizes={sizes}",
                             "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert repr(sizes) in err


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "run", "--problem", "testrun",
                             "--input", "x", "--frobnicate")
    assert code == 1


def test_missing_input_is_runtime_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "--problem", "testrun",
                             "--input", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error" in err


def test_explicit_p_below_two_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text("5,0\n7,0\n9,1\n")
    for p in ("-5", "0", "1"):
        code, out, err = run_cli(capsys, "run", "--problem", "testrun", "--stack",
                                 "compressed", "--p", p, "--input", str(path))
        assert code == 2
        assert "space parameter p must be at least 2" in err
    code, out, err = run_cli(capsys, "bench", "--stack", "compressed", "--p", "1",
                             "--sizes", "4", "--out", str(tmp_path / "b.csv"),
                             "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert "space parameter p must be at least 2" in err


@pytest.mark.parametrize("stack", ["classic", "compressed"])
def test_undecodable_line_is_reported_by_line(tmp_path, capsys, stack):
    # sizing a compressed stack's input reads it as text too, and must leave
    # the bad line to the run, which names it like any other malformed line
    path = tmp_path / "bad.txt"
    path.write_bytes(b"5,0\n7,\xff0\n")
    code, out, err = run_cli(capsys, "run", "--problem", "testrun", "--stack", stack,
                             "--input", str(path))
    assert code == 2
    assert "error: line 2: not valid UTF-8 in '7,\\\\xff0'" in err


def test_classic_run_does_not_size_its_input(tmp_path, capsys, monkeypatch):
    import cstack.cli as cli_mod

    def no_sizing(path):
        raise AssertionError("a classic run sized its input")

    path = tmp_path / "headerless.txt"
    path.write_text("5,0\n7,0\n9,1\n")
    monkeypatch.setattr(cli_mod, "_input_size", no_sizing)
    code, out, err = run_cli(capsys, "run", "--problem", "testrun", "--input", str(path))
    assert code == 0, err
    assert [l for l in out.splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_generate_negative_n_is_runtime_error(tmp_path, capsys, kind):
    path = tmp_path / "neg.txt"
    code, out, err = run_cli(capsys, "generate", "--kind", kind, "--n", "-3",
                             "--out", str(path))
    assert code == 2
    assert "n must be non-negative, got -3" in err
    assert not path.exists()


def test_compare_detects_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # sabotage the checker to force a mismatch path
    import cstack.cli as cli_mod

    path = tmp_path / "x.txt"
    run_cli(capsys, "generate", "--kind", "pushonly", "--n", "32",
            "--rho", "0.5", "--seed", "1", "--out", str(path))
    monkeypatch.setattr(cli_mod, "run_checked",
                        lambda *a, **k: (False, "divergence at operation 3: boom"))
    code, out, err = run_cli(capsys, "compare", "--problem", "testrun",
                             "--input", str(path), "--p", "2")
    assert code == 3
    assert "divergence" in err


def test_stack_sized_by_its_data_lines_is_not_degraded(tmp_path, capsys):
    path = tmp_path / "h.txt"
    run_cli(capsys, "generate", "--kind", "pushonly", "--n", "128",
            "--rho", "1.0", "--seed", "0", "--out", str(path))
    code, out, _ = run_cli(capsys, "run", "--problem", "testrun",
                           "--stack", "compressed", "--p", "4",
                           "--input", str(path))
    assert code == 0
    assert "# degraded_estimate=false" in out


@pytest.mark.parametrize("edit, n, bound", [("cut", 100, 22), ("header", 1024, 66)],
                         ids=["cut_to_100_points", "header_says_n64"])
def test_stack_sized_by_its_data_lines_not_by_the_header(tmp_path, capsys, edit, n, bound):
    # an edited file's header no longer tells its size; the data lines do
    path = tmp_path / "pts.txt"
    run_cli(capsys, "generate", "--kind", "points", "--n", "1024",
            "--seed", "7", "--out", str(path))
    header, *data = path.read_text().splitlines()
    assert " n=1024 " in header
    if edit == "cut":
        lines = [header] + data[:100]
    else:
        lines = [header.replace(" n=1024 ", " n=64 ")] + data
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "run", "--problem", "upperhull",
                             "--stack", "compressed", "--p", "sqrt",
                             "--input", str(path))
    assert code == 0, err
    assert CompressedStack(n, resolve_p("sqrt", n), UpperHull.k).resident_data_bound() == bound
    footer = out.splitlines()
    assert f"# resident_bound={bound}" in footer
    assert "# degraded_estimate=false" in footer


@pytest.mark.parametrize("header", ["", "# kind=pushonly n=abc\n"])
def test_n_expect_counts_data_lines_without_a_usable_header(tmp_path, capsys, header):
    # 64 data lines among blank and comment lines size the stack as
    # CompressedStack(64, 4, 1); counting a header or a blank line as data
    # would make it 65 and the bound 32
    lines = []
    for v in range(64):
        lines.append(f"{v},0")
        if v % 8 == 0:
            lines += ["", "# note n=9"]
    path = tmp_path / "s.txt"
    path.write_text(header + "\n".join(lines) + "\n")
    argv = ("run", "--problem", "testrun", "--stack", "compressed", "--p", "4",
            "--input", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert "# resident_bound=22" in out.splitlines()
    assert CompressedStack(64, 4, 1).resident_data_bound() == 22
    code, out, err = run_cli(capsys, *argv, "--n-expect", "4096")
    assert code == 0, err
    assert f"# resident_bound={CompressedStack(4096, 4, 1).resident_data_bound()}" in out


def test_help_exits_zero_and_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "run", "--help")[0] == 0
    code, out, err = run_cli(capsys, "run", "--problem", "nope", "--input", "x")
    assert code == 1
    assert "cstack run: error:" in err


def test_k_sets_the_access_depth(tmp_path, capsys):
    # a deeper k keeps longer floors: same hull, more resident bytes; a k
    # below what the algorithm probes is refused at its first deep probe
    path = tmp_path / "pts.txt"
    run_cli(capsys, "generate", "--kind", "points", "--n", "256",
            "--seed", "3", "--out", str(path))
    reports = {}
    for k in ("2", "3"):
        code, out, _ = run_cli(capsys, "run", "--problem", "upperhull",
                               "--stack", "compressed", "--p", "4", "--k", k,
                               "--input", str(path))
        assert code == 0
        reports[k] = out.splitlines()
    strip = lambda lines: [l for l in lines if not l.startswith("#")]
    assert strip(reports["2"]) == strip(reports["3"])
    assert "# peak_bytes=1048" in reports["2"]
    assert "# peak_bytes=1448" in reports["3"]
    code, _, err = run_cli(capsys, "run", "--problem", "upperhull",
                           "--stack", "compressed", "--p", "4", "--k", "1",
                           "--input", str(path))
    assert code == 2
    assert "top(2) outside declared access depth k=1" in err


def test_run_out_writes_report_and_footer_to_the_file(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("5,0\n7,0\n3,2\n9,1\n")
    dest = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "run", "--problem", "testrun",
                             "--input", str(src), "--out", str(dest))
    assert (code, out, err) == (0, "", "")
    lines = dest.read_text().splitlines()
    assert lines[0] == "9"
    assert "# final_stack_len=1" in lines
    assert lines[-1] == "# degraded_estimate=false"


@pytest.mark.parametrize("k, code", [("3", 0), ("1", 2)])
def test_compare_takes_the_access_depth(tmp_path, capsys, k, code):
    path = tmp_path / "pts.txt"
    run_cli(capsys, "generate", "--kind", "points", "--n", "256",
            "--seed", "3", "--out", str(path))
    got, out, err = run_cli(capsys, "compare", "--problem", "upperhull",
                            "--p", "4", "--k", k, "--input", str(path))
    assert got == code
    if code:
        assert "top(2) outside declared access depth k=1" in err
    else:
        assert "ok: classic and compressed agree (p=4)" in out
