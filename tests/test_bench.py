import csv
import math
from pathlib import Path

import pytest

from cstack.bench import CSV_HEADER, bench, ensure_input, execute_run, write_csv
from cstack.generators import GenSpec
from cstack.metrics import DATA_BYTES
from cstack.runner import LineSource


def rows_by_size(rows):
    return {r["size"]: r for r in rows}


class TestBench:
    def test_classic_pushonly_doubles_per_size(self, tmp_path):
        rows = bench("testrun", "pushonly", "classic", "10",
                     [2 ** e for e in range(10, 15)],
                     rho=1.0, cache_dir=tmp_path)
        peaks = [r["peak_bytes"] for r in rows]
        assert peaks == [n * DATA_BYTES for n in (2 ** e for e in range(10, 15))]
        assert all(b / a >= 1.9 for a, b in zip(peaks, peaks[1:]))

    def test_compressed_growth_capped_per_doubling(self, tmp_path):
        rows = bench("testrun", "pushonly", "compressed", "10",
                     [2 ** e for e in range(14, 19)],
                     rho=1.0, cache_dir=tmp_path)
        peaks = [r["peak_bytes"] for r in rows]
        assert all(b / a <= 1.5 for a, b in zip(peaks, peaks[1:]))

    def test_fixed_p_memory_steps_at_depth_changes(self, tmp_path):
        # peaks ramp while the first top-level blocks fill, then sit nearly
        # flat within a depth class; every change of ceil(log_p n) steps up
        p = 10
        sizes = [2 ** e for e in range(10, 19)]
        rows = bench("testrun", "pushonly", "compressed", str(p), sizes,
                     rho=1.0, cache_dir=tmp_path)
        peaks = {r["size"]: r["peak_bytes"] for r in rows}
        assert all(peaks[b] >= peaks[a] for a, b in zip(sizes, sizes[1:]))
        for a, b in zip(sizes, sizes[1:]):
            depth = math.ceil(math.log(a, p))
            if depth != math.ceil(math.log(b, p)):
                assert peaks[b] > peaks[a], f"no bump between {a} and {b}"
            elif a >= 3 * p ** (depth - 1):  # both saturated
                assert peaks[b] <= 1.15 * peaks[a], f"drift between {a} and {b}"

    def test_xmas_reconstructions_drop_with_p(self, tmp_path):
        rows10 = bench("testrun", "xmas", "compressed", "10", [2 ** 12],
                       cache_dir=tmp_path)
        rows100 = bench("testrun", "xmas", "compressed", "100", [2 ** 12],
                        cache_dir=tmp_path)
        assert rows10[0]["reconstructions"] >= rows100[0]["reconstructions"]

    def test_small_input_with_huge_p_wastes_memory(self, tmp_path):
        classic = bench("testrun", "pushonly", "classic", "500", [2 ** 10],
                        rho=1.0, cache_dir=tmp_path)
        compressed = bench("testrun", "pushonly", "compressed", "500", [2 ** 10],
                           rho=1.0, cache_dir=tmp_path)
        assert compressed[0]["peak_bytes"] >= classic[0]["peak_bytes"]

    def test_rows_deterministic_except_time(self, tmp_path):
        a = bench("testrun", "pushonly", "compressed", "sqrt", [2 ** 10, 2 ** 11],
                  rho=0.5, seed=3, cache_dir=tmp_path)
        b = bench("testrun", "pushonly", "compressed", "sqrt", [2 ** 10, 2 ** 11],
                  rho=0.5, seed=3, cache_dir=tmp_path)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "time_s"} for r in rows]
        assert strip(a) == strip(b)

    def test_non_power_of_two_rejected(self, tmp_path):
        for size in (1000, 0):  # 0 & -1 is 0, but 0 is no power of two
            with pytest.raises(ValueError, match=f"powers of two, got {size}$"):
                bench("testrun", "pushonly", "classic", "10", [size], cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_desk_cap_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            bench("testrun", "pushonly", "classic", "10", [2 ** 23], cache_dir=tmp_path)

    def test_a_bad_p_caches_no_input(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            bench("testrun", "pushonly", "compressed", "1", [16, 32], cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_inputs_cached_between_calls(self, tmp_path):
        bench("testrun", "pushonly", "classic", "10", [2 ** 10], rho=1.0,
              cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        bench("testrun", "pushonly", "compressed", "10", [2 ** 10], rho=1.0,
              cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == files

    def test_an_interrupted_generate_caches_nothing(self, tmp_path, monkeypatch):
        write_text = Path.write_text

        def write_half_then_interrupt(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", write_half_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            bench("testrun", "pushonly", "classic", "10", [2 ** 10], rho=1.0,
                  cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        rows = bench("testrun", "pushonly", "classic", "10", [2 ** 10], rho=1.0,
                     cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 2 ** 10
        assert rows[0]["final_stack_len"] == 2 ** 10


def test_csv_layout(tmp_path):
    rows = bench("testrun", "pushonly", "classic", "10", [2 ** 10], rho=1.0,
                 cache_dir=tmp_path)
    out = tmp_path / "out.csv"
    write_csv(rows, out)
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == CSV_HEADER
        assert header == ["size", "p", "time_s", "peak_bytes",
                          "reconstructions", "final_stack_len"]
        body = list(reader)
    assert len(body) == 1
    assert body[0][0] == "1024"


def test_unknown_stack_kind_rejected():
    with pytest.raises(ValueError, match="unknown stack kind: 'bogus'"):
        execute_run("testrun", LineSource.from_text("5,0\n"), "bogus", n_expect=None)


def test_metrics_csv_fields(tmp_path):
    # bench builds the row CSV_HEADER names: exactly its columns, holding
    # the counters of the run it measured
    rows = bench("testrun", "xmas", "compressed", "4", [2 ** 8], rho=0.0, cache_dir=tmp_path)
    path = ensure_input(GenSpec("xmas", 2 ** 8, 0.0, 0), tmp_path)
    with LineSource.from_path(path) as source:
        m = execute_run("testrun", source, "compressed", n_expect=2 ** 8, p=4,
                        collect_report=False, drain_report=False).metrics
    assert list(rows[0]) == CSV_HEADER
    assert m.reconstructions > 0
    assert (rows[0]["peak_bytes"], rows[0]["reconstructions"], rows[0]["final_stack_len"]) == (
        m.peak_bytes, m.reconstructions, m.final_len)
