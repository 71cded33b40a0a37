import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import covmoments
from covmoments import circuits, cli, ensembles, hypergraphs, moments, partitions
from covmoments.cli import EXIT_CONFIG, EXIT_SIZE_LIMIT, load_config, main
from covmoments.moments import moment_sparse, mp_moment, poisson_sandwich


def run(*argv):
    return main([str(a) for a in argv])


class TestClassify:
    def test_member(self, capsys):
        assert run("classify", "[[1,2,5,6],[3,4,7,8]]") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_special_symmetric"] is True
        assert payload["is_non_crossing"] is False
        assert payload["word"] == "aabbaabb"

    def test_non_member(self, capsys):
        assert run("classify", "[[1,2,6,7],[3,4,5,8]]") == 0
        assert json.loads(capsys.readouterr().out)["is_special_symmetric"] is False

    def test_csv_format(self, capsys):
        assert run("classify", "[[1,2]]", "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("blocks,word,")

    @pytest.mark.parametrize(
        "blocks", ["[[1,3]]", "[[1.0,2]]", "[[true,2]]"], ids=["gap", "float", "bool"]
    )
    def test_bad_blocks(self, blocks, capsys):
        assert run("classify", blocks) == EXIT_CONFIG


class TestCount:
    def test_counts_csv(self, tmp_path, capsys):
        assert run("--out", tmp_path, "count", "--k", 2) == 0
        lines = (tmp_path / "counts.csv").read_text().strip().splitlines()
        assert lines[0] == "k,b,r_plus_1,count"
        assert set(lines[1:]) == {"2,1,1,1", "2,2,1,1", "2,2,2,1"}

    def test_pair_only_narayana(self, tmp_path, capsys):
        assert run("--out", tmp_path, "count", "--k", 3, "--pair-only") == 0
        rows = (tmp_path / "counts.csv").read_text().strip().splitlines()[1:]
        counts = {tuple(map(int, r.split(",")[1:3])): int(r.split(",")[3]) for r in rows}
        assert counts == {(3, 1): 1, (3, 2): 3, (3, 3): 1}

    def test_cap_exit(self, tmp_path, capsys):
        assert run("--out", tmp_path, "count", "--k", 13) == EXIT_SIZE_LIMIT
        assert "MAX_SERIES_ORDER = 12" in capsys.readouterr().err

    @staticmethod
    def read_counts(path):
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "k,b,r_plus_1,count"
        return [tuple(map(int, row.split(","))) for row in rows[1:]]

    @pytest.mark.parametrize("pair_only", [False, True])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_exhaustive_census(self, tmp_path, capsys, k, pair_only):
        flags = ["--pair-only"] if pair_only else []
        assert run("--out", tmp_path, "count", "--k", k, *flags) == 0
        table = partitions.count_ss(k, by=("blocks", "even_generating"), pair_only=pair_only)
        expected = [(k, b, r, count) for (b, r), count in sorted(table.items())]
        assert self.read_counts(tmp_path / "counts.csv") == expected
        total = sum(table.values())
        assert capsys.readouterr().out.startswith(
            f"count: {total} special symmetric partitions of {{1..{2 * k}}}"
        )

    @pytest.mark.parametrize("pair_only", [False, True])
    @pytest.mark.parametrize("k", [6, 7])
    def test_matches_word_grouping(self, tmp_path, capsys, k, pair_only):
        flags = ["--pair-only"] if pair_only else []
        assert run("--out", tmp_path, "count", "--k", k, *flags) == 0
        table = Counter()
        for word in hypergraphs.enumerate_ss_words(k):
            if not pair_only or set(word.multiplicities()) == {2}:
                stats = partitions.word_statistics(word)
                table[stats.b, stats.r_plus_1] += 1
        expected = [(k, b, r, count) for (b, r), count in sorted(table.items())]
        assert self.read_counts(tmp_path / "counts.csv") == expected

    def test_series_limit(self, tmp_path, capsys):
        assert run("--out", tmp_path, "count", "--k", 12) == 0
        assert run("--out", tmp_path, "count", "--k", 0) == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            run("--out", tmp_path, "count", "--k", 4, "--cap", 20)
        assert exc.value.code == EXIT_CONFIG


class TestCensus:
    def test_s_link(self, tmp_path, capsys):
        assert run("--out", tmp_path, "census", "--word", "abba", "--p", 2, "--n", 2) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines == ["word,link,p,n,exact,predicted", "abba,S,2,2,8,8"]

    def test_both_links_exhaustive(self, tmp_path, capsys):
        assert run(
            "--out", tmp_path, "census", "--word", "abab", "--p", 2, "--n", 2,
            "--link", "both",
        ) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines[1] == "abab,S,2,2,4,"
        assert lines[2].startswith("abab,wigner,2,2,")

    def test_exhaustive_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--out", tmp_path, "census", "--word", "abab", "--p", 2, "--n", 2, "--exhaustive")
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "census.csv").exists()

    def test_budget_exit(self, tmp_path, capsys):
        # the S census is closed-form and answers at any size; the budget
        # bounds Wigner value patterns, so short words run at any size there
        assert run(
            "--out", tmp_path, "census", "--word", "abba", "--p", 10**6, "--n", 10**6,
            "--link", "both",
        ) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines[1] == f"abba,S,{10**6},{10**6},{10**18},{10**18}"
        assert lines[2] == f"abba,wigner,{10**6},{10**6},{10**18},{10**18}"
        assert run("--out", tmp_path, "census", "--word", "abcabc", "--p", 500, "--n", 1000) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines[1] == "abcabc,S,500,1000,500000,"
        nested = "abcdefghijklmnopqrst" + "abcdefghijklmnopqrst"[::-1]
        p, n = 10**6, 10**6 + 1
        assert run("--out", tmp_path, "census", "--word", nested, "--p", p, "--n", n) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines[1] == f"{nested},S,{p},{n},{p**11 * n**10},{p**11 * n**10}"
        # the Wigner census reduces the nested pairs to nothing, so it needs
        # no search; twenty crossing letters do not reduce and exceed the budget
        N = max(p, n)
        assert run(
            "--out", tmp_path, "census", "--word", nested, "--p", p, "--n", n, "--link", "wigner"
        ) == 0
        lines = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert lines[1] == f"{nested},wigner,{N},{N},{N**21},{N**21}"
        (tmp_path / "census.csv").unlink()
        crossing = "abcdefghijklmnopqrst" * 2
        assert run(
            "--out", tmp_path, "census", "--word", crossing, "--p", p, "--n", n, "--link", "wigner"
        ) == EXIT_SIZE_LIMIT
        assert f"{math.factorial(21)} value patterns" in capsys.readouterr().err
        assert not (tmp_path / "census.csv").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("ABBA", "word 'ABBA' has the character 'A' outside a-z"),
            ("baab", "word 'baab' is not in canonical first-occurrence form; "
                     "its canonical spelling is 'abba'"),
        ],
    )
    def test_malformed_word_exit(self, tmp_path, capsys, text, message):
        assert run("--out", tmp_path, "census", "--word", text, "--p", 2, "--n", 2) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "census.csv").exists()

    def test_budget_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--out", tmp_path, "census", "--word", "abba", "--p", 2, "--n", 2, "--budget", 10)
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "census.csv").exists()

    @pytest.mark.parametrize("link", ["S", "wigner", "both"])
    @pytest.mark.parametrize("p,n", [(-1, 2), (2, 0)])
    def test_size_below_one_exit(self, tmp_path, capsys, link, p, n):
        assert run(
            "--out", tmp_path, "census", "--word", "aa", "--p", p, "--n", n, "--link", link
        ) == EXIT_CONFIG
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "census.csv").exists()


class TestMoments:
    def test_mp_csv(self, tmp_path, capsys):
        assert run("--out", tmp_path, "moments", "--mp", "--k", "1..6", "--y", "0.5") == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert lines[0] == "k,value"
        for line in lines[1:]:
            k, value = line.split(",")
            assert float(value) == float(mp_moment(int(k), Fraction(1, 2)))

    def test_seventeen_digit_output(self, tmp_path, capsys):
        assert run("--out", tmp_path, "moments", "--mp", "--k", "5", "--y", "1/3") == 0
        value = (tmp_path / "moments.csv").read_text().strip().splitlines()[1].split(",")[1]
        assert value == format(float(mp_moment(5, Fraction(1, 3))), ".17g")

    def test_sparse_with_sandwich(self, tmp_path, capsys):
        assert run(
            "--out", tmp_path, "moments", "--sparse", "--lam", "3", "--y", "0.5",
            "--k", "1..3", "--sandwich",
        ) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert lines[0] == "k,value,lower,upper"
        k2 = lines[2].split(",")
        assert float(k2[1]) == float(moment_sparse(2, Fraction(1, 2), 3).value)
        lower, upper = poisson_sandwich(2, Fraction(1, 2), 3)
        assert (float(k2[2]), float(k2[3])) == (float(lower), float(upper))

    def test_constant_breakdown_json(self, tmp_path, capsys):
        assert run(
            "--out", tmp_path, "moments", "--constant", "2=1,4=0.5", "--k", "2", "--y", "1",
            "--breakdown",
        ) == 0
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert set(payload["moments"]["2"]["breakdown"]) == {"aaaa", "aabb", "abba"}

    # (i, grid): the i-th of grid_sources' quadrature sources on an even and an odd grid
    @pytest.mark.parametrize("source", [
        ["--constant", "2=1,4=0.5"],
        ["--sparse", "--lam", "2"],
        ["--mp"],
        pytest.param((0, 8), id="profile-grid8"),
        pytest.param((1, 8), id="g-grid8"),
        pytest.param((0, 9), id="profile-grid9"),
        pytest.param((1, 9), id="g-grid9"),
    ])
    def test_json_has_no_breakdown_by_default(self, tmp_path, capsys, source):
        if isinstance(source, tuple):
            sources, grid = self.grid_sources(tmp_path, 2, grid=source[1])
            source = [*sources[source[0]], "--grid", grid]
        assert run("--out", tmp_path, "moments", *source, "--k", "1..2", "--y", "1") == 0
        payload = json.loads((tmp_path / "moments.json").read_text())
        for k in ("1", "2"):
            assert set(payload["moments"][k]) == {"value"}

    def test_grid_breakdown_only_on_request(self, tmp_path, capsys):
        for grid in (8, 9):
            sources, grid = self.grid_sources(tmp_path, 2, grid=grid)
            for source in sources:
                argv = ["moments", *source, "--k", "1..2", "--grid", grid]
                assert run("--out", tmp_path, *argv) == 0
                entries = json.loads((tmp_path / "moments.json").read_text())["moments"]
                assert [set(entry) for entry in entries.values()] == [{"value"}, {"value"}]
                assert run("--out", tmp_path, *argv, "--breakdown") == 0
                entries = json.loads((tmp_path / "moments.json").read_text())["moments"]
                assert [set(entry) for entry in entries.values()] == [{"value", "breakdown"}] * 2
                assert [set(entry["breakdown"]) for entry in entries.values()] == [
                    {"aa"}, {"aaaa", "aabb", "abba"},
                ]

    def test_grid_csv_input(self, tmp_path, capsys):
        grid = 8
        xs = (np.arange(grid) + 0.5) / grid
        np.savetxt(tmp_path / "g2.csv", np.outer(xs, xs), delimiter=",")
        assert run(
            "--out", tmp_path, "moments", "--g", f"2={tmp_path}/g2.csv",
            "--k", "1", "--y", "1", "--grid", grid,
        ) == 0
        value = float((tmp_path / "moments.csv").read_text().strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_missing_source(self, tmp_path, capsys):
        assert run("--out", tmp_path, "moments", "--k", "1") == EXIT_CONFIG

    def test_sparse_requires_lam(self, tmp_path, capsys):
        assert run("--out", tmp_path, "moments", "--sparse", "--k", "1") == EXIT_CONFIG

    @pytest.mark.parametrize("source, bad", [
        (["--mp", "--y", "1/0"], "--y"),
        (["--mp", "--y", "half"], "--y"),
        (["--sparse", "--lam", "1/0"], "--lam"),
        (["--constant", "2=1/0"], "--constant 2"),
    ])
    def test_malformed_rational_exit(self, tmp_path, capsys, source, bad):
        assert run("--out", tmp_path, "moments", *source, "--k", "1") == EXIT_CONFIG
        assert f"bad {bad} value" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("source, bad", [
        (["--mp", "--k", "x"], "bad --k value 'x'"),
        (["--mp", "--k", "1.."], "bad --k value '1..'"),
        (["--mp", "--k", "3..1"], "bad --k value '3..1'"),
        (["--constant", "x=1", "--k", "1"], "bad --constant entry 'x=1'"),
        (["--constant", "2=1,4", "--k", "1"], "bad --constant entry '4'"),
        (["--g", "x=f.csv", "--k", "1"], "bad --g entry 'x=f.csv'"),
        # a repeated, odd, zero or negative order; the grid files named do
        # not exist, so the message shows the orders were checked first
        (["--constant", "2=1,3=5,2=7", "--k", "1"], "bad --constant order 3"),
        (["--constant", "2=1,4=2,2=7", "--k", "2"], "--constant order 2 is given twice"),
        (["--constant", "0=1", "--k", "1"], "bad --constant order 0"),
        (["--constant", "2=1,-2=1", "--k", "1"], "bad --constant order -2"),
        (["--g", "2=g2.csv", "--g", "2=g2.csv", "--k", "1"], "--g order 2 is given twice"),
        (["--g", "2=g2.csv", "--g", "3=g3.csv", "--k", "1"], "bad --g order 3"),
        (["--profile-csv", "sigma.csv", "--constant", "2=1,2=1", "--k", "1"],
         "--constant order 2 is given twice"),
        # an order above 2 max(k) is read by no sum
        (["--g", "2=g2.csv", "--g", "4=g4.csv", "--k", "1"], "--g order 4 is above 2 max(k) = 2"),
        (["--g", "2=g2.csv", "--g", "4=g4.csv", "--g", "8=g8.csv", "--k", "1..3"],
         "--g order 8 is above 2 max(k) = 6"),
    ])
    def test_malformed_integer_exit(self, tmp_path, capsys, source, bad):
        assert run("--out", tmp_path, "moments", *source) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert bad in err
        assert "invalid literal" not in err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("source, message", [
        (["--mp", "--y", "2", "--k", "1..5", "--breakdown"], "--breakdown does not apply to the mp source"),
        (["--mp", "--k", "1..3", "--sandwich"], "--sandwich does not apply to the mp source"),
        (["--mp", "--k", "1", "--lam", "3"], "--lam does not apply to the mp source"),
        (["--lam", "3", "--sandwich", "--k", "1"], "choose a source"),
        (["--constant", "2=1", "--lam", "3", "--k", "1"], "--lam does not apply to the constant source"),
        (["--constant", "2=1", "--sandwich", "--k", "1"], "--sandwich does not apply to the constant source"),
        (["--mp", "--sparse", "--lam", "3", "--k", "1..2"], "--sparse does not apply to the mp source"),
        (["--sparse", "--lam", "3", "--constant", "2=1", "--k", "1"],
         "--constant does not apply to the sparse source"),
        # the grid file is never opened
        (["--constant", "2=1", "--g", "2=nofile.csv", "--k", "1"],
         "--constant does not apply to the grid source"),
        (["--profile-csv", "nofile.csv", "--constant", "2=1", "--g", "2=nofile.csv", "--k", "1"],
         "--g does not apply to the profile source"),
        (["--sparse", "--lam", "3", "--k", "1", "--grid", "8"], "--grid does not apply to the sparse source"),
        (["--g", "2=nofile.csv", "--k", "1", "--sandwich"], "--sandwich does not apply to the grid source"),
    ])
    def test_option_its_source_does_not_read_exits(self, tmp_path, capsys, source, message):
        assert run("--out", tmp_path, "moments", *source) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_negative_y_exit(self, tmp_path, capsys):
        assert run("--out", tmp_path, "moments", "--mp", "--y", "-1", "--k", "2") == EXIT_CONFIG
        assert "--y must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()
        # y = 0 is the p/n -> 0 limit, where every moment is 1
        assert run("--out", tmp_path, "moments", "--mp", "--y", "0", "--k", "1..3") == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,1", "2,1", "3,1"]

    def test_enumeration_cap_exit(self, tmp_path, capsys):
        assert run(
            "--out", tmp_path, "moments", "--sparse", "--lam", "1", "--y", "1", "--k", "8",
            "--breakdown",
        ) == EXIT_SIZE_LIMIT
        assert "exceeds the enumeration cap 14" in capsys.readouterr().err

    def test_series_limit_exit(self, tmp_path, capsys):
        assert run(
            "--out", tmp_path, "moments", "--sparse", "--lam", "1", "--y", "1", "--k", "13",
        ) == EXIT_SIZE_LIMIT
        assert "MAX_SERIES_ORDER = 12" in capsys.readouterr().err

    def test_exact_values_enumerate_no_word(self, tmp_path, capsys, monkeypatch):
        # the exact verbs read the class table; any word-level work on their
        # value path would call one of these
        def forbidden(*args, **kwargs):
            raise AssertionError("word-level work on the exact value path")

        names = ("enumerate_ss_words", "word_structure", "count_ss", "enumerate_partitions",
                 "is_special_symmetric")
        patched = set()
        for module in (circuits, hypergraphs, moments, partitions, cli):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
                    patched.add(name)
        assert patched == set(names)
        constants = ",".join(f"{2 * j}={Fraction(1, j)}" for j in range(1, 8))
        assert run(
            "--out", tmp_path, "moments", "--sparse", "--lam", "3", "--y", "1/2", "--k", "1..7",
        ) == 0
        assert run(
            "--out", tmp_path, "moments", "--constant", constants, "--y", "2", "--k", "1..7",
        ) == 0
        assert run("--out", tmp_path, "hypergraph", "--k", 7) == 0
        assert run("--out", tmp_path, "count", "--k", 7) == 0
        assert run("--out", tmp_path, "count", "--k", 7, "--pair-only") == 0

    @staticmethod
    def grid_sources(tmp_path, max_k, grid=4):
        """--profile-csv and --g argument lists covering every order up to 2 max_k."""
        xs = (np.arange(grid) + 0.5) / grid
        np.savetxt(tmp_path / "sigma.csv", 0.5 + np.outer(xs, xs), delimiter=",")
        g_args = []
        for s in range(2, 2 * max_k + 1, 2):
            np.savetxt(tmp_path / f"g{s}.csv", 1 / s + np.add.outer(xs, xs), delimiter=",")
            g_args += ["--g", f"{s}={tmp_path}/g{s}.csv"]
        constants = ",".join(f"{s}={Fraction(2, s)}" for s in range(2, 2 * max_k + 1, 2))
        return [
            ["--profile-csv", tmp_path / "sigma.csv", "--constant", constants],
            g_args,
        ], grid

    def test_grid_values_enumerate_no_word(self, tmp_path, capsys, monkeypatch):
        # the quadrature sources run the sojourn series over grid functions
        def forbidden(*args, **kwargs):
            raise AssertionError("word-level work on the grid value path")

        names = ("enumerate_ss_words", "word_structure")
        patched = set()
        for module in (hypergraphs, moments, cli):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
                    patched.add(name)
        assert patched == set(names)
        sources, grid = self.grid_sources(tmp_path, 6)
        for source in sources:
            assert run(
                "--out", tmp_path, "moments", *source, "--y", "1/2", "--k", "1..6", "--grid", grid,
            ) == 0

    def test_grid_sources_reach_the_series_limit(self, tmp_path, capsys):
        # each run's --g files stop at 2 max(k), the highest order it reads
        def argv(source, grid):
            return ["--out", tmp_path, "moments", *source, "--y", "1/2", "--grid", grid]

        sources, grid = self.grid_sources(tmp_path, 12)
        for source in sources:
            assert run(*argv(source, grid), "--k", "8..12") == 0
            rows = (tmp_path / "moments.csv").read_text().strip().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == [str(k) for k in range(8, 13)]
        capsys.readouterr()
        sources, grid = self.grid_sources(tmp_path, 13)
        for source in sources:
            assert run(*argv(source, grid), "--k", "13") == EXIT_SIZE_LIMIT
            assert "MAX_SERIES_ORDER = 12" in capsys.readouterr().err
        # the per-word breakdown lists the words, so it keeps the enumeration cap
        sources, grid = self.grid_sources(tmp_path, 8)
        for source in sources:
            assert run(*argv(source, grid), "--k", "8", "--breakdown") == EXIT_SIZE_LIMIT
            assert "exceeds the enumeration cap 14" in capsys.readouterr().err

    def test_one_series_pass_per_grid_call(self, tmp_path, capsys, monkeypatch):
        # one series serves every k
        calls = []
        series = moments._sojourn_series
        monkeypatch.setattr(
            moments, "_sojourn_series", lambda *args: calls.append(args[0]) or series(*args)
        )
        sources, grid = self.grid_sources(tmp_path, 6, grid=64)
        for source in sources:
            calls.clear()
            assert run(
                "--out", tmp_path, "moments", *source, "--y", "1/2", "--k", "1..6", "--grid", grid,
            ) == 0
            assert calls == [6]

    @staticmethod
    def grid_inputs(tmp_path, max_k):
        """The sigma, constants and g functions that grid_sources wrote, as the CLI reads them."""
        sigma = np.loadtxt(tmp_path / "sigma.csv", delimiter=",", ndmin=2)
        constants = {s: Fraction(2, s) for s in range(2, 2 * max_k + 1, 2)}
        g = {s: np.loadtxt(tmp_path / f"g{s}.csv", delimiter=",", ndmin=2) for s in constants}
        return sigma, constants, g

    def test_grid_outputs_equal_per_k_reports(self, tmp_path, capsys):
        sources, grid = self.grid_sources(tmp_path, 6, grid=8)
        sigma, constants, g = self.grid_inputs(tmp_path, 6)
        per_k = {
            "profile": lambda k: moments.moment_profile(k, Fraction(1, 2), sigma, constants, grid=grid),
            "grid": lambda k: moments.moment_grid(k, Fraction(1, 2), g, grid=grid),
        }
        for source, name in zip(sources, ("profile", "grid")):
            assert run(
                "--out", tmp_path, "moments", *source, "--y", "1/2", "--k", "1..6", "--grid", grid,
            ) == 0
            reports = [per_k[name](k) for k in range(1, 7)]
            assert (tmp_path / "moments.csv").read_text() == "k,value\n" + "".join(
                f"{r.k},{cli.fmt(r.value)}\n" for r in reports
            )
            payload = {"source": name, "y": "0.5", "moments": {
                str(r.k): {"value": cli.fmt(r.value)} for r in reports
            }}
            assert (tmp_path / "moments.json").read_text() == json.dumps(payload, indent=1)

    def test_grid_breakdown_lists_every_word(self, tmp_path, capsys):
        sources, grid = self.grid_sources(tmp_path, 4, grid=8)
        sigma, constants, g = self.grid_inputs(tmp_path, 4)
        for source, name in zip(sources, ("profile", "grid")):
            assert run(
                "--out", tmp_path, "moments", *source, "--y", "1/2", "--k", "1..4", "--grid", grid,
                "--breakdown",
            ) == 0
            entries = json.loads((tmp_path / "moments.json").read_text())["moments"]
            for k in range(1, 5):
                if name == "profile":
                    report = moments.moment_profile(k, Fraction(1, 2), sigma, constants, grid, True)
                else:
                    report = moments.moment_grid(k, Fraction(1, 2), g, grid, True)
                words = [w.text for w in hypergraphs.enumerate_ss_words(k)]
                assert list(entries[str(k)]["breakdown"]) == words
                assert entries[str(k)]["breakdown"] == {
                    w: cli.fmt(v) for w, v in report.breakdown.items()
                }

    def test_grid_failures_write_no_csv(self, tmp_path, capsys):
        # the g functions and constants stop at order 10, which k = 6 needs as 12
        sources, grid = self.grid_sources(tmp_path, 5)
        for i, source in enumerate(sources):
            out = tmp_path / f"out{i}"
            argv = ["--out", out, "moments", *source, "--y", "1/2", "--grid", grid]
            assert run(*argv, "--k", "1..6") == EXIT_CONFIG
            assert "even moment order 12" in capsys.readouterr().err
            assert not (out / "moments.csv").exists()
        sources, grid = self.grid_sources(tmp_path, 13)
        for i, source in enumerate(sources):
            out = tmp_path / f"limit{i}"
            argv = ["--out", out, "moments", *source, "--y", "1/2", "--grid", grid]
            assert run(*argv, "--k", "1..13") == EXIT_SIZE_LIMIT
            assert "MAX_SERIES_ORDER = 12" in capsys.readouterr().err
            assert not (out / "moments.csv").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_sample_exit(self, tmp_path, capsys, bad):
        # the first non-finite sample is named, and nothing is written
        sources, grid = self.grid_sources(tmp_path, 2)
        for name, path in (("sigma", "sigma.csv"), ("g_4", "g4.csv")):
            samples = np.loadtxt(tmp_path / path, delimiter=",", ndmin=2)
            samples[3, 1] = bad
            samples[3, 2] = np.nan
            np.savetxt(tmp_path / path, samples, delimiter=",")
            source = sources[0] if name == "sigma" else sources[1]
            out = tmp_path / name
            argv = ["--out", out, "moments", *source, "--y", "1/2", "--grid", grid, "--k", "1..2"]
            assert run(*argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{name} has the non-finite sample {bad} at index (3, 1)" in err
            assert not out.exists()

    def test_grid_breakdown_beyond_the_cap_lists_no_word(self, tmp_path, capsys, monkeypatch):
        # the largest k's breakdown is built first, so the cap fails before any listing
        calls = []
        search = moments.enumerate_ss_words
        monkeypatch.setattr(moments, "enumerate_ss_words", lambda k: calls.append(k) or search(k))
        sources, grid = self.grid_sources(tmp_path, 8)
        for source in sources:
            calls.clear()
            argv = ["--out", tmp_path, "moments", *source, "--y", "1/2", "--grid", grid]
            assert run(*argv, "--k", "1..8", "--breakdown") == EXIT_SIZE_LIMIT
            assert "exceeds the enumeration cap 14" in capsys.readouterr().err
            assert calls == [8]

    def test_one_series_per_exact_verb(self, tmp_path, capsys, monkeypatch):
        # the largest k is evaluated first, and its class tables serve the rest
        monkeypatch.setattr(hypergraphs, "_built", ())
        calls = []
        series = hypergraphs._sojourn_series
        monkeypatch.setattr(
            hypergraphs, "_sojourn_series", lambda *args: calls.append(args[0]) or series(*args)
        )
        assert run(
            "--out", tmp_path, "moments", "--sparse", "--lam", "3", "--y", "1/2", "--k", "1..7",
        ) == 0
        assert calls == [7]
        rows = (tmp_path / "moments.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(1, 8)]


class TestSimulate:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_flat_config_artifacts(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            '[simulate]\nfamily = "sparse_bernoulli"\nlam = 3\np = 30\nn = 60\n'
            "replicates = 3\nseed = 7\nK = 2\n# comment\n",
        )
        assert run("--out", tmp_path, "simulate", "--config", cfg, "--gnuplot") == 0
        for name in ("moments.csv", "hist.csv", "diag.csv", "hist.gp"):
            assert (tmp_path / name).exists()
        hist = (tmp_path / "hist.csv").read_text().strip().splitlines()[1:]
        assert sum(int(r.split(",")[2]) for r in hist) == 30 * 3

    def test_json_config_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "iid_standardized", "p": 20, "n": 40, "replicates": 2, "seed": 5, "K": 2,
        }))
        assert run("--out", tmp_path / "a", "simulate", "--config", cfg) == 0
        assert run("--out", tmp_path / "b", "simulate", "--config", cfg) == 0
        assert (tmp_path / "a/moments.csv").read_text() == (tmp_path / "b/moments.csv").read_text()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "iid_standardized", "p": 20, "n": 40, "replicates": 2, "seed": 5, "K": 2,
        }))
        assert run("--out", tmp_path / "a", "simulate", "--config", cfg) == 0
        assert run("--out", tmp_path / "b", "simulate", "--config", cfg, "--seed", 6) == 0
        assert (tmp_path / "a/moments.csv").read_text() != (tmp_path / "b/moments.csv").read_text()

    def test_triangular_reports_achieved(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            "family = triangular_iid\nc2 = 2\nc4 = 8\np = 20\nn = 40\nreplicates = 2\nK = 2\n",
        )
        assert run("--out", tmp_path, "simulate", "--config", cfg) == 0
        assert "achieved" in capsys.readouterr().out

    def test_bad_config_exit(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "family = sparse_bernoulli\np = 30\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "family = iid_standardized\np = 4\nn = 8\nbogus = 1\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG

    def test_workers_removed(self, tmp_path, capsys):
        # replicates run one after another; a config key or flag that asks
        # for workers is rejected, not silently ignored
        cfg = self.write_config(tmp_path, "family = iid_standardized\np = 4\nn = 8\nworkers = 2\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        assert "'workers'" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()
        with pytest.raises(SystemExit) as exc:
            run("--out", tmp_path, "simulate", "--config", cfg, "--workers", "2")
        assert exc.value.code == EXIT_CONFIG

    def test_missing_file_exit(self, tmp_path, capsys):
        assert run("simulate", "--config", tmp_path / "nope.cfg") == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("p", 3.9), ("n", True), ("K", 2.7), ("replicates", True), ("seed", 1.5),
        ("p", "x"), ("K", "x"), ("lam", "x"), ("alpha", "x"), ("B", "x"), ("c2", "x"), ("c4", "x"),
        ("lam", None),
        ("t_n", True), ("t_n", None), ("t_n", [0.5]),
        ("bins", True), ("bins", 2.5), ("bins", None), ("bins", [0, True]), ("bins", [0, "1"]),
    ])
    def test_malformed_number_names_its_key(self, tmp_path, capsys, monkeypatch, key, value):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "iid_standardized", "p": 4, "n": 8, key: value}))
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config key {key!r} must be" in err
        assert "invalid literal" not in err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("t_n", 0.5), ("t_n", 2), ("t_n", "n^{-1/3}"), ("bins", 7), ("bins", "fd"), ("bins", [0, 0.5, 10]),
    ])
    def test_truncation_and_bins_forms_accepted(self, key, value):
        cfg, extras = cli.config_to_ensemble({"family": "iid_standardized", "p": 4, "n": 8, key: value})
        assert (cfg.t_n if key == "t_n" else extras["bins"]) == value

    @pytest.mark.parametrize("profile", [[[1, 2, 3, 4]] * 3, 2.5, "nope"], ids=["list", "number", "name"])
    def test_bad_profile_exits_before_output(self, tmp_path, capsys, profile):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "variance_profile", "lam": 3, "p": 3, "n": 4, "profile": profile,
        }))
        assert run("--out", tmp_path / "out", "simulate", "--config", cfg) == EXIT_CONFIG
        assert "array of shape (3, 4)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, lines", [
        ("sparse_bernoulli", "lam = -1"),
        ("sparse_bernoulli", "lam = nan"),
        ("sparse_bernoulli", "lam = 9"),
        ("variance_profile", "profile = fig1_quadratic\nlam = -1"),
        ("variance_profile", "profile = fig1_quadratic\nlam = nan"),
        ("iid_standardized", "t_n = nan"),
        ("triangular_iid", "c2 = nan"),
        ("heavy_tail_stable", "alpha = 1.5\nB = nan"),
        ("triangular_iid", "c2 = 2\nc4 = nan"),
        ("triangular_iid", "c2 = 2\nc4 = -1"),
        ("triangular_iid", "c2 = 2\nc4 = 0"),
    ], ids=["lam-negative", "lam-nan", "lam-above-n", "profile-lam-negative", "profile-lam-nan",
            "t_n-nan", "c2-nan", "B-nan", "c4-nan", "c4-negative", "c4-zero"])
    def test_bad_rate_fails_before_sampling(self, tmp_path, capsys, monkeypatch, family, lines):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = self.write_config(tmp_path, f"family = {family}\np = 4\nn = 8\n{lines}\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("line, flags", [("seed = -3", []), ("", ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_fails_before_sampling(self, tmp_path, capsys, monkeypatch, line, flags):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = self.write_config(tmp_path, f"family = iid_standardized\np = 4\nn = 8\n{line}\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg, *flags) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_overflowed_draw_runs(self, tmp_path):
        # the raw stable transform overflows at alpha = 0.01; truncation
        # zeroes those entries instead of turning them into NaN
        cfg = self.write_config(
            tmp_path,
            "family = heavy_tail_stable\np = 20\nn = 40\nalpha = 0.01\nB = 10\nreplicates = 2\nbins = 10\n",
        )
        with np.errstate(over="ignore"):
            assert run("--out", tmp_path, "simulate", "--config", cfg) == 0
        assert (tmp_path / "diag.csv").read_text().splitlines()[1].startswith("0,inf,")

    @pytest.mark.parametrize("line", ['bins = "bogus"', "bins = 2.5", "bins = 0", "K = 0"])
    def test_bad_bins_or_order_fail_before_sampling(self, tmp_path, capsys, monkeypatch, line):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = self.write_config(tmp_path, f"family = iid_standardized\np = 4\nn = 8\n{line}\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        if line == "K = 0":
            assert "'K'" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_fd_bins_on_rank_deficient_config_exit(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = self.write_config(tmp_path, "family = iid_standardized\np = 40\nn = 8\nreplicates = 2\n")
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bins='fd'" in err and "rank deficient" in err
        assert "Traceback" not in err
        assert not (tmp_path / "moments.csv").exists()

    def test_fd_bins_on_zero_interquartile_range_exit(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            "family = sparse_bernoulli\np = 100\nn = 100\nlam = 0.1\nreplicates = 2\nseed = 1729\n",
        )
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bins='fd'" in err and "zero interquartile range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "moments.csv").exists()

    def test_fd_bins_on_rounding_noise_interquartile_range_exit(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "family = sparse_bernoulli\np = 200\nn = 60\nlam = 0.5\nreplicates = 2\n"
        )
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bins='fd'" in err and "zero interquartile range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("run.cfg", "family = iid_standardized\np = 20\nn = 40\np = 30\n",
         "run.cfg:4: config key 'p' repeats line 2"),
        # sections do not scope keys
        ("run.cfg", "[size]\np = 20\nn = 40\n[model]\nfamily = iid_standardized\np = 30\n",
         "run.cfg:6: config key 'p' repeats line 2"),
        ("run.json", '{"family": "iid_standardized", "p": 20, "n": 40, "p": 30}',
         "run.json: config key 'p' is repeated"),
    ], ids=["flat", "flat-sections", "json"])
    def test_repeated_key_fails_before_sampling(self, tmp_path, capsys, monkeypatch, name, text, message):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = tmp_path / name
        cfg.write_text(text)
        assert run("--out", tmp_path, "simulate", "--config", cfg) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()


class TestLoadConfig:
    def test_quotes_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text('family = "iid_standardized"\np = 10\nn = 20\nt_n = "n^{-1/3}"\nflag = true\n')
        data = load_config(str(path))
        assert data == {
            "family": "iid_standardized", "p": 10, "n": 20, "t_n": "n^{-1/3}", "flag": True,
        }


class TestHypergraphVerb:
    @pytest.mark.parametrize("payload", [
        {"word": "aabb", "sigma": [[1, 2]], "tau": [[1], [2]], "acyclic": True,
         "incidence": {"0": [0], "1": [0]}},
        {"word": "abba", "sigma": [[1], [2]], "tau": [[1, 2]], "acyclic": True,
         "incidence": {"0": [0, 1]}},
        {"word": "abccbadd", "sigma": [[1, 4], [2, 3]], "tau": [[1, 3], [2], [4]], "acyclic": True,
         "incidence": {"0": [0, 1], "1": [1], "2": [0]}},
    ], ids=lambda payload: payload["word"])
    def test_word(self, capsys, payload):
        assert run("hypergraph", "--word", payload["word"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_class_table(self, tmp_path, capsys):
        assert run("--out", tmp_path, "hypergraph", "--k", 2) == 0
        lines = (tmp_path / "counts.csv").read_text().strip().splitlines()
        assert lines[0] == "k,a,l,multiset,count"
        assert set(lines[1:]) == {"2,1,1,4,1", "2,2,1,2|2,1", "2,2,2,2|2,1"}

    def test_class_table_beyond_enumeration(self, tmp_path, capsys):
        assert run("--out", tmp_path, "hypergraph", "--k", 9) == 0
        assert "467963 special symmetric words of length 18 in 128 classes" in capsys.readouterr().out
        assert run("--out", tmp_path, "hypergraph", "--k", 13) == EXIT_SIZE_LIMIT
        assert "MAX_SERIES_ORDER = 12" in capsys.readouterr().err

    def test_non_ss_word(self, capsys):
        assert run("hypergraph", "--word", "abab") == EXIT_CONFIG
        assert "abab is not special symmetric" in capsys.readouterr().err

    def test_odd_length_word(self, capsys):
        assert run("hypergraph", "--word", "abc") == EXIT_CONFIG
        assert "positive even length" in capsys.readouterr().err


# the ordered (name, detail) lines of `verify --max-k 3` and `--max-k 6`
_QUADRATURE_DETAIL = ("quadrature reproduces constant sums to 1e-10, its word terms to 1e-12, "
                      "the xy integral to 1e-6 and the DT limits within their O(1/G) bounds "
                      "up to k={}").format
VERIFY_DETAILS = {
    3: [
        ("ss-definition-examples", "both reference partitions of {1..8} classify as stated"),
        ("nc2-catalan", "pair censuses match Catalan numbers up to k=3"),
        ("narayana-pair-census", "pair-matched counts equal Narayana numbers up to k=3"),
        ("census-exact-counts", "exact counts p^(r+1) n^(b-r) for all words of length <= 6"),
        ("wigner-containment", "covariance census <= Wigner census for all words of length <= 6"),
        ("mp-constant-reduction", "constant-sequence reduction equals the Narayana polynomial up to k=3"),
        ("sparse-sandwich", "bounds contain the sparse moments (strictly for 2 <= k <= 3)"),
        ("hypergraph-roundtrip", "round trips and acyclic-pair counts agree up to 2k=6"),
        ("noiry-class-totals", "class totals equal the special symmetric census up to 2k=6"),
        ("grid-quadrature", _QUADRATURE_DETAIL(3)),
        ("unbounded-support-bound", "factorial lower bounds stay below the quadrature moments"),
        ("simulation-contracts", "deterministic rerun, PSD floor, moments equal Tr S^k / p within 1e-12"),
    ],
    6: [
        ("ss-definition-examples", "both reference partitions of {1..8} classify as stated"),
        ("nc2-catalan", "pair censuses match Catalan numbers up to k=5"),
        ("narayana-pair-census", "pair-matched counts equal Narayana numbers up to k=6"),
        ("census-exact-counts", "exact counts p^(r+1) n^(b-r) for all words of length <= 6"),
        ("wigner-containment", "covariance census <= Wigner census for all words of length <= 6"),
        ("mp-constant-reduction", "constant-sequence reduction equals the Narayana polynomial up to k=6"),
        ("sparse-sandwich", "bounds contain the sparse moments (strictly for 2 <= k <= 4)"),
        ("hypergraph-roundtrip", "round trips and acyclic-pair counts agree up to 2k=8"),
        ("noiry-class-totals", "class totals equal the special symmetric census up to 2k=8"),
        ("grid-quadrature", _QUADRATURE_DETAIL(6)),
        ("unbounded-support-bound", "factorial lower bounds stay below the quadrature moments"),
        ("simulation-contracts", "deterministic rerun, PSD floor, moments equal Tr S^k / p within 1e-12"),
    ],
}


def _raise(f):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")
    return broken


# one library function per check, wrapped so that it returns a wrong value
# (or, in the last case, raises); each wrapper leaves the other checks'
# calls at --max-k 3 correct
VERIFY_BREAKS = [
    ("ss-definition-examples", partitions, "is_special_symmetric",
     lambda f: lambda p: f(p) or p.as_lists() == [[1, 2, 6, 7], [3, 4, 5, 8]]),
    ("nc2-catalan", partitions, "catalan", lambda f: lambda k: f(k) + 1),
    ("narayana-pair-census", partitions, "narayana", lambda f: lambda k, r: f(k, r) + 1),
    # one covariance circuit too few, so that the S count stays within the
    # Wigner count that wigner-containment compares it with
    ("census-exact-counts", circuits, "census_s",
     lambda f: lambda w, p, n: dataclasses.replace(f(w, p, n), exact_count=f(w, p, n).exact_count - 1)),
    # one Wigner circuit too few breaks the bound on every special symmetric
    # word, where both censuses count N^(b+1); census_w has no other caller
    ("wigner-containment", circuits, "census_w",
     lambda f: lambda w, N: dataclasses.replace(f(w, N), exact_count=f(w, N).exact_count - 1)),
    ("mp-constant-reduction", moments, "mp_moment", lambda f: lambda k, y: f(k, y) + 1),
    ("sparse-sandwich", moments, "poisson_sandwich", lambda f: lambda k, y, lam: f(k, y, lam)[::-1]),
    ("hypergraph-roundtrip", hypergraphs, "count_acyclic_pairs", lambda f: lambda k: {**f(k), 0: 1}),
    ("hypergraph-roundtrip", hypergraphs, "is_acyclic", lambda f: lambda h: not f(h)),
    ("noiry-class-totals", hypergraphs, "count_noiry_classes", lambda f: lambda k: {**f(k), None: 1}),
    ("grid-quadrature", moments, "moment_grid",
     lambda f: lambda *a, **kw: dataclasses.replace(f(*a, **kw), value=f(*a, **kw).value + 1)),
    ("unbounded-support-bound", moments, "unbounded_support_bound",
     lambda f: lambda *a, **kw: f(*a, **kw) + 100),
    ("simulation-contracts", ensembles, "sample_matrix", lambda f: lambda cfg, r: 2 * f(cfg, r)),
    # the DT sub-check of grid-quadrature is the one caller of profile_moments
    ("grid-quadrature", moments, "profile_moments", lambda f: lambda *a, **kw: {
        k: dataclasses.replace(r, value=r.value + 1e-3) for k, r in f(*a, **kw).items()
    }),
    pytest.param("wigner-containment", circuits, "census_w", _raise, id="raises"),
]


def _verify_lines(out: str) -> list[tuple[str, str, str]]:
    """(status, name, detail) of each check line, without the seconds column."""
    lines = out.splitlines()
    assert lines[-1].startswith("verify: ")
    parsed = [re.fullmatch(r"(PASS|FAIL)  (\S+) +\d+\.\d\ds  (.*)", line) for line in lines[:-1]]
    assert all(parsed), lines
    return [m.groups() for m in parsed]


class TestVerify:
    @pytest.mark.parametrize("max_k", sorted(VERIFY_DETAILS))
    def test_pinned_output(self, tmp_path, capsys, max_k):
        assert run("--out", tmp_path, "verify", "--max-k", max_k) == 0
        expected = VERIFY_DETAILS[max_k]
        lines = _verify_lines(capsys.readouterr().out)
        assert lines == [("PASS", name, detail) for name, detail in expected]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["max_k"] == max_k and report["all_passed"] is True
        assert [(c["name"], c["detail"]) for c in report["checks"]] == expected
        assert all(c["passed"] is True for c in report["checks"])

    @pytest.mark.parametrize("name,module,attr,make", VERIFY_BREAKS)
    def test_broken_library_function_fails_its_check(self, tmp_path, capsys, monkeypatch,
                                                     name, module, attr, make):
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
        assert run("--out", tmp_path, "verify", "--max-k", 3) == cli.EXIT_CONTRACT
        out = capsys.readouterr().out
        lines = _verify_lines(out)
        assert [line[1] for line in lines] == [n for n, _ in VERIFY_DETAILS[3]]
        assert [line[1] for line in lines if line[0] == "FAIL"] == [name]
        assert "verify: FAILURES PRESENT" in out
        if make is _raise:
            failed = next(line for line in lines if line[0] == "FAIL")
            assert failed[2] == "RuntimeError: injected"
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [name]

    def test_all_pass(self, tmp_path, capsys):
        assert run("--out", tmp_path, "verify", "--max-k", 2) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 12
        out = capsys.readouterr().out
        assert out.count("PASS") == 12
        assert "FAIL" not in out

    def test_largest_max_k_is_where_the_ranges_stop_growing(self, monkeypatch):
        def ranges(max_k):
            received = []
            for name in dir(cli):
                if name.startswith("check_"):
                    monkeypatch.setattr(cli, name, lambda *args, name=name: received.append((name, args)))
            for _, check in cli.VERIFY_CHECKS:
                check(max_k)
            return received

        top = cli.MAX_VERIFY_K
        assert ranges(top - 1) != ranges(top) == ranges(top + 1) == ranges(100)

    @pytest.mark.parametrize("max_k", [7, 20])
    def test_max_k_above_the_largest_cap_exit(self, tmp_path, capsys, max_k):
        # no check's range grows past --max-k 6, so a larger value would run
        # the --max-k 6 suite under another name
        assert run("--out", tmp_path, "verify", "--max-k", max_k) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"--max-k must be at most 6, the largest value that adds checks, got {max_k}" in captured.err
        assert "PASS" not in captured.out
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("max_k", [0, -1])
    def test_max_k_below_one_exit(self, tmp_path, capsys, max_k):
        assert run("--out", tmp_path, "verify", "--max-k", max_k) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--max-k must be at least 1" in captured.err
        assert "PASS" not in captured.out
        assert not (tmp_path / "verify_report.json").exists()


def test_console_script_installed(tmp_path):
    # the subprocess must import the same covmoments as this test, which
    # pytest's `pythonpath` setting does not pass on to child processes
    package_root = str(Path(covmoments.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "covmoments.cli", "classify", "[[1,2]]"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["is_special_symmetric"] is True


def test_readme_command_lines_parse():
    # every `covmoments ...` line in the README's sh blocks must parse, so a
    # deleted option cannot linger in the documentation
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("covmoments ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        argv = [token[1:-1] if token.startswith("[-") and token.endswith("]") else token
                for token in shlex.split(line)[1:]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
