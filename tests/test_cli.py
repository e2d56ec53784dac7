"""Command-line behavior: determinism, exit codes, file outputs."""

import json
from fractions import Fraction

import pytest

from ugwldp.cli import main
from ugwldp.config_model import (
    DegreeSequence,
    colorblind,
    has_cycle_leq,
    read_colored_graph,
    write_degree_file,
)
from ugwldp.neighborhood import NeighborhoodLaw, poisson_law
from ugwldp.rooted import LabeledRootedGraph, canonicalize


@pytest.fixture
def regular_degrees(tmp_path):
    path = tmp_path / "D.txt"
    write_degree_file(path, DegreeSequence.single_color([3] * 20))
    return str(path)


@pytest.fixture
def tiny_cycle_degrees(tmp_path):
    path = tmp_path / "D22.txt"
    write_degree_file(path, DegreeSequence.single_color([2, 2]))
    return str(path)


@pytest.fixture
def regular3_law(tmp_path):
    path = tmp_path / "d3.json"
    NeighborhoodLaw.from_degree_law({3: Fraction(1)}).dump(path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDeterminism:
    def test_sample_ugw_repeatable(self, capsys, regular3_law, tmp_path):
        t1 = tmp_path / "a.txt"
        t2 = tmp_path / "b.txt"
        args = ["sample-ugw", "--law", regular3_law, "--depth", "4", "--seed", "7"]
        code1, out1, _ = run(capsys, *args, "--tree-out", str(t1))
        code2, out2, _ = run(capsys, *args, "--tree-out", str(t2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert t1.read_bytes() == t2.read_bytes()

    def test_schema_field(self, capsys, regular3_law):
        code, out, _ = run(capsys, "jh", "--law", regular3_law)
        payload = json.loads(out)
        assert payload["schema"] == "ugw-ldp/v1"


class TestSampling:
    def test_sample_cm(self, capsys, regular_degrees, tmp_path):
        gpath = tmp_path / "G.txt"
        code, out, _ = run(
            capsys,
            "sample-cm",
            "--degrees",
            regular_degrees,
            "--seed",
            "3",
            "--graph-out",
            str(gpath),
        )
        assert code == 0
        G = read_colored_graph(gpath)
        from ugwldp.config_model import degree_sequence_of

        assert degree_sequence_of(G) == DegreeSequence.single_color([3] * 20)

    def test_sample_gdh_respects_girth(self, capsys, regular_degrees, tmp_path):
        gpath = tmp_path / "G.txt"
        code, out, _ = run(
            capsys,
            "sample-gdh",
            "--degrees",
            regular_degrees,
            "--girth",
            "3",
            "--seed",
            "5",
            "--graph-out",
            str(gpath),
        )
        assert code == 0
        # One draw's attempt count is reported as such, not as a rate.
        assert set(json.loads(out)) == {
            "schema",
            "n",
            "L",
            "seed",
            "attempts",
            "no_cycle_up_to",
        }
        G = read_colored_graph(gpath)
        assert not has_cycle_leq(colorblind(G), 2)

    def test_sample_bipartite(self, capsys, tmp_path):
        tpath = tmp_path / "t.txt"
        code, out, _ = run(
            capsys,
            "sample-bipartite",
            "--p1",
            "2:1",
            "--p2",
            "3:1",
            "--depth",
            "3",
            "--seed",
            "1",
            "--tree-out",
            str(tpath),
        )
        assert code == 0
        assert json.loads(out)["n_vertices"] > 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample-ugw"])  # missing required flags
        assert exc.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--quick"],
            ["sample-ugw", "--depth", "2", "--law", "x.json"],
            ["cycles", "--n", "20", "--samples", "2"],
        ],
    )
    def test_threads_only_on_experiments(self, capsys, argv):
        # No command takes --threads: the experiments run serially.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["jh", "--law", "x.json", "--seed", "1"], "--seed"),
            (["delta", "--law", "x.json", "--seed", "1"], "--seed"),
            (["verify", "--quick", "--seed", "1"], "--seed"),
            (["verify", "--quick", "--out", "x"], "--out"),
            (["verify", "--quick", "--format", "csv"], "--format"),
        ],
    )
    def test_flag_the_command_does_not_read_exit1(self, capsys, argv, flag):
        # Entropy commands draw no random numbers, and verify prints its
        # own PASS/FAIL lines: a flag they would ignore is refused.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    def test_invalid_degrees_exit1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        write_degree_file(path, DegreeSequence.single_color([1]))
        code, _, err = run(capsys, "sample-cm", "--degrees", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["cycles", "--d", "0", "--n", "10", "--samples", "2"], "d"),
            (["cycles", "--n", "0", "--samples", "2"], "n"),
            (["cycles", "--n", "10", "--samples", "0"], "samples"),
            (["concentrate", "--d", "0", "--n-list", "10", "--samples", "2"], "d"),
            (["concentrate", "--n-list", "10,0", "--samples", "2"], "n_list[1]"),
            (["concentrate", "--n-list", "10", "--samples", "0"], "samples"),
            (["converge", "--degree-law", "3:1", "--n-list", "10", "--samples", "0"], "samples"),
            (["converge", "--degree-law", "3:1", "--n-list", "10", "--depth", "0"], "depth"),
            (["converge", "--degree-law", "3:1", "--n-list", "10,0"], "n_list[1]"),
        ],
    )
    def test_experiment_parameter_below_one_exit1(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {name} must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sigma-ugw1", "--degree-law", "2:1/2"], "total mass 1/2, not 1"),
            (["rate-degree-fixed", "--degree-law", "2:3", "--d", "6"], "total mass 3, not 1"),
            (["sigma-ugw1", "--degree-law", "2:0.5,3:0.4"], "total mass 0.9, not 1"),
            (["sigma-ugw1", "--degree-law", "2:1/2,2:1/2"], "'2:1/2': degrees must be distinct"),
            (["sigma-ugw1", "--degree-law=-1:1"], "'-1:1': degrees must be distinct"),
            (["sigma-ugw1", "--degree-law", "1:-1/2,2:3/2"], "'1:-1/2': degrees must be"),
            (["disc-bound", "--p1", "2:1", "--p2", "3:2/3"], "total mass 2/3, not 1"),
            (["converge", "--degree-law", "3:1/2", "--n-list", "10"], "total mass 1/2"),
        ],
    )
    def test_degree_law_literal_rejected_exit1(self, capsys, argv, message):
        # A literal must be a probability law: its weights are never
        # renormalized or read as counts.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_sample_bipartite_negative_depth_exit1(self, capsys):
        argv = ["sample-bipartite", "--p1", "2:1", "--p2", "3:1", "--depth", "-2"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: output depth -2 is negative\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n3 9\n3\n", "row 0 has 2 entries, expected 1"),
            ("1 2\n3\n", "header gives 2 rows, the file has 1"),
            ("1 1\n2\n2\n", "header gives 1 rows, the file has 2"),
            ("1\n2\n", "expected 2, got 1"),
        ],
    )
    def test_degree_file_rejected_exit1(self, capsys, tmp_path, text, message):
        path = tmp_path / "D.txt"
        path.write_text(text, encoding="utf-8")
        for command in ("sample-cm", "sample-gdh"):
            argv = [command, "--degrees", str(path)]
            if command == "sample-gdh":
                argv += ["--girth", "3"]
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and message in err

    def test_rejection_exhaustion_exit2(self, capsys, tiny_cycle_degrees):
        code, _, err = run(
            capsys,
            "sample-gdh",
            "--degrees",
            tiny_cycle_degrees,
            "--girth",
            "3",
            "--max-attempts",
            "40",
        )
        assert code == 2
        # Zero successes in 40 tries bound no acceptance rate, so none is claimed.
        assert err == "sampling failed: no short-cycle-free sample in 40 attempts\n"

    def test_invalid_law_exit3(self, capsys, tmp_path):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        path = tmp_path / "bad.json"
        NeighborhoodLaw.point_mass(chain).dump(path)
        code, _, err = run(capsys, "jh", "--law", str(path))
        assert code == 3
        code, _, _ = run(capsys, "rate-edges", "--law", str(path), "--d", "1")
        assert code == 3
        code, _, _ = run(capsys, "sample-ugw", "--law", str(path), "--depth", "3")
        assert code == 3


class TestEntropyCommands:
    def test_jh_regular3(self, capsys, regular3_law):
        code, out, _ = run(capsys, "jh", "--law", regular3_law)
        assert code == 0
        val = json.loads(out)["value"]
        assert abs(val - (-1.6438410362258904)) < 1e-9

    def test_sigma_ugw1_poisson(self, capsys):
        import math

        deg = poisson_law(2.0, tail=1e-14).degree_law()
        literal = ",".join(f"{k}:{p!r}" for k, p in sorted(deg.items()))
        code, out, _ = run(capsys, "sigma-ugw1", "--degree-law", literal)
        assert code == 0
        val = json.loads(out)["value"]
        assert abs(val - (1 - math.log(2))) < 1e-9

    def test_rate_binomial_poisson(self, capsys, tmp_path):
        lam = 2.0
        path = tmp_path / "poi.json"
        poisson_law(lam, tail=1e-14).dump(path)
        code, out, _ = run(
            capsys, "rate-binomial", "--law", str(path), "--lam", repr(lam)
        )
        assert code == 0
        assert abs(json.loads(out)["value"]) <= 1e-8

    def test_rate_degrees_infinite(self, capsys, regular3_law):
        code, out, _ = run(
            capsys, "rate-degrees", "--law", regular3_law, "--degree-law", "2:1"
        )
        assert code == 0
        assert json.loads(out)["value"] == "+inf"

    def test_disc_bound(self, capsys):
        code, out, _ = run(capsys, "disc-bound", "--p1", "2:1", "--p2", "3:1")
        assert code == 0
        assert abs(json.loads(out)["value"] - (-1.4407945608651872)) < 1e-9

    def test_delta_increments(self, capsys, tmp_path):
        from ugwldp.ugw import marginal_ugw

        law = marginal_ugw(
            NeighborhoodLaw.from_degree_law({1: Fraction(1, 2), 2: Fraction(1, 2)}), 2
        )
        path = tmp_path / "tower.json"
        law.dump(path)
        code, out, _ = run(capsys, "delta", "--law", str(path))
        assert code == 0
        incs = json.loads(out)["increments"]
        assert len(incs) == 2 and abs(incs[1]) < 1e-12


    def test_delta_float_depth3(self, capsys, tmp_path):
        # the tower is truncated one depth at a time, so float laws pass the
        # truncation check
        from ugwldp.ugw import marginal_ugw

        base = NeighborhoodLaw.from_degree_law({1: 0.25, 2: 0.5, 4: 0.25}, mode="float")
        path = tmp_path / "float3.json"
        marginal_ugw(base, 3).dump(path)
        code, out, err = run(capsys, "delta", "--law", str(path))
        assert code == 0, err
        incs = json.loads(out)["increments"]
        assert len(incs) == 3 and all(abs(x) < 1e-12 for x in incs[1:])


class TestExperimentsAndVerify:
    def test_cycles_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "cycles",
            "--d", "3", "--n", "60", "--samples", "30",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("length,")
        assert len(lines) == 6

    def test_concentrate_small(self, capsys):
        code, out, _ = run(
            capsys, "concentrate", "--d", "3", "--n-list", "40", "--samples", "20"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["n"] == 40 and rows[0]["sd"] >= 0

    def test_converge_small(self, capsys):
        code, out, _ = run(
            capsys,
            "converge",
            "--degree-law", "3:1",
            "--n-list", "20,40",
            "--samples", "10",
            "--depth", "1",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [20, 40]
        # triangles can bend a few depth-1 balls away from the star, so the
        # distance is small but need not vanish at these sizes
        assert all(0 <= r["tv"] < 0.5 for r in rows)

    def test_verify_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 0
        assert "PASS" in out

    def test_verify_reports_injected_bug(self, capsys, monkeypatch):
        import ugwldp.verify as verify_mod

        def broken(quick=False):
            return False, "injected"

        monkeypatch.setattr(
            verify_mod, "ALL_CHECKS", [("broken-identity", broken)]
        )
        code, out, _ = run(capsys, "verify", "--quick")
        assert code != 0
        assert "FAIL broken-identity" in out
