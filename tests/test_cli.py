"""Command-line behavior: determinism, exit codes, file outputs."""

import hashlib
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
from ugwldp.neighborhood import NeighborhoodLaw, empirical_distribution, poisson_law
from ugwldp.rooted import LabeledRootedGraph, SimpleGraph, canonicalize


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

    @pytest.mark.parametrize(
        "p1, p2, tree",
        [
            (
                "2:1",
                "3:1",
                "13 12 root 0\n0 1\n0 2\n0 3\n1 4\n2 5\n3 6\n4 7\n4 8\n5 9\n5 10\n"
                "6 11\n6 12\n",
            ),
            (
                "1:1/4,2:1/4,3:1/2",
                "1:1/3,3:2/3",
                "8 7 root 0\n0 1\n1 2\n1 3\n2 4\n2 5\n3 6\n3 7\n",
            ),
        ],
        ids=["biregular", "two-atom"],
    )
    def test_sample_bipartite_seed1_pinned(self, capsys, tmp_path, p1, p2, tree):
        # The alternating tree is drawn by the two-color sampler: the root
        # takes one draw for its type and degree together.
        tpath = tmp_path / "t.txt"
        argv = ["sample-bipartite", "--p1", p1, "--p2", p2, "--depth", "3", "--seed", "1"]
        code, out, _ = run(capsys, *argv, "--tree-out", str(tpath))
        assert code == 0
        n, m = (int(x) for x in tree.split()[:2])
        assert json.loads(out) == {
            "schema": "ugw-ldp/v1",
            "seed": 1,
            "depth": 3,
            "n_vertices": n,
            "n_edges": m,
        }
        assert tpath.read_text(encoding="utf-8") == tree


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate-binomial", "--lam", "nan"], "lambda must be finite and > 0, got nan"),
            (["rate-binomial", "--lam", "inf"], "lambda must be finite and > 0, got inf"),
            (["rate-degree-er", "--degree-law", "3:1", "--lam", "nan"], "lambda must be"),
            (["rate-degree-er", "--degree-law", "3:1", "--lam", "inf"], "lambda must be"),
            (["rate-edges", "--d", "inf"], "d must be finite and >= 0, got inf"),
            (["rate-edges", "--d", "nan"], "d must be finite and >= 0, got nan"),
            (["rate-edges", "--d=-1"], "d must be finite and >= 0, got -1.0"),
            (["rate-degree-fixed", "--degree-law", "3:1", "--d", "inf"], "d must be"),
            (["rate-degree-fixed", "--degree-law", "3:1", "--d", "nan"], "d must be"),
            (["rate-degree-fixed", "--degree-law", "3:1", "--d=-2"], "d must be"),
        ],
    )
    def test_rate_parameter_not_finite_or_out_of_range_exit1(
        self, capsys, regular3_law, argv, message
    ):
        # a NaN rate is not valid JSON, and a negative mean degree is no
        # ensemble: both are refused, not printed
        if argv[0] in ("rate-binomial", "rate-edges"):
            argv = argv + ["--law", regular3_law]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_sample_bipartite_negative_depth_exit1(self, capsys):
        argv = ["sample-bipartite", "--p1", "2:1", "--p2", "3:1", "--depth", "-2"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: depth must be >= 0, got -2\n"

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
        NeighborhoodLaw(chain.depth, {chain: 1}).dump(path)
        code, _, err = run(capsys, "jh", "--law", str(path))
        assert code == 3
        code, _, _ = run(capsys, "rate-edges", "--law", str(path), "--d", "1")
        assert code == 3
        code, _, _ = run(capsys, "sample-ugw", "--law", str(path), "--depth", "3")
        assert code == 3

    @pytest.mark.parametrize("depth", [True, 1.5])
    def test_law_depth_not_an_int_exit3(self, capsys, tmp_path, depth):
        blob = NeighborhoodLaw.from_degree_law({3: Fraction(1)}).to_json()
        path = tmp_path / "depth.json"
        path.write_text(json.dumps({**blob, "depth": depth}))
        code, out, err = run(capsys, "jh", "--law", str(path))
        assert code == 3 and out == ""
        assert "depth must be an int" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_attempts_below_one_exit1(self, capsys, tiny_cycle_degrees, cap):
        argv = ["sample-gdh", "--degrees", tiny_cycle_degrees, "--girth", "3"]
        code, out, err = run(capsys, *argv, "--max-attempts", cap)
        assert code == 1 and out == ""
        assert err == f"error: max_attempts must be >= 1, got {cap}\n"

    def test_unknown_law_mode_exit3(self, capsys, tmp_path):
        blob = NeighborhoodLaw.from_degree_law({3: Fraction(1)}).to_json()
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({**blob, "mode": "weird"}))
        code, _, err = run(capsys, "jh", "--law", str(path))
        assert code == 3
        assert "law mode must be" in err


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

    def test_rate_edges_at_mean_degree_zero(self, capsys, tmp_path):
        # With no edges the all-isolated law is the only outcome: rate 0.
        path = tmp_path / "isolated.json"
        NeighborhoodLaw.from_degree_law({0: 1}).dump(path)
        code, out, _ = run(capsys, "rate-edges", "--law", str(path), "--d", "0")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

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


class TestCyclicLaws:
    """A law with mass on a cyclic class: J refuses it, every rate is +inf."""

    @pytest.fixture
    def triangle_law(self, tmp_path):
        path = tmp_path / "k3.json"
        empirical_distribution(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2).dump(path)
        return str(path)

    @pytest.mark.parametrize("command", ["jh", "delta"])
    def test_entropy_exit3(self, capsys, triangle_law, command):
        code, out, err = run(capsys, command, "--law", triangle_law)
        assert code == 3 and out == ""
        assert err.startswith("invalid law: ") and "G2:03002600" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate-binomial", "--lam", "2"],
            ["rate-edges", "--d", "2"],
            ["rate-degrees", "--degree-law", "2:1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rate_is_infinite(self, capsys, triangle_law, argv):
        code, out, _ = run(capsys, *argv, "--law", triangle_law)
        assert code == 0
        assert json.loads(out)["value"] == "+inf"

    def test_sample_ugw_exit3(self, capsys, triangle_law):
        code, out, err = run(capsys, "sample-ugw", "--law", triangle_law, "--depth", "3")
        assert code == 3 and out == ""
        assert err.startswith("invalid law: ") and "G2:03002600" in err
        assert "Traceback" not in err


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


class TestColorblindOut:
    """The bytes of --colorblind-out at fixed seeds: "n", then "u v m" lines, sorted."""

    DIGESTS = {
        # 3-regular on 20 vertices: one double edge (4 7)
        ("sample-cm", "d3", 5): "1c78ff29495ae404bb915c690de478fbf463e80774aed3fe99e56ac8fc0478e9",
        # two colors, degree 6 on 6 vertices: loops (0 0 4 is two loops) and double edges
        ("sample-cm", "d2", 2): "5880a08aa3c206d3c23214064aa8d870baf417cd6762d340cbd9d3b615cf29c2",
        ("sample-gdh", "d3", 5): "52ec5c7134a56548e37c917e4ac1a00e2808620ae86faff490c71892674129df",
        ("sample-gdh", "d4", 7): "382970f7ce7a7d5ea4e98969e76f01d18997f799cfcf16f3cbf8c90c376b0bc8",
    }
    GIRTH = {"d3": "4", "d4": "3"}

    @pytest.fixture
    def degree_files(self, tmp_path):
        sequences = {
            "d3": DegreeSequence.single_color([3] * 20),
            "d2": DegreeSequence.from_rows(2, [[2, 1, 1, 2]] * 6),
            "d4": DegreeSequence.from_rows(2, [[1, 1, 1, 1]] * 12),
        }
        paths = {}
        for name, D in sequences.items():
            paths[name] = tmp_path / f"{name}.txt"
            write_degree_file(paths[name], D)
        return paths

    @pytest.mark.parametrize("command, degrees, seed", sorted(DIGESTS))
    def test_pinned_bytes(self, capsys, tmp_path, degree_files, command, degrees, seed):
        out = tmp_path / "bar.txt"
        argv = [command, "--degrees", str(degree_files[degrees]), "--seed", str(seed)]
        if command == "sample-gdh":
            argv += ["--girth", self.GIRTH[degrees]]
        code, _, _ = run(capsys, *argv, "--colorblind-out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[command, degrees, seed]
