import hashlib
import json
import math
import os
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from linestab import cli as cli_mod
from linestab import cone as cone_mod
from linestab import flexprobe as flexprobe_mod
from linestab import polyid
from linestab import sextic as sextic_mod
from linestab.cli import PRESET_NAMES, _finish, main, preset_scene, render_figure
from linestab.geom import SolverError
from linestab.sextic import Triple, trace_curves


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestGenerateScene:
    def test_preset_round_trip(self, runner, tmp_path):
        out = tmp_path / "scene.json"
        r = invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(out)])
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["dimension"] == 3
        assert len(doc["balls"]) == 3

    def test_random_scene_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            r = invoke(
                runner,
                ["generate-scene", "--n", "4", "--dim", "3", "--seed", "5", "--out", str(path)],
            )
            assert r.exit_code == 0
        assert a.read_text() == b.read_text()

    def test_transversal_direction_recorded(self, runner, tmp_path):
        out = tmp_path / "s.json"
        r = invoke(
            runner,
            ["generate-scene", "--n", "4", "--with-transversal", "--seed", "2", "--out", str(out)],
        )
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["transversal_direction"]) == 3


class TestCheckConvexity:
    def test_collinear_scene_passes(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        r = runner.invoke(
            main,
            [
                "check-convexity", "--scene", str(scene),
                "--samples", "2000", "--pairs", "500", "--seed", "1",
            ],
        )
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["pass"] is True
        assert doc["verdicts"]["violation_count"] == 0
        assert doc["schema_version"] == 2
        assert doc["config"]["seed"] == 1

    def test_overlap_panel_fails_entry_semantics(self, runner, tmp_path):
        scene = tmp_path / "ov.json"
        invoke(
            runner,
            ["generate-scene", "--preset", "transition-overlapping", "--out", str(scene)],
        )
        r = runner.invoke(
            main,
            [
                "check-convexity", "--scene", str(scene),
                "--order", "0,1,2", "--order-semantics", "entry",
                "--samples", "2048", "--pairs", "1200", "--seed", "1",
            ],
        )
        assert r.exit_code == 1
        doc = json.loads(r.output)
        assert doc["verdicts"]["violation_count"] >= 1

    @pytest.mark.parametrize("dim", ["2", "4"])
    def test_entry_semantics_outside_r3_is_usage_error(self, runner, tmp_path, dim):
        scene = tmp_path / "s.json"
        invoke(runner, ["generate-scene", "--n", "3", "--dim", dim, "--seed", "1",
                        "--with-transversal", "--out", str(scene)])
        r = runner.invoke(main, ["check-convexity", "--scene", str(scene),
                                 "--order-semantics", "entry", "--samples", "512"])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "needs a scene in R^3" in r.output

    def test_malformed_scene_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 3, "balls": [oops')
        r = runner.invoke(main, ["check-convexity", "--scene", str(bad)])
        assert r.exit_code == 2
        assert "line 1" in r.output and "column" in r.output

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dimension": "x", "balls": [{"center": [0, 0, 0], "radius": 1}]}',
            '{"dimension": 3, "balls": [{"center": [0, 0, 0], "radius": "a"}]}',
            '{"dimension": 3, "balls": [{"center": ["a", 0, 0], "radius": 1}]}',
            '{"dimension": 3, "balls": [{"center": [[0, 0, 0]], "radius": 1}]}',
            '{"dimension": 3, "balls": [{"center": [0, 0], "radius": 1}]}',
            '{"dimension": 3, "balls": [{"center": [0, 0, 0], "radius": -1}]}',
            '{"dimension": 3, "allow_overlap": true, "balls": [{"center": [0, 0, 0], "radius": Infinity}]}',
            '{"dimension": 3, "balls": [{"center": [0, 0, 0], "radius": 1},'
            ' {"center": [1e200, 1e200, 0], "radius": 1}, {"center": [-1e200, 1e200, 0], "radius": 1}]}',
            '{"dimension": 1e400, "balls": [{"center": [0, 0, 0], "radius": 1}]}',
            '{"dimension": NaN, "balls": [{"center": [0, 0, 0], "radius": 1}]}',
            '{"dimension": 3, "balls": 5}',
            '{"dimension": 3, "balls": [7]}',
            '{"dimension": 3, "balls": []}',
            '{"balls": [{"center": [0, 0, 0], "radius": 1}]}',
            "[1, 2]",
            # a dimension that is no integer, a flag that is no boolean (the
            # balls overlap), and booleans given as numbers
            '{"dimension": 3.7, "balls": [{"center": [0, 0, 0], "radius": 1}]}',
            '{"dimension": true, "balls": [{"center": [0, 0], "radius": 1}]}',
            '{"dimension": 3, "allow_overlap": "false", "balls": [{"center": [0, 0, 0], "radius": 1},'
            ' {"center": [1, 0, 0], "radius": 1}]}',
            '{"dimension": 3, "balls": [{"center": [0, 0, 0], "radius": true}]}',
            '{"dimension": 3, "balls": [{"center": [true, 0, 0], "radius": 1}]}',
        ],
    )
    def test_invalid_scene_document_is_usage_error(self, runner, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        r = runner.invoke(main, ["enumerate-permutations", "--scene", str(bad)])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert "invalid scene" in r.output

    def test_unknown_flag_rejected(self, runner):
        r = runner.invoke(main, ["check-convexity", "--scene", "x.json", "--bogus"])
        assert r.exit_code == 2

    def test_bad_order_rejected(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        r = runner.invoke(
            main, ["check-convexity", "--scene", str(scene), "--order", "0,0,2"]
        )
        assert r.exit_code == 2
        assert "order (0, 0, 2) is not a permutation of the balls" in r.output


    def test_too_few_feasible_samples_is_inconclusive(self, runner, tmp_path):
        scene = tmp_path / "s4.json"
        invoke(runner, ["generate-scene", "--n", "4", "--seed", "0", "--out", str(scene)])
        r = runner.invoke(
            main, ["check-convexity", "--scene", str(scene), "--samples", "1", "--pairs", "1"]
        )
        assert r.exit_code == 3
        doc = json.loads(r.output)
        assert doc["verdicts"]["inconclusive"] is True
        assert doc["verdicts"]["violation_count"] == 0
        assert doc["outcome"]["status"] == "inconclusive"
        assert "feasible direction sample" in doc["outcome"]["reason"]


class TestIntegerOptions:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify-identities", "--trials", "0"],
            ["verify-identities", "--height", "0"],
            ["verify-identities", "--height", str(2**63)],
            ["verify-identities", "--seed", "-1"],
            ["generate-scene", "--seed", "-1"],
            ["check-convexity", "--scene", "s.json", "--samples", "0"],
            ["check-convexity", "--scene", "s.json", "--pairs", "0"],
            ["check-convexity", "--scene", "s.json", "--seed", "-1"],
            ["enumerate-permutations", "--scene", "s.json", "--samples", "0"],
            ["count-components", "--scene", "s.json", "--samples", "-1"],
            ["count-components", "--scene", "s.json", "--seed", "-2"],
            ["probe-flex", "--scene", "s.json", "--boundary-samples", "-3"],
            ["classify-boundary", "--scene", "s.json", "--directions", "0"],
            ["trace-curves", "--scene", "s.json", "--grid", "-4"],
            ["trace-curves", "--scene", "s.json", "--grid", "1"],
            ["trace-curves", "--scene", "s.json", "--hatch-samples", "0"],
        ],
        ids=lambda args: " ".join([args[0], *args[-2:]]),
    )
    def test_out_of_range_value_is_usage_error(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "Invalid value" in r.output
        assert "Traceback" not in r.output


class TestFloatOptions:
    """Float options and the explicit direction are checked before any work."""

    @pytest.mark.parametrize(
        "args",
        [
            ["trace-curves", "--extent", "nan"],
            ["trace-curves", "--extent", "inf"],
            ["trace-curves", "--extent", "0"],
            ["trace-curves", "--extent", "-1"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_bad_value_is_usage_error(self, runner, tmp_path, args):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        r = runner.invoke(main, [args[0], "--scene", str(scene), *args[1:]])
        assert r.exit_code == 2, r.output
        assert "Invalid value" in r.output

    @pytest.mark.parametrize("args", [["--rmax", "inf"], ["--rmin", "inf", "--rmax", "inf"]])
    def test_infinite_radius_is_usage_error(self, runner, args):
        r = runner.invoke(main, ["generate-scene", *args])
        assert r.exit_code == 2, r.output
        assert "Invalid value" in r.output

    @pytest.mark.parametrize("direction", ["1,0,0,0", "1,0"])
    def test_direction_needs_three_components(self, runner, tmp_path, direction):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(
            main, ["classify-boundary", "--scene", str(scene), "--direction", direction]
        )
        assert r.exit_code == 2, r.output
        assert "3 components" in r.output

    @pytest.mark.parametrize("direction", ["0,0,0", "nan,0,0", "1,inf,0"])
    def test_direction_must_be_finite_and_not_zero(self, runner, tmp_path, direction):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(
            main, ["classify-boundary", "--scene", str(scene), "--direction", direction]
        )
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--direction': must be finite and not zero" in r.output


@pytest.mark.parametrize("command", ["probe-flex", "classify-boundary", "trace-curves"])
@pytest.mark.parametrize("dim", ["2", "4"])
def test_triple_commands_need_r3(runner, tmp_path, command, dim):
    scene = tmp_path / "s.json"
    invoke(runner, ["generate-scene", "--n", "3", "--dim", dim, "--seed", "1", "--out", str(scene)])
    r = runner.invoke(main, [command, "--scene", str(scene)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "three balls in R^3" in r.output


class TestVerifyIdentities:
    def test_small_run_passes(self, runner):
        r = runner.invoke(main, ["verify-identities", "--trials", "3", "--seed", "42"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["pass"] is True
        assert len(doc["verdicts"]["identities"]) == 6

    def test_byte_identical_reports(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            r = runner.invoke(
                main,
                ["verify-identities", "--trials", "2", "--seed", "3", "--out", str(path)],
            )
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()


# sha256 of verify-identities' stdout, taken before the suite's forms moved to
# an unreduced scalar and its sampler to one rng call per run of draws: the
# reports must not change by a byte.  The height-10^6 and 2^63 - 1 entries
# were retaken when failure bounds that the float power rounded below the
# exact (degree/height)^trials were raised to it; only those bounds moved.
GOLDEN_IDENTITY_REPORTS = {
    ("--trials", "25", "--seed", "0"):
        "07b03b41ef717478004b6763ee95beb963a1773373ec23533a40b491559bd57e",
    ("--trials", "25", "--seed", "1"):
        "2f00c1d3feca5fd9ab467e86c71bb57ef98e4c86b4a3b67b9388228c2b06080b",
    ("--trials", "25", "--seed", "2"):
        "979e67018f5b4d8b074c24347109f0c7004f1a4ca41a6711651f1e7e96d1f82a",
    ("--trials", "25", "--seed", "3"):
        "62d62becb990967d5d5dcaa1bdf74d93a927ee1d9645af7cc54bba496aa07f31",
    ("--trials", "25", "--height", "1000000", "--seed", "0"):
        "f3638c36ee153ea4f0c5c4bf84285600b757189559e5a7305fb5507a340f35e8",
    ("--trials", "25", "--height", "1000000", "--seed", "1"):
        "8120dbaa0c781d01b909caf040d6c4775340a5b52c1feb8dcfe3d6a6c9ee8008",
    ("--trials", "25", "--height", "1000000", "--seed", "2"):
        "effe01b9aaaf738f1a7e5c9454b45b2fa39da28b44b68a0aa4fa6e3a4e8c036b",
    ("--trials", "25", "--height", "1000000", "--seed", "3"):
        "f56c30c794306ce7bc15b34cba3b09d098f7d87a2dffd9ca1667861e5f3af0ba",
    ("--trials", "5", "--height", "9223372036854775807"):
        "e25604b1c69db2f1ba2724ead12bae759c303147f9b6a5dc4d43104cc311dca2",
    # the defaults, taken before the underflowing failure bound was floored
    # and the master jet's border eliminated
    ():
        "740aa20db33981e43b34d4bf0c82c4af170f1fda21533a30c0059a024498476e",
}


@pytest.mark.parametrize("args", list(GOLDEN_IDENTITY_REPORTS),
                         ids=[" ".join(a) or "defaults" for a in GOLDEN_IDENTITY_REPORTS])
def test_identity_reports_golden(runner, args):
    r = invoke(runner, ["verify-identities", *args])
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GOLDEN_IDENTITY_REPORTS[args]


def test_failure_bounds_never_underflow(runner):
    # at 200 trials every (degree/height)^trials underflows a double: the
    # report keeps a positive bound, at least the exact power, not 0.0
    r = invoke(runner, ["verify-identities", "--trials", "200"])
    assert r.exit_code == 0
    verdicts = json.loads(r.stdout)["verdicts"]
    assert verdicts["height"] == 1000
    for ident in verdicts["identities"]:
        bound = ident["failure_bound"]
        assert bound > 0
        assert Fraction(bound) >= Fraction(ident["degree_bound"], 1000) ** 200


class TestEnvironment:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only dependency; the CLI, polyid and its import of
        # flexprobe and cone included, must start without it
        import linestab

        src = str(Path(linestab.__file__).resolve().parents[1])
        code = "import sys, linestab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_no_option_sets_a_tolerance(self, runner):
        # the band is the scene's: no option reads the environment, and
        # --tol is gone from every command
        for name, command in main.commands.items():
            for param in command.params:
                assert param.envvar is None, (name, param.name)
                assert "--tol" not in param.opts, name
            r = runner.invoke(main, [name, "--tol", "1e-9"])
            assert r.exit_code == 2 and "No such option" in r.output, name


class TestComponentsAndPermutations:
    def test_two_permutation_preset(self, runner, tmp_path):
        scene = tmp_path / "two.json"
        invoke(runner, ["generate-scene", "--preset", "two-permutations", "--out", str(scene)])
        r = runner.invoke(
            main,
            ["count-components", "--scene", str(scene), "--samples", "20000", "--seed", "0"],
        )
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["components"]["count"] == 2
        assert doc["verdicts"]["permutations"] == 2
        assert doc["verdicts"]["components_equal_permutations"] is True

    def test_enumerate_collinear(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        r = runner.invoke(
            main,
            ["enumerate-permutations", "--scene", str(scene), "--samples", "2000"],
        )
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["count"] == 1


class TestProbeFlex:
    def test_seed_is_no_option(self, runner):
        # the boundary lattice in R^3 is the Fibonacci lattice: no seed reaches it
        r = runner.invoke(main, ["probe-flex", "--scene", "s.json", "--seed", "0"])
        assert r.exit_code == 2, r.output
        assert "No such option '--seed'" in r.output

    def test_disjoint_demo_passes(self, runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(
            main,
            ["probe-flex", "--scene", str(scene), "--boundary-samples", "60"],
        )
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["pass"] is True
        assert doc["verdicts"]["min_margin"] > 0

    def test_overlapping_demo_fails(self, runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(
            runner,
            ["generate-scene", "--preset", "flexdemo-overlapping", "--out", str(scene)],
        )
        r = runner.invoke(
            main,
            ["probe-flex", "--scene", str(scene), "--boundary-samples", "60"],
        )
        assert r.exit_code == 1
        # the violation exit still carries a well-formed report
        doc = json.loads(r.output)
        assert doc["verdicts"]["pass"] is False
        bad = [
            s for s in doc["verdicts"]["samples"]
            if s["disjointness_ok"] is False
            or (s["margin"] is not None and s["margin"] <= 0)
        ]
        assert bad

    def test_needs_three_balls(self, runner, tmp_path):
        scene = tmp_path / "s.json"
        invoke(
            runner,
            ["generate-scene", "--n", "4", "--seed", "0", "--out", str(scene)],
        )
        r = runner.invoke(main, ["probe-flex", "--scene", str(scene)])
        assert r.exit_code == 2

    def test_nothing_probed_is_inconclusive(self, runner, tmp_path, monkeypatch):
        # every located row skipped: an empty batch with a reason per row
        lifted = flexprobe_mod.lifted_config_for_direction
        monkeypatch.setattr(flexprobe_mod, "lifted_config_for_direction", lambda triple, U: (
            lifted(triple, U[:0])[0], ["point is not interior to the triangle"] * len(U)))
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(main, ["probe-flex", "--scene", str(scene), "--boundary-samples", "1"])
        assert r.exit_code == 3
        doc = json.loads(r.output)
        assert doc["verdicts"]["probed"] == 0
        assert doc["outcome"] == {
            "status": "inconclusive",
            "reason": "no boundary sample was probed (1 skipped)",
        }

    def test_boundary_shortfall_is_reported(self, runner, tmp_path):
        # the pinned cone is one direction, which no lattice direction hits
        scene = tmp_path / "p.json"
        invoke(runner, ["generate-scene", "--preset", "pinned", "--out", str(scene)])
        r = runner.invoke(main, ["probe-flex", "--scene", str(scene)])
        assert r.exit_code == 3
        doc = json.loads(r.output)
        assert (doc["verdicts"]["requested"], doc["verdicts"]["located"]) == (200, 0)
        assert doc["outcome"]["reason"] == (
            "no boundary sample was probed (0 skipped); 0 of 200 boundary points located"
        )


class TestSolverErrors:
    """A SolverError from the library is an inconclusive run (exit 3) with
    the solver's message as the reason, never a traceback."""

    @staticmethod
    def demo(runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        return str(scene)

    def test_boundary_ray_without_exit(self, runner, tmp_path, monkeypatch):
        # every direction feasible: no boundary ray leaves its cone
        monkeypatch.setattr(cone_mod.ConeSampleSet, "feasible_for_order",
                            lambda self, order=None, order_semantics="center":
                            np.ones(len(self.directions), dtype=bool))
        r = invoke(runner, ["probe-flex", "--scene", self.demo(runner, tmp_path)])
        assert r.exit_code == 3
        doc = json.loads(r.output)
        assert doc["verdicts"] == {}
        assert doc["outcome"]["status"] == "inconclusive"
        assert doc["outcome"]["reason"].startswith(
            "solver error: boundary ray 0 of cone (0, 1, 2) has no exit")

    def test_kernel_that_never_converges(self, runner, tmp_path, monkeypatch):
        # a support solve that never improves: the kernel gives up and raises
        monkeypatch.setattr(cone_mod, "_best_point",
                            lambda P, radii, B, over: (np.full(len(B), -np.inf), np.zeros(B.shape)))
        s = ["--scene", self.demo(runner, tmp_path)]
        for args in (["check-convexity", *s], ["enumerate-permutations", *s],
                     ["count-components", *s], ["probe-flex", *s], ["classify-boundary", *s]):
            r = invoke(runner, args)
            assert r.exit_code == 3, args
            reason = json.loads(r.output)["outcome"]["reason"]
            assert reason.startswith("solver error: disk minimax did not converge"), args
        out = tmp_path / "f.svg"
        r = runner.invoke(main, ["trace-curves", *s, "--format", "svg", "--out", str(out)])
        assert r.exit_code == 3 and r.exc_info[0] is SystemExit
        assert "solver error: disk minimax did not converge" in r.output
        assert not out.exists()


    def test_generator_that_gives_up(self, runner, monkeypatch):
        def give_up(*args):
            raise SolverError("could not place 4 disjoint balls in 10000 attempts")

        monkeypatch.setattr(cli_mod, "random_disjoint_scene", give_up)
        r = runner.invoke(main, ["generate-scene", "--n", "4"])
        assert r.exit_code == 3 and r.exc_info[0] is SystemExit
        assert r.output == "Error: solver error: could not place 4 disjoint balls in 10000 attempts\n"

    def test_trace_with_non_finite_grid_values(self, runner, tmp_path):
        # sextic powers of 1e150 overflow: the grid has no signs to march,
        # so no curve may come out silently empty
        out = tmp_path / "t.csv"
        args = ["trace-curves", "--scene", self.demo(runner, tmp_path),
                "--extent", "1e150", "--grid", "20", "--out", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            r = invoke(runner, args)
        assert r.exit_code == 3
        assert "solver error: sigma in chart u3 at extent 1e+150 has non-finite values" in r.output
        assert not out.exists()


REPORT_COMMANDS = {"check-convexity", "enumerate-permutations", "count-components", "probe-flex",
                   "verify-identities", "classify-boundary"}
TEXT_COMMANDS = {"generate-scene", "trace-curves"}
SCENE_COMMANDS = sorted(name for name, command in main.commands.items()
                        if any("--scene" in p.opts for p in command.params))
# small budgets, so that each command finishes its work before writing
SMALL_BUDGETS = {
    "check-convexity": ["--samples", "256", "--pairs", "8"],
    "enumerate-permutations": ["--samples", "256"],
    "count-components": ["--samples", "256"],
    "probe-flex": ["--boundary-samples", "4"],
    "verify-identities": ["--trials", "1"],
    "classify-boundary": ["--directions", "2"],
    "trace-curves": ["--grid", "20"],
}


def test_every_command_goes_through_the_shared_path():
    # a new command must be registered through cli._command, which owns
    # --scene, --out and (for a report) --timings
    assert set(main.commands) == REPORT_COMMANDS | TEXT_COMMANDS
    for name, command in main.commands.items():
        def shared(flag):
            return [p for p in command.params if flag in p.opts]

        assert shared("--out") == [cli_mod._OUT], name
        assert shared("--timings") == ([cli_mod._TIMINGS] if name in REPORT_COMMANDS else []), name
        assert shared("--scene") in ([], [cli_mod._SCENE]), name


def test_report_commands_trace_no_curve(runner, tmp_path, monkeypatch):
    # the grid trace serves trace-curves alone: no report command reaches it
    def no_trace(*args, **kwargs):
        raise AssertionError("trace_curves called")

    monkeypatch.setattr(sextic_mod, "trace_curves", no_trace)
    scene = tmp_path / "f.json"
    invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
    # budgets just large enough to decide: the smallest hold no midpoint pair
    # of this scene's small cone and no probed boundary sample
    budgets = {**SMALL_BUDGETS, "check-convexity": ["--samples", "1024", "--pairs", "16"],
               "probe-flex": ["--boundary-samples", "20"]}
    for name in sorted(REPORT_COMMANDS):
        args = [] if name == "verify-identities" else ["--scene", str(scene)]
        r = runner.invoke(main, [name, *args, *budgets[name]])
        assert r.exception is None or isinstance(r.exception, SystemExit), (name, r.exception)
        assert r.exit_code in (0, 1), (name, r.output)


class TestFileErrors:
    """A bad --scene file or an unwritable --out is a usage error: exit 2
    with a message, no traceback and no report."""

    @staticmethod
    def printed(r):
        text = r.output
        if r.exception is not None and not isinstance(r.exception, SystemExit):
            text += "".join(traceback.format_exception(*r.exc_info))
        return text

    @pytest.mark.parametrize("case, message", [
        ("missing", "does not exist"),
        ("directory", "is a directory"),
        ("not-utf8", "cannot read scene file"),
        ("deeply-nested", "nested too deeply"),
    ])
    @pytest.mark.parametrize("command", SCENE_COMMANDS)
    def test_bad_scene_file(self, runner, tmp_path, command, case, message):
        scene = tmp_path / "scene.json"
        if case == "directory":
            scene.mkdir()
        elif case == "not-utf8":
            scene.write_bytes(b"\xff\xfe")
        elif case == "deeply-nested":
            scene.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "report.json"
        r = runner.invoke(main, [command, "--scene", str(scene), "--out", str(out)])
        printed = self.printed(r)
        assert r.exit_code == 2, printed
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in printed
        assert message in printed and "Error:" in printed
        assert not out.exists() and '"schema_version"' not in printed

    @pytest.mark.parametrize("command", sorted(REPORT_COMMANDS | TEXT_COMMANDS))
    def test_out_in_missing_directory(self, runner, tmp_path, command):
        args = [command, *SMALL_BUDGETS.get(command, [])]
        if command in SCENE_COMMANDS:
            scene = tmp_path / "f.json"
            invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
            args += ["--scene", str(scene)]
        out = tmp_path / "missing" / "report.out"
        r = runner.invoke(main, [*args, "--out", str(out)])
        assert r.exit_code == 2, self.printed(r)
        assert isinstance(r.exception, SystemExit)
        # one line on stderr and nothing else: no traceback, no report
        assert r.output == f"Error: cannot write {out}: No such file or directory\n"


class TestClassifyBoundary:
    def test_demo_scene_agrees(self, runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(main, ["classify-boundary", "--scene", str(scene), "--directions", "6"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdicts"]["disagreements"] == 0
        assert len(doc["verdicts"]["classifications"]) >= 1

    def test_huge_explicit_direction_reads_as_its_unit_row(self, runner, tmp_path):
        # a row whose squared norm overflows was reported as direction [0, 0, -0]
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])

        def classify(*args):
            r = runner.invoke(main, ["classify-boundary", "--scene", str(scene), *args])
            assert r.exit_code == 0, r.output
            return json.loads(r.output)["verdicts"]["classifications"]

        unit = classify()[0]["direction"]
        [huge] = classify("--direction", ",".join(repr(math.ldexp(x, 1020)) for x in unit))
        [same] = classify("--direction", ",".join(map(repr, unit)))
        np.testing.assert_allclose(huge.pop("direction"), same.pop("direction"), rtol=1e-15)
        assert huge.pop("slack") == pytest.approx(same.pop("slack"), rel=1e-12)
        assert huge == same

    @pytest.mark.parametrize("preset", ["two-permutations", "flexdemo-disjoint", "flexdemo-tangent"])
    def test_printed_direction_classifies_as_its_row(self, runner, tmp_path, preset):
        # each printed direction is the row that was classified, so feeding
        # it back through --direction gives the same verdict, and the same
        # slack up to the kernel's roundoff: a one-row kernel call may round
        # the row's projections otherwise than the batch of every root
        eps = cone_mod.KERNEL_REL_EPS * preset_scene(preset).diameter
        scene = tmp_path / "p.json"
        invoke(runner, ["generate-scene", "--preset", preset, "--out", str(scene)])

        def classify(*args):
            r = runner.invoke(main, ["classify-boundary", "--scene", str(scene), *args])
            assert r.exit_code == 0, r.output
            return json.loads(r.output)["verdicts"]["classifications"]

        entries = classify()
        rows = cone_mod.sextic_ray_directions(Triple(preset_scene(preset)), 8)[0]
        assert [e["direction"] for e in entries] == rows.tolist() and len(rows) >= 28
        for entry in entries:
            [again] = classify("--direction", ",".join(map(repr, entry["direction"])))
            assert again.pop("slack") == pytest.approx(entry.pop("slack"), rel=0.0, abs=eps)
            assert again == entry

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("budget", [[], ["--directions", "32"]])
    def test_every_preset_agrees(self, runner, tmp_path, preset, budget):
        # a preset without real sextic roots on its rays is an answer, not a
        # usage error, and its reason says why there are none
        scene = tmp_path / "p.json"
        invoke(runner, ["generate-scene", "--preset", preset, "--out", str(scene)])
        r = runner.invoke(main, ["classify-boundary", "--scene", str(scene), *budget])
        assert r.exit_code == 0, r.output
        v = json.loads(r.output)["verdicts"]
        rays = int(budget[1]) if budget else 8
        assert v["disagreements"] == 0
        assert v["band"] == pytest.approx(1e-9 * preset_scene(preset).diameter)
        assert v["rays"] == (0 if preset == "pinned" else rays)
        assert v["sextic_points"] == len(v["classifications"])
        assert v["boundary_directions"] + v["interior_directions"] == sum(
            e.get("on_boundary") is not None for e in v["classifications"])
        if v["sextic_points"] == 0:
            assert preset == "pinned" or preset == "collinear" or preset.startswith("transition-")
            assert v["reason"] == (
                "no feasible lattice direction: no cone to cast rays from" if preset == "pinned"
                else f"sigma has no real root on the {rays} rays")
        else:
            assert "reason" not in v
        if preset in ("flexdemo-disjoint", "flexdemo-tangent", "two-permutations") and not budget:
            assert v["boundary_directions"] > 0 and v["interior_directions"] > 0
        for entry in v["classifications"]:
            assert "error" not in entry
            if entry.get("on_boundary") is not None:
                assert entry["on_boundary"] == (abs(entry["slack"]) <= v["band"])

    def test_explicit_off_curve_direction_is_usage_error(self, runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(
            main,
            ["classify-boundary", "--scene", str(scene), "--direction", "0.2,0.9,0.1"],
        )
        assert r.exit_code == 2
        assert "not on the sextic" in r.output

    def test_root_off_the_sextic_is_an_entry_error(self, runner, tmp_path, monkeypatch):
        # a root that misses the sextic's tolerance is reported, not a usage error
        roots = cone_mod.sextic_ray_directions
        monkeypatch.setattr(cone_mod, "sextic_ray_directions", lambda triple, count: (
            np.vstack([[0.2, 0.9, 0.1], roots(triple, count)[0]]), count))
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        r = runner.invoke(main, ["classify-boundary", "--scene", str(scene)])
        assert r.exit_code == 0, r.output
        v = json.loads(r.output)["verdicts"]
        first, *rest = v["classifications"]
        assert set(first) == {"direction", "error"} and "not on the sextic" in first["error"]
        assert v["sextic_points"] == len(rest) + 1 == 33
        assert v["boundary_directions"] + v["interior_directions"] == len(rest)


_SMOKE_SCENES = {
    "one-ball": {"dimension": 3, "balls": [{"center": [0, 0, 0], "radius": 1.0}]},
    "two-disks-r2": {
        "dimension": 2,
        "balls": [{"center": [0, 0], "radius": 1.0}, {"center": [5, 0], "radius": 1.0}],
    },
    "flexdemo-disjoint": ["--preset", "flexdemo-disjoint"],
    "transition-overlapping": ["--preset", "transition-overlapping"],
    "r4": ["--n", "4", "--dim", "4", "--seed", "0", "--with-transversal"],
}


class TestReportSchema:
    def test_every_reporting_command_validates(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        demo = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(demo)])
        commands = [
            ["check-convexity", "--scene", str(scene), "--samples", "1024", "--pairs", "100"],
            ["enumerate-permutations", "--scene", str(scene), "--samples", "1000"],
            ["count-components", "--scene", str(scene), "--samples", "1000"],
            ["probe-flex", "--scene", str(demo), "--boundary-samples", "20"],
            ["verify-identities", "--trials", "1"],
            ["classify-boundary", "--scene", str(demo), "--directions", "2"],
        ]
        for args in commands:
            r = runner.invoke(main, args)
            assert r.exit_code in (0, 1), (args, r.output)
            doc = json.loads(r.output)
            assert doc["schema_version"] == 2
            assert doc["command"] == args[0]
            assert isinstance(doc["config"], dict)
            assert "tol" not in doc["config"]
            # every report that decides feasibility states its band
            assert ("band" in doc["verdicts"]) == (args[0] != "verify-identities")
            assert isinstance(doc["verdicts"], dict)
            assert "timings" not in doc  # deterministic by default

    @pytest.mark.parametrize("scene_name", list(_SMOKE_SCENES))
    def test_contract_smoke_matrix(self, runner, tmp_path, scene_name):
        # every reporting command at small budgets on scenes of every shape:
        # a documented exit code, a report on 0/1/3, never a traceback
        scene = tmp_path / "s.json"
        make = _SMOKE_SCENES[scene_name]
        if isinstance(make, dict):
            scene.write_text(json.dumps(make))
        else:
            invoke(runner, ["generate-scene", *make, "--out", str(scene)])
        s = ["--scene", str(scene)]
        commands = [
            ["check-convexity", *s, "--samples", "512", "--pairs", "16"],
            ["check-convexity", *s, "--samples", "512", "--pairs", "16",
             "--order-semantics", "entry"],
            ["enumerate-permutations", *s, "--samples", "512"],
            ["count-components", *s, "--samples", "512"],
            ["probe-flex", *s, "--boundary-samples", "4"],
            ["classify-boundary", *s, "--directions", "2"],
            ["verify-identities", "--trials", "1"],
        ]
        for k, args in enumerate(commands):
            out = tmp_path / f"r{k}.json"
            r = runner.invoke(main, [*args, "--out", str(out)])
            printed = r.output
            if r.exception is not None and not isinstance(r.exception, SystemExit):
                printed += "".join(traceback.format_exception(*r.exc_info))
            assert "Traceback" not in printed, (args, printed)
            assert r.exit_code in (0, 1, 2, 3), (args, printed)
            if r.exit_code != 2:
                doc = json.loads(out.read_text())
                assert doc["outcome"]["status"] in ("holds", "violation", "inconclusive"), args

    @pytest.mark.parametrize("name", ["pinned", "two-permutations", "transition-overlapping"])
    def test_verdicts_are_the_library_reports(self, runner, tmp_path, name):
        # a report's verdicts, band aside, are what the library function
        # returns, after a JSON round trip: inconclusive, holding, and with
        # more violations than the report lists
        scene = preset_scene(name)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scene.to_json_dict()))

        def verdicts(*args):
            doc = json.loads(runner.invoke(main, [*args, "--scene", str(path)]).output)
            assert doc["verdicts"].pop("band") == scene.band
            # the sample-set reports give their sample's budget in the config only
            if doc["command"] != "check-convexity":
                assert doc["config"] == {"scene": str(path), "samples": 4000, "seed": 2}
            return doc["verdicts"]

        def round_trip(report):
            return json.loads(json.dumps(report))

        convexity = cone_mod.cone_convexity_check(
            scene, (0, 1, 2), pairs=200, seed=1, lattice=1024,
            order_semantics="entry")
        assert verdicts("check-convexity", "--samples", "1024", "--pairs", "200", "--seed", "1",
                        "--order-semantics", "entry") == round_trip(convexity)
        assert len(convexity["violations"]) == min(convexity["violation_count"],
                                                   cone_mod.REPORTED_VIOLATIONS)
        sset = cone_mod.sample_scene(scene, 4000, 2)
        catalog = cone_mod.enumerate_geometric_permutations(sset)
        assert verdicts("enumerate-permutations", "--samples", "4000", "--seed", "2") == \
            round_trip(catalog)
        components = cone_mod.count_components(sset)
        assert verdicts("count-components", "--samples", "4000", "--seed", "2")["components"] \
            == round_trip(components)

    def test_identity_verdicts_are_the_suite_report(self, runner):
        suite = polyid.schwartz_zippel_suite(trials=5, height=1000, seed=3)
        r = runner.invoke(main, ["verify-identities", "--trials", "5", "--seed", "3"])
        assert json.loads(r.output)["verdicts"] == json.loads(json.dumps(suite))

    @pytest.mark.parametrize("passed, reason, status, code", [
        (True, None, "holds", 0),
        (False, None, "violation", 1),
        (False, "no evidence", "inconclusive", 3),
    ])
    def test_outcome_names_the_exit_code(self, capsys, passed, reason, status, code):
        with pytest.raises(SystemExit) as exc:
            _finish("verify-identities", {}, {}, passed, None, None, reason)
        assert exc.value.code == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == {"status": status, "reason": reason}

    def test_timings_flag_adds_block(self, runner):
        r = runner.invoke(main, ["verify-identities", "--trials", "1", "--timings"])
        doc = json.loads(r.output)
        assert "timings" in doc and doc["timings"]["seconds"] > 0


class TestTraceCurves:
    def test_csv_schema(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        out = tmp_path / "trace.csv"
        r = runner.invoke(
            main,
            [
                "trace-curves", "--scene", str(scene), "--chart", "u1",
                "--grid", "100", "--out", str(out),
            ],
        )
        assert r.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "curve,chart,x,y"
        assert any(line.startswith("pair01") for line in lines[1:])

    def test_svg_colors_and_hatching(self, runner, tmp_path):
        scene = tmp_path / "f.json"
        invoke(runner, ["generate-scene", "--preset", "flexdemo-disjoint", "--out", str(scene)])
        out = tmp_path / "fig.svg"
        r = runner.invoke(
            main,
            [
                "trace-curves", "--scene", str(scene), "--chart", "u2",
                "--format", "svg", "--grid", "100", "--out", str(out),
            ],
        )
        assert r.exit_code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "#cc0000" in svg  # sextic in red
        assert "#000000" in svg  # Hessian in black
        assert "#c8a2c8" in svg  # hatched feasible region strokes

    def test_empty_traces_still_valid_svg(self):
        traces = trace_curves(
            Triple(preset_scene("collinear")), chart="u1", grid=24, extent=0.01
        )
        traces.curves = {k: [] for k in traces.curves}
        svg = render_figure(traces)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_deterministic_output(self, runner, tmp_path):
        scene = tmp_path / "c.json"
        invoke(runner, ["generate-scene", "--preset", "collinear", "--out", str(scene)])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = runner.invoke(
                main,
                ["trace-curves", "--scene", str(scene), "--grid", "80", "--out", str(out)],
            )
            assert r.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _scaled_preset(tmp_path, name, factor):
    doc = preset_scene(name).to_json_dict()
    for ball in doc["balls"]:
        ball["center"] = [factor * x for x in ball["center"]]
        ball["radius"] *= factor
    path = tmp_path / f"{name}-{factor!r}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestScaleFree:
    """A scaled scene gets the verdicts of the scene: the band scales with it.

    With an absolute 1e-9 tolerance, the three scaled repros below gave a
    wrong count, a false flex and 5 of 66 violations."""

    @staticmethod
    def run(runner, args):
        r = runner.invoke(main, args)
        return r.exit_code, json.loads(r.output)["verdicts"]

    def test_components_of_a_tiny_scene(self, runner, tmp_path):
        runs = [self.run(runner, ["count-components", "--scene",
                                  _scaled_preset(tmp_path, "two-permutations", f)])
                for f in (1.0, 1e-9)]
        for code, v in runs:
            assert code == 0
            assert v["components"]["count"] == v["permutations"] == 2
        assert runs[1][1]["components"]["feasible_samples"] == \
            runs[0][1]["components"]["feasible_samples"] < 20000

    def test_no_false_flex_on_a_tiny_scene(self, runner, tmp_path):
        runs = [self.run(runner, ["probe-flex", "--scene",
                                  _scaled_preset(tmp_path, "flexdemo-disjoint", f)])
                for f in (1.0, 1e-9)]
        assert [code for code, _ in runs] == [0, 0]
        margins = [v["min_normalized_margin"] for _, v in runs]
        assert margins[0] > 0.5
        assert abs(margins[1] - margins[0]) <= 1e-6

    @pytest.mark.parametrize("k", [-300, -200, 170, 200, 300])
    def test_probe_flex_at_extreme_scales(self, runner, tmp_path, k):
        # 2^k scales exactly, so the verdict and the counts are scale 1's;
        # margins the float range cannot hold at 2^k are null, with a reason
        reports = []
        for factor in (1.0, 2.0 ** k):
            r = runner.invoke(main, ["probe-flex", "--scene",
                                     _scaled_preset(tmp_path, "flexdemo-disjoint", factor)])
            assert r.exc_info is None or r.exc_info[0] is SystemExit
            assert r.stderr == ""
            reports.append((r.exit_code, json.loads(r.stdout)))
        (code1, doc1), (code, doc) = reports
        assert code1 == 0
        assert code in (0, 3)
        if code == 3:
            assert doc["outcome"]["reason"]
            return
        for key in ("probed", "skipped", "located", "pass"):
            assert doc["verdicts"][key] == doc1["verdicts"][key], key
        lost = [s for s in doc["verdicts"]["samples"]
                if s["skipped"] is None and s["margin"] is None]
        assert bool(lost) == ("reason" in doc["verdicts"])

    def test_classify_boundary_of_a_rounded_copy(self, runner, tmp_path):
        # 1e-100 is no power of two, so the copy's coordinates round and its
        # sextic roots move in their last bits; its counts and verdicts stay
        runs = [self.run(runner, ["classify-boundary", "--scene",
                                  _scaled_preset(tmp_path, "flexdemo-disjoint", f)])
                for f in (1.0, 1e-100)]
        assert [code for code, _ in runs] == [0, 0]
        (_, v1), (_, v) = runs
        for key in ("rays", "sextic_points", "boundary_directions", "interior_directions",
                    "disagreements"):
            assert v[key] == v1[key], key
        assert v1["boundary_directions"] > 0 and v1["interior_directions"] > 0

        def verdicts(entry):
            return [entry.get(k) for k in ("on_boundary", "crosses_triangle", "tag", "agree")]

        assert list(map(verdicts, v["classifications"])) == \
            list(map(verdicts, v1["classifications"]))

    def test_entry_order_violations_of_a_small_scene(self, runner, tmp_path):
        # 1e-6 rounds the scene; 2^-330 and 2^300 take the squares of its
        # lengths out of the float range
        budget = ["--order-semantics", "entry", "--samples", "1024", "--pairs", "200"]
        for name in ("transition-overlapping", "flexdemo-overlapping"):
            runs = [self.run(runner, ["check-convexity", "--scene",
                                      _scaled_preset(tmp_path, name, f), *budget])
                    for f in (1.0, 1e-6, 2.0 ** -330, 2.0 ** 300)]
            assert runs[0][0] in (0, 1) and runs[0][1]["feasible_samples"] > 0
            if name == "transition-overlapping":
                assert runs[0][0] == 1 and runs[0][1]["violation_count"] > 0
            for code, verdicts in runs[1:]:
                assert code == runs[0][0], name
                for key in ("violation_count", "feasible_samples", "tested_pairs"):
                    assert verdicts[key] == runs[0][1][key], (name, key)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_power_of_two_scales_every_length_exactly(self, runner, tmp_path, name):
        # scaling by 2^k is exact, so the reports equal scale 1's with each
        # length field multiplied by the factor and every other field equal;
        # at 2^-330 and 2^300 a product of two squared lengths leaves the
        # float range, so this also holds only if the kernel never forms one
        # and the sextic is traced at a safe scale; trace-curves writes chart
        # coordinates, which do not scale.  probe-flex margins are sixth
        # powers of length, so it runs at factors whose margins stay floats
        powers = {"band": 1, "min_midpoint_margin": 1, "slack": 1, "witness_slack": 1,
                  "margin": 6, "min_margin": 6}

        def unscaled(value, factor, key=None):
            if isinstance(value, dict):
                return {k: unscaled(v, factor, k) for k, v in value.items()}
            if isinstance(value, list):
                return [unscaled(v, factor, key) for v in value]
            return value / factor ** powers[key] if key in powers and value is not None else value

        commands = [
            ["check-convexity", "--samples", "2048", "--pairs", "300"],
            ["enumerate-permutations", "--samples", "4000"],
            ["count-components", "--samples", "4000"],
        ]
        factors = (2.0 ** -30, 2.0 ** 30, 2.0 ** -330, 2.0 ** 300)
        runs = [(args, factors) for args in commands]
        runs.append((["classify-boundary"], (*factors, 2.0 ** -7, 2.0 ** 3)))
        runs.append((["probe-flex"], (2.0 ** -30, 2.0 ** -2, 2.0 ** 3, 2.0 ** 30)))
        for args, scales in runs:
            reports = []
            for factor in (1.0, *scales):
                r = runner.invoke(main, [*args, "--scene", _scaled_preset(tmp_path, name, factor)])
                doc = json.loads(r.output)
                reports.append((r.exit_code, unscaled(doc["verdicts"], factor), doc["outcome"]))
            for factor, report in zip(scales, reports[1:]):
                assert report == reports[0], (args, factor)
        traces = [runner.invoke(main, ["trace-curves", "--scene",
                                       _scaled_preset(tmp_path, name, factor)])
                  for factor in (1.0, *factors)]
        assert traces[0].exit_code == 0
        for factor, r in zip(factors, traces[1:]):
            assert (r.exit_code, r.output) == (0, traces[0].output), factor
