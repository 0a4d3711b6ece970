import json
import math
import tracemalloc

import numpy as np
import pytest

from slmajorant import eigenvalue, constraint_value, potential_from_dict, parse_weight
from slmajorant import cli
from slmajorant.cli import (
    RunRequest,
    UsageError,
    _Column,
    _write_csv,
    dumps_deterministic,
    main,
    parse_config,
    run,
)
from slmajorant.config import SolverConfig
from slmajorant.eigensolver import EigenPair, ShootingSolution
from slmajorant.measures import ParameterError, Potential, potential_to_dict
from conftest import PI2, centered_atom_lambda
from reference import csv_text_ref, dumps_deterministic_ref, fused_mesh_ref


def make_config(tmp_path, **overrides):
    doc = {"mode": "solve", "weight": "const:1", "gamma": 1, "n_max": 0,
           "grid_n": 16}
    doc.update(overrides)
    doc.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestParseConfig:
    def test_minimal_defaults(self):
        req, cfg = parse_config(
            '{"mode":"solve","weight":"const:1","gamma":1,"n_max":0}'
        )
        assert req.mode == "solve"
        assert req.gamma == 1.0
        assert cfg.grid_n == 4096
        assert cfg.tol_eigen == 1e-10
        assert cfg.max_iter == 500

    def test_gamma_below_one_rejected_with_range(self):
        with pytest.raises(UsageError, match="gamma >= 1"):
            parse_config('{"mode":"solve","weight":"const:1","gamma":0.5}')

    def test_unknown_key_named(self):
        with pytest.raises(UsageError, match="frobnicate"):
            parse_config(
                '{"mode":"solve","weight":"const:1","gamma":1,"frobnicate":3}'
            )

    def test_removed_seed_key_rejected(self):
        # no solver ever read "seed"; it is now an unknown key
        with pytest.raises(UsageError, match="seed"):
            parse_config('{"mode":"solve","weight":"const:1","gamma":1,"seed":42}')

    def test_power_weight_extremal_request(self):
        req, _ = parse_config(
            '{"mode":"extremal","weight":"power:1,1","gamma":2}'
        )
        assert req.mode == "extremal"
        assert req.weight(0.5) == 0.25

    def test_bad_json(self):
        with pytest.raises(UsageError):
            parse_config("{not json")

    def test_wrong_type(self):
        with pytest.raises(UsageError, match="mode"):
            parse_config('{"mode":3,"weight":"const:1","gamma":1}')

    def test_missing_direction_for_perturb(self):
        with pytest.raises(UsageError, match="direction"):
            parse_config('{"mode":"perturb","weight":"const:1","gamma":2}')

    def test_bad_solver_config(self):
        with pytest.raises(UsageError):
            parse_config(
                '{"mode":"solve","weight":"const:1","gamma":1,"tol_res":0}'
            )

    def test_removed_damping_key_exits_2(self, tmp_path, capsys):
        # the initial damping is a solver constant, not a config key
        path, _ = make_config(tmp_path, damping=0.5)
        assert main(["--config", str(path)]) == 2
        assert "damping" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", 42), ("tol_outer", 1e-8), ("pos_tol", 1e-6),
    ])
    def test_removed_keys_exit_2(self, tmp_path, capsys, key, value):
        # like damping: keys no solver reads, or settings no caller varied
        # (now the solver constants TOL_OUTER and POS_TOL), are unknown keys
        path, _ = make_config(tmp_path, **{key: value})
        assert main(["--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("n_max", "x"), ("n_max", [1]), ("n_max", 2.7), ("n_max", 2.0),
        ("n_max", True), ("n_max", -1), ("n_max", None),
        ("alpha", "abc"), ("alpha", True), ("alpha", [0.5]), ("alpha", None),
        ("alpha", float("inf")),
        # the weight literal and the potentials name their key the same way
        ("weight", "power:x,1"), ("weight", "table-inline:a,b"),
        ("weight", "table-inline:0.5"), ("weight", "power:nan,1"),
        ("potential", [1, 2]), ("direction", [1, 2]),
        ("potential", {"density": [1.0] * 16}),
    ])
    def test_malformed_optional_key_exits_2(self, tmp_path, capsys, key, value):
        path, _ = make_config(tmp_path, mode="bounds", **{key: value})
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err
        assert "Traceback" not in err

    def test_well_typed_optional_keys_parse(self):
        req, _ = parse_config(json.dumps({
            "mode": "perturb", "weight": "const:1", "gamma": 2, "n_max": 3,
            "alpha": 2, "direction": {"grid_n": 16, "density": [1.0] * 16},
        }))
        assert req.n_max == 3
        assert req.alpha == 2.0 and type(req.alpha) is float

    def test_perturb_on_incommensurable_grids_exits_2(self, tmp_path, capsys):
        # 4096 and 4095 cells have a common grid of 16,773,120 cells
        base = {"grid_n": 4096, "density": [1.0] * 4096, "atoms": []}
        direction = {"grid_n": 4095, "density": [1.0] * 4095, "atoms": []}
        path, _ = make_config(tmp_path, mode="perturb", gamma=2, potential=base,
                              direction=direction, grid_n=4096)
        assert main(["--config", str(path)]) == 2
        assert "incommensurable" in capsys.readouterr().err

    def test_table_weight_from_csv(self, tmp_path):
        table = tmp_path / "w.csv"
        table.write_text("x,r\n0.25,2.0\n0.75,4.0\n")
        req, _ = parse_config(
            json.dumps(
                {"mode": "solve", "weight": f"table:{table}", "gamma": 1, "n_max": 0}
            )
        )
        assert req.weight(0.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("body", [
        b"x,r\n0.25\n", b"x,r\n0.25,abc\n", b"x,r\n0.25,2.0,1.0\n",
        b"x,r\nnan,2.0\n", b"x,r\n0.25,\xff\n", b"x,r\n0.25," + b"1" * 140000,
    ], ids=["one-column", "not-a-number", "three-columns", "nan-node", "not-utf8",
            "past-csv-field-limit"])
    def test_malformed_table_csv_exits_2(self, tmp_path, capsys, body):
        table = tmp_path / "w.csv"
        table.write_bytes(body)
        path, _ = make_config(tmp_path, weight=f"table:{table}")
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "key 'weight'" in err and "Traceback" not in err

    @pytest.mark.parametrize("text,match", [
        ("[1, 2]", "JSON object"),
        ('{"mode":"solve","gamma":1}', "missing required key: weight"),
        ('{"mode":"frob","weight":"const:1","gamma":1}', "mode must be one of"),
    ])
    def test_malformed_config_rejected(self, text, match):
        with pytest.raises(UsageError, match=match):
            parse_config(text)


class TestConfigTypes:
    """Integer fields take a Python int (not a bool); real values are
    finite ints or floats (not bools).  A bad value names its key and the
    CLI exits 2."""

    @pytest.mark.parametrize("key,value", [
        ("grid_n", 64.5), ("grid_n", 64.0), ("grid_n", True), ("grid_n", "64"),
        ("max_iter", 2.5), ("max_iter", False), ("k_atoms", 1.5), ("k_atoms", True),
        # an int below the field's minimum
        ("grid_n", 8), ("max_iter", 0), ("k_atoms", 0),
    ])
    def test_integer_fields_need_an_int(self, tmp_path, capsys, key, value):
        with pytest.raises(ParameterError, match=key):
            SolverConfig(**{key: value})
        doc = {"mode": "solve", "weight": "const:1", "gamma": 2, key: value}
        with pytest.raises(UsageError, match=key):
            parse_config(json.dumps(doc))
        path, _ = make_config(tmp_path, **{key: value})
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("mode,key,text", [
        ("solve", "tol_eigen", "true"),
        ("solve", "gamma", "true"),
        ("solve", "gamma", "NaN"),
        ("bounds", "gamma", "Infinity"),
        ("extremal", "tol_res", "Infinity"),
        ("solve", "tol_eigen", "NaN"),
        ("solve", "tol_res", "false"),
        ("solve", "tol_eigen", '"1e-10"'),
        ("solve", "gamma", "1e400"),
        ("solve", "gamma", "1" + "0" * 400),   # an int past the float range
    ])
    def test_real_values_must_be_finite(self, tmp_path, capsys, mode, key, text):
        doc = {"mode": mode, "weight": "const:1", "gamma": 2, "grid_n": 16,
               "output_dir": str(tmp_path / "out")}
        doc.pop(key, None)
        body = json.dumps(doc)[:-1] + f', "{key}": {text}}}'
        with pytest.raises(UsageError, match=key):
            parse_config(body)
        path = tmp_path / "config.json"
        path.write_text(body)
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_well_typed_values_parse(self):
        _, cfg = parse_config(json.dumps({
            "mode": "solve", "weight": "const:1", "gamma": 2, "grid_n": 64,
            "max_iter": 3, "k_atoms": 2, "tol_eigen": 1, "tol_res": 1e-3,
        }))
        assert (cfg.grid_n, cfg.max_iter, cfg.k_atoms) == (64, 3, 2)
        assert (cfg.tol_eigen, cfg.tol_res) == (1, 1e-3)
        with pytest.raises(ParameterError, match="tol_res"):
            SolverConfig(tol_res=-1e-6)


class TestModes:
    def test_solve_free_particle(self, tmp_path):
        path, doc = make_config(tmp_path, n_max=3)
        assert main(["--config", str(path)]) == 0
        out = tmp_path / "out"
        res = json.loads((out / "result.json").read_text())
        for n, lam in enumerate(res["lambdas"]):
            assert abs(lam - PI2 * (n + 1) ** 2) <= 1e-9 * PI2 * (n + 1) ** 2
        header = (out / "eigenfunction.csv").read_text().splitlines()[0]
        assert header == "x,y,dy"
        assert (out / "eigenfunction.3.csv").exists()

    def test_extremal_atom_mode(self, tmp_path):
        path, _ = make_config(
            tmp_path, mode="extremal", weight="const:1", gamma=1, grid_n=64
        )
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        atom = res["q_hat"]["atoms"][0]
        assert abs(atom["pos"] - 0.5) <= 1e-6
        assert res["M"] == pytest.approx(centered_atom_lambda(1.0), rel=1e-8)
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,lambda0,residual"
        assert (tmp_path / "out" / "extremal.csv").exists()

    def test_bounds_mode_passes(self, tmp_path):
        q = {"grid_n": 32, "density": [1.0] * 32,
             "atoms": [{"pos": 0.375, "mass": 0.5}]}
        path, _ = make_config(tmp_path, mode="bounds", n_max=5, potential=q,
                              grid_n=32)
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["all_pass"] is True
        rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
        assert rows[0] == "n,lambda,upper_bound,gap,gap_lower_bound,pass"
        assert len(rows) == 7

    def test_perturb_mode(self, tmp_path):
        base = {"grid_n": 32, "density": [1.0] * 32, "atoms": []}
        direction = {"grid_n": 32, "density": [0.5] * 16 + [1.5] * 16, "atoms": []}
        path, _ = make_config(
            tmp_path, mode="perturb", gamma=2, potential=base, direction=direction,
            grid_n=32,
        )
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["pass"] is True
        assert abs(res["analytic"] - res["finite_difference"]) <= 1e-5

    def test_oracle_mode_gamma_one(self, tmp_path):
        path, _ = make_config(tmp_path, mode="oracle", gamma=1, grid_n=64)
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["M_hat"] == pytest.approx(centered_atom_lambda(1.0), rel=1e-6)
        scan = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert scan[0] == "zeta,lambda0"
        assert len(scan) == 1002

    def test_oracle_mode_gamma_two(self, tmp_path):
        path, _ = make_config(tmp_path, mode="oracle", gamma=2, grid_n=64)
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["M_hat"] > PI2

    def test_extremal_above_tol_res_exits_1(self, tmp_path):
        # the snapped answer misses tol_res: not converged, exit 1
        path, _ = make_config(tmp_path, mode="extremal", weight="power:1,1",
                              gamma=1.05, grid_n=256)
        assert main(["--config", str(path)]) == 1
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["converged"] is False
        assert res["residual"] >= 1e-6

    def test_usage_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode":"solve","weight":"const:1","gamma":0.5}')
        assert main(["--config", str(path)]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 2

    def test_mode_override_flag(self, tmp_path, capsys):
        # there is no --mode flag: the mode comes from the config alone, and
        # argparse refuses the flag with exit 2 before any output is made
        path, _ = make_config(tmp_path, mode="solve", gamma=2)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--mode", "oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mode_override_to_perturb_needs_direction(self, tmp_path, capsys):
        # a perturb mode, now named by the config, still needs a direction
        path, _ = make_config(tmp_path, mode="perturb", gamma=2)
        assert main(["--config", str(path)]) == 2
        assert ("mode 'perturb' requires key 'direction'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_bounds_gap_check_on_an_atom_free_potential(self, tmp_path,
                                                        monkeypatch):
        # without atoms each row also checks the gap against its lower
        # bound: every row passes on the true bound, none on an inflated one
        q = {"grid_n": 32, "density": [float(j % 5) for j in range(32)],
             "atoms": []}
        path, _ = make_config(tmp_path, mode="bounds", n_max=4, potential=q,
                              grid_n=32)
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert all(r["pass"] and r["gap"] >= r["gap_lower_bound"]
                   for r in res["rows"])
        monkeypatch.setattr(cli, "gap_lower_bound", lambda q, n: (1e9, 0))
        assert main(["--config", str(path)]) == 1
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert res["all_pass"] is False
        assert not any(r["pass"] for r in res["rows"])

    @pytest.mark.parametrize("gamma, extra, alpha", [
        (2, {"alpha": 0.5}, 0.5),
        (1, {}, 0.0),
        (1, {"alpha": 0}, 0.0),
    ])
    def test_perturb_alpha(self, tmp_path, gamma, extra, alpha):
        # an explicit alpha is used as given; at gamma = 1 it defaults to 0
        base = {"grid_n": 32, "density": [1.0] * 32, "atoms": []}
        direction = {"grid_n": 32, "density": [0.5] * 16 + [1.5] * 16, "atoms": []}
        path, _ = make_config(tmp_path, mode="perturb", gamma=gamma, potential=base,
                              direction=direction, grid_n=32, **extra)
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert (res["gamma"], res["alpha"], res["pass"]) == (gamma, alpha, True)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the -FD_EPS step of the central difference gives "
                              "the direction's atom a negative mass")
    @pytest.mark.parametrize("gamma", [1, 2])
    def test_perturb_direction_with_an_atom(self, tmp_path, capsys, gamma):
        base = {"grid_n": 32, "density": [0.5] * 32, "atoms": []}
        direction = {"grid_n": 32, "density": [0.0] * 32,
                     "atoms": [{"pos": 0.5, "mass": 1.0}]}
        path, _ = make_config(tmp_path, mode="perturb", gamma=gamma, potential=base,
                              direction=direction, grid_n=32)
        status = main(["--config", str(path)])
        assert "atom mass -0.0001" not in capsys.readouterr().err
        assert status in (0, 1)
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        assert math.isfinite(res["finite_difference"])

    def test_perturb_nonzero_alpha_at_gamma_one_exits_2(self, tmp_path, capsys):
        base = {"grid_n": 32, "density": [1.0] * 32, "atoms": []}
        path, _ = make_config(tmp_path, mode="perturb", gamma=1, potential=base,
                              direction=base, grid_n=32, alpha=0.5)
        assert main(["--config", str(path)]) == 2
        assert "alpha = 0" in capsys.readouterr().err


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, tmp_path):
        doc = {"mode": "extremal", "weight": "power:1,1", "gamma": 2,
               "grid_n": 128}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        for d in ("a", "b"):
            assert main(["--config", str(path),
                         "--output-dir", str(tmp_path / d)]) == 0
        for name in ("result.json", "extremal.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_potential_round_trip(self, tmp_path):
        doc = {"mode": "extremal", "weight": "const:1", "gamma": 2,
               "grid_n": 128, "output_dir": str(tmp_path / "out")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path)]) == 0
        res = json.loads((tmp_path / "out" / "result.json").read_text())
        q1 = potential_from_dict(res["q_hat"])
        q2 = potential_from_dict(
            json.loads(dumps_deterministic(res["q_hat"]))
        )
        w = parse_weight("const:1")
        assert constraint_value(w, 2.0, q1) == constraint_value(w, 2.0, q2)
        assert eigenvalue(q1, 0, 1e-12) == eigenvalue(q2, 0, 1e-12)

    def test_float_formatting_round_trips(self):
        vals = [math.pi, 1.0 / 3.0, 1e-300, 6.02e23, 11.771859163750689]
        text = dumps_deterministic({"v": vals})
        back = json.loads(text)
        assert back["v"] == vals


class TestWriters:
    """The flat-list fast paths write the bytes of the value-by-value
    writers in tests/reference.py."""

    SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308,
               math.pi, -1.0 / 3.0]

    def test_json_documents_match_the_reference(self):
        rng = np.random.default_rng(0)
        floats = rng.standard_normal(50).tolist()
        docs = [
            [], {}, [[]], {"e": []}, floats, self.SPECIAL,
            {"floats": floats, "special": self.SPECIAL, "int": 3,
             "ints": [1, 2, -7], "bools": [True, False],
             "mixed": [1.5, 2, True, None, "s", np.float64(2.5)],
             "numpy": [np.float64(0.1), np.float32(0.1), np.int64(4),
                       np.bool_(True)],
             "scalars": {"f64": np.float64(math.nan), "i": np.int32(-2),
                         "b": np.bool_(False), "none": None},
             "nested": [floats[:3], [[1.0, math.inf], [np.nan, 2]],
                        {"x": [0.25, 0.5]}, (1.0, 2.0)],
             "text": "a \"quoted\" name"},
        ]
        for doc in docs:
            assert dumps_deterministic(doc) == dumps_deterministic_ref(doc)
            assert dumps_deterministic(doc, 4) == dumps_deterministic_ref(doc, 4)

    def test_eigenpair_dict_matches_the_reference(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0.0, 1.0, 33)
        pair = EigenPair(0, 12.5, xs, rng.standard_normal(33),
                         rng.standard_normal(33), rng.standard_normal(33))
        doc = pair.to_dict()
        assert all(type(v) is float for key in ("x", "y", "dy") for v in doc[key])
        old = {**doc, **{key: [np.float64(v) for v in doc[key]]
                         for key in ("x", "y", "dy")}}
        assert dumps_deterministic(doc) == dumps_deterministic_ref(old)

    def test_csv_rows_match_the_reference(self, tmp_path):
        rng = np.random.default_rng(2)
        cols = rng.standard_normal((3, 20))
        cols[0, :len(self.SPECIAL)] = self.SPECIAL
        plain = list(zip(*cols.tolist()))
        mixed = [(1, 2.5, True), (np.int64(2), np.float64(math.nan), np.bool_(False)),
                 (3, -math.inf, False)]
        finite = rng.standard_normal((20, 3)).tolist()
        finite[:3] = [[0.0, -0.0, 5e-324], [1e308, -1e-308, 1e16], [0.1, 2.0, -3.5]]
        for header, rows in ((["a", "b", "c"], plain),
                             (["a", "b", "c"], list(zip(*cols))),
                             (["n", "x", "ok"], mixed),
                             (["a", "b", "c"], [tuple(r) for r in finite]),
                             (["a", "b", "c"], [])):
            _write_csv(tmp_path / "t.csv", header, rows)
            assert (tmp_path / "t.csv").read_text() == csv_text_ref(header, rows)
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "t.csv", ["a", "b"],
                       [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)])


def _record(monkeypatch, name, calls):
    """Replace cli.<name> by a wrapper that records each result."""
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cli, name, wrapper)


def _read_all(out):
    return {p.name: p.read_text() for p in out.iterdir()}


class TestOutputsMatchTheReference:
    """Every file of every mode holds the bytes that the value-by-value
    writers of tests/reference.py make from the same report objects."""

    def test_solve_with_atoms(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        q = {"grid_n": 64, "density": rng.uniform(0.0, 50.0, 64).tolist(),
             "atoms": [{"pos": 0.3, "mass": 4.0}, {"pos": 0.71875, "mass": 9.5}]}
        pairs = []
        _record(monkeypatch, "eigenfunction", pairs)
        path, _ = make_config(tmp_path, gamma=2, potential=q, n_max=3, grid_n=64)
        assert main(["--config", str(path)]) == 0
        assert [p.n for p in pairs] == [0, 1, 2, 3]
        result = {"mode": "solve", "weight": "const:1",
                  "lambdas": [p.lam for p in pairs],
                  "eigenpairs": [p.to_dict() for p in pairs],
                  "potential": potential_to_dict(potential_from_dict(q))}
        want = {"result.json": dumps_deterministic_ref(result) + "\n"}
        for p in pairs:
            name = "eigenfunction.csv" if p.n == 0 else f"eigenfunction.{p.n}.csv"
            want[name] = csv_text_ref(
                ["x", "y", "dy"],
                zip(p.xs.tolist(), p.ys.tolist(), p.dys_right.tolist()))
        assert _read_all(tmp_path / "out") == want

    def test_solve_one_run_grid_of_scan_length(self, tmp_path, monkeypatch):
        # 600 atoms on a 16-cell grid of density 0 make a one-run mesh of
        # 601 segments, which the scan sweeps: the same bytes as through
        # the cell-loop fused mesh
        rng = np.random.default_rng(4)
        pos = np.linspace(0.01, 0.99, 600) + rng.uniform(-1e-4, 1e-4, 600)
        q = {"grid_n": 16, "density": [0.0] * 16,
             "atoms": [{"pos": p, "mass": m} for p, m in
                       zip(pos.tolist(), rng.uniform(0.01, 0.1, 600).tolist())]}
        outs = []
        for name in ("new", "ref"):
            if name == "ref":
                monkeypatch.setattr(Potential, "fused_mesh",
                                    property(fused_mesh_ref))
            path, _ = make_config(tmp_path, potential=q, n_max=1,
                                  output_dir=str(tmp_path / name))
            assert main(["--config", str(path)]) == 0
            outs.append(_read_all(tmp_path / name))
        assert outs[0] == outs[1]

    def test_extremal_gamma_gt1(self, tmp_path, monkeypatch):
        reports = []
        _record(monkeypatch, "solve_extremal_gamma_gt1", reports)
        path, _ = make_config(tmp_path, mode="extremal", weight="power:1,1",
                              gamma=2, grid_n=64)
        assert main(["--config", str(path)]) == 0
        (rep,) = reports
        result = {"mode": "extremal", "weight": "power:1,1", "gamma": 2.0,
                  **rep.to_dict()}
        mids = rep.q_hat.midpoints()
        yv = ShootingSolution(rep.q_hat, rep.M).values(mids)
        rv = parse_weight("power:1,1")(mids)
        want = {
            "result.json": dumps_deterministic_ref(result) + "\n",
            "extremal.csv": csv_text_ref(
                ["x", "y", "q", "y2_over_r"],
                zip(mids.tolist(), yv.tolist(), rep.q_hat.density.tolist(),
                    (yv * yv / rv).tolist())),
            "trace.csv": csv_text_ref(["iter", "lambda0", "residual"], rep.trace),
        }
        assert _read_all(tmp_path / "out") == want

    def test_oracle_gamma_one(self, tmp_path, monkeypatch):
        results = []
        _record(monkeypatch, "atom_grid_search", results)
        path, _ = make_config(tmp_path, mode="oracle", gamma=1, grid_n=64)
        assert main(["--config", str(path)]) == 0
        (res,) = results
        result = {"mode": "oracle", "weight": "const:1", "gamma": 1.0,
                  **res.to_dict()}
        want = {"result.json": dumps_deterministic_ref(result) + "\n",
                "scan.csv": csv_text_ref(["zeta", "lambda0"], res.scan)}
        assert _read_all(tmp_path / "out") == want

    # bounds and perturb build their report in the CLI; 17 significant
    # digits read back the same floats, so the parsed result is that report

    def test_bounds(self, tmp_path):
        q = {"grid_n": 32, "density": [float(v) for v in range(32)],
             "atoms": [{"pos": 0.375, "mass": 0.5}]}
        path, _ = make_config(tmp_path, mode="bounds", n_max=4, potential=q,
                              grid_n=32)
        assert main(["--config", str(path)]) == 0
        files = _read_all(tmp_path / "out")
        result = json.loads(files["result.json"])
        header = ["n", "lambda", "upper_bound", "gap", "gap_lower_bound", "pass"]
        rows = [tuple(r[k] for k in header) for r in result["rows"]]
        assert [type(v) for v in rows[0]] == [int, float, float, float, float, bool]
        want = {"result.json": dumps_deterministic_ref(result) + "\n",
                "bounds.csv": csv_text_ref(header, rows)}
        assert files == want

    def test_perturb(self, tmp_path):
        base = {"grid_n": 32, "density": [1.0] * 32, "atoms": []}
        direction = {"grid_n": 32, "density": [0.5] * 16 + [1.5] * 16, "atoms": []}
        path, _ = make_config(tmp_path, mode="perturb", gamma=2, potential=base,
                              direction=direction, grid_n=32)
        assert main(["--config", str(path)]) == 0
        files = _read_all(tmp_path / "out")
        result = json.loads(files["result.json"])
        assert files == {"result.json": dumps_deterministic_ref(result) + "\n"}


class TestStreaming:
    def test_generator_and_column_values_match_lists(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(9)
        vals[2:5] = [math.nan, math.inf, -0.0]
        dicts = [{"b": vals.tolist(), "a": i} for i in range(3)]
        doc = {"gen": (d for d in dicts), "col": _Column(vals),
               "none": (d for d in ())}
        ref = {"gen": dicts, "col": vals.tolist(), "none": []}
        assert dumps_deterministic(doc, 2) == dumps_deterministic_ref(ref, 2)
        doc = {"col": [_Column(vals), _Column(vals[:0])]}
        assert dumps_deterministic(doc) == dumps_deterministic_ref(
            {"col": [vals.tolist(), []]})
        with pytest.raises(TypeError):
            dumps_deterministic({"gen": (v for v in [1.0, 2.0])})

    def test_solve_write_stage_holds_less_than_its_output(self, tmp_path,
                                                           monkeypatch):
        # eigenpairs are computed before tracing starts, so the peak is the
        # write stage's alone; it stays below the size of the result.json
        rng = np.random.default_rng(5)
        q = {"grid_n": 1024, "density": rng.uniform(0.0, 100.0, 1024).tolist(),
             "atoms": [{"pos": 0.4, "mass": 3.0}]}
        path, _ = make_config(tmp_path, gamma=2, potential=q, n_max=16,
                              grid_n=1024)
        req, cfg = parse_config(path.read_text())
        pot = req.potential
        lams = [eigenvalue(pot, n, cfg.tol_eigen) for n in range(req.n_max + 1)]
        pairs = [cli.eigenfunction(pot, lam, n) for n, lam in enumerate(lams)]
        monkeypatch.setattr(cli, "eigenvalue", lambda q, n, tol: lams[n])
        monkeypatch.setattr(cli, "eigenfunction", lambda q, lam, n: pairs[n])
        tracemalloc.start()
        try:
            assert run(req, cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "out" / "result.json").stat().st_size
        print(f"write-stage peak {peak} B, result.json {size} B")
        assert size > 500_000
        assert peak < size
