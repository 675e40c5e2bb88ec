import csv
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ffdist import make_field, make_point_set
from ffdist.errors import (
    DuplicatePoint,
    FieldMismatch,
    ParseError,
)
from ffdist.generators import GeneratorSpec, generate
from ffdist.setio import read_pointset, write_pointset
from ffdist.sweep import (
    ConfigError,
    SweepConfig,
    parse_checkers,
    parse_int_list,
    parse_sizes,
    rows_to_csv,
    run_bench,
    run_verify,
    trial_seed,
)
from conftest import cli, run_python

README = Path(__file__).resolve().parents[1] / "README.md"


class TestGenerators:
    def test_isotropic_line_q5(self, contexts):
        E = generate(contexts[5], 2, GeneratorSpec("isotropic_line"))
        assert {tuple(p) for p in E.points.tolist()} == {
            (0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}
        assert E.size == 5

    def test_isotropic_line_rejects_3_mod_4(self, contexts):
        with pytest.raises(ConfigError):
            generate(contexts[7], 2, GeneratorSpec("isotropic_line"))

    def test_isotropic_line_needs_dim_2(self, contexts):
        with pytest.raises(ConfigError):
            generate(contexts[5], 3, GeneratorSpec("isotropic_line"))

    def test_uniform_random_deterministic(self, contexts):
        spec = GeneratorSpec("uniform_random", size=20, seed=1)
        a = generate(contexts[13], 2, spec)
        b = generate(contexts[13], 2, spec)
        assert np.array_equal(a.points, b.points)
        assert a.size == 20

    @pytest.mark.parametrize("q,s,size,seed,digest", [
        (1021, 2, 5000, 3, "69767348d932b414"),
        (31, 3, 2000, 11, "59ec00327cd2313b"),
        (157, 3, 4000, 2 ** 100 + 7, "2242f618d63712d6"),
    ])
    def test_uniform_random_points_bytes_are_pinned(self, q, s, size, seed, digest):
        # The benchmark's tracer keys a set by a digest of these bytes, and the seeded
        # sweep cells rest on them: a new route through generate must keep them.
        E = generate(make_field(q), s, GeneratorSpec("uniform_random", size=size, seed=seed))
        assert E.points.dtype == np.int64 and E.points.shape == (size, s)
        assert hashlib.blake2b(E.points.tobytes(), digest_size=8).hexdigest() == digest

    def test_uniform_random_distinct_seeds_differ(self, contexts):
        a = generate(contexts[13], 2, GeneratorSpec("uniform_random", size=20, seed=1))
        b = generate(contexts[13], 2, GeneratorSpec("uniform_random", size=20, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_uniform_random_size_cap(self, contexts):
        with pytest.raises(ConfigError, match=r"size 10 exceeds q\*\*s = 9"):
            generate(contexts[3], 2, GeneratorSpec("uniform_random", size=10, seed=0))

    def test_sphere_set_full_and_sampled(self, contexts):
        full = generate(contexts[13], 2, GeneratorSpec("sphere_set",
                                                       params={"radius": 1}))
        assert all((p[0] ** 2 + p[1] ** 2) % 13 == 1 for p in full.points.tolist())
        sub = generate(contexts[13], 2, GeneratorSpec("sphere_set", size=5, seed=3,
                                                      params={"radius": 1}))
        assert sub.size == 5

    @pytest.mark.parametrize("q,s,r,size,seed,digest", [
        (31, 3, 5, None, 0, "7638fc63c17ff8d7"),
        (151, 3, 7, 5000, 11, "be57a52435964d50"),
    ], ids=["full", "sampled"])
    def test_sphere_set_points_bytes_are_pinned(self, q, s, r, size, seed, digest):
        # Point files and seeded cells rest on these bytes, whatever route finds the
        # indices of S_r: all 930 points of S_5 in 31^3, and 5000 of S_7 in 151^3.
        E = generate(make_field(q), s, GeneratorSpec("sphere_set", size=size, seed=seed,
                                                     params={"radius": r}))
        assert E.points.dtype == np.int64
        assert hashlib.blake2b(E.points.tobytes(), digest_size=8).hexdigest() == digest

    def test_sphere_set_empty_sphere(self, contexts):
        with pytest.raises(ConfigError):
            generate(contexts[3], 1, GeneratorSpec("sphere_set", params={"radius": 2}))

    def test_subspace(self, contexts):
        # The coordinate subspace F_q^k x {0} is the box with sides [q]*k + [1]*(s-k).
        for k in (1, 2, 3):
            E = generate(contexts[5], 3, GeneratorSpec(
                "product_interval", params={"lengths": [5] * k + [1] * (3 - k)}))
            assert E.size == 5 ** k
            assert np.all(E.points[:, k:] == 0)

    def test_product_interval(self, contexts):
        E = generate(contexts[7], 2, GeneratorSpec("product_interval",
                                                   params={"lengths": [3, 4]}))
        assert E.size == 12
        assert E.points.max() <= 3

    def test_from_file_roundtrip(self, contexts, tmp_path):
        path = tmp_path / "set.txt"
        E = generate(contexts[13], 2, GeneratorSpec("uniform_random", size=9, seed=5))
        write_pointset(E, path)
        back = generate(contexts[13], 2, GeneratorSpec("from_file",
                                                       params={"path": str(path)}))
        assert np.array_equal(back.points, E.points)

    def test_from_file_field_mismatch(self, contexts, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("3 2 1\n0 0\n")
        with pytest.raises(FieldMismatch):
            generate(contexts[5], 2, GeneratorSpec("from_file",
                                                   params={"path": str(path)}))

    @pytest.mark.parametrize("seed", (-1, 2 ** 128), ids=["negative", "2**128"])
    def test_refuses_a_seed_outside_the_key_range(self, contexts, seed):
        for kind, params in (("uniform_random", {}), ("sphere_set", {"radius": 1})):
            with pytest.raises(ConfigError, match=f"seed {seed} outside"):
                generate(contexts[5], 2, GeneratorSpec(kind, size=3, seed=seed, params=params))

    def test_seed_range_edges_are_accepted(self, contexts):
        for seed in (0, 2 ** 128 - 1):
            assert generate(contexts[5], 2, GeneratorSpec("uniform_random", size=3,
                                                          seed=seed)).size == 3

    @pytest.mark.parametrize("spec, what", [
        (GeneratorSpec("uniform_random", size=3, seed=1.5), "seed"),
        (GeneratorSpec("uniform_random", size=3, seed=True), "seed"),
        (GeneratorSpec("uniform_random", size=2.5), "size"),
        (GeneratorSpec("uniform_random", size=True), "size"),
        (GeneratorSpec("sphere_set", params={"radius": 2.9}), "radius"),
        (GeneratorSpec("product_interval", params={"lengths": [2.7, 3]}), "side length"),
        (GeneratorSpec("product_interval", params={"lengths": [True, 3]}), "side length"),
    ], ids=["seed-float", "seed-bool", "size-float", "size-bool", "radius-float",
            "length-float", "length-bool"])
    def test_refuses_a_non_integer_value(self, contexts, spec, what):
        # Refused, not truncated: seed 1.5 would give seed 1's set, radius 2.9 sphere 2.
        with pytest.raises(ConfigError, match=f"{what} must be an integer"):
            generate(contexts[5], 2, spec)

    @pytest.mark.parametrize("lengths, shown", [(5, "5"), ("23", "'23'"), ({2, 3}, "{2, 3}")],
                             ids=["int", "str", "set"])
    def test_refuses_lengths_that_are_not_a_sequence(self, contexts, lengths, shown):
        # 5 used to raise a raw TypeError, and "23" was read character by character.
        spec = GeneratorSpec("product_interval", params={"lengths": lengths})
        with pytest.raises(ConfigError) as info:
            generate(contexts[5], 2, spec)
        assert str(info.value) == f"product_interval lengths must be a sequence, got {shown}"

    def test_lengths_may_be_a_tuple(self, contexts):
        box = [generate(contexts[7], 2, GeneratorSpec("product_interval",
                                                      params={"lengths": lengths})).points
               for lengths in ([3, 4], (3, 4))]
        assert np.array_equal(box[0], box[1])

    def test_numpy_integer_values_are_accepted(self, contexts):
        as_numpy = GeneratorSpec("sphere_set", size=np.int64(3), seed=np.uint64(2),
                                 params={"radius": np.int32(2)})
        as_int = GeneratorSpec("sphere_set", size=3, seed=2, params={"radius": 2})
        assert np.array_equal(generate(contexts[5], 2, as_numpy).points,
                              generate(contexts[5], 2, as_int).points)

    def test_unknown_kind(self, contexts):
        with pytest.raises(ConfigError):
            generate(contexts[5], 2, GeneratorSpec("mystery"))

    @pytest.mark.parametrize("spec, unread", [
        (GeneratorSpec("product_interval", size=2, params={"lengths": [5, 1]}), "size"),
        (GeneratorSpec("isotropic_line", size=2, params={"radius": 3}), "size, radius"),
        (GeneratorSpec("uniform_random", size=3, params={"lengths": [5, 1]}), "lengths"),
        (GeneratorSpec("sphere_set", params={"radius": 1, "lengths": [2, 2]}), "lengths"),
    ], ids=["subspace-size", "line-size-radius", "uniform-lengths", "sphere-lengths"])
    def test_refuses_what_its_kind_does_not_read(self, contexts, spec, unread):
        with pytest.raises(ConfigError, match=f"kind {spec.kind} does not read {unread}$"):
            generate(contexts[5], 2, spec)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec("uniform_random", size=30, seed=4),
        GeneratorSpec("sphere_set", params={"radius": 2}),
        GeneratorSpec("product_interval", params={"lengths": [13, 1]}),
        GeneratorSpec("product_interval", params={"lengths": [4, 5]}),
    ])
    def test_outputs_satisfy_point_set_invariants(self, contexts, spec):
        E = generate(contexts[13], 2, spec)
        idx = E.radix_indices()
        assert np.all(np.diff(idx) > 0)  # sorted, duplicate-free
        assert E.points.min() >= 0 and E.points.max() < 13


class TestSetIO:
    def test_read_example(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("3 2 2\n0 0\n1 0\n")
        E = read_pointset(path)
        assert (E.q, E.s, E.size) == (3, 2, 2)
        assert E.points.tolist() == [[0, 0], [1, 0]]

    def test_coordinate_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 1\n5 0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2: coordinate 5 outside \[0, 3\)"):
            read_pointset(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("5 2 2\n1 2\n1 2\n")
        with pytest.raises(DuplicatePoint):
            read_pointset(path)
        path.write_text("5 2 3\n1 2\n0 4\n1 2\n")
        with pytest.raises(DuplicatePoint, match=r"dup\.txt:4: duplicate point"):
            read_pointset(path)

    def test_parse_errors_carry_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("5 2 3\n1 2\n")
        with pytest.raises(ParseError):
            read_pointset(path)
        path.write_text("5 2\n")
        with pytest.raises(ParseError, match=":1:"):
            read_pointset(path)
        path.write_text("5 2 1\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="trailing"):
            read_pointset(path)
        path.write_text("5 2 1\n1 x\n")
        with pytest.raises(ParseError, match=":2:"):
            read_pointset(path)
        for text, where in (("", ": empty file"),
                            ("5 2 x\n1 2\n", ":1: header must be three integers"),
                            ("5 2 1\n1 2 3\n", ":2: expected 2 coordinates")):
            path.write_text(text)
            with pytest.raises(ParseError, match=re.escape(f"{path}{where}")):
                read_pointset(path)

    @pytest.mark.parametrize("head,message", [
        ("2 2 1", "q = 2 < 3"), ("5 0 1", "dimension s = 0 must be >= 1"), ("5 2 0", "need n >= 1"),
    ], ids=["q", "s", "n"])
    def test_one_message_per_refusal(self, tmp_path, head, message):
        # A bad q or s gets check_indexable's message alone, as make_point_set does.
        path = tmp_path / "head.txt"
        path.write_text(head + "\n" + "1 1\n")
        with pytest.raises(ParseError) as info:
            read_pointset(path)
        assert str(info.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("head,message", [
        ("9 2 3", "q = 9 is not prime"), ("4 2 1", "q = 4 is even"),
        ("1048583 1 1", "q = 1048583 exceeds cap 1048576"),
    ], ids=["composite", "even", "past-cap"])
    def test_refuses_a_modulus_make_field_refuses(self, tmp_path, head, message):
        path = tmp_path / "ring.txt"
        path.write_text(head + "\n" + "0 1\n1 0\n2 3\n")
        with pytest.raises(ParseError) as info:
            read_pointset(path)
        assert str(info.value) == f"{path}:1: {message}"

    def test_write_read_roundtrip(self, tmp_path):
        E = make_point_set(7, 3, [(1, 2, 3), (0, 0, 6), (4, 5, 1)])
        path = tmp_path / "rt.txt"
        write_pointset(E, path)
        assert np.array_equal(read_pointset(path).points, E.points)


class TestSweep:
    def test_trial_seed_stable(self):
        # frozen value: catches accidental changes to the seed derivation
        assert trial_seed(0, 7, 2, 0, "E") == trial_seed(0, 7, 2, 0, "E")
        assert trial_seed(0, 7, 2, 0, "E") != trial_seed(0, 7, 2, 0, "F")
        assert trial_seed(0, 7, 2, 0, "E") == 8797258151841333170

    def test_rows_deterministic(self):
        cfg = dict(q_list=[3, 5], s_list=[2], size_pairs=[(4, 6)], trials=2,
                   seed=9, checkers=["profile_mass", "nu_spectral"])
        rows = run_verify(SweepConfig(**cfg))
        assert rows_to_csv(rows) == rows_to_csv(run_verify(SweepConfig(**cfg)))
        assert all(r.report.explicit_pass for r in rows)
        assert len(rows) == 2 * 1 * 1 * 2 * 2  # q * s * sizes * trials * checkers

    def test_row_order_is_config_order(self):
        cfg = SweepConfig(q_list=[5, 3], s_list=[2], size_pairs=[(2, 3)],
                          trials=1, seed=0, checkers=["profile_mass"])
        rows = run_verify(cfg)
        assert [r.q for r in rows] == [5, 3]

    def test_config_validation_messages(self):
        base = dict(s_list=[2], size_pairs=[(2, 3)], trials=1, seed=0,
                    checkers=["profile_mass"])
        with pytest.raises(ConfigError, match="q = 4 is even"):
            run_verify(SweepConfig(q_list=[3, 4], **base))
        with pytest.raises(ConfigError, match="unknown checker"):
            run_verify(SweepConfig(q_list=[3], s_list=[2], size_pairs=[(2, 3)],
                                   trials=1, seed=0, checkers=["nope"]))
        # even s is cross_zero's hypothesis, not a config rule
        [row] = run_verify(SweepConfig(q_list=[5], s_list=[3], size_pairs=[(2, 3)],
                                       trials=1, seed=0, checkers=["cross_zero"]))
        assert row.report.hypothesis_met is False
        with pytest.raises(ConfigError, match="trials"):
            run_verify(SweepConfig(q_list=[3], s_list=[2], size_pairs=[(2, 3)],
                                   trials=0, seed=0, checkers=["profile_mass"]))
        with pytest.raises(ConfigError, match="dimension s = 0 must be >= 1"):
            run_verify(SweepConfig(q_list=[3], s_list=[0], size_pairs=[(2, 3)],
                                   trials=1, seed=0, checkers=["profile_mass"]))
        with pytest.raises(ConfigError, match=r"size pair \(2, 0\): sizes must be >= 1"):
            run_verify(SweepConfig(q_list=[3], s_list=[2], size_pairs=[(2, 0)],
                                   trials=1, seed=0, checkers=["profile_mass"]))
        with pytest.raises(ConfigError, match="exceeds q"):
            run_verify(SweepConfig(q_list=[3], s_list=[2], size_pairs=[(2, 30)],
                                   trials=1, seed=0, checkers=["profile_mass"]))

    @pytest.mark.parametrize("field, repeated, message", [
        ("q_list", [7, 7], "q_list repeats the entry 7"),
        ("s_list", [2, 2], "s_list repeats the entry 2"),
        ("size_pairs", [(5, 5), (5, 5)], r"size_pairs repeats the entry \(5, 5\)"),
        ("checkers", ["nu_spectral", "nu_spectral"], "checkers repeats the entry 'nu_spectral'"),
    ], ids=["q_list", "s_list", "size_pairs", "checkers"])
    def test_repeated_entries_refused(self, field, repeated, message):
        cfg = dict(q_list=[7], s_list=[2], size_pairs=[(5, 5)], trials=1, seed=0,
                   checkers=["nu_spectral"])
        cfg[field] = repeated
        with pytest.raises(ConfigError, match=message):
            run_verify(SweepConfig(**cfg))

    @pytest.mark.parametrize("field, value, message", [
        ("q_list", [7.0], "q must be an integer, got 7.0"),
        ("q_list", [True], "q must be an integer, got True"),
        ("s_list", [2.0], "s must be an integer, got 2.0"),
        ("size_pairs", [(5.0, 5)], "sizeE must be an integer, got 5.0"),
        ("size_pairs", [(5, True)], "sizeF must be an integer, got True"),
        ("trials", 1.5, "trials must be an integer, got 1.5"),
        ("seed", 5.0, "seed must be an integer, got 5.0"),
        ("seed", True, "seed must be an integer, got True"),
        ("grid_cap", 2.0 ** 22, "grid_cap must be an integer, got 4194304.0"),
    ], ids=["q-float", "q-bool", "s-float", "sizeE-float", "sizeF-bool", "trials-float",
            "seed-float", "seed-bool", "grid-cap-float"])
    def test_refuses_a_non_integer_value(self, field, value, message):
        # Refused before any cell: 7.0 and 5.0 used to reach the CSV, and seed 5.0 drew
        # other sets than seed 5; trials 1.5 and s 2.0 ended in raw TypeError / ValueError.
        cfg = dict(q_list=[7], s_list=[2], size_pairs=[(5, 5)], trials=1, seed=5,
                   checkers=["nu_spectral"])
        cfg[field] = value
        with pytest.raises(ConfigError) as info:
            run_verify(SweepConfig(**cfg))
        assert str(info.value) == message

    def test_numpy_integer_values_are_accepted(self):
        as_int = SweepConfig(q_list=[7], s_list=[2], size_pairs=[(5, 6)], trials=2, seed=5,
                             checkers=["nu_spectral"])
        as_numpy = SweepConfig(q_list=[np.int64(7)], s_list=[np.int32(2)],
                               size_pairs=[(np.int64(5), np.uint8(6))], trials=np.int64(2),
                               seed=np.uint64(5), checkers=["nu_spectral"])
        assert rows_to_csv(run_verify(as_numpy)) == rows_to_csv(run_verify(as_int))

    @pytest.mark.parametrize("grid_cap", [None, 2 ** 70], ids=["default-cap", "huge-cap"])
    def test_refuses_a_space_past_the_radix_indices(self, grid_cap):
        # As generate and make_point_set do, whatever the grid cap: no cap makes 3**41 indexable.
        cfg = dict(q_list=[3], s_list=[41], size_pairs=[(5, 5)], trials=1, seed=0,
                   checkers=["nu_spectral"])
        if grid_cap is not None:
            cfg["grid_cap"] = grid_cap
        with pytest.raises(ConfigError, match=r"3\*\*41 exceeds the int64 radix index range"):
            run_verify(SweepConfig(**cfg))

    def test_parse_helpers(self):
        assert parse_sizes("40x40,20x80") == [(40, 40), (20, 80)]
        assert parse_int_list("3,5,7", "x") == [3, 5, 7]
        assert parse_checkers(None) == sorted(
            parse_checkers(["all"]))
        assert parse_checkers(["nu_zero,dyadic"]) == ["nu_zero", "dyadic"]
        with pytest.raises(ConfigError):
            parse_sizes("40:40")
        with pytest.raises(ConfigError, match="size pair '40xa': not integers"):
            parse_sizes("40xa")
        with pytest.raises(ConfigError, match="--q must be a comma list of integers, got '3,x'"):
            parse_int_list("3,x", "--q")

    def test_float_rendering_17_digits(self):
        cfg = SweepConfig(q_list=[3], s_list=[2], size_pairs=[(6, 6)], trials=1,
                          seed=0, checkers=["profile_mass"])
        rows = run_verify(cfg)
        row = rows_to_csv(rows).splitlines()[1]
        lhs = row.split(",")[8]
        assert lhs == format(rows[0].report.lhs, ".17g")
        assert len(lhs.replace("0.", "")) == 17  # 6/9 at 17 significant digits


class TestBench:
    def test_small_full_mode(self):
        rep = run_bench(13, 2, 30, 30, repetitions=2, seed=1)
        assert rep["mode"] == "full"
        assert rep["outputs_match"]
        assert rep["t_brute"] > 0 and rep["t_spectral"] > 0

    def test_degraded_mode(self):
        rep = run_bench(13, 2, 40, 40, repetitions=1, seed=1, pair_cap=100)
        assert rep["mode"] == "spectral_only"
        assert rep["mass_identity_ok"]
        assert rep["speedup"] is None

    def test_residual_reported(self):
        rep = run_bench(13, 2, 30, 30, repetitions=1, seed=1)
        assert 0.0 <= rep["residual"] <= rep["residual_tol"]

    def test_bad_repetitions(self):
        with pytest.raises(ConfigError):
            run_bench(13, 2, 4, 4, repetitions=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(repetitions=1.5), "repetitions must be an integer, got 1.5"),
        (dict(seed=1.0), "seed must be an integer, got 1.0"),
    ], ids=["repetitions-float", "seed-float"])
    def test_refuses_a_non_integer_value(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            run_bench(13, 2, 4, 4, **kwargs)
        assert str(info.value) == message


class TestCLI:
    def test_importing_the_main_module_runs_nothing(self):
        proc = run_python("-c", "import ffdist.__main__")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_gen_verify_pipeline(self, tmp_path):
        out = tmp_path / "set.txt"
        proc = cli("gen", "--q", "13", "--s", "2", "--size", "12", "--seed", "7",
                   "--out", str(out))
        assert proc.returncode == 0
        E = read_pointset(out)
        assert E.size == 12

    def test_verify_json_output(self):
        proc = cli("verify", "--q", "7", "--s", "2", "--sizeE", "6", "--sizeF", "9",
                   "--trials", "2", "--seed", "3", "--lemma", "nu_spectral")
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            rep = json.loads(line)
            assert rep["explicit_pass"] is True

    def test_verify_default_lemmas_at_odd_s(self):
        from ffdist.checks import CHECKERS
        args = ("verify", "--q", "7", "--s", "3", "--sizeE", "10", "--sizeF", "12",
                "--seed", "3")
        for extra in ((), ("--lemma", "all")):
            proc = cli(*args, *extra)
            assert proc.returncode == 0, proc.stderr
            ids = [json.loads(l)["lemma_id"] for l in proc.stdout.splitlines() if l.strip()]
            assert sorted(ids) == sorted(CHECKERS)
        proc = cli(*args, "--lemma", "cross_zero")
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["lemma_id"] == "cross_zero" and rep["hypothesis_met"] is False

    def test_sweep_over_even_and_odd_s(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = cli("sweep", "--q", "5,7", "--s", "2,3", "--sizes", "4x6,20x20",
                   "--trials", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2 * 2 * 11  # q * s * sizes * trials * checkers
        odd = [r for r in rows if r["lemma_id"] == "cross_zero" and r["s"] == "3"]
        assert len(odd) == 8
        assert all(r["hypothesis_met"] == "false" and r["explicit_pass"] == ""
                   for r in odd)

    def test_cap_pairs_bounds_the_oracle(self):
        args = ("verify", "--q", "7", "--s", "2", "--sizeE", "20", "--sizeF", "20",
                "--cap-pairs", "10")
        proc = cli(*args, "--lemma", "nu_spectral")
        assert proc.returncode == 3
        assert "pair cap 10" in proc.stderr
        assert cli(*args, "--lemma", "profile_mass").returncode == 0

    def test_readme_cli_block_runs(self, tmp_path):
        block = README.read_text().split("## CLI", 1)[1].split("```")[1]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("ffdist ")]
        assert [c[1] for c in commands] == ["gen", "verify", "sweep", "bench"]
        for command in commands:
            if command[1] == "bench":  # the acceptance perf gate runs this shape
                continue
            proc = cli(*command[1:], cwd=tmp_path)
            assert proc.returncode == 0, (command, proc.stderr)

    @pytest.mark.parametrize("command", [
        ("verify", "--sizeE", "2", "--sizeF", "2"),
        ("sweep", "--sizes", "2x2", "--out", "x.csv"),
    ], ids=["verify", "sweep"])
    def test_failing_check_exit_1(self, tmp_path, monkeypatch, capsys, command):
        from ffdist import checks
        from ffdist.checks import LemmaReport
        from ffdist.cli import main

        def always_fails(ctx, E, F):
            return LemmaReport(lemma_id="profile_mass", hypothesis_met=True,
                               lhs=0.0, explicit_pass=False)

        monkeypatch.setitem(checks.CHECKERS, "profile_mass", always_fails)
        monkeypatch.chdir(tmp_path)
        code = main([*command, "--q", "3", "--s", "2", "--lemma", "profile_mass,nu_spectral"])
        assert code == 1
        if command[0] == "verify":  # JSON reports, one a line
            reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        else:
            reports = csv.DictReader((tmp_path / "x.csv").read_text().splitlines())
        verdicts = {r["lemma_id"]: str(r["explicit_pass"]).lower() for r in reports}
        assert verdicts == {"profile_mass": "false", "nu_spectral": "true"}

    def test_verify_has_no_format_option(self):
        # verify writes JSON reports only; a cell's CSV is sweep's.
        proc = cli("verify", "--q", "5", "--s", "2", "--sizeE", "4", "--sizeF", "4",
                   "--lemma", "profile_mass", "--format", "csv")
        assert proc.returncode == 2
        assert "unrecognized arguments: --format csv" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("gen", "--q", "5", "--s", "2", "--size", "3", "--out", "{missing}/E.txt"),
        ("gen", "--q", "5", "--s", "2", "--kind", "from_file", "--in-file", "{missing}/E.txt",
         "--out", "{tmp}/E.txt"),
        ("verify", "--q", "5", "--s", "2", "--sizeE", "3", "--sizeF", "3",
         "--lemma", "profile_mass", "--out", "{missing}/v.json"),
        ("sweep", "--q", "5", "--s", "2", "--sizes", "3x3", "--lemma", "profile_mass",
         "--out", "{missing}/s.csv"),
        ("bench", "--q", "5", "--s", "2", "--sizeE", "3", "--sizeF", "3", "--reps", "1",
         "--out", "{missing}/b.json"),
    ], ids=["gen-out", "gen-in-file", "verify", "sweep", "bench"])
    def test_unusable_path_exit_2(self, tmp_path, args):
        paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path)}
        proc = cli(*(a.format(**paths) for a in args))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ("gen", "--q", "13", "--s", "0", "--size", "1"),
        ("bench", "--q", "13", "--s", "0", "--sizeE", "1", "--sizeF", "1"),
        ("gen", "--q", "101", "--s", "10", "--size", "10"),
        ("gen", "--q", "101", "--s", "10", "--kind", "product_interval",
         "--lengths", "1,1,1,1,1,1,1,1,1,2"),
        ("gen", "--q", "13", "--s", "2", "--kind", "from_file", "--in-file", "{big}"),
    ], ids=["gen-s0", "bench-s0", "gen-q101-s10", "product-interval-s10", "file-s10"])
    def test_unindexable_space_exit_2(self, tmp_path, args):
        big = tmp_path / "big.txt"
        big.write_text("101 10 1\n" + " ".join(["0"] * 10) + "\n")
        out = tmp_path / "x.txt"
        extra = ("--out", str(out)) if args[0] == "gen" else ()
        proc = cli(*(a.format(big=big) for a in args), *extra)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("code, args", [
        (2, ("--q", "13", "--size", "0")),
        (2, ("--q", "13", "--size", "-3")),
        (2, ("--q", "13", "--kind", "sphere_set", "--radius", "1", "--size", "0")),
        (2, ("--q", "13", "--kind", "sphere_set", "--radius", "1", "--size", "-3")),
        (3, ("--q", "1048573", "--kind", "product_interval",
             "--lengths", "1048573,1048573")),
        (2, ("--q", "5", "--kind", "product_interval", "--lengths", "5,1", "--size", "2")),
        (2, ("--q", "5", "--kind", "isotropic_line", "--size", "2", "--radius", "3")),
        (2, ("--q", "5", "--kind", "uniform_random", "--size", "3", "--lengths", "5,1")),
        (2, ("--q", "5", "--size", "3", "--seed", "-1")),
    ], ids=["uniform-0", "uniform-neg", "sphere-0", "sphere-neg", "product-cap",
            "subspace-size", "line-size-radius", "uniform-lengths", "seed-neg"])
    def test_gen_refuses_before_writing(self, tmp_path, code, args):
        out = tmp_path / "x.txt"
        proc = cli("gen", "--s", "2", *args, "--out", str(out))
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("verify", "--sizeE", "3", "--sizeF", "3"),
        ("sweep", "--sizes", "3x3", "--out", "x.csv"),
    ], ids=["verify", "sweep"])
    def test_empty_checker_list_exit_2(self, tmp_path, command):
        proc = cli(*command, "--q", "5", "--s", "2", "--lemma", ",", cwd=tmp_path)
        assert proc.returncode == 2
        assert "checkers must be nonempty" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ("verify", "--q", "7", "--s", "2", "--sizeE", "5", "--sizeF", "5",
         "--lemma", "nu_spectral,nu_spectral", "--out", "x.out"),
        ("verify", "--q", "7", "--s", "2", "--sizeE", "5", "--sizeF", "5",
         "--lemma", "nu_spectral", "--lemma", "nu_spectral", "--out", "x.out"),
        ("sweep", "--q", "7,7", "--s", "2", "--sizes", "5x5", "--out", "x.out"),
        ("sweep", "--q", "7", "--s", "2,2", "--sizes", "5x5", "--out", "x.out"),
        ("sweep", "--q", "7", "--s", "2", "--sizes", "5x5,5x5", "--out", "x.out"),
        ("sweep", "--q", "7", "--s", "2", "--sizes", "5x5",
         "--lemma", "nu_spectral,nu_spectral", "--out", "x.out"),
    ], ids=["verify-lemma", "verify-lemma-twice", "sweep-q", "sweep-s", "sweep-sizes",
            "sweep-lemma"])
    def test_repeated_entry_exit_2(self, tmp_path, args):
        proc = cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "repeats the entry" in lines[0], proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "x.out").exists()

    def test_sweep_byte_identical(self, tmp_path):
        args = ("sweep", "--q", "3,5", "--s", "2", "--sizes", "4x6",
                "--trials", "2", "--seed", "11", "--lemma",
                "profile_mass,second_moment")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli(*args, "--out", str(a)).returncode == 0
        assert cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self, tmp_path):
        proc = cli("sweep", "--q", "3,4", "--s", "2", "--sizes", "4x6",
                   "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == "error: q = 4 is even\n"

    @pytest.mark.parametrize("args, message", [
        (("verify", "--q", "9", "--s", "2", "--sizeE", "3", "--sizeF", "3"),
         "error: q = 9 is not prime"),
        (("sweep", "--q", "7", "--s", "0", "--sizes", "3x3", "--out", "x.out"),
         "error: dimension s = 0 must be >= 1"),
        (("gen", "--q", "7", "--s", "2", "--kind", "isotropic_line", "--out", "x.out"),
         "error: q = 7 = 3 mod 4 has no square root of -1"),
    ], ids=["verify-modulus", "sweep-dimension", "gen-isotropic-line"])
    def test_refusal_is_one_unprefixed_line_exit_2(self, tmp_path, args, message):
        # make_field's and check_indexable's words, with no "q_list entry" prefix.
        proc = cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == message + "\n" and proc.stdout == ""
        assert not (tmp_path / "x.out").exists()

    def test_cap_error_exit_3(self, tmp_path):
        proc = cli("sweep", "--q", "1021", "--s", "3", "--sizes", "4x6",
                   "--lemma", "nu_spectral", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 3

    def test_bench_json(self):
        proc = cli("bench", "--q", "13", "--s", "2", "--sizeE", "20",
                   "--sizeF", "20", "--reps", "2")
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["outputs_match"] is True
