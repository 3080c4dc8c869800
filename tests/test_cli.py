"""End-to-end tests of the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mwl.cli import _build_parser, main
from mwl.zmod import LinearCode

Z6_CODE = "modulus 6\nlength 1\ngen 3\n"
Z4_CODE = "modulus 4\nlength 1\ngen 2\n"
BIG_MODULUS_CODE = f"modulus {3 * 2**61}\nlength 1\ngen {3 * 2**59}\ngen {2**61}\n"


@pytest.fixture
def z6_file(tmp_path):
    path = tmp_path / "z6_c.txt"
    path.write_text(Z6_CODE)
    return str(path)


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4_c.txt"
    path.write_text(Z4_CODE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys, z6_file):
    code, out, _ = run(capsys, ["enumerate", "--code", z6_file])
    assert code == 0
    assert out == "0\n3\n"


def test_dual(capsys, z6_file):
    code, out, _ = run(capsys, ["dual", "--code", z6_file])
    assert code == 0
    assert out == "modulus 6\nlength 1\ngen 0\ngen 2\ngen 4\n"


@pytest.mark.parametrize(
    "spec",
    [
        "modulus 6\nlength 2\ngen 2 0\ngen 0 3\n",
        "modulus 8\nlength 3\ngen 2 1 0\ngen 0 4 2\n",
        "modulus 2\nlength 3\ngen 1 1 0\n",
        "modulus 7\nlength 2\ngen 1 3\n",
        "modulus 5\nlength 1\n",
    ],
)
def test_dual_roundtrip_through_text(capsys, tmp_path, spec):
    first = tmp_path / "c.txt"
    first.write_text(spec)
    code, out, _ = run(capsys, ["dual", "--code", str(first)])
    assert code == 0
    second = tmp_path / "dual.txt"
    second.write_text(out)
    code, out2, _ = run(capsys, ["dual", "--code", str(second)])
    assert code == 0
    code, original, _ = run(capsys, ["enumerate", "--code", str(first)])
    roundtrip = "\n".join(line[4:] for line in out2.splitlines()[2:]) + "\n"
    assert roundtrip == original


def test_wenum(capsys, z6_file):
    code, out, _ = run(capsys, ["wenum", "--code", z6_file, "--weight", "lee"])
    assert code == 0
    assert out == "deg 3; 0:1 3:1\n|C| = 2\n"


def test_gray_z6_table(capsys):
    code, out, _ = run(capsys, ["gray", "--modulus", "6", "--m", "2"])
    assert code == 0
    assert out == (
        "0 : 0 0 0\n"
        "1 : 0 0 1\n"
        "2 : 0 1 1\n"
        "3 : 1 1 1\n"
        "4 : 1 1 0\n"
        "5 : 1 0 0\n"
    )


@pytest.mark.parametrize("m", [3001, 100003])
def test_gray_large_prime_field(capsys, m):
    # field arithmetic is by rule, so a large prime m builds no m x m table
    code, out, err = run(capsys, ["gray", "--modulus", "2", "--m", str(m)])
    assert code == 0 and err == ""
    assert out == "0 : 0\n1 : 1\n"


def test_gray_huge_field_size_exceeds_budget(capsys):
    # trial division of m is charged floor(sqrt(m)) units, here 10^9
    code, out, err = run(capsys, ["gray", "--modulus", "2", "--m", str(10**18 + 9)])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_gray_verify_map(capsys, tmp_path):
    table = tmp_path / "map.txt"
    table.write_text("0 : 0 0\n1 : 0 1\n2 : 1 1\n3 : 1 0\n")
    code, out, _ = run(capsys, ["gray", "--m", "2", "--map", str(table)])
    assert code == 0
    assert out == "weight_preserving=true\nbijective_extension=true\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("0 : 0 0\n1 : 1 1\n2 : 1 1\n3 : 1 0\n")
    code, out, _ = run(capsys, ["gray", "--m", "2", "--map", str(bad)])
    assert code == 0
    assert out == "weight_preserving=false\nbijective_extension=false\n"


def test_kraw_matrix(capsys):
    code, out, _ = run(capsys, ["kraw", "--q", "2", "--n", "2"])
    assert code == 0
    assert out == "1\t1\t1\n2\t0\t-2\n1\t-1\t1\n"
    code, _, err = run(capsys, ["kraw", "--q", "2", "--n", "2", "--table"])
    assert code == 3 and err


def test_transform(capsys):
    code, out, _ = run(
        capsys,
        ["transform", "--poly", "deg 3; 0:1 3:1", "--m", "2", "--scale", "2"],
    )
    assert code == 0
    assert out == "deg 3; 0:1 2:3\n"


def test_transform_rational_output(capsys):
    # (1/3)(x+2y)^3 has non-integer coefficients, printed as num/den
    code, out, _ = run(
        capsys, ["transform", "--poly", "deg 3; 0:1", "--q", "3", "--scale", "3"]
    )
    assert code == 0
    assert out == "deg 3; 0:1/3 1:2 2:4 3:8/3\n"


def test_check_z6_fails(capsys, z6_file):
    code, out, _ = run(capsys, ["check", "--code", z6_file, "--weight", "lee", "--m", "2"])
    assert code == 1
    assert out == "verdict=Fails reason=Verified discrepancy=deg 3; 2:1\n"


def test_check_z4_holds(capsys, z4_file):
    code, out, _ = run(capsys, ["check", "--code", z4_file, "--weight", "lee", "--m", "2"])
    assert code == 0
    assert out == "verdict=Holds reason=Verified discrepancy=none\n"


def test_check_euclidean_exit_code(capsys, z4_file):
    code, out, _ = run(
        capsys, ["check", "--code", z4_file, "--weight", "euclidean", "--m", "2"]
    )
    assert code == 1
    assert out == "verdict=Fails reason=Verified discrepancy=deg 4; 2:6\n"


def test_shiromoto(capsys, z6_file, z4_file):
    code, out, _ = run(capsys, ["shiromoto", "--code", z6_file, "--weight", "lee"])
    assert code == 2
    assert out == "verdict=NotWellFormed reason=MultiplierNotIntegral discrepancy=none\n"
    code, out, _ = run(capsys, ["shiromoto", "--code", z4_file, "--weight", "lee"])
    assert code == 0
    assert out == "verdict=Holds reason=Verified discrepancy=none\n"


def test_scan(capsys):
    code, out, _ = run(capsys, ["scan", "--weight", "lee", "--max", "1000"])
    assert code == 0
    assert out == "2 2\n3 3\n4 2\n"
    code, out, _ = run(capsys, ["scan", "--weight", "euclidean", "--max", "1000"])
    assert out == "2 2\n3 3\n"


def test_search_found(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--modulus", "6", "--weight", "lee", "--m", "2", "--max-length", "1"],
    )
    assert code == 0
    assert out == (
        "verdict=found length=1\n"
        "modulus 6\n"
        "length 1\n"
        "gen 0\n"
        "discrepancy=deg 3; 1:1 2:1\n"
    )


def test_search_none(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--modulus", "4", "--weight", "lee", "--m", "2", "--max-length", "2"],
    )
    assert code == 0
    assert out == "verdict=none\n"


def test_output_is_deterministic(capsys, z6_file):
    argvs = [
        ["wenum", "--code", z6_file, "--weight", "euclidean"],
        ["gray", "--modulus", "8", "--m", "2"],
        ["scan", "--weight", "lee", "--max", "50"],
        ["dual", "--code", z6_file],
    ]
    for argv in argvs:
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def test_stdin_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(Z6_CODE))
    code, out, _ = run(capsys, ["enumerate", "--code", "-"])
    assert code == 0
    assert out == "0\n3\n"


def test_usage_errors_exit_3(capsys):
    code, out, err = run(capsys, ["check", "--weight", "lee", "--m", "2"])
    assert code == 3 and err
    code, _, err = run(capsys, ["wenum", "--code", "x", "--weight", "manhattan"])
    assert code == 3 and err
    code, _, err = run(capsys, ["check", "--code", "x", "--weight", "hamming", "--m", "2"])
    assert code == 3 and err


def test_missing_file_exits_3(capsys):
    code, _, err = run(capsys, ["enumerate", "--code", "/nonexistent/nope.txt"])
    assert code == 3 and err


def test_budget_flag(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("modulus 7\nlength 3\ngen 1 0 0\n")
    code, _, err = run(capsys, ["dual", "--code", str(big), "--budget", "10"])
    assert code == 3
    assert "budget" in err.lower()


def test_env_budget(capsys, monkeypatch, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("modulus 7\nlength 3\ngen 1 0 0\n")
    monkeypatch.setenv("MWL_BUDGET", "10")
    code, _, err = run(capsys, ["dual", "--code", str(big)])
    assert code == 3
    monkeypatch.setenv("MWL_BUDGET", "100000")
    code, _, _ = run(capsys, ["dual", "--code", str(big)])
    assert code == 0


def test_overflow_exits_3(capsys):
    # a degree past sys.maxsize cannot size a coefficient list: an error, not a verdict
    code, out, err = run(capsys, ["transform", "--poly", f"deg {2**64}; 0:1", "--m", "2"])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_enumerate_big_moduli(capsys, tmp_path):
    # residues at and above 2^63 are held as exact Python ints
    big = tmp_path / "big.txt"
    big.write_text(f"modulus {2**64}\nlength 2\ngen {2**62} {2**63}\n")
    code, out, err = run(capsys, ["enumerate", "--code", str(big)])
    assert code == 0 and err == ""
    assert out == f"0 0\n{2**62} {2**63}\n{2**63} 0\n{3 * 2**62} {2**63}\n"
    big.write_text(BIG_MODULUS_CODE)
    code, out, _ = run(capsys, ["enumerate", "--code", str(big)])
    assert code == 0
    assert out == "".join(f"{i * 2**59}\n" for i in range(12))


def test_wenum_lee_big_modulus_exceeds_budget(capsys, tmp_path):
    # the Lee enumerator would have floor(ell/2) + 1 coefficients
    big = tmp_path / "big.txt"
    big.write_text(BIG_MODULUS_CODE)
    code, out, err = run(capsys, ["wenum", "--code", str(big), "--weight", "lee"])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_wenum_hamming_big_modulus(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text(BIG_MODULUS_CODE)
    code, out, _ = run(capsys, ["wenum", "--code", str(big), "--weight", "hamming"])
    assert code == 0
    assert out == "deg 1; 0:1 1:11\n|C| = 12\n"


CODE_COMMANDS = [
    ["enumerate"],
    ["dual"],
    ["wenum", "--weight", "lee"],
    ["check", "--weight", "lee", "--m", "2"],
    ["shiromoto", "--weight", "lee"],
    # a failing triple: its zero code is charged, where a holding triple charges nothing
    ["search", "--modulus", "6", "--weight", "lee", "--m", "2", "--max-length", "1"],
]


def _code_argv(cmd, code_file):
    return cmd if cmd[0] == "search" else cmd + ["--code", code_file]


@pytest.mark.parametrize("cmd", CODE_COMMANDS, ids=lambda cmd: cmd[0])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_budget_error_is_not_a_verdict(capsys, monkeypatch, z4_file, cmd, via):
    argv = _code_argv(cmd, z4_file)
    if via == "flag":
        argv = argv + ["--budget", "1"]
    else:
        monkeypatch.setenv("MWL_BUDGET", "1")
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("cmd", CODE_COMMANDS, ids=lambda cmd: cmd[0])
def test_budget_flag_overrides_env(capsys, monkeypatch, z4_file, cmd):
    monkeypatch.setenv("MWL_BUDGET", "1")
    code, out, err = run(capsys, _code_argv(cmd, z4_file) + ["--budget", "1000000"])
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["kraw", "--q", "2", "--n", "20"],
        ["transform", "--poly", "deg 20; 0:1", "--m", "2"],
        ["gray", "--modulus", "100", "--m", "2"],
        ["scan", "--weight", "lee", "--max", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_env_budget_bounds_commands_without_flag(capsys, monkeypatch, argv):
    monkeypatch.setenv("MWL_BUDGET", "100")
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_kraw_huge_n_exceeds_default_budget(capsys):
    code, out, err = run(capsys, ["kraw", "--q", "2", "--n", str(2**64)])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_zero_denominator_exits_3(capsys):
    # an ArithmeticError is an error, never the exit code 1 that means "Fails"
    code, out, err = run(capsys, ["transform", "--poly", "deg 2; 0:1/0", "--m", "2"])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_exponent_notation_is_refused(capsys):
    code, out, err = run(capsys, ["transform", "--poly", "deg 0; 0:1e2000000", "--m", "2"])
    assert code == 3
    assert out == "" and err.startswith("error:") and "exponent" in err


def test_huge_degree_is_charged_before_it_is_built(capsys):
    code, out, err = run(capsys, ["transform", "--poly", "deg 1000000000; 0:1", "--m", "2"])
    assert code == 3
    assert out == "" and "budget" in err


def test_search_lattice_walk_is_charged(capsys):
    # search walks no lattice: Z_2^6 (2825 subgroups) and Z_5^6 (5^6 > 10^4) both answer
    argv = ["search", "--modulus", "2", "--weight", "lee", "--m", "2", "--max-length", "6"]
    code, out, err = run(capsys, argv + ["--budget", "100000"])
    assert code == 0 and out == "verdict=none\n" and err == ""
    argv = ["search", "--modulus", "5", "--weight", "lee", "--m", "5", "--max-length", "6"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (
        "verdict=found length=1\n"
        "modulus 5\n"
        "length 1\n"
        "gen 0\n"
        "discrepancy=deg 2; 1:6 2:14\n"
    )


def test_dual_of_printed_dual_answers(capsys, tmp_path):
    # a dual printed by `mwl dual` lists every codeword as a generator: 2^12 of them here
    spec = tmp_path / "z2.txt"
    spec.write_text("modulus 2\nlength 13\ngen " + " ".join(["1"] + ["0"] * 12) + "\n")
    code, out, _ = run(capsys, ["dual", "--code", str(spec)])
    assert code == 0 and out.count("gen ") == 2**12
    spec.write_text(out)
    code, out, err = run(capsys, ["dual", "--code", str(spec)])
    assert code == 0 and err == ""
    zeros = " ".join(["0"] * 12)
    assert out == f"modulus 2\nlength 13\ngen 0 {zeros}\ngen 1 {zeros}\n"


def test_error_prints_no_partial_stdout(capsys):
    # the last row of K for q = 10^2500 has an entry past str()'s 4,300-digit limit
    code, out, err = run(capsys, ["kraw", "--q", str(10**2500), "--n", "2"])
    assert code == 3
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("ell, weight", [(10**8, "lee"), (20000, "euclidean")])
def test_shiromoto_big_modulus_is_not_well_formed(capsys, tmp_path, ell, weight):
    spec = tmp_path / "big.txt"
    spec.write_text(f"modulus {ell}\nlength 1\ngen 1\n")
    code, out, _ = run(capsys, ["shiromoto", "--code", str(spec), "--weight", weight])
    assert code == 2
    assert out == "verdict=NotWellFormed reason=MultiplierNotIntegral discrepancy=none\n"


def test_memory_error_is_not_a_verdict(capsys, monkeypatch, z6_file):
    def no_memory(self):
        raise MemoryError()

    monkeypatch.setattr(LinearCode, "_span_array", no_memory)
    code, out, err = run(capsys, ["enumerate", "--code", z6_file])
    assert code == 3
    assert out == "" and err == "error: MemoryError\n"


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_cached_parser_carries_nothing_between_calls(capsys, z4_file, z6_file):
    code, out, _ = run(capsys, ["enumerate", "--code", z6_file, "--budget", "1"])
    assert code == 3 and out == ""
    assert run(capsys, ["enumerate", "--code", z6_file]) == (0, "0\n3\n", "")
    check = ["check", "--code", z4_file, "--weight", "lee", "--m", "2"]
    before = run(capsys, check)
    assert run(capsys, ["kraw", "--q", "3", "--n", "2"])[0] == 0
    assert run(capsys, check) == before


# Commands that span no code; none of them, nor `import mwl.cli`, loads numpy.
NUMPY_FREE_COMMANDS = [
    [],
    ["transform", "--poly", "deg 2; 0:1 2:3", "--m", "2"],
    ["kraw", "--q", "4", "--n", "3"],
    ["scan", "--weight", "lee", "--max", "50"],
    ["gray", "--modulus", "4", "--m", "2"],
    ["search", "--modulus", "2", "--weight", "lee", "--m", "2", "--max-length", "6"],
]
_REPORT_NUMPY = (
    "import sys, mwl.cli\n"
    "rc = mwl.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(rc)\n"
)


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: (argv or ["import"])[0])
def test_command_runs_without_numpy(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _REPORT_NUMPY, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
