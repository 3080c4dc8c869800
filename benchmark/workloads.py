"""Workload inputs, generated from the seed, and the check of every operation.

A workload is a list of rounds. Every round runs the same fixed slots in
the same order: the same commands on inputs of the same shape and size. The
seed decides only the contents: generator matrices, polynomial coefficients,
the multiplier where a slot leaves it open, the failing search cases and the
sampled checks. So each run does the same mix of work whatever its seed and
length, and a run always ends on a whole round.

Each operation carries a check that compares the program's output against
`reference`, never against stored output. A check returns None when the
output is right and otherwise says what is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Distinct rounds generated per run; a run that needs more cycles through them.
ROUND_POOL = 8
# Runs per round of the slots that take 0.1 s or less on `listing` and
# `algebra`. Their rounds are long, so a run has only two or three of them:
# too few samples for a short slot's median to settle.
LIGHT_REPEATS = 4

EXIT_BY_VERDICT = {"Holds": 0, "Fails": 1, "NotWellFormed": 2}


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], str | None]
    # a fault the benchmark keeps visible: counted as failed, not as incorrect
    known_fault: bool = False
    # runs per round; short operations repeat so their medians settle
    repeats: int = 1


def _is_prime_power(t: int) -> bool:
    p = next(d for d in range(2, t + 1) if t % d == 0)
    while t % p == 0:
        t //= p
    return t == 1


def _prime_power_divisors(ell: int) -> list[int]:
    return [t for t in range(2, ell + 1) if ell % t == 0 and _is_prime_power(t)]


def random_code(rng: random.Random, ell: int, n: int, divisors: list[int]) -> list[list[int]]:
    """Generators of a code with |C| = prod(ell / gcd(d, ell)) over divisors.

    Row i of diag(divisors) V for a random unimodular V, then mixed by random
    row operations and shuffled. One redundant generator comes last, so the
    span's final step always re-walks the whole code.
    """
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(1, ell)
        for row in V:
            row[i] = (row[i] + c * row[j]) % ell
    rows = [[d * v % ell for v in V[i]] for i, d in enumerate(divisors)]
    for _ in range(2 * len(rows) if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randrange(1, ell)
        rows[i] = [(a + c * b) % ell for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    coeffs = [rng.randrange(ell) for _ in rows]
    rows.append([sum(k * r[c] for k, r in zip(coeffs, rows)) % ell for c in range(n)])
    return rows


def write_code(path: Path, ell: int, n: int, gens) -> str:
    lines = [f"modulus {ell}", f"length {n}"] + ["gen " + " ".join(map(str, g)) for g in gens]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _failure(res: dict, exit_codes=(0,)) -> str | None:
    """What went wrong, if the command printed to stderr or exited otherwise."""
    if res["rc"] in exit_codes and not res["err"]:
        return None
    last = (res["err"].strip().splitlines() or [""])[-1]
    return f"exit {res['rc']}: {last}"


# ---------------------------------------------------------------- verify

# (command, weight, ell, n, divisors of the code type, multiplier or None)
# None takes the paper's multiplier on the paper's moduli and a seeded
# prime-power divisor of ell elsewhere.
VERIFY_SLOTS = [
    ("check", "lee", 2, 16, [1] * 3, None),
    ("check", "lee", 2, 17, [1] * 13, None),
    ("check", "lee", 3, 10, [1] * 2, None),
    ("check", "lee", 3, 11, [1] * 8, None),
    ("check", "lee", 4, 8, [1, 2, 2], None),
    ("check", "lee", 4, 9, [1] * 5 + [2] * 2, None),
    ("check", "euclidean", 2, 15, [1] * 4, None),
    ("check", "euclidean", 3, 9, [1] * 5, None),
    ("check", "lee", 4, 7, [1, 2], 4),
    ("check", "lee", 5, 7, [1] * 2, None),
    ("check", "lee", 6, 7, [1, 2, 3], None),
    ("check", "lee", 7, 6, [1] * 2, None),
    ("check", "lee", 8, 6, [1, 2, 4], None),
    ("check", "lee", 9, 6, [1, 3], None),
    ("check", "euclidean", 4, 8, [1, 2], None),
    ("check", "euclidean", 5, 6, [1] * 2, None),
    ("shiromoto", "lee", 2, 14, [1] * 4, None),
    ("shiromoto", "lee", 3, 9, [1] * 3, None),
    ("shiromoto", "lee", 4, 7, [1, 1], None),
    ("shiromoto", "euclidean", 2, 14, [1] * 2, None),
    ("shiromoto", "euclidean", 3, 9, [1] * 2, None),
    ("shiromoto", "lee", 5, 6, [1], None),
    ("shiromoto", "lee", 6, 6, [1, 2], None),
    ("shiromoto", "lee", 8, 5, [1], None),
    ("shiromoto", "lee", 9, 5, [1], None),
    ("shiromoto", "euclidean", 4, 7, [1], None),
]

# operations on at most this many ambient vectors may be brute-forced
BRUTE_FORCE_MAX = 20000


def brute_force_discrepancy(ell, n, gens, kind, t, disc) -> str | None:
    """Recompute span, dual and enumerators; check disc = transform - dual."""
    words = ref.span(ell, n, gens)
    if len(words) != ref.code_size(ell, gens):
        return "reference span and diagonal form disagree"
    dual = ref.dual_scan(ell, n, gens)
    if len(words) * len(dual) != ell**n:
        return f"|C| |C_dual| = {len(words) * len(dual)} != ell^n"
    dual_enum = ref.enumerator(dual, ell, n, kind)
    if len(disc) != len(dual_enum):
        return f"discrepancy has degree {len(disc) - 1}, expected {len(dual_enum) - 1}"
    transformed = [d + e for d, e in zip(disc, dual_enum)]
    if not ref.is_transform(ref.enumerator(words, ell, n, kind), t, len(words), transformed):
        return "discrepancy + dual enumerator is not the transformed enumerator"
    return None


def check_verdict(command, kind, ell, n, gens, t, brute_force):
    """Check one `mwl check` or `mwl shiromoto` answer."""
    root = ref.shiromoto_multiplier(kind, ell)
    if command == "shiromoto":
        t = root
    paper = t is not None and ref.PAPER_IDENTITIES[kind].get(ell) == t

    def check(res):
        problem = _failure(res, tuple(EXIT_BY_VERDICT.values()))
        if problem:
            return problem
        lines = res["out"].splitlines()
        if len(lines) != 1:
            return f"expected one verdict line, got {res['out']!r}"
        parts = lines[0].split(" ", 2)
        fields = dict(p.split("=", 1) for p in parts if "=" in p)
        status, disc_text = fields.get("verdict"), fields.get("discrepancy")
        if status not in EXIT_BY_VERDICT or disc_text is None or len(parts) != 3:
            return f"malformed verdict line {lines[0]!r}"
        if res["rc"] != EXIT_BY_VERDICT[status]:
            return f"exit {res['rc']} for verdict {status}"
        if (status == "NotWellFormed") != (t is None):
            return f"verdict {status}, but the integer root of ell is {root}"
        if status == "Fails":
            disc = ref.parse_poly(disc_text)
            if not any(disc):
                return "Fails with a zero discrepancy"
        elif disc_text != "none":
            return f"{status} with discrepancy {disc_text}"
        if paper and status != "Holds":
            return f"{status}, but the paper proves the identity for ell={ell} t={t}"
        if brute_force and t is not None:
            D = ref.weight_scale(kind, ell) * n
            disc = ref.parse_poly(disc_text) if status == "Fails" else [0] * (D + 1)
            return brute_force_discrepancy(ell, n, gens, kind, t, disc)
        return None

    return check


def verify_round(rng: random.Random, workdir: Path, r: int) -> list[Op]:
    eligible = [
        i
        for i, (command, kind, ell, n, _, _) in enumerate(VERIFY_SLOTS)
        if ell**n <= BRUTE_FORCE_MAX
        and (command == "check" or ref.shiromoto_multiplier(kind, ell) is not None)
    ]
    sampled = rng.choice(eligible)
    ops = []
    for i, (command, kind, ell, n, divisors, t) in enumerate(VERIFY_SLOTS):
        gens = random_code(rng, ell, n, divisors)
        path = write_code(workdir / f"verify-{r}-{i}.txt", ell, n, gens)
        argv = [command, "--code", path, "--weight", kind]
        if command == "check":
            if t is None:
                t = ref.PAPER_IDENTITIES[kind].get(ell) or rng.choice(_prime_power_divisors(ell))
            argv += ["--m", str(t)]
        ops.append(Op(argv, check_verdict(command, kind, ell, n, gens, t, i == sampled)))
    return ops


# ---------------------------------------------------------------- listing

# (ell, n, divisors, weight for wenum): |C| between 10^4 and 10^5
ENUMERATE_SLOTS = [
    (2, 16, [1] * 14, "lee"),
    (3, 11, [1] * 9, "euclidean"),
    (4, 7, [1] * 7, "lee"),
    (5, 7, [1] * 6, "hamming"),
    (6, 6, [1] * 5 + [3], "lee"),
    (9, 5, [1] * 4 + [3], "euclidean"),
]

# (ell, n, divisors): |C_dual| between 10^4 and 10^5
DUAL_SLOTS = [
    (2, 15, [1]),
    (2, 16, [1] * 2),
    (2, 17, [1] * 3),
    (3, 10, [1]),
    (3, 11, [1] * 2),
    (4, 8, [2] * 2),
    (5, 7, [1]),
    (5, 8, [1] * 2),
    (6, 6, [2]),
    (7, 6, [1]),
    (8, 6, [2, 4]),
    (9, 6, [1, 3]),
]

# Known faults, on fixed inputs: int64 wrap-around in the span loses a
# codeword at modulus 3*2^61 (11 lines for 12 codewords), and at modulus
# 2^64 an OverflowError escapes `mwl.cli.main`.
BIG_MODULUS_SLOTS = [
    (3 * 2**61, 1, [[3 * 2**59], [2**61]]),
    (2**64, 2, [[2**62, 2**63]]),
]


def parse_words(text: str, ell: int, n: int) -> np.ndarray:
    """Rows of integers, one per line; Python ints once int64 could wrap."""
    lines = text.splitlines()
    tokens = text.split()
    if len(tokens) != n * len(lines):
        raise ValueError(f"expected {n} entries on each of {len(lines)} lines")
    if ell**n < 2**62:
        return np.array(tokens, dtype=np.int64).reshape(-1, n)
    return np.array([int(t) for t in tokens], dtype=object).reshape(-1, n)


def _keys(W: np.ndarray, ell: int, n: int) -> np.ndarray:
    """Each row read as a base-ell number, so key order is lex order."""
    pows = np.array([ell ** (n - 1 - j) for j in range(n)], dtype=W.dtype)
    return W @ pows


def check_enumerate(ell, n, gens, words_by_code, key):
    size = ref.code_size(ell, gens)

    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        W = parse_words(res["out"], ell, n)
        if len(W) != size:
            return f"{len(W)} codewords, but |C| = {size}"
        keys = _keys(W, ell, n)
        if not (keys[1:] > keys[:-1]).all():
            return "codewords are not strictly lex-increasing"
        if keys[0] != 0:
            return "the zero word is missing"
        for g in gens:
            shifted = _keys((W + np.array(g, dtype=W.dtype)) % ell, ell, n)
            if not np.isin(shifted, keys).all():
                return f"not closed under adding generator {g}"
        words_by_code[key] = W
        return None

    return check


def check_wenum(ell, n, gens, kind, words_by_code, key):
    size = ref.code_size(ell, gens)

    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        lines = res["out"].splitlines()
        if len(lines) != 2 or lines[1] != f"|C| = {size}":
            return f"expected the enumerator and '|C| = {size}', got {lines[1:]}"
        W = words_by_code.get(key)
        if W is None:
            return "no checked codeword list for this code"
        table = np.array([ref.residue_weight(kind, a, ell) for a in range(ell)])
        counts = np.bincount(table[W].sum(axis=1), minlength=ref.weight_scale(kind, ell) * n + 1)
        if ref.parse_poly(lines[0]) != counts.tolist():
            return "enumerator differs from the weight counts of the codewords"
        return None

    return check


def check_dual(ell, n, gens):
    size = ell**n // ref.code_size(ell, gens)
    G = np.array(gens, dtype=np.int64)

    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        lines = res["out"].splitlines()
        if lines[:2] != [f"modulus {ell}", f"length {n}"]:
            return f"bad code-spec header {lines[:2]}"
        if not all(line.startswith("gen ") for line in lines[2:]):
            return "dual body has lines other than 'gen'"
        W = parse_words("\n".join(line[4:] for line in lines[2:]), ell, n)
        if len(W) != size:
            return f"{len(W)} dual words, but ell^n / |C| = {size}"
        if ((W @ G.T) % ell).any():
            return "a dual word is not orthogonal to every generator"
        if len(np.unique(_keys(W, ell, n))) != len(W):
            return "dual words repeat"
        return None

    return check


def listing_round(rng: random.Random, workdir: Path, r: int) -> list[Op]:
    words_by_code: dict[str, np.ndarray] = {}
    ops = []
    for i, (ell, n, divisors, kind) in enumerate(ENUMERATE_SLOTS):
        gens = random_code(rng, ell, n, divisors)
        path = write_code(workdir / f"enum-{r}-{i}.txt", ell, n, gens)
        # wenum is checked against the word list its enumerate just checked
        ops.append(Op(["enumerate", "--code", path], check_enumerate(ell, n, gens, words_by_code, path)))
        ops.append(Op(["wenum", "--code", path, "--weight", kind], check_wenum(ell, n, gens, kind, words_by_code, path)))
    for i, (ell, n, divisors) in enumerate(DUAL_SLOTS):
        gens = random_code(rng, ell, n, divisors)
        path = write_code(workdir / f"dual-{r}-{i}.txt", ell, n, gens)
        ops.append(Op(["dual", "--code", path], check_dual(ell, n, gens), repeats=LIGHT_REPEATS))
    for i, (ell, n, gens) in enumerate(BIG_MODULUS_SLOTS):
        path = write_code(workdir / f"big-{i}.txt", ell, n, gens)
        check = check_enumerate(ell, n, gens, words_by_code, path)
        ops.append(Op(["enumerate", "--code", path], check, known_fault=True, repeats=LIGHT_REPEATS))
    return ops


# ---------------------------------------------------------------- algebra

# Sizes and parameters are fixed per slot; the seed draws the polynomials'
# coefficients and the Krawtchouk columns that are checked.
TRANSFORMS = [  # (degree, multiplier, scale)
    (30, 2, 1), (31, 3, 2), (33, 4, 3), (35, 5, 4), (37, 7, 5), (40, 8, 8), (43, 9, 9),
    (47, 2, 16), (52, 3, 25), (60, 4, 27), (70, 5, 64), (85, 7, 81), (110, 8, 3), (150, 3, 7),
]
KRAWS = [(10, 2), (20, 3), (35, 4), (55, 5), (80, 7), (110, 3)]  # (n, q)
SCANS = [(10**3, "lee"), (10**4, "euclidean"), (10**5, "lee"), (10**6, "euclidean")]
GRAYS = [(5, 2), (9, 3), (12, 4), (16, 5), (25, 7), (33, 8), (40, 9), (64, 11), (81, 16),
         (100, 2), (150, 3), (200, 4)]  # (modulus, field size)
KRAW_COLUMNS_CHECKED = 3


def check_transform(p, t, s):
    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        if not ref.is_transform(p, t, s, ref.parse_poly(res["out"])):
            return f"output is not p(x + {t - 1}y, x - y) / {s}"
        return None

    return check


def check_kraw(q, n, columns):
    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        rows = [list(map(int, line.split("\t"))) for line in res["out"].splitlines()]
        if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
            return f"matrix is not {n + 1} x {n + 1}"
        for x in columns:
            if [row[x] for row in rows] != ref.krawtchouk_column(q, n, x):
                return f"column {x} differs from the generating function"
        return None

    return check


def check_scan(kind):
    expected = "".join(f"{ell} {t}\n" for ell, t in ref.SCAN_TABLE[kind])

    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        return None if res["out"] == expected else f"scan printed {res['out']!r}"

    return check


def check_gray(ell, m):
    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        lines = res["out"].splitlines()
        if len(lines) != ell:
            return f"{len(lines)} rows for modulus {ell}"
        for a, line in enumerate(lines):
            head, _, tail = line.partition(" : ")
            row = list(map(int, tail.split()))
            if head != str(a) or len(row) != ell // 2 or not all(0 <= e < m for e in row):
                return f"malformed row {line!r}"
            if sum(e != 0 for e in row) != ref.residue_weight("lee", a, ell):
                return f"row {a} has Hamming weight {sum(e != 0 for e in row)}"
        return None

    return check


def algebra_round(rng: random.Random, workdir: Path, r: int) -> list[Op]:
    ops = []
    for D, t, s in TRANSFORMS:
        p = [rng.randrange(1, 10**6) for _ in range(D + 1)]
        poly = f"deg {D}; " + " ".join(f"{i}:{c}" for i, c in enumerate(p))
        argv = ["transform", "--poly", poly, "--m", str(t), "--scale", str(s)]
        ops.append(Op(argv, check_transform(p, t, s), repeats=LIGHT_REPEATS if D < 50 else 1))
    for n, q in KRAWS:
        columns = rng.sample(range(n + 1), KRAW_COLUMNS_CHECKED)
        ops.append(Op(["kraw", "--q", str(q), "--n", str(n)], check_kraw(q, n, columns),
                      repeats=LIGHT_REPEATS if n < 60 else 1))
    for mx, kind in SCANS:
        ops.append(Op(["scan", "--weight", kind, "--max", str(mx)], check_scan(kind),
                      repeats=LIGHT_REPEATS if mx < 10**5 else 1))
    for ell, m in GRAYS:
        ops.append(Op(["gray", "--modulus", str(ell), "--m", str(m)], check_gray(ell, m), repeats=LIGHT_REPEATS))
    return ops


# ---------------------------------------------------------------- search

# (weight, ell, multiplier, max length): the identity holds and the whole
# subgroup lattice of Z_ell^n, n <= max length, is walked. One large case
# and four small ones keep a round near 4 s, so a run has about five rounds.
SEARCH_HOLDING = [
    ("lee", 2, 2, 6),
    ("lee", 3, 3, 4),
    ("lee", 4, 2, 3),
    ("euclidean", 2, 2, 5),
    ("euclidean", 3, 3, 4),
]
# failing cases the seed draws from; each stops at length 1
SEARCH_FAILING = [
    ("lee", ell, t, 3) for ell in (5, 6, 7, 8, 9) for t in _prime_power_divisors(ell)
] + [("euclidean", ell, t, 3) for ell in (4, 5, 6, 7) for t in _prime_power_divisors(ell)]
SEARCH_FAILING_PER_ROUND = 3


def check_search(kind, ell, t):
    holds = ref.PAPER_IDENTITIES[kind].get(ell) == t

    def check(res):
        problem = _failure(res)
        if problem:
            return problem
        out = res["out"]
        if holds:
            return None if out == "verdict=none\n" else f"expected verdict=none, got {out[:80]!r}"
        lines = out.splitlines()
        if len(lines) < 4 or not lines[0].startswith("verdict=found length="):
            return f"expected a found code, got {out[:80]!r}"
        n = int(lines[0].rpartition("=")[2])
        if lines[1:3] != [f"modulus {ell}", f"length {n}"] or not lines[-1].startswith("discrepancy="):
            return f"malformed search answer {out[:120]!r}"
        gens = [tuple(map(int, line.split()[1:])) for line in lines[3:-1]]
        if ref.span(ell, n, gens) != set(gens):
            return "printed codewords are not a whole subgroup"
        disc = ref.parse_poly(lines[-1].partition("=")[2])
        if not any(disc):
            return "found code with a zero discrepancy"
        return brute_force_discrepancy(ell, n, gens, kind, t, disc)

    return check


def search_round(rng: random.Random, workdir: Path, r: int) -> list[Op]:
    cases = SEARCH_HOLDING + rng.sample(SEARCH_FAILING, SEARCH_FAILING_PER_ROUND)
    ops = [
        Op(["search", "--modulus", str(ell), "--weight", kind, "--m", str(t), "--max-length", str(L)],
           check_search(kind, ell, t))
        for kind, ell, t, L in cases
    ]
    return ops


# name -> (round builder, whether each operation gets a fresh interpreter)
WORKLOADS = {
    "verify": (verify_round, False),
    "listing": (listing_round, False),
    "algebra": (algebra_round, False),
    "search": (search_round, True),
}


def build(name: str, seed: int, workdir: Path) -> list[list[Op]]:
    """ROUND_POOL rounds of the workload, with their input files written."""
    make_round = WORKLOADS[name][0]
    return [make_round(random.Random(f"{name}:{seed}:{r}"), workdir, r) for r in range(ROUND_POOL)]
