"""A fixed reference computation that times the machine, not the program.

The benchmark calls `main` in its own process before the first timed pass
and after each pass, and divides the mean pass time by the mean time of
these calls. On a shared host the speed of a core changes by half or more
over minutes, with the load of other tenants; both timings move with it,
so their ratio moves only when the program's own cost does.

The work imitates the program's mix in fixed amounts: interpreter-bound
loops, element-wise NumPy operations on short vectors (as in the Jacobi
rotations and small-batch training), a dense matrix product (as in the
wide training), and formatting and parsing decimal text (as in the CSV
feature tables). It imports nothing from the program, so no change to
the program can change it. It returns non-zero if a result is not the
expected one.
"""

import numpy as np


def interpreter_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def vector_rotations(n: int, length: int) -> float:
    p = np.linspace(0.0, 1.0, length)
    q = np.linspace(1.0, 0.0, length)
    c, s = 0.6, 0.8
    for _ in range(n):
        p, q = c * p - s * q, s * p + c * q
    return float(np.sqrt((p * p + q * q).sum()))


def matrix_products(n: int, size: int) -> float:
    m = np.random.default_rng(0).random((size, size))
    for _ in range(n):
        m = m @ m
        m /= np.abs(m).max()
    return float(np.abs(m).max())


def text_round_trip(rows: int, cols: int) -> int:
    lines = [",".join(f"{(r * cols + c) * 0.37:.6g}" for c in range(cols))
             for r in range(rows)]
    return sum(1 for line in lines for field in line.split(",") if float(field) >= 0.0)


def main() -> int:
    length = 200
    norm = np.sqrt(2 * (np.linspace(0.0, 1.0, length) ** 2).sum())
    ok = interpreter_loop(2_000_000) == 3_999_997
    ok &= abs(vector_rotations(30_000, length) - norm) < 1e-9 * norm
    ok &= matrix_products(80, 256) == 1.0
    ok &= text_round_trip(3_000, 64) == 3_000 * 64
    return 0 if ok else 1

