"""An exact rational evaluation of a deterministic policy's chain, the
ground truth the float evaluation is compared with.

Every float of the chain and of the rewards is taken at its exact binary
value (`Fraction(float)`), and the linear systems are solved by Gaussian
elimination in `fractions.Fraction`, with no rounding anywhere:

- pi solves the balance system pi (P - I) = 0 with its last equation
  replaced by sum(pi) = 1, the system `evaluation` states;
- each potential g, pinned at g[0] = 0, solves g = c - J + P g together
  with a gain correction d: (I - P) g + d 1 = c - J 1, the column of
  state 0 taken by d. That system is nonsingular whenever the chain has one
  closed class, a transient state 0 included, and d = 0 when P's rows sum
  to 1 exactly. The float rows sum to 1 only within an ulp or so, and d
  stays of that order.

The elimination keeps the rows sparse, so it suits chains of a few dozen
states: the B=5 wind chains (S=36) solve in well under a second.

`exact_scores` extends an exact evaluation to the exact improvement score
table of the model, from the same float kernel and rewards.
"""
from fractions import Fraction


def solve(rows, rhs):
    """The x with sum_j rows[i][j] x[j] = rhs[i][k] for every i and k, as
    lists x[j][k] of Fractions. rows[i] maps column to nonzero Fraction and
    the system is square and nonsingular (else ValueError). Pivots are
    taken column by column, from the row with the fewest entries."""
    n = len(rows)
    rows = [dict(row) for row in rows]
    rhs = [list(values) for values in rhs]
    left = set(range(n))
    pivots = []
    for col in range(n):
        candidates = [i for i in left if col in rows[i]]
        if not candidates:
            raise ValueError(f"singular system: no pivot in column {col}")
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        left.remove(p)
        pivots.append((col, p))
        pivot_row, pivot = rows[p], rows[p][col]
        for i in candidates:
            if i == p:
                continue
            row = rows[i]
            factor = row[col] / pivot
            for j, v in pivot_row.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
            rhs[i] = [a - factor * b for a, b in zip(rhs[i], rhs[p])]
    x = [None] * n
    for col, p in reversed(pivots):
        row = rows[p]
        known = [sum(v * x[j][k] for j, v in row.items() if j != col) for k in range(len(rhs[p]))]
        x[col] = [(b - s) / row[col] for b, s in zip(rhs[p], known)]
    return x


def exact_evaluation(P, r, beta):
    """The exact evaluation of the chain P (an S x S float array) with the
    reward vector r at the float beta, as a dict of Fractions: "pi" (a
    list), "j_mean", "j_var", "j_combined", and the three potentials
    "potential" (cost r - beta (r - j_mean)^2 at j_combined),
    "potential_mean" (r at j_mean) and "potential_var" ((r - j_mean)^2 at
    j_var), each a list with entry 0 equal to 0."""
    S = len(P)
    entries = [{j: Fraction(v) for j, v in enumerate(row.tolist()) if v} for row in P]
    r = [Fraction(v) for v in r.tolist()]
    beta = Fraction(beta)

    balance = [{} for _ in range(S)]
    for i, row in enumerate(entries):
        for j, v in row.items():
            if j < S - 1:
                balance[j][i] = v
    for j in range(S - 1):
        balance[j][j] = balance[j].get(j, 0) - 1
        if not balance[j][j]:
            del balance[j][j]
    balance[S - 1] = dict.fromkeys(range(S), Fraction(1))
    pi = [x[0] for x in solve(balance, [[0]] * (S - 1) + [[1]])]

    j_mean = sum(p * v for p, v in zip(pi, r))
    sq = [(v - j_mean) ** 2 for v in r]
    j_var = sum(p * v for p, v in zip(pi, sq))
    j_combined = j_mean - beta * j_var
    cost = [v - beta * s for v, s in zip(r, sq)]

    poisson = []
    for i, row in enumerate(entries):
        eq = {j: -v for j, v in row.items() if j}
        if i:
            eq[i] = eq.get(i, 0) + 1
            if not eq[i]:
                del eq[i]
        eq[0] = Fraction(1)
        poisson.append(eq)
    averages = (j_combined, j_mean, j_var)
    rhs = [[c - J for c, J in zip(values, averages)] for values in zip(cost, r, sq)]
    x = solve(poisson, rhs)
    potentials = [[Fraction(0)] + [x[i][k] for i in range(1, S)] for k in range(3)]
    return {
        "pi": pi,
        "j_mean": j_mean,
        "j_var": j_var,
        "j_combined": j_combined,
        "potential": potentials[0],
        "potential_mean": potentials[1],
        "potential_var": potentials[2],
    }


def exact_scores(model, exact):
    """The exact score table of the policy whose exact evaluation (at
    model.beta) is `exact`: a dict from each feasible pair (i, a) to
    Q(i, a) = r(i, a) - beta (r(i, a) - j_mean)^2 + sum_j p^a(i, j) g(j),
    with g = exact["potential"], every float of the model taken at its
    exact binary value."""
    beta, j_mean, g = Fraction(model.beta), exact["j_mean"], exact["potential"]
    scores = {}
    for i, actions in enumerate(model.feasible):
        for a in actions:
            r = Fraction(float(model.reward[i, a]))
            row = model.kernel[i, a].tolist()
            kg = sum(Fraction(p) * g[j] for j, p in enumerate(row) if p)
            scores[i, int(a)] = r - beta * (r - j_mean) ** 2 + kg
    return scores
