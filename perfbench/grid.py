"""The fixed parameter grids of the three workloads, shared with make_references.py."""

XCHECK_K = tuple(range(1, 9))
COLUMNS = ((0.5, 0.0), (2.0, 1.0))  # (T, X) columns of the xcheck sweep and the polymer limit

EDGE_N = (400, 800)
EDGE_TOP_POINTS = 24
EDGE_REPLICAS = 1600
EDGE_BATCHES = 4  # sampling tasks per matrix size
LAPLACE_U = (0.1, 1.0)
LAPLACE_T = 2.0
SERIES_T = (0.5, 2.0)
HK_K = (1, 2, 3)
HK_T = (1.0, 2.0)

POLYMER_N = (1, 2, 3)
POLYMER_T = (0.5, 1.0)
POLYMER_STEPS = 500
POLYMER_REPLICAS = 30_000
POLYMER_MAX_MOMENT = 2
SWEEP_N = tuple(range(1, 17))
LIMIT_K = (1, 2, 3)


def moment_key(k: int, T: float, X: float) -> str:
    return f"k={k} T={T:g} X={X:g}"


def hk_key(k: int, T: float) -> str:
    return f"k={k} T={T:g}"


def polymer_key(k: int, n: int, t: float) -> str:
    return f"k={k} N={n} t={t:g}"
