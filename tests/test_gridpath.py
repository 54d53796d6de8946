import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrate import gridpath
from fracrate.errors import InvalidInputError
from fracrate.gridpath import GridPath, l2_norm, trapezoid_weights


def test_invariants():
    with pytest.raises(InvalidInputError):
        GridPath(0.0, 0.0, [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        GridPath(0.0, -0.1, [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        GridPath(0.0, 0.1, np.zeros((0, 1)))
    p = GridPath(0.5, 0.25, [[1.0, 2.0], [3.0, 4.0]])
    assert p.n == 2 and p.dim == 2
    assert np.allclose(p.times(), [0.5, 0.75])


def test_grid_times_exact():
    p = GridPath(0.0, 0.1, np.zeros(11))
    t = p.times()
    assert t[0] == 0.0
    assert np.allclose(t, 0.1 * np.arange(11))


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((17, 3)) * np.pi
    p = GridPath(0.25, 1.0 / 3.0, vals)
    path = tmp_path / "p.csv"
    p.to_csv(str(path))
    q = GridPath.from_csv(str(path))
    assert q.values.shape == p.values.shape
    assert np.array_equal(q.values, p.values)
    assert q.t0 == p.t0
    assert abs(q.dt - p.dt) < 1e-15
    # value columns are byte-stable across round trips
    q.to_csv(tmp_path / "q.csv")
    cols1 = [line.split(",")[1:] for line in path.read_text().splitlines()]
    cols2 = [line.split(",")[1:] for line in (tmp_path / "q.csv").read_text().splitlines()]
    assert cols1 == cols2


def test_csv_round_trip_through_pathlib(tmp_path):
    # a pathlib.Path was taken for a buffer and failed with AttributeError
    p = GridPath(0.5, 0.125, np.column_stack([np.linspace(-1.0, 1.0, 9), np.full(9, -0.0)]))
    p.to_csv(tmp_path / "p.csv")
    assert GridPath.from_csv(tmp_path / "p.csv") == p
    p.to_csv(str(tmp_path / "s.csv"))
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()


@st.composite
def grid_paths(draw):
    """A path of 2 to 20 nodes and 0 to 3 columns holding any finite
    doubles, signed zeros and subnormals included, on a moderate grid."""
    n, dim = draw(st.integers(2, 20)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n * dim, max_size=n * dim))
    t0 = draw(st.floats(-10.0, 10.0))
    dt = draw(st.floats(1e-3, 10.0))
    return GridPath(t0, dt, np.reshape(np.array(cells, dtype=float), (n, dim)))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(path=grid_paths())
def test_csv_roundtrip_property(csv_dir, path):
    target, again = csv_dir / "p.csv", csv_dir / "again.csv"
    path.to_csv(target)
    back = GridPath.from_csv(target)
    assert back.values.shape == path.values.shape
    assert back.values.tobytes() == path.values.tobytes()  # bit for bit, signs of zeros too
    assert back.t0 == path.t0
    # dt comes back as t1 - t0 of the written times, within two roundings
    assert abs(back.dt - path.dt) <= 4e-16 * (abs(path.t0) + path.dt)
    back.to_csv(again)
    rows = [line.split(",")[1:] for line in target.read_text().splitlines()]
    assert rows == [line.split(",")[1:] for line in again.read_text().splitlines()]


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_csv_rows_follow_the_per_cell_repr_rule(tmp_path, dim):
    # every cell is written as repr(float(v)): signed zeros, NaN, infinities
    # and subnormals included
    special = np.array([-0.0, np.nan, 5e-324, -np.inf, 1.0 / 3.0, -1e308, 0.1])
    vals = np.column_stack([np.roll(special, j) for j in range(dim)]) if dim else np.zeros((7, 0))
    path = GridPath(-0.5, 0.1, vals)
    path.to_csv(tmp_path / "p.csv")
    times = path.times()
    expected = [",".join(["t"] + [f"v{j}" for j in range(dim)])]
    expected += [",".join([repr(float(times[i]))] + [repr(float(v)) for v in vals[i]]) for i in range(7)]
    assert (tmp_path / "p.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def column_stack_csv(path):
    """The CSV text of ``path`` as the row-wise writer built it, times and
    values stacked into one float table and every cell written by repr."""
    header = ",".join(["t", *(f"v{j}" for j in range(path.dim))]) + "\n"
    rows = np.column_stack([path.times(), path.values]).tolist()
    return header + "".join(",".join(map(repr, row)) + "\n" for row in rows)


class TestTimeColumnCache:
    # to_csv keeps the formatted time column of the last grid it wrote;
    # its bytes are the column_stack writer's on every grid

    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize("t0", [0.0, -1.25, 1.0 / 3.0])
    def test_matches_the_column_stack_writer(self, tmp_path, dim, t0):
        rng = np.random.default_rng(dim)
        path = GridPath(t0, 0.1, rng.standard_normal((201, dim)) * np.pi)
        gridpath._time_column.cache_clear()
        for _ in range(2):  # a cold cache, then a warm one
            path.to_csv(tmp_path / "p.csv")
            assert (tmp_path / "p.csv").read_bytes() == column_stack_csv(path).encode()
        assert gridpath._time_column.cache_info()[:2] == (1, 1)  # hits, misses

    def test_alternating_grids_miss_the_cache(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = [GridPath(0.0, 0.005, rng.standard_normal(201)), GridPath(0.5, 1.0 / 7.0, rng.standard_normal(9)),
                 GridPath(0.0, 0.005, rng.standard_normal(201)), GridPath(0.0, 0.005, rng.standard_normal(200))]
        gridpath._time_column.cache_clear()
        for i, path in enumerate(paths * 2):
            target = tmp_path / f"p{i}.csv"
            path.to_csv(str(target))
            assert target.read_bytes() == column_stack_csv(path).encode()
            back = GridPath.from_csv(str(target))
            assert back.values.tobytes() == path.values.tobytes() and back.t0 == path.t0
        assert gridpath._time_column.cache_info()[:2] == (0, 8)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v0\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    with pytest.raises(InvalidInputError):
        GridPath.from_csv(str(path))


@pytest.mark.parametrize("row", ["0.1,nan", "0.1,inf", "0.1,-inf", "nan,2.0"])
def test_csv_rejects_non_finite(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,v0\n0.0,1.0\n{row}\n0.2,3.0\n")
    with pytest.raises(InvalidInputError, match="non-finite"):
        GridPath.from_csv(str(path))


def test_derivative_convention():
    dt = 0.01
    t = dt * np.arange(101)
    p = GridPath(0.0, dt, t**3)
    d = p.derivative()[:, 0]
    # second-order interior and one-sided ends
    assert abs(d[50] - 3 * t[50] ** 2) < 2e-4
    assert abs(d[-1] - 3 * t[-1] ** 2) < 1e-3
    assert abs(d[0]) < 1e-3


def test_quadrature_helpers():
    w = trapezoid_weights(5, 0.25)
    assert w[0] == w[-1] == 0.125
    assert np.isclose(w.sum(), 1.0)
    dt = 0.001
    vals = np.sin(dt * np.arange(1001))
    # L2 norm of sin on [0,1]
    exact = np.sqrt(0.5 - np.sin(2.0) / 4.0)
    assert abs(l2_norm(vals, dt) - exact) < 1e-6
