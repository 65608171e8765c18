import numpy as np
import pytest

from autorbits import WindowSet, is_assembled, project_to_vertices, windows_of_matrix

# the two worked 2-wide examples: one reconstructs to [123;456], one does not
ASSEMBLED_2 = [((1, 2), (4, 5)), ((2, 3), (5, 6)), ((3, 1), (6, 4))]
BROKEN_2 = [((1, 2), (4, 5)), ((2, 3), (5, 6)), ((3, 4), (6, 1))]


def test_assembled_example_reconstructs():
    ws = WindowSet.from_elements(2, ASSEMBLED_2)
    ok, witness = is_assembled(ws)
    assert ok
    assert witness == ((1, 2, 3), (4, 5, 6))


def test_non_assembled_example():
    ws = WindowSet.from_elements(2, BROKEN_2)
    ok, witness = is_assembled(ws)
    assert not ok and witness is None


def test_projections_of_the_two_examples():
    good = project_to_vertices(WindowSet.from_elements(2, ASSEMBLED_2))
    assert good == frozenset({(1, 4), (2, 5), (3, 6)})
    bad = project_to_vertices(WindowSet.from_elements(2, BROKEN_2))
    # the strict column set picks up a reversed duplicate column
    assert bad == frozenset({(1, 4), (2, 5), (3, 6), (4, 1)})
    assert good < bad


def test_width_one_windows_of_any_2x2_matrix():
    ws = WindowSet.from_elements(1, [((7,), (1,)), ((3,), (9,))])
    ok, witness = is_assembled(ws)
    assert ok
    assert windows_of_matrix(*witness) == ws.elements


def test_wrong_cardinality_is_not_assembled():
    ws = WindowSet.from_elements(2, ASSEMBLED_2[:2])
    assert is_assembled(ws) == (False, None)


def test_malformed_element_rejected():
    with pytest.raises(ValueError):
        WindowSet.from_elements(2, [((1, 1), (4, 5))])
    with pytest.raises(ValueError):
        WindowSet.from_elements(2, [((1, 2, 3), (4, 5, 6))])


@pytest.mark.parametrize("k", [2.0, np.float64(2.0), "2", 0], ids=repr)
def test_window_width_must_be_an_integer_of_at_least_one(k):
    with pytest.raises(ValueError):
        WindowSet.from_elements(k, ASSEMBLED_2)


def test_window_width_may_be_a_numpy_integer_or_bool():
    assert is_assembled(WindowSet.from_elements(np.int64(2), ASSEMBLED_2)) == (
        True, ((1, 2, 3), (4, 5, 6)))
    ws = WindowSet.from_elements(True, [((7,), (1,)), ((3,), (9,))])
    assert is_assembled(ws)[0]


def test_empty_projection():
    assert project_to_vertices(WindowSet.from_elements(2, [])) == frozenset()


def test_round_trip_random_matrices():
    rng = np.random.default_rng(50)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        top = tuple(int(x) for x in rng.choice(30, size=k + 1, replace=False))
        bottom = tuple(int(x) for x in rng.choice(30, size=k + 1, replace=False))
        ws = WindowSet.from_elements(k, windows_of_matrix(top, bottom))
        ok, witness = is_assembled(ws)
        assert ok
        assert windows_of_matrix(*witness) == ws.elements


def test_invariance_under_vertex_renaming():
    rng = np.random.default_rng(51)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        elements = [
            (
                tuple(int(x) for x in rng.choice(12, size=k, replace=False)),
                tuple(int(x) for x in rng.choice(12, size=k, replace=False)),
            )
            for _ in range(k + 1)
        ]
        ws = WindowSet.from_elements(k, elements)
        rename = {v: int(p) for v, p in enumerate(rng.permutation(12))}
        renamed = WindowSet.from_elements(
            k,
            [
                (tuple(rename[x] for x in top), tuple(rename[x] for x in bottom))
                for top, bottom in ws.elements
            ],
        )
        assert is_assembled(ws)[0] == is_assembled(renamed)[0]
