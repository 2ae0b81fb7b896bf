"""Property-based tests for the core data structures (CountMatrix, graphs,
oracles, and the theory solver)."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import dict_product
from repro.core.oracles import NaiveThreePathOracle, PhaseThreePathOracle
from repro.graph.dynamic_graph import DynamicGraph
from repro.matmul.engine import CountMatrix, multiply
from repro.theory.constraints import main_constraint_system
from repro.theory.parameters import solve_main_parameters

FAST_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

entries_strategy = st.dictionaries(
    keys=st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    values=st.integers(min_value=-3, max_value=3).filter(lambda value: value != 0),
    max_size=20,
)


@given(entries=entries_strategy)
@FAST_SETTINGS
def test_count_matrix_add_matrix_roundtrip(entries):
    """M + (-M) is the zero matrix (the negative-edge cancellation property)."""
    matrix = CountMatrix(entries)
    negated = CountMatrix({key: -value for key, value in entries.items()})
    matrix.add_matrix(negated)
    assert matrix.nnz == 0


@given(left=entries_strategy, right=entries_strategy)
@FAST_SETTINGS
def test_multiply_matches_dict_reference(left, right):
    left_matrix = CountMatrix(left)
    right_matrix = CountMatrix(right)
    assert multiply(left_matrix, right_matrix) == dict_product(left_matrix, right_matrix)


@given(
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        max_size=25,
    )
)
@FAST_SETTINGS
def test_degree_sum_equals_twice_edges(edges):
    graph = DynamicGraph()
    for u, v in edges:
        if u != v and not graph.has_edge(u, v):
            graph.insert_edge(u, v)
    assert sum(graph.degree(v) for v in graph.vertices()) == 2 * graph.num_edges


@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=40,
    ),
    phase_length=st.integers(min_value=1, max_value=10),
)
@FAST_SETTINGS
def test_phase_oracle_always_matches_naive(updates, phase_length):
    """The phase decomposition equals the naive 3-path count at every point."""
    phase = PhaseThreePathOracle(phase_length=phase_length)
    naive = NaiveThreePathOracle()
    for position, left, right in updates:
        present = phase.relation(position).has(left, right)
        sign = -1 if present else +1
        phase.update(position, left, right, sign)
        naive.update(position, left, right, sign)
        for u in range(5):
            for v in range(5):
                assert phase.count_three_paths(u, v) == naive.count_three_paths(u, v)


@given(omega=st.floats(min_value=2.0, max_value=3.0, allow_nan=False))
@FAST_SETTINGS
def test_solved_parameters_always_feasible(omega):
    """Whenever an improvement exists (omega < 2.5) the solved (eps, delta)
    satisfies the whole constraint system; otherwise the solver reports
    eps = 0 (no improvement over [HHH22])."""
    parameters = solve_main_parameters(omega, validate=False)
    assert 0.0 <= parameters.eps <= 1.0 / 6.0
    assert parameters.update_time_exponent <= 2.0 / 3.0
    if parameters.improves_over_previous_work:
        system = main_constraint_system(omega)
        assert system.all_satisfied(parameters.as_dict(), tolerance=1e-9)
    else:
        assert parameters.eps == 0.0 and parameters.delta == 0.0
