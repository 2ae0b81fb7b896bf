"""Tests for the incremental products and the phase work scheduler.

:class:`ScalarIncrementalMatrixProduct` below is the product in its scalar
form (one ``CountMatrix.add`` per multiply-add); it is the reference that
every advance of the row-block product is compared against, step by step.
"""

from __future__ import annotations

import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import dict_product
from repro.core.assadi_shah import AssadiShahCounter
from repro.core.phase_fmm import PhaseFMMCounter
from repro.exceptions import ConfigurationError, CounterStateError, MatmulError
from repro.graph.static_counts import count_four_cycles_edge_list
from repro.matmul import scheduler as scheduler_module
from repro.matmul.engine import CountMatrix
from repro.matmul.scheduler import ChainProductJob, IncrementalMatrixProduct, PhaseScheduler

from tests.conftest import random_dynamic_stream

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ScalarIncrementalMatrixProduct:
    """Reference ``left · right``: rows in ``repr`` order, one ``add`` per
    multiply-add, each row charged ``sum of max(|right row|, 1)`` over its
    entries (at least 1), and the row that reaches the budget finished."""

    def __init__(self, left, right, name: str = "product") -> None:
        self._left = left
        self._right = right
        self._pending_rows = deque(sorted(left.row_labels(), key=repr))
        self._result = CountMatrix()
        self._operations_done = 0

    @property
    def result(self) -> CountMatrix:
        return self._result

    @property
    def operations_done(self) -> int:
        return self._operations_done

    @property
    def is_complete(self) -> bool:
        return not self._pending_rows

    def remaining_rows(self) -> int:
        return len(self._pending_rows)

    def advance(self, budget: int) -> int:
        done = 0
        while self._pending_rows and done < budget:
            done += self._process_row(self._pending_rows.popleft())
        self._operations_done += done
        return done

    def run_to_completion(self) -> int:
        done = 0
        while self._pending_rows:
            done += self._process_row(self._pending_rows.popleft())
        self._operations_done += done
        return done

    def _process_row(self, row) -> int:
        operations = 0
        for middle, left_value in self._left.row(row).items():
            right_row = self._right.row(middle)
            operations += max(len(right_row), 1)
            for column, right_value in right_row.items():
                self._result.add(row, column, left_value * right_value)
        return max(operations, 1)


def scalar_reference():
    """Patch the reference product into the scheduler module (and hence into
    every chain job and phase oracle built while the patch is active)."""
    return mock.patch.object(
        scheduler_module, "IncrementalMatrixProduct", ScalarIncrementalMatrixProduct
    )


#: Mixed label types: ints, strings and tuples share one small universe, so
#: rows, middles and columns of different types meet in the same product and
#: most rows carry several entries (charges well above 1).
LABELS = st.sampled_from([0, 1, -1, 10, "a", "b", "10", (0, "x"), (1, "x"), ((0, 1), "y")])


@st.composite
def count_matrices(draw, max_entries: int = 24) -> CountMatrix:
    """A matrix built by a sequence of signed ``add`` calls, a drawn prefix of
    which is undone again (all of it, now and then, leaving it empty)."""
    entries = draw(
        st.lists(st.tuples(LABELS, LABELS, st.integers(-3, 3)), max_size=max_entries)
    )
    undone = draw(st.sampled_from([0, 1, 2, len(entries)]))
    matrix = CountMatrix()
    for row, column, value in entries + [(r, c, -v) for r, c, v in entries[:undone]]:
        matrix.add(row, column, value)
    return matrix


#: Budgets of every kind: mostly small ones that stop inside a product, plus
#: none, a single unit, and more than any job.
BUDGETS = st.lists(
    st.sampled_from([2, 3, 4, 5, 7, 9, 12, 0, 1, 10**12]), min_size=1, max_size=25
)


def product_state(product) -> tuple:
    result = product.result
    return (
        product.operations_done,
        product.remaining_rows(),
        product.is_complete,
        result.nnz,
        result.column_labels(),
    )


def chain_trace(matrices, budgets) -> list:
    """Per-advance observations of a chain job, then its final result."""
    job = ChainProductJob(matrices, name="chain")
    trace = [(job.advance(budget), job.operations_done, job.is_complete) for budget in budgets]
    trace.append((job.run_to_completion(), job.operations_done, job.is_complete))
    trace.append(job.result)
    return trace


def scheduler_trace(matrices, budgets) -> list:
    """Per-call observations of a scheduler running the oracle's three jobs."""
    a, b, c = matrices
    scheduler = PhaseScheduler()
    for job in (ChainProductJob([a, b]), ChainProductJob([b, c]), ChainProductJob([a, b, c])):
        scheduler.submit(job)
    trace = [(scheduler.work(budget), scheduler.total_operations) for budget in budgets]
    trace.append((scheduler.finish_all(), scheduler.total_operations))
    trace.extend(job.result for job in scheduler.jobs())
    return trace


def random_matrix(rng: random.Random, rows: int, columns: int, density: float = 0.5) -> CountMatrix:
    matrix = CountMatrix()
    for i in range(rows):
        for j in range(columns):
            if rng.random() < density:
                matrix.add(f"r{i}", f"m{j}", 1)
    return matrix


class TestIncrementalMatrixProduct:
    def test_partial_then_complete(self):
        rng = random.Random(0)
        left = random_matrix(rng, 10, 8)
        right = CountMatrix()
        for j in range(8):
            for k in range(6):
                if rng.random() < 0.5:
                    right.add(f"m{j}", f"c{k}", 1)
        job = IncrementalMatrixProduct(left, right)
        assert not job.is_complete
        job.advance(5)
        assert job.remaining_rows() < 10 or job.operations_done > 0
        job.run_to_completion()
        assert job.is_complete
        expected, _ = dict_product(left, right)
        assert job.result == expected

    def test_advance_respects_budget_roughly(self):
        rng = random.Random(1)
        left = random_matrix(rng, 20, 10)
        right = random_matrix(rng, 10, 10)
        # Row labels of right must match columns of left.
        right = CountMatrix()
        for j in range(10):
            for k in range(10):
                if rng.random() < 0.5:
                    right.add(f"m{j}", f"c{k}", 1)
        job = IncrementalMatrixProduct(left, right)
        done = job.advance(3)
        # A single row is atomic, so the overshoot is bounded by one full row's
        # work (up to 10 middles, each with up to 10 right-hand entries).
        assert done <= 3 + 10 * 10

    def test_negative_budget_rejected(self):
        job = IncrementalMatrixProduct(CountMatrix(), CountMatrix())
        with pytest.raises(ConfigurationError):
            job.advance(-1)

    def test_empty_product(self):
        job = IncrementalMatrixProduct(CountMatrix(), CountMatrix())
        assert job.is_complete
        assert job.result.nnz == 0


class TestChainProductJob:
    def test_triple_chain_matches_direct_product(self):
        rng = random.Random(2)
        a = random_matrix(rng, 6, 5)
        b = CountMatrix()
        for j in range(5):
            for k in range(7):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"y{k}", 1)
        c = CountMatrix()
        for k in range(7):
            for l in range(4):
                if rng.random() < 0.5:
                    c.add(f"y{k}", f"v{l}", 1)
        job = ChainProductJob([a, b, c], name="abc")
        job.run_to_completion()
        expected, _ = dict_product(a, b)
        expected, _ = dict_product(expected, c)
        assert job.result == expected

    def test_result_before_completion_raises(self):
        a = CountMatrix({(1, 2): 1})
        b = CountMatrix({(2, 3): 1})
        job = ChainProductJob([a, b])
        with pytest.raises(CounterStateError):
            _ = job.result

    def test_single_matrix_chain(self):
        matrix = CountMatrix({(1, 2): 5})
        job = ChainProductJob([matrix])
        assert job.is_complete
        assert job.result == matrix

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainProductJob([])

    def test_incremental_advance_eventually_completes(self):
        rng = random.Random(3)
        a = random_matrix(rng, 8, 8)
        b = CountMatrix()
        for j in range(8):
            for k in range(8):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"z{k}", 1)
        job = ChainProductJob([a, b])
        steps = 0
        while not job.is_complete and steps < 10_000:
            job.advance(2)
            steps += 1
        assert job.is_complete


class TestPhaseScheduler:
    def test_work_spreads_over_updates(self):
        rng = random.Random(4)
        a = random_matrix(rng, 10, 10)
        b = CountMatrix()
        for j in range(10):
            for k in range(10):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"w{k}", 1)
        scheduler = PhaseScheduler(budget_per_update=4)
        job = ChainProductJob([a, b])
        scheduler.submit(job)
        updates = 0
        while not scheduler.all_complete() and updates < 10_000:
            scheduler.work()
            updates += 1
        assert scheduler.all_complete()
        assert scheduler.updates_seen == updates
        assert scheduler.total_operations == job.operations_done

    def test_finish_all(self):
        scheduler = PhaseScheduler(budget_per_update=1)
        job = ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix({(2, 3): 1})])
        scheduler.submit(job)
        scheduler.finish_all()
        assert scheduler.all_complete()
        assert job.result.get(1, 3) == 1

    def test_clear(self):
        scheduler = PhaseScheduler()
        scheduler.submit(ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix()]))
        scheduler.clear()
        assert scheduler.all_complete()
        assert list(scheduler.jobs()) == []

    def test_negative_budget_rejected(self):
        scheduler = PhaseScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.work(budget=-5)

    def test_pending_jobs(self):
        scheduler = PhaseScheduler(budget_per_update=0)
        job = ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix({(2, 3): 1})])
        scheduler.submit(job)
        assert scheduler.pending_jobs() == [job]


class TestScalarReference:
    """The row-block product matches the scalar loop after every advance."""

    @PROPERTY_SETTINGS
    @given(left=count_matrices(), right=count_matrices(), budgets=BUDGETS)
    def test_every_advance_matches_the_scalar_loop(self, left, right, budgets):
        product = IncrementalMatrixProduct(left, right)
        reference = ScalarIncrementalMatrixProduct(left, right)
        assert product_state(product) == product_state(reference)
        for budget in budgets:
            assert product.advance(budget) == reference.advance(budget)
            assert product_state(product) == product_state(reference)
            assert product.result == reference.result
        assert product.run_to_completion() == reference.run_to_completion()
        assert product_state(product) == product_state(reference)
        assert product.result == reference.result

    @PROPERTY_SETTINGS
    @given(
        matrices=st.lists(count_matrices(max_entries=16), min_size=3, max_size=3),
        budgets=BUDGETS,
    )
    def test_three_matrix_chain_matches_the_scalar_loop(self, matrices, budgets):
        with scalar_reference():
            expected = chain_trace(matrices, budgets)
        assert chain_trace(matrices, budgets) == expected

    @PROPERTY_SETTINGS
    @given(
        matrices=st.lists(count_matrices(max_entries=16), min_size=3, max_size=3),
        budgets=BUDGETS,
    )
    def test_scheduler_total_operations_match_the_scalar_loop(self, matrices, budgets):
        with scalar_reference():
            expected = scheduler_trace(matrices, budgets)
        assert scheduler_trace(matrices, budgets) == expected

    def test_the_row_that_reaches_the_budget_is_finished(self):
        # Rows "r" and "s" are charged 1 + 2 = 3 each.
        left = CountMatrix({("r", "m"): 1, ("r", "n"): 1, ("s", "m"): 1, ("s", "n"): 1})
        right = CountMatrix({("m", "c"): 1, ("n", "c"): 1, ("n", "d"): 1})
        for budgets, expected in (([1, 1], [3, 3]), ([3, 3], [3, 3]), ([4], [6]), ([2, 4], [3, 3])):
            product = IncrementalMatrixProduct(left, right)
            reference = ScalarIncrementalMatrixProduct(left, right)
            assert [product.advance(budget) for budget in budgets] == expected
            assert [reference.advance(budget) for budget in budgets] == expected

    def test_products_that_cancel_to_zero_leave_no_entries(self):
        # Row "r" meets column "c" through two middles of opposite sign, and
        # its middle ("t", 1) has no right row at all.
        left = CountMatrix({("r", 1): 2, ("r", "m"): 1, ("r", ("t", 1)): -4, (7, "m"): 3})
        right = CountMatrix({(1, "c"): 1, ("m", "c"): -2, ("m", (0, "x")): 5})
        product = IncrementalMatrixProduct(left, right)
        reference = ScalarIncrementalMatrixProduct(left, right)
        for budget in (1, 1, 1):
            assert product.advance(budget) == reference.advance(budget)
            assert product_state(product) == product_state(reference)
        assert product.result == reference.result
        assert product.result.get("r", "c") == 0
        assert "c" not in product.result.row("r")
        assert product.result.get(7, (0, "x")) == 15

    def test_empty_operands(self):
        populated = CountMatrix({(1, 2): 3})
        for left, right in (
            (CountMatrix(), CountMatrix()),
            (CountMatrix(), populated),
            (populated, CountMatrix()),
        ):
            product = IncrementalMatrixProduct(left, right)
            reference = ScalarIncrementalMatrixProduct(left, right)
            assert product.advance(5) == reference.advance(5)
            assert product_state(product) == product_state(reference)
            assert product.result == reference.result


class TestRowBlocks:
    def test_construction_never_exports_csr(self, monkeypatch):
        exported = []
        original = CountMatrix.csr

        def recording_csr(matrix):
            exported.append(matrix)
            return original(matrix)

        monkeypatch.setattr(CountMatrix, "csr", recording_csr)
        a = CountMatrix({(1, 2): 1, (2, 3): 1})
        b = CountMatrix({(2, 3): 1, (3, 1): 1})
        c = CountMatrix({(3, 1): 1, (1, 2): 1})
        scheduler = PhaseScheduler(budget_per_update=0)
        product = IncrementalMatrixProduct(a, b)
        for job in (ChainProductJob([a, b]), ChainProductJob([a, b, c])):
            scheduler.submit(job)
        scheduler.work()
        product.advance(0)
        assert exported == []
        product.advance(1)
        assert exported

    def test_plan_is_released_once_complete(self):
        left = CountMatrix({("r", "m"): 1, ("s", "m"): 2})
        right = CountMatrix({("m", "c"): 3})
        product = IncrementalMatrixProduct(left, right)
        product.advance(1)
        assert product._plan is not None
        product.advance(1)
        assert product.is_complete
        assert product._plan is None

    @pytest.mark.parametrize("change", ["add a row", "remove a row"])
    def test_an_operand_changed_before_the_first_advance_is_refused(self, change):
        left = CountMatrix({("r", "m"): 1, ("s", "m"): 2})
        right = CountMatrix({("m", "c"): 3})
        product = IncrementalMatrixProduct(left, right, name="A_old*B_old")
        if change == "add a row":
            left.add("t", "m", 1)
        else:
            left.add("s", "m", -2)
        with pytest.raises(CounterStateError, match="A_old\\*B_old"):
            product.advance(10**9)
        # The right operand is a snapshot too, and a chain names its stages.
        job = ChainProductJob([left, right, CountMatrix({("c", "d"): 1})], name="abc")
        right.add("m", "d", 1)
        with pytest.raises(CounterStateError, match="abc"):
            job.advance(1)

    def test_products_past_int64_are_refused(self):
        left = CountMatrix({("r", "m"): 1 << 31, ("r", "n"): 1 << 31})
        right = CountMatrix({("m", "c"): 1 << 31, ("n", "c"): 1 << 31})
        product = IncrementalMatrixProduct(left, right)
        with pytest.raises(MatmulError):
            product.advance(1)
        # Just below the bound the product is exact.
        right = CountMatrix({("m", "c"): 1 << 30, ("n", "c"): (1 << 30) - 1})
        product = IncrementalMatrixProduct(left, right)
        product.run_to_completion()
        assert product.result.get("r", "c") == (1 << 62) - (1 << 31)


@pytest.mark.parametrize("counter_class", [PhaseFMMCounter, AssadiShahCounter])
def test_per_update_stream_stays_exact_across_phases(counter_class):
    """Counts match brute force at every step across several phase ends, and
    the scheduled work equals the scalar reference's."""
    stream = random_dynamic_stream(num_vertices=10, num_updates=90, seed=7)
    # assadi-shah schedules products for high endpoints only, and no vertex
    # of this graph reaches the default threshold m^{2/3-eps}: eps = 0.45
    # lowers it to m^0.22 so that its products are scheduled.
    options = {"eps": 0.45} if counter_class is AssadiShahCounter else {}

    def run() -> tuple:
        counter = counter_class(phase_length=18, **options)
        live = set()
        for update in stream:
            edge = (update.u, update.v)
            if update.is_insert:
                live.add(edge)
            else:
                live.discard(edge)
            counter.apply(update)
            assert counter.count == count_four_cycles_edge_list(live)
        return counter.phases_completed, counter.cost.get("matmul_ops")

    phases, operations = run()
    with scalar_reference():
        reference_phases, reference_operations = run()
    assert phases == reference_phases >= 3
    assert operations == reference_operations > 0
