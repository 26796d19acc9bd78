"""Solver backend tests: HiGHS, pure-Python branch & bound, cross-checks.

The branch-and-bound backend doubles as an executable specification: a
hypothesis test generates random small MILPs and requires both backends to
agree on feasibility and optimal objective value.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.milp import (
    BranchBoundBackend,
    Model,
    ScipyBackend,
    SolveStatus,
    linear_sum,
)


def knapsack_model():
    """0/1 knapsack: max 10x+6y+4z s.t. x+y+z<=2 -> optimum 16."""
    model = Model("knapsack")
    x, y, z = (model.add_binary(n) for n in "xyz")
    model.add_constraint(linear_sum([x, y, z]) <= 2)
    model.set_objective(10 * x + 6 * y + 4 * z, minimize=False)
    return model, (x, y, z)


class TestScipyBackend:
    def test_knapsack_optimum(self):
        model, (x, y, z) = knapsack_model()
        solution = model.solve(ScipyBackend())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(16.0)
        assert solution.rounded(x) == 1 and solution.rounded(y) == 1

    def test_infeasible_detected(self):
        model = Model("inf")
        x = model.add_binary("x")
        model.add_constraint(x >= 1)
        model.add_constraint(x <= 0)
        assert model.solve(ScipyBackend()).status is SolveStatus.INFEASIBLE

    def test_unbounded_detected(self):
        model = Model("unb")
        x = model.add_continuous("x", 0, math.inf)
        model.set_objective(x, minimize=False)
        status = model.solve(ScipyBackend()).status
        assert status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_pure_lp(self):
        model = Model("lp")
        x = model.add_continuous("x", 0, 4)
        y = model.add_continuous("y", 0, 4)
        model.add_constraint(x + y >= 3)
        model.set_objective(2 * x + y)
        solution = model.solve(ScipyBackend())
        assert solution.objective == pytest.approx(3.0)
        assert solution[y] == pytest.approx(3.0)

    def test_mixed_integer_continuous(self):
        model = Model("mix")
        n = model.add_var("n", 0, 10, vtype=__import__("repro.milp", fromlist=["VarType"]).VarType.INTEGER)
        c = model.add_continuous("c", 0, 10)
        model.add_constraint(n + c >= 2.5)
        model.set_objective(n + c)
        solution = model.solve(ScipyBackend())
        assert solution.objective == pytest.approx(2.5)

    def test_feasibility_model_reports_solution(self):
        model = Model("feas")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y == 1)
        solution = model.solve(ScipyBackend())
        assert solution.status.has_solution
        assert solution.rounded(x) + solution.rounded(y) == 1


class TestBranchBound:
    def test_knapsack_optimum(self):
        model, _ = knapsack_model()
        backend = BranchBoundBackend()
        solution = model.solve(backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(16.0)
        assert solution.stats.nodes >= 1

    def test_infeasible(self):
        model = Model("inf")
        x = model.add_binary("x")
        model.add_constraint(2 * x == 1)  # impossible for binary x
        assert model.solve(BranchBoundBackend()).status is SolveStatus.INFEASIBLE

    def test_node_limit_reported(self):
        model, _ = knapsack_model()
        solution = model.solve(BranchBoundBackend(max_nodes=1))
        # Either it got lucky with the first relaxation or reports a limit.
        assert solution.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.ERROR,
        )

    def test_integer_snapping(self):
        model = Model("snap")
        x = model.add_binary("x")
        model.add_constraint(x >= 0.4)  # LP gives 0.4; ILP must give 1
        solution = model.solve(BranchBoundBackend())
        assert solution.rounded(x) == 1


@st.composite
def random_milp(draw):
    """A small random MILP with bounded coefficients and 2-4 binaries."""
    num_vars = draw(st.integers(2, 4))
    num_cons = draw(st.integers(1, 4))
    coeff = st.integers(-4, 4)
    model = Model("rand")
    variables = [model.add_binary(f"x{i}") for i in range(num_vars)]
    for _ in range(num_cons):
        weights = [draw(coeff) for _ in variables]
        rhs = draw(st.integers(-3, 6))
        model.add_constraint(
            linear_sum(w * v for w, v in zip(weights, variables)) <= rhs
        )
    objective = [draw(coeff) for _ in variables]
    model.set_objective(
        linear_sum(w * v for w, v in zip(objective, variables))
    )
    return model, variables, objective


def brute_force_optimum(variables, constraints, objective_weights):
    """Exhaustive 0/1 enumeration."""
    best = None
    n = len(variables)
    for mask in range(1 << n):
        assignment = {v: float((mask >> i) & 1) for i, v in enumerate(variables)}
        if all(c.satisfied_by(assignment) for c in constraints):
            value = sum(
                w * assignment[v] for w, v in zip(objective_weights, variables)
            )
            if best is None or value < best:
                best = value
    return best


class TestCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(data=random_milp())
    def test_backends_agree_with_brute_force(self, data):
        model, variables, objective = data
        expected = brute_force_optimum(
            variables, model.constraints, objective
        )
        highs = model.solve(ScipyBackend())
        bnb = model.solve(BranchBoundBackend())
        if expected is None:
            assert highs.status is SolveStatus.INFEASIBLE
            assert bnb.status is SolveStatus.INFEASIBLE
        else:
            assert highs.status is SolveStatus.OPTIMAL
            assert bnb.status is SolveStatus.OPTIMAL
            assert highs.objective == pytest.approx(expected, abs=1e-6)
            assert bnb.objective == pytest.approx(expected, abs=1e-6)


def _objective_at(model, solution):
    """The model's own objective (minimisation sense) at a solution."""
    value = sum(
        coeff * solution.values[var]
        for var, coeff in model.objective.terms.items()
    )
    return value if model.minimize else -value


BACKENDS = [ScipyBackend, BranchBoundBackend]


class TestFeasibilityOnly:
    """``feasibility_only=True``: stop at the first feasible point, but
    report the model's real objective there."""

    @staticmethod
    def cover_model():
        """min 10x+6y+4z s.t. x+y+z>=2 -> optimum 10, other points 14/16."""
        model = Model("cover")
        x, y, z = (model.add_binary(n) for n in "xyz")
        model.add_constraint(linear_sum([x, y, z]) >= 2)
        model.set_objective(10 * x + 6 * y + 4 * z)
        return model

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_feasible_point_with_real_objective(self, backend_cls):
        model = self.cover_model()
        solution = model.solve(backend_cls(), feasibility_only=True)
        assert solution.status is SolveStatus.OPTIMAL
        assert model.check_solution(solution) == []
        real = _objective_at(model, solution)
        assert real in (10.0, 14.0, 16.0, 20.0)
        assert solution.stats.incumbent == pytest.approx(real)
        assert solution.objective == pytest.approx(real)
        assert solution.stats.feasibility_only is True
        # A bound or gap would describe the zero cost vector, not the model.
        assert solution.stats.best_bound is None
        assert solution.stats.mip_gap is None
        assert solution.stats.span_attrs()["feasibility_only"] is True
        assert solution.stats.to_dict()["feasibility_only"] is True

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_maximisation_reports_user_sense_objective(self, backend_cls):
        model, (x, y, z) = knapsack_model()
        solution = model.solve(backend_cls(), feasibility_only=True)
        assert model.check_solution(solution) == []
        value = 10 * solution[x] + 6 * solution[y] + 4 * solution[z]
        assert solution.objective == pytest.approx(value)
        assert solution.stats.incumbent == pytest.approx(-value)

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_default_solve_still_optimizes(self, backend_cls):
        solution = self.cover_model().solve(backend_cls())
        assert solution.objective == pytest.approx(10.0)
        assert solution.stats.feasibility_only is False

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_infeasible_still_detected(self, backend_cls):
        model = Model("inf")
        x = model.add_binary("x")
        model.add_constraint(2 * x == 1)
        solution = model.solve(backend_cls(), feasibility_only=True)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_valid_hint_is_the_answer(self):
        model = self.cover_model()
        x, y, z = model.variables
        hint = {x: 1.0, y: 1.0, z: 0.0}
        solution = model.solve(
            ScipyBackend(), feasibility_only=True, warm_start=hint
        )
        assert solution.values == hint
        assert solution.stats.incumbent == pytest.approx(16.0)

    @settings(max_examples=30, deadline=None)
    @given(data=random_milp())
    def test_agrees_with_brute_force_on_feasibility(self, data):
        model, variables, objective = data
        expected = brute_force_optimum(
            variables, model.constraints, objective
        )
        for backend_cls in BACKENDS:
            solution = model.solve(backend_cls(), feasibility_only=True)
            if expected is None:
                assert solution.status is SolveStatus.INFEASIBLE
                continue
            assert model.check_solution(solution) == []
            real = _objective_at(model, solution)
            assert solution.stats.incumbent == pytest.approx(real, abs=1e-6)
            assert real >= expected - 1e-6
