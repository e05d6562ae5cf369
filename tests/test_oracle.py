"""The convex-roof oracle of criterion 6: an explicit decomposition, made
without the package."""

import ast
from pathlib import Path

import numpy as np

import oracle
from conftest import criterion_6_states
from qtangle.states import ghz
from qtangle.tangles import TRIPLES
from reference import partial_trace


def test_oracle_decomposition_rebuilds_each_criterion_6_marginal():
    for psi in criterion_6_states():
        for triple in TRIPLES:
            rho = partial_trace(psi, triple)
            weights, states, _ = oracle.roof_decomposition(rho)
            assert np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12
            assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)
            rebuilt = np.einsum("k,ki,kj->ij", weights, states, states.conj())
            assert np.max(np.abs(rebuilt - rho)) <= 1e-12


def test_oracle_is_zero_on_a_mixture_of_product_states():
    # GHZ4's (1, 2, 3) marginal is (|000><000| + |111><111|) / 2.
    assert oracle.convex_roof_tau3(partial_trace(ghz(4), (1, 2, 3))) <= 1e-12


def test_oracle_imports_nothing_from_the_package():
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            assert not any(name.split(".")[0] == "qtangle" for name in names), ast.unparse(node)
