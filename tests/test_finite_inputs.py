"""Non-finite numbers and bad tolerances are rejected where values enter:
routed map and channel construction, the public route checks and
certifications, and document parsing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from routedcircuits import relations as rel
from routedcircuits.errors import InvariantViolation, SchemaError
from routedcircuits.io import parse
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import (
    RoutedCPM,
    follows_cp,
    is_practically_trace_preserving,
    kraus_follow_diagonal,
)
from routedcircuits.routed_maps import (
    RoutedMap,
    follows,
    is_practical_isometry,
    is_practical_unitary,
)
from routedcircuits.spaces import PartitionedSpace

NON_FINITE = [np.nan, np.inf, -np.inf]
BAD_TOLERANCES = [np.nan, np.inf, -1.0]


@pytest.fixture
def line():
    return PartitionedSpace.from_dims([0, 1], [1, 1])


class TestRoutedMap:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_on_forbidden_block_rejected(self, line, bad):
        # the identity route forbids the (1 -> 0) block holding the value
        matrix = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(InvariantViolation, match="non-finite"):
            RoutedMap(Relation.identity(line.sector_labels), matrix, line, line)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_on_allowed_block_rejected(self, line, bad):
        matrix = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(InvariantViolation, match="non-finite"):
            RoutedMap(Relation.identity(line.sector_labels), matrix, line, line)

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    def test_bad_tolerance_rejected(self, line, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            RoutedMap.identity(line, tolerance)


class TestRoutedCPM:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_kraus_entry_rejected(self, line, bad):
        route = rel.full_coherence(Relation.identity(line.sector_labels))
        kraus = (np.eye(2), np.array([[0.0, bad], [0.0, 0.0]]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            RoutedCPM(route, kraus, line, line)

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    def test_bad_tolerance_rejected(self, line, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            RoutedCPM.identity(line, tolerance)


def identity_route(space):
    return Relation.identity(space.sector_labels)


# each public check on a valid input, given the space and an explicit tolerance
CHECKS = {
    "follows": lambda s, tol: follows(np.eye(2), identity_route(s), s, s, tol),
    "follows_cp": lambda s, tol: follows_cp(
        [np.eye(2)], rel.full_coherence(identity_route(s)), s, s, tol
    ),
    "is_practical_isometry": lambda s, tol: is_practical_isometry(RoutedMap.identity(s), tol),
    "is_practical_unitary": lambda s, tol: is_practical_unitary(RoutedMap.identity(s), tol),
    "is_practically_trace_preserving": lambda s, tol: is_practically_trace_preserving(
        RoutedCPM.identity(s), tol
    ),
    "kraus_follow_diagonal": lambda s, tol: kraus_follow_diagonal(RoutedCPM.identity(s), tol),
}


class TestPublicChecks:
    """A check given a bad tolerance raises as a constructor does, rather
    than answering False (NaN, -1) or True (infinity)."""

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_valid_tolerance_accepted(self, line, check):
        assert CHECKS[check](line, 0.0)

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_bad_tolerance_rejected(self, line, check, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            CHECKS[check](line, tolerance)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_follows_rejects_non_finite_entries(self, line, bad):
        matrix = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(InvariantViolation, match="non-finite"):
            follows(matrix, identity_route(line), line, line)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_follows_cp_rejects_non_finite_entries(self, line, bad):
        route = rel.full_coherence(identity_route(line))
        kraus = (np.eye(2), np.array([[0.0, bad], [0.0, 0.0]]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            follows_cp(kraus, route, line, line)


def one_box_document(entry: str) -> str:
    """A pure one-box document whose matrix entry [0][1] (real part) is ``entry``."""
    doc = {
        "format_version": "1",
        "kind": "circuit",
        "mode": "pure",
        "spaces": {"two": {"sectors": [{"label": 0, "dim": 1}, {"label": 1, "dim": 1}]}},
        "wires": [{"id": "a", "space": "two"}, {"id": "b", "space": "two"}],
        "boxes": [
            {
                "id": "u",
                "inputs": ["a"],
                "outputs": ["b"],
                "map": {
                    "route": {"domain": [0, 1], "codomain": [0, 1], "matrix": [[1, 0], [0, 1]]},
                    "matrix": [[[1.0, 0.0], [0.125, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                },
            }
        ],
        "inputs": ["a"],
        "outputs": ["b"],
    }
    return json.dumps(doc).replace("0.125", entry)


class TestParse:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected_with_location(self, token):
        with pytest.raises(SchemaError) as err:
            parse(one_box_document(token))
        assert err.value.location == "/boxes/0/map/matrix/0/1/0"
        assert token.lstrip("-") in str(err.value)
