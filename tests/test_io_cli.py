"""Document parsing, canonical serialization, and the command-line tool."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

from routedcircuits import circuits, cli
from routedcircuits.circuits import CircuitBuilder
from routedcircuits.errors import InvariantViolation, ParseError, SchemaError
from routedcircuits.io import (
    FORMAT_VERSION,
    CircuitDocument,
    bundled_path,
    default_tolerance,
    load_bundled,
    parse,
    routed_cpm_from_json,
    routed_cpm_to_json,
    routed_map_from_json,
    routed_map_to_json,
    serialize,
)
from routedcircuits.relations import IndexSet, Relation, full_coherence
from routedcircuits.routed_cpms import RoutedCPM, lift_pure
from routedcircuits.routed_maps import DEFAULT_TOLERANCE, RoutedMap
from routedcircuits.spaces import PartitionedSpace

from conftest import child_env

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

BUNDLED = [
    "two_trajectories.json",
    "three_trajectories.json",
    "copy_discard.json",
    "diamond.json",
    "figure1b.json",
    "figure1c.json",
    "figure1d.json",
    "iodag_e.json",
    "iodag_f1.json",
    "iodag_f2.json",
    "iodag_f3.json",
]


def run_cli(*args, env=None):
    command = [sys.executable, "-m", "routedcircuits.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, env=child_env(**(env or {})))


class TestParsing:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_documents_load(self, name):
        doc = load_bundled(name)
        assert doc.format_version == "1"

    def test_empty_document_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse("{}")

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse("{not json")

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            parse("/nonexistent/file.json")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as err:
            parse('{"format_version": "1", "kind": "poem"}')
        assert err.value.location == "/kind"

    def test_schema_error_locations(self):
        text = json.dumps(
            {
                "format_version": "1",
                "kind": "circuit",
                "mode": "pure",
                "spaces": {},
                "wires": [{"id": "a", "space": "ghost"}],
                "boxes": [],
                "inputs": [],
                "outputs": [],
            }
        )
        with pytest.raises(SchemaError) as err:
            parse(text)
        assert err.value.location == "/wires/0/space"

    def test_invalid_cp_relation_names_witness(self):
        matrix = np.zeros((2, 2, 1, 1), dtype=int)
        matrix[0, 1, 0, 0] = 1
        doc = {
            "format_version": "1",
            "kind": "circuit",
            "mode": "cpm",
            "spaces": {
                "two": {"sectors": [{"label": 0, "dim": 1}, {"label": 1, "dim": 1}]},
                "unit": {"sectors": [{"label": "*", "dim": 1}]},
            },
            "wires": [{"id": "a", "space": "two"}, {"id": "b", "space": "unit"}],
            "boxes": [
                {
                    "id": "bad",
                    "inputs": ["a"],
                    "outputs": ["b"],
                    "map": {
                        "route": {
                            "base_domain": [0, 1],
                            "base_codomain": ["*"],
                            "matrix": matrix.tolist(),
                        },
                        "kraus": [[[[1.0, 0.0], [0.0, 0.0]]]],
                    },
                }
            ],
            "inputs": ["a"],
            "outputs": ["b"],
        }
        with pytest.raises(InvariantViolation) as err:
            parse(json.dumps(doc))
        message = str(err.value)
        assert "/boxes/0/map" in message and "k'=" in message

    @pytest.mark.parametrize("name", BUNDLED)
    def test_round_trip_is_identity_on_canonical_form(self, name):
        doc = load_bundled(name)
        once = serialize(doc)
        twice = serialize(parse(once))
        assert once == twice

    def test_standalone_routed_map_round_trip(self):
        space = PartitionedSpace.from_dims([0, 1], [1, 1])
        original = RoutedMap(
            Relation.identity(space.sector_labels),
            np.diag([1.0, 1j]),
            space,
            space,
        )
        registry = {"line": space}
        data = routed_map_to_json(original, "line", "line")
        assert routed_map_from_json(data, registry) == original
        channel = lift_pure(original)
        cp_data = routed_cpm_to_json(channel, "line", "line")
        assert routed_cpm_from_json(cp_data, registry) == channel


class TestRouteRoundTrip:
    """Routes written by ``io``'s standalone writers and read back by its
    readers, on maps whose operators are zero, so any route holds."""

    ROUTE = Relation(
        IndexSet((1, 2, 3, 4)),
        IndexSet(("a", "b", "c")),
        np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=bool),
    )
    SPACES = {
        "dom": PartitionedSpace.from_dims((1, 2, 3, 4), (1, 1, 1, 1)),
        "cod": PartitionedSpace.from_dims(("a", "b", "c"), (1, 1, 1)),
    }

    def test_relation_round_trip(self):
        routed = RoutedMap(self.ROUTE, np.zeros((3, 4)), self.SPACES["dom"], self.SPACES["cod"])
        data = routed_map_to_json(routed, "dom", "cod")
        assert data["route"]["matrix"][1] == [0, 1, 1]
        assert routed_map_from_json(data, self.SPACES).route == self.ROUTE

    def test_cp_relation_round_trip(self):
        route = full_coherence(self.ROUTE)
        channel = RoutedCPM(route, [np.zeros((3, 4))], self.SPACES["dom"], self.SPACES["cod"])
        data = routed_cpm_to_json(channel, "dom", "cod")
        assert routed_cpm_from_json(data, self.SPACES).route == route

    def test_tuple_labels_survive(self):
        pairs = IndexSet(((0, 0), (0, 1)))
        space = PartitionedSpace(pairs, (1, 1))
        data = routed_map_to_json(RoutedMap.identity(space), "pairs", "pairs")
        assert data["route"]["domain"] == [[0, 0], [0, 1]]
        assert routed_map_from_json(data, {"pairs": space}).route.domain == pairs

    def test_kraus_stack_round_trip(self):
        space = self.SPACES["dom"]
        stack = np.array([0.6 * np.diag([1, 1j, -1, -0.0]), 0.8 * np.diag([-1j, 1, 1j, 1])])
        route = full_coherence(Relation.identity(space.sector_labels))
        channel = RoutedCPM(route, stack, space, space)
        data = routed_cpm_to_json(channel, "dom", "dom")
        assert np.array(data["kraus"]).shape == (2, 4, 4, 2)
        back = routed_cpm_from_json(data, self.SPACES)
        assert back == channel
        assert np.array_equal(back.kraus_stack, channel.kraus_stack)
        assert np.signbit(back.kraus_stack[0, 3, 3].real)


def test_only_io_and_cli_know_the_document_format():
    """The document format lives in ``io`` (and ``cli`` writes its reports):
    no other module of the package has a public name ending in ``_json``."""
    package = importlib.import_module("routedcircuits")
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name not in ("io", "cli"):
            module = importlib.import_module(f"routedcircuits.{info.name}")
            names = [n for n in vars(module) if n.endswith("_json") and not n.startswith("_")]
            if names:
                found[info.name] = names
    assert found == {}


class TestStandaloneLoaders:
    """How ``routed_map_from_json`` and ``routed_cpm_from_json`` report a
    single fault: the SchemaError pointer, or the class and full message
    of a semantic error."""

    @pytest.fixture
    def space(self):
        return PartitionedSpace.from_dims([0, 1], [1, 1])

    @pytest.fixture(params=["pure", "cpm"])
    def case(self, request, space, monkeypatch):
        monkeypatch.delenv("ROUTED_TOLERANCE", raising=False)
        pure = RoutedMap(
            Relation.identity(space.sector_labels), np.diag([1.0, 1j]), space, space
        )
        if request.param == "pure":
            return routed_map_from_json, routed_map_to_json(pure, "line", "line"), "/matrix"
        data = routed_cpm_to_json(lift_pure(pure), "line", "line")
        return routed_cpm_from_json, data, "/kraus/0"

    def _schema_location(self, load, data, space):
        with pytest.raises(SchemaError) as err:
            load(data, {"line": space})
        return err.value.location

    def test_missing_route(self, case, space):
        load, data, _ = case
        del data["route"]
        assert self._schema_location(load, data, space) == ""

    def test_missing_route_key(self, case, space):
        load, data, _ = case
        for key in list(data["route"]):
            broken = json.loads(json.dumps(data))
            del broken["route"][key]
            assert self._schema_location(load, broken, space) == "/route", key

    @pytest.mark.parametrize("entry", [1, [1, "x"], [1, 2, 3], None])
    def test_operator_entry_that_is_no_pair(self, case, space, entry):
        load, data, operator = case
        _set(data, f"{operator}/0/0", entry)
        assert self._schema_location(load, data, space) == f"{operator}/0/0"

    @pytest.mark.parametrize("entry", ["no", 0.5, True, None, [1]])
    def test_route_entry_that_is_no_bit(self, case, space, entry):
        load, data, operator = case
        pointer = "/route/matrix/0/0" + ("/0/0" if operator != "/matrix" else "")
        _set(data, pointer, entry)
        assert self._schema_location(load, data, space) == pointer

    def test_ragged_route_matrix(self, case, space):
        load, data, operator = case
        row = "/route/matrix/1" + ("/1/0" if operator != "/matrix" else "")
        _set(data, row, [0, 1, 1])
        assert self._schema_location(load, data, space) == row

    @pytest.mark.parametrize("value", [{"k": 0}, 1.5, [0, None]])
    def test_route_label_that_is_no_label(self, case, space, value):
        load, data, operator = case
        key = "domain" if operator == "/matrix" else "base_domain"
        _set(data, f"/route/{key}/0", value)
        location = f"/route/{key}/0" + ("/1" if isinstance(value, list) else "")
        assert self._schema_location(load, data, space) == location

    def test_unknown_space(self, case, space):
        load, data, _ = case
        data["domain"] = "ghost"
        assert self._schema_location(load, data, space) == "/domain"

    def test_unknown_codomain_space(self, case, space):
        load, data, _ = case
        data["codomain"] = "ghost"
        assert self._schema_location(load, data, space) == "/codomain"

    def test_forbidden_weight(self, case, space):
        from routedcircuits.errors import RouteViolation

        load, data, operator = case
        _set(data, f"{operator}/0/1", [1.0, 0.0])
        with pytest.raises(RouteViolation) as err:
            load(data, {"line": space})
        assert type(err.value) is RouteViolation
        if operator == "/matrix":
            assert str(err.value) == (
                "/matrix: matrix has weight 1.000e+00 on a forbidden sector block "
                "(tolerance 1.0e-09)"
            )
        else:
            assert str(err.value) == (
                "/kraus: channel has Choi weight 1.000e+00 on a forbidden coherence "
                "block (tolerance 1.0e-09)"
            )


class TestCLI:
    def test_accessible_two_trajectories(self):
        result = run_cli(
            "accessible", bundled_path("two_trajectories.json"), "--slice", "A,B"
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["accessible"] == [[0, 1], [1, 0]]
        assert payload["algorithms_agree"] is True

    def test_validate_diamond_uni_exit_zero(self):
        result = run_cli("validate", bundled_path("diamond.json"), "--mode", "uni")
        assert result.returncode == 0

    def test_validate_figure1d_iso_fails_with_witness(self):
        result = run_cli("validate", bundled_path("figure1d.json"), "--mode", "iso")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert "starting points" in payload["violations"][0]["message"]

    def test_validate_figure1c_uni_fails(self):
        result = run_cli("validate", bundled_path("figure1c.json"), "--mode", "uni")
        assert result.returncode == 1

    def test_eval_reports_certification(self):
        result = run_cli("eval", bundled_path("two_trajectories.json"))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["practical_unitary"] is True

    def test_eval_channel_document(self):
        result = run_cli("eval", bundled_path("three_trajectories.json"))
        payload = json.loads(result.stdout)
        assert payload["practically_trace_preserving"] is True

    def test_explain_clean_circuit(self):
        result = run_cli("explain", bundled_path("two_trajectories.json"))
        assert result.returncode == 0
        assert json.loads(result.stdout)["witnesses"] == []

    def test_export_dot(self, tmp_path):
        out = tmp_path / "diagram.dot"
        result = run_cli("export-dot", bundled_path("diamond.json"), "-o", str(out))
        assert result.returncode == 0
        assert out.read_text().startswith("digraph")

    def test_allocation_failure_is_a_json_error(self, monkeypatch, capsys):
        """A ``MemoryError`` (NumPy's ``_ArrayMemoryError`` is one) is
        reported like a library error, not as a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the composite")

        monkeypatch.setattr(circuits, "evaluate", exhausted)
        assert cli.main(["eval", bundled_path("two_trajectories.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "cannot allocate the composite", "kind": "MemoryError"}

    def test_usage_error_exit_two(self):
        result = run_cli("validate", "/nonexistent.json")
        assert result.returncode == 2

    def test_mode_mismatch_exit_two(self):
        result = run_cli(
            "validate", bundled_path("two_trajectories.json"), "--mode", "channel"
        )
        assert result.returncode == 2

    def test_tolerance_env_override(self, tmp_path):
        # a slightly noisy block-diagonal map: rejected at the default
        # tolerance, accepted when ROUTED_TOLERANCE is raised
        noise = 1e-6
        doc = {
            "format_version": "1",
            "kind": "circuit",
            "mode": "pure",
            "spaces": {
                "two": {"sectors": [{"label": 0, "dim": 1}, {"label": 1, "dim": 1}]}
            },
            "wires": [{"id": "a", "space": "two"}, {"id": "b", "space": "two"}],
            "boxes": [
                {
                    "id": "u",
                    "inputs": ["a"],
                    "outputs": ["b"],
                    "map": {
                        "route": {
                            "domain": [0, 1],
                            "codomain": [0, 1],
                            "matrix": [[1, 0], [0, 1]],
                        },
                        "matrix": [
                            [[1.0, 0.0], [noise, 0.0]],
                            [[noise, 0.0], [1.0, 0.0]],
                        ],
                    },
                }
            ],
            "inputs": ["a"],
            "outputs": ["b"],
        }
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(doc))
        strict = run_cli("validate", str(path))
        assert strict.returncode == 1
        loose = run_cli("validate", str(path), env={"ROUTED_TOLERANCE": "1e-3"})
        assert loose.returncode == 0


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "golden,args",
        [
            ("accessible_two_trajectories.json", ["accessible", "two_trajectories.json", "--slice", "A,B"]),
            ("validate_diamond_uni.json", ["validate", "diamond.json", "--mode", "uni"]),
            ("validate_figure1d_iso.json", ["validate", "figure1d.json", "--mode", "iso"]),
            ("eval_two_trajectories.json", ["eval", "two_trajectories.json"]),
        ],
    )
    def test_byte_identical(self, golden, args):
        args = [bundled_path(a) if a.endswith(".json") else a for a in args]
        result = run_cli(*args)
        with open(os.path.join(GOLDEN_DIR, golden), "r", encoding="utf-8") as handle:
            assert result.stdout == handle.read()

    def test_human_rendering(self):
        result = run_cli(
            "--human", "accessible", bundled_path("two_trajectories.json"), "--slice", "A,B"
        )
        with open(
            os.path.join(GOLDEN_DIR, "accessible_two_trajectories_human.txt"),
            "r",
            encoding="utf-8",
        ) as handle:
            assert result.stdout == handle.read()


class TestToleranceVariable:
    def test_the_default_is_the_library_default(self, monkeypatch):
        """``io`` spells its default apart from ``routed_maps``, so as not to
        load NumPy for a bare indexed graph; the two must agree."""
        monkeypatch.delenv("ROUTED_TOLERANCE", raising=False)
        assert default_tolerance() == DEFAULT_TOLERANCE

    @pytest.mark.parametrize("value", ["nan", "inf", "abc", "-1"])
    def test_invalid_value_exits_two_naming_the_variable(self, value):
        result = run_cli(
            "validate", bundled_path("two_trajectories.json"), env={"ROUTED_TOLERANCE": value}
        )
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert "ROUTED_TOLERANCE" in payload["error"]
        assert payload["kind"] == "UsageError"


class TestExplainIndexedGraphs:
    def test_figure1c_has_one_deleted_witness(self):
        result = run_cli("explain", bundled_path("figure1c.json"))
        assert result.returncode == 1
        assert json.loads(result.stdout)["witnesses"] == [
            {"class": ["in:kB"], "kind": "deleted", "layer": ["v2"], "pair": ["kB", "kA"]}
        ]

    def test_figure1d_has_two_created_witnesses(self):
        result = run_cli("explain", bundled_path("figure1d.json"))
        assert result.returncode == 1
        assert json.loads(result.stdout)["witnesses"] == [
            {"class": ["out:kA"], "kind": "created", "layer": ["w3"], "pair": ["kA", "kB"]},
            {"class": ["out:kB"], "kind": "created", "layer": ["w3"], "pair": ["kB", "kA"]},
        ]


class TestSliceUsageErrors:
    """A --slice that is not an antichain of known wires is a usage error:
    exit 2, with the JSON error naming the slice problem."""

    @pytest.mark.parametrize(
        "wires, message",
        [
            ("A,nope", "unknown wire 'nope'"),
            ("A,A", "slice repeats wires"),
            ("A,A2", "not an antichain"),
            (",", "names no wire"),
        ],
    )
    def test_exit_two(self, wires, message):
        result = run_cli("accessible", bundled_path("two_trajectories.json"), "--slice", wires)
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert message in payload["error"]
        assert payload["kind"] == "InvalidSlice"



def _bundled_json(name: str) -> dict:
    with open(bundled_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def _set(data, pointer: str, value) -> None:
    """Replace the element at a JSON pointer of plain keys and indices."""
    *path, last = pointer.strip("/").split("/")
    for key in path:
        data = data[int(key)] if isinstance(data, list) else data[key]
    data[int(last) if isinstance(data, list) else last] = value


def _assert_schema_error(name: str, pointer: str, value, location: str) -> None:
    data = _bundled_json(name)
    _set(data, pointer, value)
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(data))
    assert err.value.location == location


class TestMalformedFields:
    """Wire lists, matrices and integer fields of the wrong shape or type
    are schema errors at the element's pointer, not crashes."""

    @pytest.mark.parametrize(
        "name, pointer",
        [
            ("two_trajectories.json", "/boxes/0/inputs/0"),
            ("two_trajectories.json", "/boxes/0/outputs/0"),
            ("two_trajectories.json", "/inputs/0"),
            ("two_trajectories.json", "/outputs/0"),
            ("iodag_f1.json", "/inputs/0"),
            ("iodag_f1.json", "/outputs/0"),
            ("iodag_f1.json", "/nodes/0/in/0"),
            ("iodag_f1.json", "/nodes/0/out/0"),
        ],
    )
    @pytest.mark.parametrize("value", [["M"], 1])
    def test_wire_id_that_is_no_string(self, name, pointer, value):
        _assert_schema_error(name, pointer, value, pointer)

    def test_edge_that_is_no_string(self):
        _assert_schema_error("iodag_f1.json", "/edges", [["x"]], "/edges/0")

    @pytest.mark.parametrize(
        "entry, location",
        [
            (1, "/0/0"),
            ([1, "x"], "/0/0"),
            ([1, 2, 3], "/0/0"),
            ([True, 0], "/0/0"),
            (None, "/0/0"),
        ],
    )
    @pytest.mark.parametrize(
        "name, matrix",
        [
            ("two_trajectories.json", "/boxes/0/map/matrix"),
            ("copy_discard.json", "/boxes/0/map/kraus/0"),
            ("diamond.json", "/interpretation/morphs/u1/matrix"),
        ],
    )
    def test_bad_matrix_entry(self, name, matrix, entry, location):
        _assert_schema_error(name, f"{matrix}/0/0", entry, matrix + location)

    @pytest.mark.parametrize(
        "name, matrix",
        [
            ("two_trajectories.json", "/boxes/0/map/matrix"),
            ("copy_discard.json", "/boxes/0/map/kraus/0"),
            ("diamond.json", "/interpretation/morphs/u1/matrix"),
        ],
    )
    def test_ragged_matrix(self, name, matrix):
        data = _bundled_json(name)
        _set(data, f"{matrix}/1", [[0.0, 0.0]])
        with pytest.raises(SchemaError) as err:
            parse(json.dumps(data))
        assert err.value.location == f"{matrix}/1"

    def test_kraus_operator_that_is_no_list(self):
        _assert_schema_error(
            "copy_discard.json", "/boxes/0/map/kraus/0", 1.0, "/boxes/0/map/kraus/0"
        )

    @pytest.mark.parametrize("entry", ["no", 0.5, True, 2, None, [1]])
    @pytest.mark.parametrize(
        "name, pointer",
        [
            ("two_trajectories.json", "/boxes/0/map/route/matrix/0/1"),
            ("three_trajectories.json", "/boxes/0/map/route/matrix/0/1/0/0"),
        ],
    )
    def test_route_entry_that_is_no_bit(self, name, pointer, entry):
        _assert_schema_error(name, pointer, entry, pointer)

    @pytest.mark.parametrize(
        "name, row",
        [
            ("two_trajectories.json", "/boxes/0/map/route/matrix/1"),
            ("three_trajectories.json", "/boxes/0/map/route/matrix/0/1/1"),
        ],
    )
    def test_ragged_route_matrix(self, name, row):
        _assert_schema_error(name, row, [0, 1, 1], row)

    @pytest.mark.parametrize(
        "name, row",
        [
            ("two_trajectories.json", "/boxes/0/map/route/matrix/0"),
            ("three_trajectories.json", "/boxes/0/map/route/matrix/0/0"),
            ("three_trajectories.json", "/boxes/0/map/route/matrix/1/1/1"),
        ],
    )
    @pytest.mark.parametrize("value", [1, "row", {}])
    def test_route_row_that_is_no_list(self, name, row, value):
        _assert_schema_error(name, row, value, row)

    @pytest.mark.parametrize(
        "name, pointer",
        [
            ("two_trajectories.json", "/boxes/0/map/route/domain/0"),
            ("two_trajectories.json", "/boxes/0/map/route/codomain/1"),
            ("copy_discard.json", "/boxes/0/map/route/base_domain/0"),
            ("copy_discard.json", "/boxes/0/map/route/base_codomain/2/1"),
            ("two_trajectories.json", "/spaces/space0/sectors/0/label"),
            ("diamond.json", "/interpretation/spaces/L/1/label/0"),
        ],
    )
    @pytest.mark.parametrize("value", [{"k": 0}, 1.5, None, True])
    def test_label_that_is_no_label(self, name, pointer, value):
        _assert_schema_error(name, pointer, value, pointer)

    def test_route_faults_exit_two(self, tmp_path):
        for pointer, value in [
            ("/boxes/0/map/route/matrix/0/1", "no"),
            ("/boxes/0/map/route/matrix/1", [0, 1, 1]),
            ("/boxes/0/map/route/domain/0", {}),
            ("/spaces/space0/sectors/0/label", {}),
        ]:
            data = _bundled_json("two_trajectories.json")
            _set(data, pointer, value)
            path = tmp_path / "two_trajectories.json"
            path.write_text(json.dumps(data))
            result = run_cli("validate", str(path))
            assert result.returncode == 2, result.stderr
            payload = json.loads(result.stdout)
            assert payload["kind"] == "SchemaError"
            assert pointer in payload["error"]

    def test_boolean_dimension(self):
        data = _bundled_json("two_trajectories.json")
        space = sorted(data["spaces"])[0]
        pointer = f"/spaces/{space}/sectors/0/dim"
        _assert_schema_error("two_trajectories.json", pointer, True, pointer)

    @pytest.mark.parametrize("value", [2.5, True, "x", [1]])
    def test_length_that_is_no_integer(self, value):
        pointer = "/interpretation/lengths/kL"
        _assert_schema_error("diamond.json", pointer, value, pointer)

    @pytest.mark.parametrize("value", [0, -1])
    def test_length_below_one_names_its_pointer(self, value, tmp_path):
        pointer = "/interpretation/lengths/kL"
        data = _bundled_json("diamond.json")
        _set(data, pointer, value)
        with pytest.raises(InvariantViolation) as err:
            parse(json.dumps(data))
        assert type(err.value) is InvariantViolation
        assert str(err.value).startswith(f"{pointer}: ")
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(data))
        result = run_cli("validate", str(path))
        assert result.returncode == 1, result.stderr
        assert pointer in json.loads(result.stdout)["error"]

    def test_cli_exits_two(self, tmp_path):
        for name, pointer, value in [
            ("two_trajectories.json", "/boxes/0/inputs/0", ["M"]),
            ("two_trajectories.json", "/boxes/0/map/matrix/0/0", 1),
            ("diamond.json", "/interpretation/lengths/kL", 2.5),
        ]:
            data = _bundled_json(name)
            _set(data, pointer, value)
            path = tmp_path / name
            path.write_text(json.dumps(data))
            result = run_cli("validate", str(path))
            assert result.returncode == 2, result.stderr
            payload = json.loads(result.stdout)
            assert payload["kind"] == "SchemaError"
            assert pointer in payload["error"]

    @pytest.mark.parametrize(
        "value, location", [([["x"]], "/empty_nodes/0"), ("n", "/empty_nodes")]
    )
    def test_empty_nodes_that_are_no_string_list(self, value, location):
        _assert_schema_error("iodag_f1.json", "/empty_nodes", value, location)

    def test_empty_nodes_cli_exits_two(self, tmp_path):
        for value, location in [([["x"]], "/empty_nodes/0"), ("n", "/empty_nodes")]:
            data = _bundled_json("iodag_f1.json")
            data["empty_nodes"] = value
            path = tmp_path / "iodag_f1.json"
            path.write_text(json.dumps(data))
            result = run_cli("validate", str(path))
            assert result.returncode == 2, result.stderr
            payload = json.loads(result.stdout)
            assert payload["kind"] == "SchemaError"
            assert location in payload["error"]


def _repeated_id(name: str, key: str, field: str) -> tuple[dict, str]:
    """The bundled document with its first ``key`` entry repeated at the end
    (an index moved to wire X), and the pointer of the repeated id."""
    data = _bundled_json(name)
    first = data[key][0]
    data[key].append({**first, "wire": "X"} if key == "indices" else first)
    return data, f"/{key}/{len(data[key]) - 1}/{field}"


class TestRepeatedIds:
    """A list entry with the id of an earlier one is a schema error at its
    pointer: the later entry replaced the earlier before."""

    CASES = [
        ("two_trajectories.json", "wires", "id"),
        ("two_trajectories.json", "boxes", "id"),
        ("iodag_e.json", "nodes", "id"),
        ("iodag_e.json", "indices", "name"),
    ]

    @pytest.mark.parametrize("name, key, field", CASES)
    def test_parse(self, name, key, field):
        data, pointer = _repeated_id(name, key, field)
        with pytest.raises(SchemaError, match="repeated") as err:
            parse(json.dumps(data))
        assert err.value.location == pointer

    @pytest.mark.parametrize("name, key, field", CASES)
    def test_cli_exits_two(self, name, key, field, tmp_path):
        data, pointer = _repeated_id(name, key, field)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        result = run_cli("validate", str(path))
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["kind"] == "SchemaError"
        assert pointer in payload["error"]


def _write(data, tmp_path) -> str:
    path = tmp_path / "doc.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _assert_cli_schema_error(path: str, location: str) -> None:
    for command in ("validate", "eval", "explain"):
        result = run_cli(command, path)
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["kind"] == "SchemaError"
        assert payload["error"].startswith(f"{location}: ")


def _no_length(data):
    del data["interpretation"]["lengths"]["kL2"]


def _unknown_wire(data):
    data["interpretation"]["spaces"]["ZZ"] = [{"label": "*", "dim": 1}]


def _no_space(data):
    del data["interpretation"]["spaces"]["L2"]


def _stray_length(data):
    data["interpretation"]["lengths"]["zz"] = 3


class TestIncompleteInterpretations:
    """An interpretation that leaves a placed index without a length, gives
    a space to a wire the graph lacks, or interprets a node touching a wire
    without a space is a schema error at its pointer, and the CLI exits 2."""

    CASES = [
        (_no_length, "/interpretation/lengths"),
        (_unknown_wire, "/interpretation/spaces/ZZ"),
        (_no_space, "/interpretation/morphs/u2"),
        (_stray_length, "/interpretation/lengths/zz"),
    ]

    @pytest.mark.parametrize("edit, location", CASES)
    def test_parse(self, edit, location):
        data = _bundled_json("diamond.json")
        edit(data)
        with pytest.raises(SchemaError) as err:
            parse(json.dumps(data))
        assert err.value.location == location

    @pytest.mark.parametrize("edit, location", CASES)
    def test_cli_exits_two(self, edit, location, tmp_path):
        data = _bundled_json("diamond.json")
        edit(data)
        _assert_cli_schema_error(_write(data, tmp_path), location)


def _with_repeat(value: dict, path: list) -> str:
    """JSON text of ``value`` in which the object reached by the keys
    ``path[:-1]`` has its key ``path[-1]`` twice, first with its own value."""
    if len(path) == 1:
        return "{" + f"{json.dumps(path[0])}: {json.dumps(value[path[0]])}, " + json.dumps(value)[1:]
    items = (
        f"{json.dumps(k)}: {_with_repeat(v, path[1:]) if k == path[0] else json.dumps(v)}"
        for k, v in value.items()
    )
    return "{" + ", ".join(items) + "}"


def _repeated_key(name: str, pointer: str) -> str:
    return _with_repeat(_bundled_json(name), pointer.strip("/").split("/"))


class TestRepeatedKeys:
    """A key that comes twice in one JSON object is a schema error at its
    pointer, rather than the later value replacing the earlier."""

    CASES = [
        ("two_trajectories.json", "/spaces/space0"),
        ("diamond.json", "/interpretation/lengths/kL"),
        ("diamond.json", "/interpretation/spaces/L"),
        ("diamond.json", "/interpretation/morphs/u1"),
        ("diamond.json", "/kind"),
    ]

    @pytest.mark.parametrize("name, pointer", CASES)
    def test_parse(self, name, pointer):
        text = _repeated_key(name, pointer)
        assert json.loads(text) == _bundled_json(name)  # the same document but for the repeat
        with pytest.raises(SchemaError, match="repeated key") as err:
            parse(text)
        assert err.value.location == pointer

    @pytest.mark.parametrize("name, pointer", CASES)
    def test_cli_exits_two(self, name, pointer, tmp_path):
        _assert_cli_schema_error(_write(_repeated_key(name, pointer), tmp_path), pointer)

    def test_a_repeat_and_a_constant_are_reported_in_document_order(self):
        text = '{"a": NaN, "b": 1, "b": 2}'
        with pytest.raises(SchemaError, match="non-finite") as err:
            parse(text)
        assert err.value.location == "/a"
        with pytest.raises(SchemaError, match="repeated key 'b'") as err:
            parse('{"b": 1, "b": 2, "a": NaN}')
        assert err.value.location == "/b"


def test_export_dot_into_a_missing_directory_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.dot"
    result = run_cli("export-dot", bundled_path("diamond.json"), "-o", str(target))
    assert result.returncode == 2, result.stderr
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert payload["kind"] == "UsageError"
    assert str(target) in payload["error"]


class TestMetadata:
    """``metadata`` is an object; any other JSON value there is a schema
    error at ``/metadata``, rather than being read and written back."""

    def test_an_object_round_trips(self):
        data = _bundled_json("two_trajectories.json")
        data["metadata"] = {"note": "x"}
        assert json.loads(serialize(parse(json.dumps(data))))["metadata"] == {"note": "x"}

    @pytest.mark.parametrize("value", ["x", [], 1, None])
    def test_parse(self, value):
        data = _bundled_json("two_trajectories.json")
        data["metadata"] = value
        with pytest.raises(SchemaError, match="must be dict") as err:
            parse(json.dumps(data))
        assert err.value.location == "/metadata"

    def test_cli_exits_two(self, tmp_path):
        data = _bundled_json("diamond.json")
        data["metadata"] = "x"
        _assert_cli_schema_error(_write(data, tmp_path), "/metadata")


def test_human_validate_names_escapes_on_the_output_side(tmp_path):
    """``f`` then ``g`` on one wire with sectors {0, 1}: ``g`` lets sector 1
    in, which ``f`` never sends out, so the unitary gate fails on the
    output side only."""
    space = PartitionedSpace(IndexSet([0, 1]), (1, 1))
    f = Relation.from_pairs(space.sector_labels, space.sector_labels, [(0, 0)])
    g = Relation.from_pairs(space.sector_labels, space.sector_labels, [(0, 0), (1, 0)])
    circuit = (
        CircuitBuilder()
        .wire("a", space).wire("b", space).wire("c", space)
        .box("f", ["a"], ["b"], RoutedMap(f, np.diag([1.0, 0.0]), space, space))
        .box("g", ["b"], ["c"], RoutedMap(g, [[1.0, 1.0], [0.0, 0.0]], space, space))
        .inputs("a").outputs("c")
        .build()
    )
    path = tmp_path / "doc.json"
    path.write_text(serialize(CircuitDocument(FORMAT_VERSION, "circuit", circuit)))
    report = json.loads(run_cli("validate", "--mode", "uni", str(path)).stdout)
    assert [i["escaped_outputs"] for i in report["interfaces"]] == [[1]]
    result = run_cli("--human", "validate", "--mode", "uni", str(path))
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines()[-2:] == [
        "  interface before layer 1 (g): IMPROPER",
        "    escaping sectors (output side): [1]",
    ]


def _resolve(data, pointer: str):
    """The element at an RFC 6901 JSON pointer: in each reference token,
    ``~1`` is read as ``/``, then ``~0`` as ``~``."""
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        data = data[int(token)] if isinstance(data, list) else data[token]
    return data


class TestPointersEscapeKeys:
    """A document key in a reported JSON pointer has ``~`` written ``~0``
    and ``/`` written ``~1`` (RFC 6901), so the pointer resolves in the
    document."""

    @staticmethod
    def _named_space(dim) -> dict:
        data = _bundled_json("copy_discard.json")
        data["spaces"]["a/b~c"] = data["spaces"].pop("space1")
        data["wires"][2]["space"] = "a/b~c"
        data["spaces"]["a/b~c"]["sectors"][0]["dim"] = dim
        return data

    def test_space_name(self):
        data = self._named_space("2")
        with pytest.raises(SchemaError) as err:
            parse(json.dumps(data))
        assert err.value.location == "/spaces/a~1b~0c/sectors/0/dim"
        assert _resolve(data, err.value.location) == "2"

    def test_space_name_in_a_semantic_error(self):
        data = self._named_space(0)
        with pytest.raises(InvariantViolation) as err:
            parse(json.dumps(data))
        pointer = str(err.value).split(": ")[0]
        assert pointer == "/spaces/a~1b~0c/sectors"
        assert _resolve(data, pointer) is data["spaces"]["a/b~c"]["sectors"]

    @pytest.mark.parametrize(
        "section, key, location",
        [
            ("lengths", "k/L~", "k~1L~0"),
            ("spaces", "A/I~", "A~1I~0"),
            ("morphs", "u/1~", "u~11~0"),
        ],
    )
    def test_unknown_interpretation_key(self, section, key, location):
        data = _bundled_json("diamond.json")
        entries = data["interpretation"][section]
        entries[key] = entries[sorted(entries)[0]]
        with pytest.raises(SchemaError) as err:
            parse(json.dumps(data))
        assert err.value.location == f"/interpretation/{section}/{location}"
        assert _resolve(data, err.value.location) is entries[key]

    def test_length_of_the_wrong_type(self):
        data = _bundled_json("diamond.json")
        data["indices"][0]["name"] = "k/L"
        lengths = data["interpretation"]["lengths"]
        del lengths["kL"]
        lengths["k/L"] = "2"
        with pytest.raises(SchemaError) as err:
            parse(json.dumps(data))
        assert err.value.location == "/interpretation/lengths/k~1L"
        assert _resolve(data, err.value.location) == "2"
