"""The CLI's document contract under seeded mutations of the bundled
documents: a key dropped, renamed or given a value of the wrong type, or a
list entry repeated or dropped.  Every command exits 0, 1 or 2 with JSON on
its standard output, and every ``SchemaError`` points into the document it
was raised for, or names a missing key under a place that is there."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random

import pytest

from routedcircuits import cli
from routedcircuits.errors import InvariantViolation, RoutedError, SchemaError
from routedcircuits.io import bundled_path, parse
from routedcircuits.iodag import IndexFamily

DATA = os.path.dirname(bundled_path("x"))
DOCUMENTS = sorted(name for name in os.listdir(DATA) if name.endswith(".json"))
MUTATIONS_PER_DOCUMENT = 48
#: a value of another JSON type for each type a document holds
WRONG_TYPE = {dict: [], list: {}, str: 7, int: "7", float: "0.5", bool: "yes", type(None): 0}


def places(data, path=()):
    """Every (path, container, key) of ``data``, in document order."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield path + (key,), data, key
        if isinstance(value, (dict, list)):
            yield from places(value, path + (key,))


def structural(path: tuple) -> bool:
    """Whether a place is no deeper than a row of an array (a matrix, a
    Kraus list or a route matrix), whose entries would outnumber the rest."""
    arrays = [i for i, key in enumerate(path) if key in ("matrix", "kraus")]
    return not arrays or len(path) - arrays[-1] <= 2


def mutate(data, rng: random.Random) -> tuple[dict, str]:
    """A copy of ``data`` with one seeded mutation, and its description."""
    data = copy.deepcopy(data)
    path, container, key = rng.choice([p for p in places(data) if structural(p[0])])
    kinds = ["type"] + (["drop", "rename"] if isinstance(container, dict) else ["drop", "repeat"])
    kind = rng.choice(kinds)
    if kind == "type":
        container[key] = WRONG_TYPE[type(container[key])]
    elif kind == "drop":
        del container[key]
    elif kind == "rename":
        container[f"{key}_renamed"] = container.pop(key)
    else:
        container.insert(key, copy.deepcopy(container[key]))
    return data, f"{kind} at {list(path)}"


def resolves(data, pointer: str) -> bool:
    """Whether the JSON pointer (RFC 6901) names a place in ``data``."""
    for token in pointer.split("/")[1:] if pointer else ():
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(data, dict) and token in data:
            data = data[token]
        elif isinstance(data, list) and token.isdigit() and int(token) < len(data):
            data = data[int(token)]
        else:
            return False
    return True


def commands(data, path: str) -> list[list[str]]:
    inputs = data.get("inputs") if isinstance(data, dict) else None
    wires = ",".join(w for w in inputs if isinstance(w, str)) if isinstance(inputs, list) else ""
    return [
        ["validate", path], ["eval", path], ["explain", path],
        ["accessible", path, "--slice", wires or "A"],
    ]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_mutated_documents_keep_the_contract(name, tmp_path):
    with open(bundled_path(name), encoding="utf-8") as handle:
        original = json.load(handle)
    rng = random.Random(f"contract:{name}")
    path = str(tmp_path / name)
    for _ in range(MUTATIONS_PER_DOCUMENT):
        data, what = mutate(original, rng)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        try:
            parse(path)
        except SchemaError as exc:
            pointer = exc.location
            parent = pointer.rsplit("/", 1)[0]
            assert resolves(data, pointer) or resolves(data, parent), (what, str(exc))
        except RoutedError:
            pass
        for argv in commands(data, path):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            assert code in (0, 1, 2), (what, argv)
            json.loads(stdout.getvalue())  # one JSON report or error, nothing else


def test_a_pointer_past_the_document_does_not_resolve():
    data = {"spaces": {"a/b~c": {"sectors": [{"dim": 1}]}}}
    assert resolves(data, "/spaces/a~1b~0c/sectors/0/dim")
    assert not resolves(data, "/spaces/a/b~c")
    assert not resolves(data, "/spaces/a~1b~0c/sectors/1")



@pytest.mark.parametrize(
    "name, path, number, code, kind, pointer",
    [
        ("two_trajectories.json", ["boxes", 0, "map", "matrix", 0, 0], [10**400, 0], 2,
         "SchemaError", "/boxes/0/map/matrix/0/0/0"),
        ("diamond.json", ["interpretation", "morphs", "u2", "matrix", 1, 0], [0, -10**400], 2,
         "SchemaError", "/interpretation/morphs/u2/matrix/1/0/1"),
        ("diamond.json", ["interpretation", "lengths", "kL"], 10**30, 1,
         "InvariantViolation", ""),
    ],
    ids=["matrix-entry", "morph-entry", "index-length"],
)
def test_a_number_no_array_can_hold_is_a_json_error(
    name, path, number, code, kind, pointer, tmp_path
):
    """A valid JSON number too large for a float, or index lengths with too
    many value tuples for an array, end in a JSON error, not a traceback."""
    with open(bundled_path(name), encoding="utf-8") as handle:
        data = json.load(handle)
    place = data
    for key in path[:-1]:
        place = place[key]
    place[path[-1]] = number
    target = str(tmp_path / name)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    for command in ("validate", "eval"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([command, target]) == code
        report = json.loads(stdout.getvalue())
        assert report["kind"] == kind
        assert report["error"].startswith(f"{pointer}: ") == bool(pointer)
    if pointer:
        assert resolves(data, pointer)


def test_an_index_family_too_large_to_list_raises_a_routed_error():
    with pytest.raises(InvariantViolation, match="too many values"):
        IndexFamily({"k": 10**30}).index_set()
