"""An error that names a wire's sector labels lists them in full only when
there are few: a long list gives its count and its first few labels, so a
large index length cannot blow up the message."""

from __future__ import annotations

import json

import pytest

from routedcircuits import cli
from routedcircuits.errors import InvariantViolation
from routedcircuits.io import bundled_path
from routedcircuits.iodag import IODAG, Interpretation, IONode, Partition, interpret, wire_space
from routedcircuits.spaces import PartitionedSpace


def test_validate_names_the_count_of_a_long_label_list(tmp_path, capsys):
    """``diamond.json`` with index ``kL`` of length 3,000: wire 'L' must carry
    3,000 labels.  The schema error keeps its exit code and pointer, and
    its message fits in a few hundred bytes."""
    with open(bundled_path("diamond.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    data["interpretation"]["lengths"]["kL"] = 3000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert len(out) < 1024
    error = json.loads(out)["error"]
    assert error.startswith("/interpretation/spaces/L: wire 'L' must carry sector labels (")
    assert "3000 labels: (0,), (1,), (2,), (3,), ..." in error


def test_interpret_names_the_counts_of_long_label_lists():
    """Wire 'o' must carry the 100 labels of its index but carries 50 others:
    both lists give their count and their first labels."""
    graph = IODAG(("i",), ("o",), (), {"n": IONode(["i"], ["o"])}, {"k": "i", "l": "o"},
                  Partition(["k", "l"], [["k", "l"]]))
    lengths = {"k": 100, "l": 100}
    spaces = {
        "i": wire_space(graph, "i", lengths),
        "o": PartitionedSpace.from_dims([f"x{m}" for m in range(50)], [1] * 50),
    }
    with pytest.raises(InvariantViolation) as err:
        interpret(graph, Interpretation(lengths, spaces, {}))
    assert str(err.value) == (
        "wire 'o' must carry sector labels (100 labels: (0,), (1,), (2,), (3,), ...), "
        "got (50 labels: 'x0', 'x1', 'x2', 'x3', ...)"
    )
