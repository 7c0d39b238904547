"""CLI tests for the ``mine`` subcommand, including the --json golden file.

The golden file pins the exact serialised output of ``mine --json`` on
the paper's running example — config, ranked a-stars, trace and DL
accounting.  If an intentional change to the output format or to the
MDL accounting moves it, regenerate with::

    PYTHONPATH=src python -m repro.cli mine <paper_graph.json> --json \
        > tests/data/mine_paper_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import CSPMConfig
from repro.graphs.builders import paper_running_example
from repro.graphs.io import save_json

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def paper_graph_file(tmp_path):
    path = tmp_path / "paper.json"
    save_json(paper_running_example(), path)
    return str(path)


class TestMineJson:
    def test_golden_file(self, paper_graph_file, capsys):
        assert main(["mine", paper_graph_file, "--json"]) == 0
        out = capsys.readouterr().out
        golden = (DATA_DIR / "mine_paper_golden.json").read_text()
        assert out == golden

    def test_golden_lazy_default_mines_the_basic_model(
        self, paper_graph_file, capsys
    ):
        # The lazy default scope pins the same merges and DL floats as
        # CSPM-Basic; only the gain counts differ.
        assert main(["mine", paper_graph_file, "--json", "--method", "basic"]) == 0
        basic = json.loads(capsys.readouterr().out)["trace"]
        golden = json.loads(
            (DATA_DIR / "mine_paper_golden.json").read_text()
        )["trace"]
        assert [step["merged_pair"] for step in golden["iterations"]] == [
            step["merged_pair"] for step in basic["iterations"]
        ]
        assert golden["final_dl_bits"] == basic["final_dl_bits"]

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    def test_exhaustive_scope_rejected(self, paper_graph_file, capsys, output):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", paper_graph_file, "--scope", "exhaustive"] + output)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'exhaustive'" in captured.err

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "name, scale",
        [
            ("usflight", 0.5),
            ("dblp", 0.02),
            ("dblp-trend", 0.02),
            ("cora", 0.01),
            ("citeseer", 0.01),
            ("pokec", 0.0005),
        ],
    )
    def test_default_scope_mines_the_basic_model_on_analogues(
        self, tmp_path, capsys, name, scale, seed
    ):
        graph_file = str(tmp_path / f"{name}.json")
        main(["generate", name, graph_file, "--scale", str(scale),
              "--seed", str(seed)])
        capsys.readouterr()
        traces = []
        for extra in ([], ["--method", "basic"]):
            assert main(["mine", graph_file, "--json"] + extra) == 0
            traces.append(json.loads(capsys.readouterr().out)["trace"])
        default, basic = traces
        assert default["iterations"]
        assert [step["merged_pair"] for step in default["iterations"]] == [
            step["merged_pair"] for step in basic["iterations"]
        ]
        assert default["final_dl_bits"] == basic["final_dl_bits"]

    def test_output_is_valid_json_with_config(self, paper_graph_file, capsys):
        main(["mine", paper_graph_file, "--json", "--top", "3"])
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        config = CSPMConfig.from_dict(document["config"])
        assert config.top_k == 3
        assert len(document["astars"]) <= 3

    def test_round_trips_through_result(self, paper_graph_file, capsys):
        from repro import CSPM, CSPMResult

        main(["mine", paper_graph_file, "--json", "--top", "0"])
        restored = CSPMResult.from_json(capsys.readouterr().out)
        reference = CSPM().fit(paper_running_example())
        assert restored.astars == reference.astars
        assert restored.final_dl == reference.final_dl

    def test_json_default_serialises_everything(self, paper_graph_file, capsys):
        from repro import CSPM

        main(["mine", paper_graph_file, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["top_k"] is None
        reference = CSPM().fit(paper_running_example())
        assert len(document["astars"]) == len(reference.astars)

    def test_method_and_scope_flow_into_config(self, paper_graph_file, capsys):
        main(
            [
                "mine",
                paper_graph_file,
                "--json",
                "--method",
                "basic",
                "--scope",
                "related",
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["method"] == "basic"
        assert document["trace"]["algorithm"].startswith("cspm-basic")


class TestMineText:
    def test_summary_and_stars_printed(self, paper_graph_file, capsys):
        assert main(["mine", paper_graph_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CSPM (cspm-partial")
        assert "->" in out

    def test_min_leafset_filter_applies(self, paper_graph_file, capsys):
        main(["mine", paper_graph_file, "--min-leafset", "2"])
        out = capsys.readouterr().out
        star_lines = [l for l in out.splitlines() if l.startswith("  (")]
        for line in star_lines:
            leaf = line.split("-> {", 1)[1].split("}", 1)[0]
            assert len(leaf.split(",")) >= 2


class TestMalformedGraphJson:
    """Malformed graph documents stop ``mine`` at the input boundary."""

    @pytest.mark.parametrize(
        "ids", [["1", "2", "3"], [1.5, 2.5, 3.5]], ids=["strings", "floats"]
    )
    def test_id_spellings_mine_like_int_ids(self, tmp_path, capsys, ids):
        outputs = []
        for a, b, c in (ids, [1, 2, 3]):
            document = {
                "edges": [[a, b], [b, c]],
                "attributes": {
                    str(a): ["x", "y"],
                    str(b): ["x", "y"],
                    str(c): ["x"],
                },
            }
            graph_file = tmp_path / "graph.json"
            graph_file.write_text(json.dumps(document))
            assert main(["mine", str(graph_file), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["trace"]["iterations"]

    def test_ids_sharing_a_string_form_rejected(self, tmp_path, capsys):
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(
            json.dumps({"edges": [[1, 2], ["1", 3]], "attributes": {"1": ["a"]}})
        )
        assert main(["mine", str(graph_file), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertices 1 and '1' share the attributes key \"1\"; "
            "vertex ids must differ as strings\n"
        )

    @pytest.mark.parametrize(
        "document, path",
        [
            ({"vertices": [[1]]}, "vertices[0]"),
            ({"edges": [[1, 2], [1, 2, 3]]}, "edges[1]"),
            ({"attributes": {"1": "abc"}}, 'attributes["1"]'),
            ({"vertices": [1, {"id": 2}]}, "vertices[1]"),
            ({"edges": [[1, 2], [3, 3]]}, "edges[1]"),
            ({"attributes": {"1": ["a"], "2": 7}}, 'attributes["2"]'),
            (
                {"edges": [[1, 2]], "attributes": {"1": [None, 1.5], "2": ["a"]}},
                'attributes["1"]',
            ),
            (
                {"edges": [[1, 2]], "attributes": {"1": ["a", 1], "2": ["b"]}},
                'attributes["1"]',
            ),
            (
                {"edges": [[1, 2]], "attributes": {"1": [True, 1], "2": [1]}},
                'attributes["1"]',
            ),
            (
                {"edges": [[1, 2]], "attributes": {"1": ["a"], "2": [2]}},
                'attributes["2"]',
            ),
        ],
    )
    def test_rejected_with_json_path(self, tmp_path, capsys, document, path):
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(json.dumps(document))
        assert main(["mine", str(graph_file), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")
