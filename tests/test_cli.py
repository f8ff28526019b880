"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.generators import figure1_d1, figure1_d2, figure1_merged
from repro.xml import Element, element_to_string

DTD_TEXT = """
<!ELEMENT company (region*)>
<!ELEMENT region (branch*)>
<!ELEMENT branch (employee*)>
<!ELEMENT employee (name?, phone?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ATTLIST region name CDATA #REQUIRED>
<!ATTLIST branch name CDATA #REQUIRED>
<!ATTLIST employee ID CDATA #REQUIRED>
"""


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.xml"
    path.write_text(element_to_string(figure1_d1(), indent="  "))
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.xml"
    path.write_text(element_to_string(figure1_d2(), indent="  "))
    return str(path)


class TestSortCommand:
    @pytest.mark.parametrize(
        "algorithm", ["nexsort", "mergesort", "xsort"]
    )
    def test_sorts_to_output_file(
        self, d1_file, tmp_path, algorithm, capsys
    ):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort",
                d1_file,
                "-o",
                str(out),
                "--by",
                "name",
                "--tag-attr",
                "employee=ID",
                "--algorithm",
                algorithm,
                "--memory",
                "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        regions = [r.attrs["name"] for r in tree.find_all("region")]
        if algorithm != "xsort":  # xsort needs --target for the root list
            assert regions == ["AC", "NE"]

    def test_xsort_with_target(self, d1_file, tmp_path):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--algorithm", "xsort", "--target", "company",
                "--memory", "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        assert [r.attrs["name"] for r in tree.find_all("region")] == [
            "AC",
            "NE",
        ]

    def test_prints_to_stdout_without_output(self, d1_file, capsys):
        code = main(["sort", d1_file, "--memory", "8"])
        assert code == 0
        assert "<company>" in capsys.readouterr().out

    def test_stats_flag(self, d1_file, capsys):
        code = main(["sort", d1_file, "--memory", "8", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "total block I/Os" in err
        assert "subtree sorts" in err

    def test_cache_blocks_flag(self, d1_file, tmp_path, capsys):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--memory", "12", "--cache-blocks", "4", "--stats",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        regions = [r.attrs["name"] for r in tree.find_all("region")]
        assert regions == ["AC", "NE"]
        assert "cache hits/misses" in capsys.readouterr().err

    def test_cache_blocks_cannot_eat_the_minimum(self, d1_file, capsys):
        code = main(
            ["sort", d1_file, "--memory", "8", "--cache-blocks", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_auto_sorts_and_reports(self, d1_file, tmp_path, capsys):
        out = tmp_path / "planned.xml"
        code = main([
            "sort", d1_file, "-o", str(out),
            "--memory", "12", "--plan", "auto", "--stats",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "plan: " in err
        assert "predicted" in err
        assert out.exists()

    def test_plan_auto_matches_unplanned_output(
        self, d1_file, tmp_path
    ):
        planned = tmp_path / "planned.xml"
        default = tmp_path / "default.xml"
        assert main([
            "sort", d1_file, "-o", str(planned),
            "--memory", "12", "--plan", "auto",
        ]) == 0
        assert main([
            "sort", d1_file, "-o", str(default), "--memory", "12",
        ]) == 0
        # Planning changes knobs, never the sorted result.
        assert planned.read_text() == default.read_text()

    def test_plan_auto_honors_explicit_algorithm(
        self, d1_file, tmp_path, capsys
    ):
        out = tmp_path / "pinned.xml"
        code = main([
            "sort", d1_file, "-o", str(out),
            "--memory", "12", "--plan", "auto",
            "--algorithm", "mergesort", "--stats",
        ])
        assert code == 0
        assert "plan: merge_sort" in capsys.readouterr().err

    def test_plan_auto_rejects_xsort(self, d1_file, capsys):
        code = main([
            "sort", d1_file, "--plan", "auto", "--algorithm", "xsort",
        ])
        assert code == 2
        assert "xsort" in capsys.readouterr().err

    def test_plan_off_emits_no_plan(self, d1_file, tmp_path, capsys):
        out = tmp_path / "sorted.xml"
        assert main([
            "sort", d1_file, "-o", str(out), "--memory", "12",
            "--stats",
        ]) == 0
        assert "plan: " not in capsys.readouterr().err

    def test_compact_and_flat_opt_flags(self, d1_file, tmp_path):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--compact", "--flat-opt", "--memory", "8",
            ]
        )
        assert code == 0
        assert "<company>" in out.read_text()

    def test_kernel_flag_accepts_only_columnar(self, d1_file, tmp_path):
        plain = tmp_path / "plain.xml"
        flagged = tmp_path / "flagged.xml"
        assert main(["sort", d1_file, "-o", str(plain)]) == 0
        assert main([
            "sort", d1_file, "-o", str(flagged), "--kernel", "columnar",
        ]) == 0
        assert flagged.read_text() == plain.read_text()
        with pytest.raises(SystemExit) as exit_info:
            main(["sort", d1_file, "--kernel", "scalar"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flag",
        [
            ["--prefetch-policy", "forecast"],
            ["--prefetch-policy", "round-robin"],
            ["--compress", "zlib"],
        ],
    )
    def test_removed_options_are_usage_errors(self, d1_file, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["sort", d1_file, *flag])
        assert exit_info.value.code == 2

    def test_scratch_file_backing(self, d1_file, tmp_path):
        scratch = tmp_path / "scratch.bin"
        code = main(
            [
                "sort", d1_file, "--memory", "8",
                "--scratch", str(scratch), "-o",
                str(tmp_path / "out.xml"),
            ]
        )
        assert code == 0
        assert not scratch.exists()  # cleaned up

    def test_missing_file_is_an_error(self, capsys):
        code = main(["sort", "no-such-file.xml"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_tag_attr_is_an_error(self, d1_file, capsys):
        code = main(["sort", d1_file, "--tag-attr", "broken"])
        assert code == 2


class TestMergeCommand:
    def test_figure1_pipeline(self, d1_file, d2_file, tmp_path):
        out = tmp_path / "merged.xml"
        code = main(
            [
                "merge", d1_file, d2_file, "-o", str(out),
                "--by", "name", "--tag-attr", "employee=ID",
                "--depth-limit", "3", "--memory", "8",
            ]
        )
        assert code == 0
        assert Element.parse(out.read_text()) == figure1_merged()

    def test_preserve_order(self, d1_file, d2_file, tmp_path):
        out = tmp_path / "merged.xml"
        code = main(
            [
                "merge", d1_file, d2_file, "-o", str(out),
                "--by", "name", "--tag-attr", "employee=ID",
                "--preserve-order", "--memory", "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        # D1's original region order: NE before AC.
        assert [r.attrs["name"] for r in tree.find_all("region")][:2] == [
            "NE",
            "AC",
        ]


class TestTable1Command:
    def test_prints_key_paths(self, d1_file, capsys):
        code = main(
            [
                "table1", d1_file,
                "--by", "name", "--tag-attr", "employee=ID",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/AC/Durham/323/name" in out
        assert "<phone>5552345" in out


class TestValidateCommand:
    def test_valid_document(self, d1_file, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(DTD_TEXT)
        code = main(["validate", d1_file, "--dtd", str(dtd)])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(DTD_TEXT)
        bad = tmp_path / "bad.xml"
        bad.write_text("<company><rogue/></company>")
        code = main(["validate", str(bad), "--dtd", str(dtd)])
        assert code == 1
        assert "violation" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_prints_geometry_and_bounds(self, d1_file, capsys):
        code = main(["analyze", d1_file, "--memory", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max fan-out" in out
        assert "Thm 4.4 lower bound" in out
        assert "merge sort passes" in out

    def test_prints_the_planner_pick(self, d1_file, capsys):
        from repro.analysis import Planner, profile_document
        from repro.io import BlockDevice, RunStore
        from repro.xml import Document

        assert main(["analyze", d1_file, "--memory", "16"]) == 0
        out = capsys.readouterr().out
        store = RunStore(BlockDevice(block_size=4096))
        document = Document.from_file(store, d1_file)
        plan = Planner(
            profile_document(document), memory_blocks=16, block_size=4096
        ).choose(fixed={"disks": 1})
        # The same one decision `sort --plan auto` makes, with its why.
        assert plan.describe() in out
        assert "\n- " in out


class TestDedupCommand:
    def test_sorts_and_removes_duplicates(self, tmp_path, capsys):
        doc = tmp_path / "dup.xml"
        doc.write_text(
            '<r name="r"><a name="2"/><a name="1"/><a name="2"/></r>'
        )
        out = tmp_path / "out.xml"
        code = main(
            [
                "dedup", str(doc), "-o", str(out),
                "--by", "name", "--memory", "8", "--stats",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        assert [c.attrs["name"] for c in tree.children] == ["1", "2"]
        assert "duplicate subtrees removed: 1" in capsys.readouterr().err
