"""Tests for SANLP static validation, the GP portfolio (evolve's seeding),
and HTML reports."""

import pytest

from repro.evolve import SEEDING_CONFIG, default_portfolio, evolve_partition
from repro.graph import paper_graph
from repro.partition.goodness import goodness_key
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.polyhedral import SANLP, Statement, domain, read, write
from repro.polyhedral.gallery import GALLERY, matmul, producer_consumer
from repro.polyhedral.validate import (
    SingleAssignmentError,
    check_single_assignment,
    program_report,
)
from repro.viz.html_report import experiment_html, write_experiment_report


def overwriting_program():
    prog = SANLP("dup")
    prog.add_statement(
        Statement("w1", domain(("i", 0, 3)), writes=[write("a", "i")])
    )
    prog.add_statement(
        Statement("w2", domain(("i", 0, 3)), writes=[write("a", "i")])
    )
    return prog


class TestSingleAssignment:
    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_gallery_is_single_assignment(self, name):
        check_single_assignment(GALLERY[name]())

    def test_duplicate_write_detected(self):
        with pytest.raises(SingleAssignmentError, match="written by w1"):
            check_single_assignment(overwriting_program())

    def test_report_on_clean_program(self):
        rep = program_report(producer_consumer(8))
        assert rep.single_assignment and rep.clean
        assert rep.duplicate_write is None
        assert rep.unread_arrays == ["b"]  # the program output
        assert not rep.external_arrays

    def test_report_on_dirty_program(self):
        rep = program_report(overwriting_program())
        assert not rep.single_assignment
        arr, idx, w1, w2 = rep.duplicate_write
        assert (arr, w1, w2) == ("a", "w1", "w2")
        assert "VIOLATED" in rep.summary()

    def test_report_flags_empty_statements(self):
        prog = SANLP("dead")
        prog.add_statement(
            Statement("never", domain(("i", 5, 4)), writes=[write("a", "i")])
        )
        rep = program_report(prog)
        assert rep.empty_statements == ["never"]
        assert not rep.clean

    def test_report_counts_external_reads(self):
        prog = SANLP("ext", params={"N": 4})
        prog.add_statement(
            Statement("c", domain(("i", 0, "N - 1"), N=4), reads=[read("x", "i")])
        )
        rep = program_report(prog)
        assert rep.external_arrays == {"x": 4}
        assert "external inputs" in rep.summary()

    def test_matmul_report_clean(self):
        rep = program_report(matmul(3))
        assert rep.clean
        assert rep.firings["mac"] == 27


class TestPortfolio:
    def test_never_worse_than_single_default(self):
        """Seeding only, evolve races the default portfolio and keeps the
        goodness-best member."""
        g, spec = paper_graph(1)
        cons = ConstraintSpec(bmax=spec.bmax, rmax=spec.rmax)
        single = gp_partition(g, spec.k, cons, GPConfig(), seed=0)
        port = evolve_partition(g, spec.k, cons, SEEDING_CONFIG, seed=0)
        assert goodness_key(port.metrics, cons) <= goodness_key(
            single.metrics, cons
        )
        assert port.info["evals"] == len(default_portfolio())
        assert port.info["generations"] == 0


class TestHtmlReport:
    def test_report_contains_figures_and_tables(self):
        doc = experiment_html(1)
        assert doc.startswith("<!DOCTYPE html>")
        assert doc.count("<svg") == 4  # the experiment's four views
        assert "EXPERIMENT I" in doc
        assert "paper reported" in doc.lower() or "Paper reported" in doc
        assert "holds" in doc  # shape checks rendered

    def test_write_reports(self, tmp_path):
        paths = write_experiment_report(tmp_path, experiments=(1, 2))
        assert [p.name for p in paths] == ["experiment1.html", "experiment2.html"]
        for p in paths:
            text = p.read_text()
            assert "</html>" in text

    def test_deterministic_up_to_runtimes(self):
        """Everything except measured wall-clock times is byte-stable."""
        import re

        def normalise(doc: str) -> str:
            # strip measured times incl. scientific notation and the
            # whitespace padding the table aligns them with
            doc = re.sub(r"\d+\.\d+(e-?\d+)?", "T", doc)
            return re.sub(r"[ ]+", " ", doc)

        assert normalise(experiment_html(2)) == normalise(experiment_html(2))
