"""Unit tests for static program validation."""

import pytest

from repro.sim import (
    ProgramBuilder,
    ProgramValidationError,
    RecvTask,
    SendTask,
    validate_programs,
)


def _valid_programs():
    b = ProgramBuilder(4)
    for node in range(4):
        idx = b.compute(node, 1.0, tag="work")
        b.broadcast(node, 1e6, after=idx)
    i = b.compute(0, 0.5)
    b.transfer(0, 3, 2e6, after=i)
    b.compute(3, 0.5, needs_recv=True)
    return b.build()


class TestValidPrograms:
    def test_summary(self):
        stats = validate_programs(_valid_programs())
        assert stats["compute_tasks"] == 6
        assert stats["sends"] == 5
        assert stats["recvs"] == 13  # 4 broadcasts x 3 + 1 transfer
        assert stats["bytes"] == pytest.approx(4 * 3e6 + 2e6)

    def test_scheduler_output_validates(self):
        """Everything the real mappers emit passes validation."""
        from repro.cost import CONVBN_UNIT, OpCostModel
        from repro.hw import HYDRA_CARD
        from repro.sched import (
            map_bootstrap,
            map_bsgs_matvec,
            map_distributed_units,
            map_polynomial_tree,
        )
        cost = OpCostModel(HYDRA_CARD)
        b = ProgramBuilder(8)
        map_distributed_units(b, cost, units=100,
                              unit_trace=CONVBN_UNIT, level=20,
                              output_ciphertexts=4, tag="c")
        map_bsgs_matvec(b, cost, list(range(8)), level=20, bs=2, gs=16,
                        tag="f")
        map_polynomial_tree(b, cost, list(range(4)), degree=15,
                            level=18, tag="n")
        map_bootstrap(b, cost, [4, 5, 6, 7], tag="b")
        validate_programs(b.build())


class TestDefects:
    def test_unmatched_send(self):
        programs = _valid_programs()
        programs[0].comm.append(SendTask(dst=1, size=100))
        with pytest.raises(ProgramValidationError, match="0->1"):
            validate_programs(programs)

    def test_unmatched_recv(self):
        programs = _valid_programs()
        programs[2].comm.append(RecvTask(src=1, size=100))
        with pytest.raises(ProgramValidationError, match="1->2"):
            validate_programs(programs)

    def test_bad_dependency_index(self):
        b = ProgramBuilder(2)
        b.programs[0].comm.append(SendTask(dst=1, size=10,
                                           after_compute=7))
        b.programs[1].comm.append(RecvTask(src=0, size=10))
        with pytest.raises(ProgramValidationError, match="compute\\[7\\]"):
            validate_programs(b.build())

    def test_too_many_ct_d(self):
        b = ProgramBuilder(2)
        b.compute(0, 1.0, needs_recv=True)
        with pytest.raises(ProgramValidationError,
                           match="data-dependent"):
            validate_programs(b.build())

    def test_self_send(self):
        b = ProgramBuilder(2)
        b.programs[0].comm.append(SendTask(dst=0, size=10))
        with pytest.raises(ProgramValidationError, match="itself"):
            validate_programs(b.build())

    def test_out_of_range_destination(self):
        b = ProgramBuilder(2)
        b.programs[0].comm.append(SendTask(dst=9, size=10))
        with pytest.raises(ProgramValidationError, match="out of range"):
            validate_programs(b.build())
