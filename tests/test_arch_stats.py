"""ArchStats accounting and instruction rendering tests."""

import pytest

from repro.arch import ArchStats
from repro.isa import (
    AtomOp,
    CmpOp,
    DType,
    Imm,
    Instruction,
    LinearRef,
    MemRef,
    Opcode,
    Reg,
    SpecialReg,
)
from repro.sim.timing import EnergyBreakdown, TimingResult


class TestArchStats:
    def make(self, **kw):
        base = ArchStats(name="baseline", warp_instructions=1000,
                         thread_instructions=32000, cycles=500,
                         energy_pj=1e6)
        variant = ArchStats(name="x", **kw)
        return base, variant

    def test_instruction_reduction(self):
        base, v = self.make(warp_instructions=700)
        assert v.instruction_reduction(base) == pytest.approx(0.3)

    def test_thread_reduction(self):
        base, v = self.make(thread_instructions=16000)
        assert v.thread_instruction_reduction(base) == pytest.approx(0.5)

    def test_speedup(self):
        base, v = self.make(cycles=400)
        assert v.speedup(base) == pytest.approx(1.25)

    def test_energy_reduction(self):
        base, v = self.make(energy_pj=8e5)
        assert v.energy_reduction(base) == pytest.approx(0.2)

    def test_zero_baseline_degenerates_gracefully(self):
        empty = ArchStats(name="empty")
        v = ArchStats(name="x", cycles=0)
        assert v.instruction_reduction(empty) == 0.0
        assert v.speedup(empty) == 1.0
        assert v.energy_reduction(empty) == 0.0

    def test_add_timing_accumulates(self):
        stats = ArchStats(name="x")
        t = TimingResult(cycles=100, issued_scalar=5, skipped=7,
                         prologue_cycles=3)
        t.energy.add("alu", 50.0)
        stats.add_timing(t)
        stats.add_timing(t)
        assert stats.cycles == 200
        assert stats.scalar_instructions == 10
        assert stats.skipped_instructions == 14
        assert stats.linear_cycles == 6
        assert stats.energy_pj == pytest.approx(100.0)


class TestEnergyBreakdown:
    def test_add_and_total(self):
        e = EnergyBreakdown()
        e.add("alu", 10)
        e.add("alu", 5)
        e.add("rf", 1)
        assert e.total() == 16
        assert e.values["alu"] == 15

    def test_merge(self):
        a = EnergyBreakdown()
        a.add("alu", 1)
        b = EnergyBreakdown()
        b.add("alu", 2)
        b.add("dram", 3)
        a.merge(b)
        assert a.values == {"alu": 3, "dram": 3}


class TestInstructionRendering:
    def test_basic_arith(self):
        r1, r2 = Reg("%r1"), Reg("%r2")
        instr = Instruction(Opcode.ADD, dst=r1, srcs=(r2, Imm(4)))
        assert str(instr) == "add.s32 %r1, %r2, 4"

    def test_guarded(self):
        p = Reg("%p1", DType.PRED)
        instr = Instruction(
            Opcode.MOV, dst=Reg("%r1"), srcs=(Imm(0),), pred=p,
            pred_negated=True,
        )
        assert str(instr).startswith("@!%p1 ")

    def test_setp_with_cmp(self):
        instr = Instruction(
            Opcode.SETP, dst=Reg("%p1", DType.PRED),
            srcs=(Reg("%r1"), Imm(3)), cmp=CmpOp.GE,
        )
        assert "setp.ge.s32" in str(instr)

    def test_atom_with_op(self):
        instr = Instruction(
            Opcode.ATOM_GLOBAL, dtype=DType.S32, dst=Reg("%r1"),
            srcs=(MemRef(Reg("%rd1", DType.S64)), Imm(1)),
            atom=AtomOp.ADD,
        )
        assert "atom.global.add.s32" in str(instr)

    def test_branch_with_target(self):
        instr = Instruction(Opcode.BRA, target="$L")
        assert str(instr) == "bra $L"

    def test_special_reg_operand(self):
        instr = Instruction(
            Opcode.MOV, dst=Reg("%r1"), srcs=(SpecialReg.TID_X,)
        )
        assert "%tid.x" in str(instr)

    def test_linear_ref_rendering(self):
        instr = Instruction(
            Opcode.LD_GLOBAL, dtype=DType.F32, dst=Reg("%f1", DType.F32),
            srcs=(LinearRef(2, 5, 8),),
        )
        text = str(instr)
        assert "%lr2" in text and "%cr5" in text and "8" in text

    def test_comment_appended(self):
        instr = Instruction(
            Opcode.MOV, dst=Reg("%r1"), srcs=(Imm(1),), comment="hello"
        )
        assert str(instr).endswith("// hello")

    def test_source_regs_include_guard_and_base(self):
        p = Reg("%p1", DType.PRED)
        base = Reg("%rd1", DType.S64)
        instr = Instruction(
            Opcode.LD_GLOBAL, dtype=DType.F32, dst=Reg("%f1", DType.F32),
            srcs=(MemRef(base),), pred=p,
        )
        names = {r.name for r in instr.source_regs()}
        assert names == {"%rd1", "%p1"}
