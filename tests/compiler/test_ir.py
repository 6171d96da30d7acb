"""IR operand and instruction-record behaviour."""

from repro.compiler import ir


class TestVReg:
    def test_equal_ids_are_equal_and_hash_alike(self):
        assert ir.VReg(3) == ir.VReg(3)
        assert hash(ir.VReg(3)) == hash(ir.VReg(3))
        assert len({ir.VReg(3), ir.VReg(3), ir.VReg(4)}) == 2

    def test_never_equals_an_immediate(self):
        assert ir.VReg(3) != ir.Imm(3)
        assert ir.Imm(3) != ir.VReg(3)
        assert ir.VReg(3) not in {ir.Imm(3): 0}

    def test_repr(self):
        assert repr(ir.VReg(7)) == "v7"
        assert repr(ir.Imm(-2)) == "#-2"

    def test_hash_and_eq_run_in_c(self):
        # Python-level __hash__/__eq__ were a third of the optimizer's
        # dict and set traffic; the tuple slots are C functions.
        assert type(ir.VReg.__hash__) is not type(lambda: 0)
        assert type(ir.VReg.__eq__) is not type(lambda: 0)


class TestReplaceUses:
    def test_reports_whether_anything_changed(self):
        instr = ir.Bin("add", ir.VReg(1), ir.VReg(0), ir.Imm(2))
        assert not instr.replace_uses({ir.VReg(5): ir.Imm(1)})
        assert instr.replace_uses({ir.VReg(0): ir.Imm(9)})
        assert instr.a == ir.Imm(9)

    def test_list_operands_are_rebuilt_only_on_change(self):
        args = [ir.VReg(0), ir.Imm(1)]
        call = ir.Call(None, "g", args)
        assert not call.replace_uses({ir.VReg(2): ir.Imm(0)})
        assert call.args is args
        assert call.replace_uses({ir.VReg(0): ir.VReg(4)})
        assert call.args == [ir.VReg(4), ir.Imm(1)]
        assert args == [ir.VReg(0), ir.Imm(1)]

    def test_uses_and_defs(self):
        call = ir.Call(ir.VReg(3), "g", [ir.VReg(0), ir.Imm(1), ir.VReg(2)])
        assert list(call.uses()) == [ir.VReg(0), ir.VReg(2)]
        assert call.defs() == (ir.VReg(3),)
        assert ir.Label("L").uses() == []
