from math import pi

import pytest

from finesse.ir import build_dag
from finesse.qasm import QasmError, parse_qasm, serialize_qasm


class TestParse:
    def test_single_gate(self):
        dag = parse_qasm("qreg q[2]; cx q[0],q[1];")
        assert len(dag.gates) == 1 and dag.edges == set()

    def test_chain_on_shared_wires(self):
        dag = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1]; x q[1];")
        assert [g.kind for g in dag.gates] == ["h", "cx", "x"]
        assert dag.edges == {(0, 1), (1, 2)}

    def test_three_qubit_gate_rejected(self):
        with pytest.raises(QasmError, match="3\\+ qubits"):
            parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")

    def test_register_redeclaration(self):
        with pytest.raises(QasmError, match="redeclared"):
            parse_qasm("qreg q[2]; qreg r[2];")

    def test_unsupported_gate(self):
        with pytest.raises(QasmError, match="unsupported"):
            parse_qasm("qreg q[2]; frobnicate q[0];")

    def test_syntax_error_is_position_annotated(self):
        with pytest.raises(QasmError) as err:
            parse_qasm("qreg q[2];\ncx q[0] q[1];")
        assert err.value.line == 2

    def test_angle_expressions(self):
        dag = parse_qasm("qreg q[1]; rx(pi/2) q[0]; rz(-3*pi/4) q[0]; ry(2^3) q[0];")
        assert dag.gates[0].params == (pi / 2,)
        assert dag.gates[1].params == (-3 * pi / 4,)
        assert dag.gates[2].params == (8.0,)

    def test_u_aliases(self):
        dag = parse_qasm("qreg q[1]; u1(0.5) q[0]; u2(0.1,0.2) q[0]; u3(1,2,3) q[0]; p(0.7) q[0];")
        kinds = [g.kind for g in dag.gates]
        assert kinds == ["u"] * 4
        assert dag.gates[0].params == (0.0, 0.0, 0.5)
        assert dag.gates[1].params == (pi / 2, 0.1, 0.2)

    def test_measure_stripped_with_warning(self):
        with pytest.warns(UserWarning, match="measurements stripped"):
            dag = parse_qasm("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];")
        assert [g.kind for g in dag.gates] == ["h"]

    def test_broadcast_one_qubit(self):
        dag = parse_qasm("qreg q[3]; h q;")
        assert [g.wires for g in dag.gates] == [(0,), (1,), (2,)]

    def test_reset_unsupported(self):
        with pytest.raises(QasmError, match="unsupported"):
            parse_qasm("qreg q[1]; reset q[0];")

    def test_out_of_range_index(self):
        with pytest.raises(QasmError, match="out of range"):
            parse_qasm("qreg q[2]; h q[5];")

    @pytest.mark.parametrize(
        "text, col",
        [
            ("qreg q[2.5];", 8),
            ("qreg q[x];", 8),
            ("qreg q[1e1];", 8),
            ("qreg q[2]; h q[1e0];", 16),
            ("qreg q[2]; cx q[0],q[0.];", 22),
            ("qreg q[1]; creg c[x];", 19),
            ("qreg q[1]; creg c[1]; measure q[0] -> c[x];", 41),
        ],
    )
    def test_non_integer_size_or_index(self, text, col):
        with pytest.raises(QasmError, match="must be an integer") as err:
            parse_qasm(text)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize(
        "text, match, col",
        [
            ("qreg q[0]; h q;", "must be at least 1", 8),
            ("qreg q[1]; creg c[0];", "must be at least 1", 19),
            ("qreg q[1]; creg c[1]; creg c[2];", "redeclared", 28),
            ("qreg q[1]; creg c[1]; measure q[0] -> q[5];", "unknown register 'q'", 39),
            ("qreg q[1]; creg c[1]; measure q[0] -> d[0];", "unknown register 'd'", 39),
            ("qreg q[1]; creg c[1]; measure q[0] -> c[3];", "bit index 3 out of range", 41),
            ("qreg q[2]; creg c[1]; measure q -> c;", "whole registers of one size", 23),
            ("qreg q[2]; creg c[2]; measure q[0] -> c;", "indexed qubit and bit", 23),
        ],
    )
    def test_bad_register_or_measure_target(self, text, match, col):
        with pytest.raises(QasmError, match=match) as err:
            parse_qasm(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_whole_register_measure(self):
        with pytest.warns(UserWarning, match="measurements stripped"):
            dag = parse_qasm("qreg q[2]; creg c[2]; h q; measure q -> c;")
        assert dag.num_qubits == 2 and len(dag.gates) == 2


class TestMacros:
    def test_macro_inlined(self):
        text = """
        OPENQASM 2.0;
        qreg q[2];
        gate bell a,b { h a; cx a,b; }
        bell q[0],q[1];
        """
        dag = parse_qasm(text)
        assert [g.kind for g in dag.gates] == ["h", "cx"]

    def test_macro_with_params(self):
        text = """
        qreg q[2];
        gate wiggle(t) a { rx(t/2) a; rz(-t) a; }
        wiggle(pi) q[1];
        """
        dag = parse_qasm(text)
        assert dag.gates[0].params == (pi / 2,)
        assert dag.gates[1].params == (-pi,)

    def test_nested_macros(self):
        text = """
        qreg q[2];
        gate inner a,b { cx a,b; }
        gate outer a,b { inner a,b; inner b,a; }
        outer q[0],q[1];
        """
        dag = parse_qasm(text)
        assert [g.wires for g in dag.gates] == [(0, 1), (1, 0)]

    def test_recursion_cap(self):
        text = """
        qreg q[1];
        gate loop a { loop a; }
        loop q[0];
        """
        with pytest.raises(QasmError, match="recursion"):
            parse_qasm(text)


class TestBarriers:
    def test_two_wire_barrier_node(self):
        dag = parse_qasm("qreg q[2]; h q[0]; barrier q[0],q[1]; x q[1];")
        assert [g.kind for g in dag.gates] == ["h", "barrier", "x"]
        assert dag.edges == {(0, 1), (1, 2)}

    def test_full_register_barrier_orders_across_wires(self):
        dag = parse_qasm("qreg q[4]; h q[3]; barrier q; x q[0];")
        # the h on wire 3 must be an ancestor of the x on wire 0
        reach = set()
        stack = [dag.gates[0].id]
        while stack:
            for s in dag.successors(stack.pop()):
                if s not in reach:
                    reach.add(s)
                    stack.append(s)
        assert dag.gates[-1].id in reach


class TestRoundTrip:
    def test_parse_serialize_parse_isomorphic(self):
        text = """
        qreg q[3];
        h q[0]; cx q[0],q[1]; rz(pi/8) q[1]; iswap q[1],q[2]; ecr q[0],q[2];
        barrier q[0],q[1];
        swap q[0],q[1];
        """
        dag = parse_qasm(text)
        assert dag.isomorphic(parse_qasm(serialize_qasm(dag)))

    def test_root_iswap_pragma_roundtrip_bit_exact(self):
        dag = build_dag(2, [("root_iswap", (0, 1), (), 2), ("root_iswap", (1, 0), (), 5)])
        text = serialize_qasm(dag)
        assert "//!root-iswap" in text
        again = parse_qasm(text)
        assert [g.n for g in again.gates] == [2, 5]
        assert serialize_qasm(again) == text

    def test_siswap_named_macro(self):
        dag = parse_qasm("qreg q[2]; siswap q[0],q[1];")
        g = dag.gates[0]
        assert g.kind == "root_iswap" and g.n == 2

    def test_no_qreg_is_error(self):
        with pytest.raises(QasmError, match="no qreg"):
            parse_qasm("OPENQASM 2.0;")
