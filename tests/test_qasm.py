import inspect
import re
from math import pi

import pytest
from hypothesis import example, given, settings, strategies as st

from finesse.ir import ONE_QUBIT_KINDS, TWO_QUBIT_KINDS, CircuitDag, CircuitError, Gate, build_dag
from finesse.qasm import QasmError, _Parser, load_qasm, parse_qasm, serialize_qasm
from oracles import QASM_PARAMETERS, arc_set, dag_arcs, reference_angle, same_circuit


def _gates(dag):
    """Kind, wires, order, mirror flag and bit-exact params of every gate."""
    return [(g.kind, g.wires, g.n, g.mirrored, [p.hex() for p in g.params]) for g in dag.gates]


def _outcome(text):
    """The gates and arcs a text parses to, or "QasmError"."""
    try:
        dag = parse_qasm(text)
    except QasmError:
        return "QasmError"
    return _gates(dag), arc_set(dag)


def _descendants(dag, gate_id):
    arcs, reach, stack = dag_arcs(dag), set(), [gate_id]
    while stack:
        for s in arcs[stack.pop()]:
            if s not in reach:
                reach.add(s)
                stack.append(s)
    return reach


_LITERALS = ["0", "0.5", "1", "2.0", "3", ".25", "1e-3", "7.5e1", "pi"]
_FUNCS = ["sin", "cos", "tan", "exp", "ln", "sqrt"]


def _angles(leaves):
    """Angle expression texts over `leaves` with every operator, unary sign,
    parenthesis and function of the grammar."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
            inner.map("({})".format),
            st.tuples(st.sampled_from("+-"), inner).map("".join),
            st.tuples(st.sampled_from(_FUNCS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=8,
    )


def _substitute(text, values):
    """Textual inlining: each name in `values` replaced by its parenthesised text."""
    return re.sub(r"\b[a-z]\d\b", lambda m: f"({values[m.group(0)]})" if m.group(0) in values else m.group(0), text)


class TestParse:
    def test_single_gate(self):
        dag = parse_qasm("qreg q[2]; cx q[0],q[1];")
        assert len(dag.gates) == 1 and arc_set(dag) == set()

    def test_chain_on_shared_wires(self):
        dag = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1]; x q[1];")
        assert [g.kind for g in dag.gates] == ["h", "cx", "x"]
        assert arc_set(dag) == {(0, 1), (1, 2)}

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

    def test_a_file_error_names_the_file_ahead_of_its_position(self, tmp_path):
        path = tmp_path / "bad.qasm"
        path.write_text("qreg q[2];\ncx q[0] q[1];")
        with pytest.raises(QasmError) as err:
            load_qasm(path)
        assert str(err.value) == f"{path}:2:9: expected ';', found 'q'"
        assert (err.value.line, err.value.col) == (2, 9)

    def test_a_file_that_is_not_utf8_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "bin.qasm"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(QasmError) as err:
            load_qasm(path)
        assert str(err.value) == f"{path} is not UTF-8 text: invalid start byte at byte 0"

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


class TestMalformed:
    @pytest.mark.parametrize(
        "text, match, line, col",
        [
            ("gate foo(a", "unexpected end of input", 2, 10),
            ("rz(0.1", "unexpected end of input", 2, 4),
            ("gate foo a { h b; }", "unknown gate argument 'b'", 2, 16),
            ("rz(10^400) q[0];", "overflow in angle at '\\^'", 2, 6),
            ("rz(exp(1000)) q[0];", "overflow in angle at 'exp'", 2, 4),
            ("rz(sqrt(-1)) q[0];", "math domain error in angle at 'sqrt'", 2, 4),
            ("rz(ln(0)) q[0];", "math domain error in angle at 'ln'", 2, 4),
            ("rz((-8)^(1/3)) q[0];", "'\\^' is not a finite real number", 2, 8),
            ("rz(1e999) q[0];", "'1e999' is not a finite real number", 2, 4),
            ("rz(1e308*10) q[0];", "'\\*' is not a finite real number", 2, 9),
            ("rz(0^-1) q[0];", "division by zero", 2, 5),
            ("gate g(t) a { rz(t", "unexpected end of input", 2, 18),
            ("gate g(t) a { rz(t t) a; }", "expected '\\)', found 't'", 2, 20),
            ("gate g(t,t) a { rz(t) a; }", "repeated gate parameter 't'", 2, 10),
            ("gate g a,b,a { cx a,b; }", "repeated gate argument 'a'", 2, 12),
            ("opaque g(t) a,\n a;", "repeated gate argument 'a'", 3, 2),
        ],
    )
    def test_positioned_error(self, text, match, line, col):
        with pytest.raises(QasmError, match=match) as err:
            parse_qasm("qreg q[1];\n" + text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text, match, col",
        [
            ("rz(0.1,) q[0];", "bad expression token '\\)'", 8),
            ("u3(1 2 3) q[0];", "expected '\\)', found '2'", 6),
            ("gate g(a,) x { h x; }", "expected identifier, found '\\)'", 10),
            ("gate g a, { h a; }", "expected identifier, found '{'", 11),
            ("h q[0],;", "expected identifier, found ';'", 8),
            ("opaque g 1;", "expected identifier, found '1'", 10),
        ],
    )
    def test_lists_take_one_comma_between_items(self, text, match, col):
        with pytest.raises(QasmError, match=match) as err:
            parse_qasm("qreg q[1];\n" + text)
        assert (err.value.line, err.value.col) == (2, col)

    def test_gate_body_is_checked_when_defined(self):
        for body, match in [("rz(s) a;", "unknown symbol 's'"), ("h b;", "unknown gate argument 'b'")]:
            with pytest.raises(QasmError, match=match):
                parse_qasm(f"qreg q[1]; gate never(t) a {{ {body} }}")

    def test_body_arithmetic_is_checked_when_applied(self):
        text = "qreg q[1];\ngate g(t) a { rz(1/(t-1)) a; }\n"
        assert len(parse_qasm(text + "g(2) q[0];").gates) == 1
        with pytest.raises(QasmError, match="division by zero") as err:
            parse_qasm(text + "g(1) q[0];")
        assert (err.value.line, err.value.col) == (2, 19)

    def test_invalid_root_order_is_positioned(self):
        with pytest.raises(QasmError, match="root_iswap order must be an integer >= 1, not 0") as err:
            parse_qasm("//!root-iswap r0 0\nqreg q[2];\nr0 q[0],q[1];")
        assert (err.value.line, err.value.col) == (3, 1)

    def test_barrier_takes_no_parameters(self):
        with pytest.raises(QasmError, match="barrier expects 0 parameter") as err:
            parse_qasm("qreg q[2]; barrier(1) q;")
        assert (err.value.line, err.value.col) == (1, 12)

    # Each input a check of the reader's own refused before `Gate` owned the
    # rule, at the position it gave then.
    @pytest.mark.parametrize("text, line, col", [
        ("cx q[0],q[0];", 2, 1),
        ("swap q[2],\n q[2];", 2, 1),
        ("foo q[0],q[0];", 2, 1),
        ("gate g a,b { cx a,b; }\ng q[1],q[1];", 2, 14),
        ("h(0.5) q[0];", 2, 1),
        ("rz(1,2) q[0];", 2, 1),
        ("x(pi) q;", 2, 1),
        ("gate g(t) a { h(t) a; }\ng(1) q[0];", 2, 15),
        ("h q[0],q[1];", 2, 1),
        ("p(1) q[0],q[1];", 2, 1),
        ("gate g a,b { t a,b; }\ng q[0],q[1];", 2, 14),
        ("cx(0.1) q[0],q[1];", 2, 1),
        ("siswap(1) q[0],q[1];", 2, 1),
        ("//!root-iswap r3 3\nr3(1) q[0],q[1];", 3, 1),
        ("gate g a,b { ecr(1) a,b; }\ng q[2],q[0];", 2, 14),
        ("cx q[0];", 2, 1),
        ("cz q[0],q[1],q[2];", 2, 1),
        ("cx q;", 2, 1),
        ("barrier(1,2) q[0],q[1];", 2, 1),
        ("gate g a,b { barrier(1) a,b; }\ng q[0],q[1];", 2, 14),
    ])
    def test_a_malformed_gate_is_refused_at_its_position(self, text, line, col):
        with pytest.raises(QasmError) as err:
            parse_qasm("qreg q[3];\n" + text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text, message", [
        ("p(1) q[0],q[1];", "3:1: p expects 1 wire(s), got 2"),
        ("siswap(1) q[0],q[1];", "3:1: siswap expects 0 parameter(s), got 1"),
        ("u2(1,2) q[0],q[1];", "3:1: u2 expects 1 wire(s), got 2"),
        ("siswap q[1],q[1];", "3:1: siswap wires must be distinct, not (1, 1)"),
        ("cx(0.1) q[0],q[1];", "3:1: cx expects 0 parameter(s), got 1"),
        ("gate g a,b { u1(1) a,b; }\ng q[0],q[1];", "3:14: u1 expects 1 wire(s), got 2"),
    ])
    def test_a_refusal_names_the_gate_the_file_spells(self, text, message):
        """An alias or root name lowered to another kind is refused under its
        own name, at its own token, not as the ``u`` or ``root_iswap`` it
        becomes."""
        with pytest.raises(QasmError) as err:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\n" + text)
        assert str(err.value) == message

    def test_a_pragma_root_is_refused_by_its_name(self):
        with pytest.raises(QasmError) as err:
            parse_qasm("//!root-iswap r3 3\nqreg q[2];\nr3(1) q[0],q[1];")
        assert str(err.value) == "3:1: r3 expects 0 parameter(s), got 1"

    def test_the_reader_holds_no_copy_of_the_gate_rule(self):
        """`Gate` checks wire and parameter counts and distinct wires; the
        reader keeps only what the IR cannot see, such as a barrier's repeat."""
        source = inspect.getsource(_Parser._apply_named)
        for copy in ("takes no parameters", "expects 1 qubit", "expects 2 qubits", "PARAM_COUNTS"):
            assert copy not in source
        assert source.count("len(set(wires))") == 1 and "barrier wires must be distinct" in source


class TestAngles:
    @settings(max_examples=300, deadline=None)
    @given(_angles(_LITERALS))
    def test_matches_python_grammar(self, angle):
        want = reference_angle(angle)
        text = f"qreg q[1]; rz({angle}) q[0];"
        if want is None:
            with pytest.raises(QasmError):
                parse_qasm(text)
        else:
            assert parse_qasm(text).gates[0].params[0].hex() == want.hex()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_gate_call_equals_its_textual_inlining(self, data):
        # Every parameter is used once outside the drawn angles, so that the
        # inlining evaluates each argument, as the call does.
        inner = [data.draw(_angles(_LITERALS + ["t0", "t1"])) for _ in range(2)]
        outer = [data.draw(_angles(_LITERALS + ["s0"])) for _ in range(3)]
        arg = data.draw(_angles(_LITERALS))
        text = (
            "qreg q[3];\n"
            f"gate inner(t0,t1) a,b {{ rz({inner[0]}) a; cx a,b; u2(t1,{inner[1]}) b; barrier a,b; rx(t0) a; }}\n"
            f"gate outer(s0) a,b,c {{ inner({outer[0]},{outer[1]}) c,a; ry({outer[2]}) b; p(s0) c; }}\n"
            f"outer({arg}) q[0],q[1],q[2];\n"
        )
        s0 = {"s0": arg}
        t = {"t0": _substitute(outer[0], s0), "t1": _substitute(outer[1], s0)}
        inlined = (
            "qreg q[3];\n"
            f"rz({_substitute(inner[0], t)}) q[2]; cx q[2],q[0]; u2(({t['t1']}),{_substitute(inner[1], t)}) q[0];\n"
            f"barrier q[2],q[0]; rx(({t['t0']})) q[2]; ry({_substitute(outer[2], s0)}) q[1]; p(({arg})) q[2];\n"
        )
        assert _outcome(text) == _outcome(inlined)


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
        assert arc_set(dag) == {(0, 1), (1, 2)}

    def test_full_register_barrier_orders_across_wires(self):
        dag = parse_qasm("qreg q[4]; h q[3]; barrier q; x q[0];")
        # the h on wire 3 must be an ancestor of the x on wire 0
        assert dag.gates[-1].id in _descendants(dag, dag.gates[0].id)


    def test_barrier_in_gate_body_reaches_the_dag(self):
        text = """
        qreg q[3];
        gate fence a,b,c { h a; barrier a,b,c; x c; }
        fence q[2],q[1],q[0];
        """
        dag = parse_qasm(text)
        assert [(g.kind, g.wires) for g in dag.gates] == [
            ("h", (2,)),
            ("barrier", (2, 1)),
            ("barrier", (1, 0)),
            ("barrier", (2, 1)),
            ("x", (0,)),
        ]
        # the h on wire 2 must be an ancestor of the x on wire 0
        assert dag.gates[-1].id in _descendants(dag, dag.gates[0].id)

    def test_body_barrier_parses_like_its_inlining(self):
        macro = "qreg q[3]; gate fence a,b { barrier a,b; } h q[0]; fence q[0],q[2]; x q[2];"
        inlined = "qreg q[3]; h q[0]; barrier q[0],q[2]; x q[2];"
        assert _outcome(macro) == _outcome(inlined)


# Every kind the dialect spells, and the orders a root-iswap pragma writes.
_SPELLED = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u",
            "cx", "cz", "swap", "iswap", "ecr", "root_iswap", "barrier"]


@st.composite
def _spelled_gates(draw):
    """(width, gate specs) over `_SPELLED`: finite angles, mostly as many as
    the kind takes, root-iswap orders 2..8, barriers on 1 or 2 wires, and
    mirrored 2q gates."""
    width = draw(st.integers(2, 5))
    specs = []
    for gid in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(_SPELLED))
        one = kind in ONE_QUBIT_KINDS or kind == "barrier" and draw(st.booleans())
        wires = tuple(draw(st.permutations(range(width)))[: 1 if one else 2])
        count = QASM_PARAMETERS.get(kind, 0) if draw(st.integers(0, 3)) else draw(st.integers(0, 3))
        params = tuple(draw(st.floats(allow_nan=False, allow_infinity=False)) for _ in range(count))
        n = draw(st.integers(2, 8)) if kind == "root_iswap" else 1
        mirrored = kind in TWO_QUBIT_KINDS and draw(st.booleans())
        specs.append((gid, kind, wires, params, n, mirrored))
    return width, specs


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_spelled_gates())
    # The gates `serialize_qasm` once wrote as `h(0.5) q[0];` and the like.
    @example((2, [(0, "h", (0,), (0.5,), 1, False), (1, "cx", (0, 1), (1.0,), 1, False),
                  (2, "barrier", (0, 1), (0.5,), 1, False)]))
    def test_what_the_serializer_writes_the_reader_reads(self, drawn):
        """`Gate` refuses a parameter count other than the kind's own; every
        DAG it builds reads back with the same kinds, wires, orders and
        parameter bits, a mirrored gate as its base gate, then a swap."""
        assert set(_SPELLED) == ONE_QUBIT_KINDS | TWO_QUBIT_KINDS - {"unitary"} | {"barrier"}
        width, specs = drawn
        gates = []
        for gid, kind, wires, params, n, mirrored in specs:
            if len(params) == QASM_PARAMETERS.get(kind, 0):
                gates.append(Gate(gid, kind, wires, params, n, mirrored=mirrored))
            else:
                with pytest.raises(CircuitError, match=f"^{kind} expects"):
                    Gate(gid, kind, wires, params, n, mirrored=mirrored)
        dag = CircuitDag(width, gates)
        want = []
        for g in dag.gates:
            want.append((g.kind, g.wires, g.n, False, [p.hex() for p in g.params]))
            if g.mirrored:
                want.append(("swap", g.wires, 1, False, []))
        again = parse_qasm(serialize_qasm(dag))
        assert again.num_qubits == dag.num_qubits and _gates(again) == want

    def test_parse_serialize_parse_isomorphic(self):
        text = """
        qreg q[3];
        h q[0]; cx q[0],q[1]; rz(pi/8) q[1]; iswap q[1],q[2]; ecr q[0],q[2];
        barrier q[0],q[1];
        swap q[0],q[1];
        """
        dag = parse_qasm(text)
        assert same_circuit(dag, parse_qasm(serialize_qasm(dag)))

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
