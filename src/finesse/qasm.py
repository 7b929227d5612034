"""OpenQASM 2 front end for the restricted routing dialect.

Supported: a single qreg, the named 1q/2q gates, ``gate`` macros that expand
to them, barriers, and opaque declarations.  Measurements are stripped with a
warning (routing acts on the unitary part); cregs are only checked as
measurement targets.  Root-iswap gates round-trip through
``//!root-iswap <name> <n>`` pragma comments.

One call rule, ``name(expr, ...) operand, ...;``, reads top-level gates and
barriers on register operands and gate-body statements on the gate's formal
arguments, so a barrier in a body is kept.  An angle is compiled once: at
the top level to its value, in a body to a closure over the gate's
parameters that each application calls.  Each arithmetic step is checked.

Every malformed input raises ``QasmError`` with a line and column: syntax
errors (a list takes one comma between items, none trailing); an unknown
symbol or argument in a gate body, when the gate is defined; division by
zero, overflow, a math domain error or a result that is not a finite real
number, at the literal, operator or function that produces it.
``load_qasm`` reads a file and puts its name ahead of the position.
"""
from __future__ import annotations

import math
import operator
import re
import warnings
from dataclasses import dataclass
from math import pi
from pathlib import Path

from .ir import ONE_QUBIT_KINDS, PARAM_COUNTS, TWO_QUBIT_KINDS, CircuitDag, CircuitError, Gate

MAX_MACRO_DEPTH = 16

_NAMED_2Q = TWO_QUBIT_KINDS - {"root_iswap", "unitary"}
# Aliases lowered onto the u gate.
_U_ALIASES = {"u3": 3, "u2": 2, "u1": 1, "p": 1}
_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class QasmError(ValueError):
    """Parse failure, annotated with line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}" if line else message)


@dataclass
class _Token:
    kind: str  # id | num | sym | str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<id>[a-zA-Z_][a-zA-Z0-9_]*)
      | (?P<str>"[^"]*")
      | (?P<arrow>->)
      | (?P<sym>[{}()\[\];,+\-*/^=<>!])
    """,
    re.VERBOSE,
)

_PRAGMA_RE = re.compile(r"^//!root-iswap\s+([a-zA-Z_][a-zA-Z0-9_]*)\s+(\d+)\s*$")


def _tokenize(text: str) -> tuple[list[_Token], dict[str, int]]:
    tokens: list[_Token] = []
    root_names: dict[str, int] = {"siswap": 2}
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok = m.group(0)
        if kind == "comment":
            pm = _PRAGMA_RE.match(tok)
            if pm:
                root_names[pm.group(1)] = int(pm.group(2))
        elif kind == "ws":
            pass
        elif kind == "arrow":
            tokens.append(_Token("sym", "->", line, pos - line_start + 1))
        else:
            tokens.append(_Token(kind, tok, line, pos - line_start + 1))
        line += tok.count("\n")
        if "\n" in tok:
            line_start = pos + tok.rindex("\n") + 1
        pos = m.end()
    return tokens, root_names


def _integer(tok: _Token, what: str, least: int = 0) -> int:
    """Value of a plain decimal integer token >= least, else a positioned QasmError."""
    if tok.kind != "num" or not tok.text.isdecimal():
        raise QasmError(f"{what} must be an integer, found {tok.text!r}", tok.line, tok.col)
    if int(tok.text) < least:
        raise QasmError(f"{what} must be at least {least}, found {tok.text!r}", tok.line, tok.col)
    return int(tok.text)


def _formals(tokens: list[_Token], what: str) -> dict[str, int]:
    """Formal name -> position in a gate definition; a repeated name is a
    QasmError at its second use."""
    index: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if index.setdefault(tok.text, i) != i:
            raise QasmError(f"repeated gate {what} {tok.text!r}", tok.line, tok.col)
    return index


def _checked(tok: _Token, fn, *args) -> float:
    """fn(*args) as a finite real angle, else a QasmError at tok."""
    try:
        val = fn(*args)
    except ZeroDivisionError:
        raise QasmError("division by zero in angle", tok.line, tok.col) from None
    except OverflowError:
        raise QasmError(f"overflow in angle at {tok.text!r}", tok.line, tok.col) from None
    except ValueError as exc:
        raise QasmError(f"{exc} in angle at {tok.text!r}", tok.line, tok.col) from None
    if type(val) is not float or not math.isfinite(val):
        raise QasmError(f"angle at {tok.text!r} is not a finite real number", tok.line, tok.col)
    return val


def _step(tok: _Token, fn, *args):
    """One checked step: a number now from numbers, or a closure over the
    parameter values of a gate from closures."""
    if callable(args[0]):
        return lambda env: _checked(tok, fn, *[a(env) for a in args])
    return _checked(tok, fn, *args)


@dataclass
class _MacroDef:
    num_params: int
    num_args: int
    body: list  # (name, compiled params, argument indices, token) per statement


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.root_names = _tokenize(text)
        self.i = 0
        self.reg_name: str | None = None
        self.reg_size = 0
        self.cregs: dict[str, int] = {}
        self.macros: dict[str, _MacroDef] = {}
        self.ops: list[Gate] = []
        self._measured = False

    # token plumbing -------------------------------------------------
    def _next(self) -> _Token:
        if self.i >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else _Token("sym", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col)
        self.i += 1
        return self.tokens[self.i - 1]

    def _accept(self, *texts: str) -> _Token | None:
        """The next token if its text is one of texts, consumed; else None."""
        if self.i < len(self.tokens) and self.tokens[self.i].text in texts:
            self.i += 1
            return self.tokens[self.i - 1]
        return None

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise QasmError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _expect_id(self) -> _Token:
        tok = self._next()
        if tok.kind != "id":
            raise QasmError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _list(self, item) -> list:
        """`item, item, ...`: one or more, comma separated."""
        out = [item()]
        while self._accept(","):
            out.append(item())
        return out

    def _params(self, item) -> list:
        """An optional parenthesised list; `()` is empty."""
        if not self._accept("(") or self._accept(")"):
            return []
        out = self._list(item)
        self._expect(")")
        return out

    # expressions: numbers at the top level (scope None), closures over
    # the parameter values in a gate body ---------------------------
    def _expr(self, scope: dict[str, int] | None):
        val = self._term(scope)
        while tok := self._accept("+", "-"):
            val = _step(tok, _BINARY[tok.text], val, self._term(scope))
        return val

    def _term(self, scope):
        val = self._factor(scope)
        while tok := self._accept("*", "/"):
            val = _step(tok, _BINARY[tok.text], val, self._factor(scope))
        return val

    def _factor(self, scope):
        if tok := self._accept("+", "-"):
            val = self._factor(scope)
            return val if tok.text == "+" else _step(tok, operator.neg, val)
        val = self._atom(scope)
        if tok := self._accept("^"):
            val = _step(tok, operator.pow, val, self._factor(scope))
        return val

    def _atom(self, scope):
        tok = self._next()
        if tok.kind == "num" or tok.text == "pi":
            val = pi if tok.text == "pi" else _checked(tok, float, tok.text)
            return val if scope is None else lambda env: val
        if tok.text in _FUNCS:
            self._expect("(")
            val = self._expr(scope)
            self._expect(")")
            return _step(tok, _FUNCS[tok.text], val)
        if tok.text == "(":
            val = self._expr(scope)
            self._expect(")")
            return val
        if tok.kind != "id":
            raise QasmError(f"bad expression token {tok.text!r}", tok.line, tok.col)
        if scope is None or tok.text not in scope:
            raise QasmError(f"unknown symbol {tok.text!r} in expression", tok.line, tok.col)
        index = scope[tok.text]
        return lambda env: env[index]

    # operands -------------------------------------------------------
    def _register_arg(self, sizes: dict, what: str) -> tuple[int, int | None]:
        """(register size, index) of a reference into one of `sizes`; the
        index is None for a whole-register reference."""
        tok = self._expect_id()
        if tok.text not in sizes:
            raise QasmError(f"unknown register {tok.text!r}", tok.line, tok.col)
        size = sizes[tok.text]
        if self._accept("["):
            idx_tok = self._next()
            idx = _integer(idx_tok, f"{what} index")
            self._expect("]")
            if idx >= size:
                raise QasmError(f"{what} index {idx} out of range", idx_tok.line, idx_tok.col)
            return size, idx
        return size, None

    def _qubit_arg(self) -> int | None:
        """Indexed qubit, or None for a whole-register reference."""
        return self._register_arg({self.reg_name: self.reg_size}, "qubit")[1]

    def _call(self, scope: dict[str, int] | None, operand) -> tuple[list, list]:
        """`(expr, ...) operand, ...;` after a gate name: the one rule for
        applications, barriers and gate-body statements."""
        params = self._params(lambda: self._expr(scope))
        operands = self._list(operand)
        self._expect(";")
        return params, operands

    # gate emission --------------------------------------------------
    def _emit(self, kind: str, wires: tuple[int, ...], tok: _Token, params=(), n=1):
        try:
            self.ops.append(Gate(id=len(self.ops), kind=kind, wires=wires, params=tuple(params), n=n))
        except CircuitError as exc:
            raise QasmError(str(exc), tok.line, tok.col) from exc

    def _apply_named(self, name: str, params: list[float], wires: list[int], tok: _Token, depth: int):
        if depth > MAX_MACRO_DEPTH:
            raise QasmError(f"macro recursion deeper than {MAX_MACRO_DEPTH}", tok.line, tok.col)
        if name == "barrier":
            if params:
                raise QasmError("barrier takes no parameters", tok.line, tok.col)
            if len(set(wires)) != len(wires):
                raise QasmError("barrier wires must be distinct", tok.line, tok.col)
            # Lower to a down-then-up chain of barriers on at most 2 wires; the
            # chain is totally ordered, so every pre-gate precedes every post-gate.
            chain = list(zip(wires, wires[1:])) or [tuple(wires)]
            for pair in chain + chain[-2::-1]:
                self._emit("barrier", pair, tok)
            return
        if name in self.macros:
            macro = self.macros[name]
            if len(params) != macro.num_params or len(wires) != macro.num_args:
                raise QasmError(f"bad arity for macro {name!r}", tok.line, tok.col)
            for sub_name, sub_params, sub_args, sub_tok in macro.body:
                values = [p(params) for p in sub_params]
                self._apply_named(sub_name, values, [wires[a] for a in sub_args], sub_tok, depth + 1)
            return
        if len(set(wires)) != len(wires):
            raise QasmError(f"{name} wires must be distinct", tok.line, tok.col)
        if name in _U_ALIASES:
            if len(params) != _U_ALIASES[name]:
                raise QasmError(f"{name} expects {_U_ALIASES[name]} parameter(s)", tok.line, tok.col)
            if name in ("u1", "p"):
                params = [0.0, 0.0, params[0]]
            elif name == "u2":
                params = [pi / 2, params[0], params[1]]
            name = "u"
        if name in ONE_QUBIT_KINDS:
            want = PARAM_COUNTS.get(name, 0)
            if len(params) != want:
                raise QasmError(f"{name} expects {want} parameter(s)", tok.line, tok.col)
            if len(wires) != 1:
                raise QasmError(f"{name} expects 1 qubit", tok.line, tok.col)
            self._emit(name, (wires[0],), tok, params)
            return
        if name in _NAMED_2Q or name in self.root_names:
            if params:
                raise QasmError(f"{name} takes no parameters", tok.line, tok.col)
            if len(wires) != 2:
                raise QasmError(f"{name} expects 2 qubits", tok.line, tok.col)
            n = self.root_names.get(name, 1)
            if name in self.root_names:
                name = "iswap" if n == 1 else "root_iswap"
            self._emit(name, tuple(wires), tok, n=n)
            return
        if len(wires) >= 3:
            raise QasmError(f"{name}: gates on 3+ qubits are unsupported", tok.line, tok.col)
        raise QasmError(f"unsupported gate {name!r}", tok.line, tok.col)

    # statements -----------------------------------------------------
    def parse(self) -> CircuitDag:
        if self._accept("OPENQASM"):
            ver = self._next()
            if not ver.text.startswith("2"):
                raise QasmError(f"unsupported OpenQASM version {ver.text}", ver.line, ver.col)
            self._expect(";")
        while self.i < len(self.tokens):
            self._statement()
        if self.reg_name is None:
            raise QasmError("no qreg declared", 1, 1)
        if self._measured:
            warnings.warn("measurements stripped: routing acts on the unitary part", stacklevel=3)
        return CircuitDag(self.reg_size, self.ops)

    def _statement(self):
        tok = self._next()
        if tok.kind != "id":
            raise QasmError(f"expected statement, found {tok.text!r}", tok.line, tok.col)
        name = tok.text
        if name == "include":
            self._next()  # string literal
            self._expect(";")
        elif name in ("qreg", "creg"):
            self._declaration(name)
        elif name in ("gate", "opaque"):
            self._definition(name)
        elif name == "measure":
            self._measure(tok)
        elif name in ("reset", "if"):
            raise QasmError(f"{name} statements are unsupported", tok.line, tok.col)
        else:
            self._application(tok)

    def _declaration(self, keyword: str):
        """`name[size];` after qreg or creg; a register holds at least one bit."""
        name_tok = self._expect_id()
        self._expect("[")
        size_tok = self._next()
        self._expect("]")
        self._expect(";")
        size = _integer(size_tok, "register size", least=1)
        if keyword == "creg":
            if name_tok.text in self.cregs:
                raise QasmError("classical register redeclared", name_tok.line, name_tok.col)
            self.cregs[name_tok.text] = size
        elif self.reg_name is not None:
            raise QasmError("quantum register redeclared", name_tok.line, name_tok.col)
        else:
            self.reg_name, self.reg_size = name_tok.text, size

    def _definition(self, keyword: str):
        """`gate name(params) args { body }` or `opaque name(params) args;`.
        Body symbols and arguments are resolved here, once."""
        name_tok = self._expect_id()
        scope = _formals(self._params(self._expect_id), "parameter")
        index = _formals(self._list(self._expect_id), "argument")
        if keyword == "opaque":
            self._expect(";")
            return

        def formal() -> int:
            tok = self._expect_id()
            if tok.text not in index:
                raise QasmError(f"unknown gate argument {tok.text!r}", tok.line, tok.col)
            return index[tok.text]

        self._expect("{")
        body = []
        while not self._accept("}"):
            tok = self._expect_id()
            body.append((tok.text, *self._call(scope, formal), tok))
        self.macros[name_tok.text] = _MacroDef(len(scope), len(index), body)

    def _measure(self, tok: _Token):
        qubit = self._qubit_arg()
        self._expect("->")
        size, bit = self._register_arg(self.cregs, "bit")
        self._expect(";")
        if (qubit is None) != (bit is None) or (bit is None and size != self.reg_size):
            msg = "measure takes an indexed qubit and bit, or whole registers of one size"
            raise QasmError(msg, tok.line, tok.col)
        self._measured = True

    def _application(self, tok: _Token):
        """A gate or barrier on register operands; a whole register widens a
        barrier and broadcasts a 1q gate."""
        params, wires = self._call(None, self._qubit_arg)
        if None in wires:
            if tok.text == "barrier":
                wires = [w for q in wires for w in (range(self.reg_size) if q is None else [q])]
            elif len(wires) != 1:
                raise QasmError("whole-register broadcast only applies to 1q gates", tok.line, tok.col)
            else:
                for w in range(self.reg_size):
                    self._apply_named(tok.text, params, [w], tok, 0)
                return
        self._apply_named(tok.text, params, wires, tok, 0)


def parse_qasm(text: str) -> CircuitDag:
    """Parse the restricted OpenQASM 2 dialect into a circuit DAG."""
    return _Parser(text).parse()


def load_qasm(path) -> CircuitDag:
    """Parse the OpenQASM file at `path`, the one reader of circuit files.  A
    missing file, bytes that are not UTF-8, or a QasmError, raises QasmError
    naming the file, as in ``bad.qasm:4:1: expected ';', found 'cx'``."""
    path = Path(path)
    try:
        return parse_qasm(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise QasmError(f"missing file: {path}") from None
    except UnicodeDecodeError as exc:
        raise QasmError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except QasmError as exc:
        exc.args = (f"{path}:{exc}",)  # the file ahead of line:col; line and col stay set
        raise


def _root_name(n: int) -> str:
    if n == 1:
        return "iswap"
    if n == 2:
        return "siswap"
    return f"iswap_r{n}"


def serialize_qasm(dag: CircuitDag) -> str:
    """Emit the same dialect; root-iswap orders ride on pragma comments.

    Mirrored gates are emitted as their base gate followed by an explicit
    swap, which is the same unitary but two DAG nodes on reparse.
    """
    roots = sorted({g.n for g in dag.gates if g.kind == "root_iswap"})
    uses_ecr = any(g.kind == "ecr" for g in dag.gates)
    uses_iswap = any(g.kind == "iswap" for g in dag.gates)
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    for n in roots:
        lines.append(f"//!root-iswap {_root_name(n)} {n}")
    for n in roots:
        lines.append(f"opaque {_root_name(n)} a,b;")
    if uses_iswap:
        lines.append("opaque iswap a,b;")
    if uses_ecr:
        lines.append("opaque ecr a,b;")
    lines.append(f"qreg q[{dag.num_qubits}];")
    for g in dag.gates:
        if g.kind == "unitary":
            raise QasmError("opaque-unitary gates have no QASM form")
        if g.kind == "barrier":
            args = ",".join(f"q[{w}]" for w in g.wires)
            lines.append(f"barrier {args};")
            continue
        name = _root_name(g.n) if g.kind == "root_iswap" else g.kind
        head = name
        if g.params:
            head += "(" + ",".join(repr(p) for p in g.params) + ")"
        args = ",".join(f"q[{w}]" for w in g.wires)
        if g.mirrored:
            lines.append(f"{head} {args}; // mirror half")
            lines.append(f"swap {args};")
        else:
            lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"
