"""OpenQASM 2 front end for the restricted routing dialect.

Supported: a single qreg, the named 1q/2q gates, ``gate`` macros that expand
to them, barriers, and opaque declarations.  Measurements are stripped with a
warning (routing acts on the unitary part); cregs are only checked as
measurement targets.  Root-iswap
gates round-trip through ``//!root-iswap <name> <n>`` pragma comments.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from math import pi

from .ir import (
    CircuitDag,
    Gate,
    ONE_QUBIT_KINDS,
    PARAM_COUNTS,
)

MAX_MACRO_DEPTH = 16

_BUILTIN_1Q = {k: k for k in ONE_QUBIT_KINDS}
_BUILTIN_2Q = {"cx": "cx", "cz": "cz", "swap": "swap", "iswap": "iswap", "ecr": "ecr"}
# Aliases lowered onto the u gate.
_U_ALIASES = {"u3": 3, "u2": 2, "u1": 1, "p": 1}

_FUNCS = {
    "sin": __import__("math").sin,
    "cos": __import__("math").cos,
    "tan": __import__("math").tan,
    "exp": __import__("math").exp,
    "ln": __import__("math").log,
    "sqrt": __import__("math").sqrt,
}


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


@dataclass
class _MacroDef:
    name: str
    params: list[str]
    args: list[str]
    body: list  # list of (name, param_exprs, arg_names, token) application stubs
    line: int


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.root_names = _tokenize(text)
        self.i = 0
        self.reg_name: str | None = None
        self.reg_size = 0
        self.cregs: dict[str, int] = {}
        self.macros: dict[str, _MacroDef] = {}
        self.ops: list[Gate] = []
        self._next_id = 0
        self._measured = False

    # token plumbing -------------------------------------------------
    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("sym", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col)
        self.i += 1
        return tok

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

    # expressions ----------------------------------------------------
    def _expr(self, env: dict[str, float]) -> float:
        val = self._term(env)
        while (tok := self._peek()) and tok.text in "+-":
            self._next()
            rhs = self._term(env)
            val = val + rhs if tok.text == "+" else val - rhs
        return val

    def _term(self, env) -> float:
        val = self._factor(env)
        while (tok := self._peek()) and tok.text in "*/":
            self._next()
            rhs = self._factor(env)
            if tok.text == "*":
                val = val * rhs
            else:
                if rhs == 0:
                    raise QasmError("division by zero in angle", tok.line, tok.col)
                val = val / rhs
        return val

    def _factor(self, env) -> float:
        tok = self._peek()
        if tok and tok.text in "+-":
            self._next()
            val = self._factor(env)
            return val if tok.text == "+" else -val
        val = self._atom(env)
        if (tok := self._peek()) and tok.text == "^":
            self._next()
            val = val ** self._factor(env)
        return val

    def _atom(self, env) -> float:
        tok = self._next()
        if tok.kind == "num":
            return float(tok.text)
        if tok.kind == "id":
            if tok.text == "pi":
                return pi
            if tok.text in _FUNCS:
                self._expect("(")
                val = self._expr(env)
                self._expect(")")
                return _FUNCS[tok.text](val)
            if tok.text in env:
                return env[tok.text]
            raise QasmError(f"unknown symbol {tok.text!r} in expression", tok.line, tok.col)
        if tok.text == "(":
            val = self._expr(env)
            self._expect(")")
            return val
        raise QasmError(f"bad expression token {tok.text!r}", tok.line, tok.col)

    # arguments ------------------------------------------------------
    def _register_arg(self, sizes: dict, what: str) -> tuple[int, int | None]:
        """(register size, index) of a reference into one of `sizes`; the
        index is None for a whole-register reference."""
        tok = self._expect_id()
        if tok.text not in sizes:
            raise QasmError(f"unknown register {tok.text!r}", tok.line, tok.col)
        size = sizes[tok.text]
        if self._peek() and self._peek().text == "[":
            self._next()
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

    # gate emission --------------------------------------------------
    def _emit(self, kind: str, wires: tuple[int, ...], params=(), n=1, tok: _Token | None = None):
        try:
            self.ops.append(Gate(id=self._next_id, kind=kind, wires=wires, params=tuple(params), n=n))
        except Exception as exc:
            line, col = (tok.line, tok.col) if tok else (0, 0)
            raise QasmError(str(exc), line, col) from exc
        self._next_id += 1

    def _emit_barrier(self, wires: list[int], tok: _Token):
        if len(set(wires)) != len(wires):
            raise QasmError("barrier wires must be distinct", tok.line, tok.col)
        k = len(wires)
        if k == 0:
            return
        if k <= 2:
            self._emit("barrier", tuple(wires), tok=tok)
            return
        # Lower to a down-then-up chain of 2-wire barriers; the chain is
        # totally ordered, so every pre-gate precedes every post-gate.
        for a, b in zip(wires, wires[1:]):
            self._emit("barrier", (a, b), tok=tok)
        for a, b in reversed(list(zip(wires, wires[1:]))[:-1]):
            self._emit("barrier", (a, b), tok=tok)

    def _apply_named(self, name: str, params: list[float], wires: list[int], tok: _Token, depth: int):
        if depth > MAX_MACRO_DEPTH:
            raise QasmError(f"macro recursion deeper than {MAX_MACRO_DEPTH}", tok.line, tok.col)
        if name in self.macros:
            macro = self.macros[name]
            if len(params) != len(macro.params) or len(wires) != len(macro.args):
                raise QasmError(f"bad arity for macro {name!r}", tok.line, tok.col)
            wire_env = dict(zip(macro.args, wires))
            param_env = dict(zip(macro.params, params))
            for sub_name, sub_param_toks, sub_args, sub_tok in macro.body:
                sub_params = [self._eval_saved(toks, param_env) for toks in sub_param_toks]
                sub_wires = [wire_env[a] for a in sub_args]
                self._apply_named(sub_name, sub_params, sub_wires, sub_tok, depth + 1)
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
        if name in _BUILTIN_1Q:
            want = PARAM_COUNTS.get(name, 0)
            if len(params) != want:
                raise QasmError(f"{name} expects {want} parameter(s)", tok.line, tok.col)
            if len(wires) != 1:
                raise QasmError(f"{name} expects 1 qubit", tok.line, tok.col)
            self._emit(name, (wires[0],), params, tok=tok)
            return
        if name in _BUILTIN_2Q or name in self.root_names:
            if params:
                raise QasmError(f"{name} takes no parameters", tok.line, tok.col)
            if len(wires) != 2:
                raise QasmError(f"{name} expects 2 qubits", tok.line, tok.col)
            if name in self.root_names:
                n = self.root_names[name]
                if n == 1:
                    self._emit("iswap", tuple(wires), tok=tok)
                else:
                    self._emit("root_iswap", tuple(wires), n=n, tok=tok)
            else:
                self._emit(name, tuple(wires), tok=tok)
            return
        if len(wires) >= 3:
            raise QasmError(f"{name}: gates on 3+ qubits are unsupported", tok.line, tok.col)
        raise QasmError(f"unsupported gate {name!r}", tok.line, tok.col)

    def _eval_saved(self, toks: list[_Token], env: dict[str, float]) -> float:
        saved_tokens, saved_i = self.tokens, self.i
        self.tokens, self.i = toks, 0
        try:
            val = self._expr(env)
            if self.i != len(toks):
                t = toks[self.i]
                raise QasmError(f"trailing tokens in expression near {t.text!r}", t.line, t.col)
            return val
        finally:
            self.tokens, self.i = saved_tokens, saved_i

    def _capture_expr_tokens(self) -> list[_Token]:
        """Grab the token span of one expression (up to , or ) at depth 0)."""
        out, depth = [], 0
        while True:
            tok = self._peek()
            if tok is None:
                raise QasmError("unterminated expression", 0, 0)
            if depth == 0 and tok.text in (",", ")"):
                return out
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
            out.append(self._next())

    # statements -----------------------------------------------------
    def parse(self) -> CircuitDag:
        tok = self._peek()
        if tok and tok.kind == "id" and tok.text == "OPENQASM":
            self._next()
            ver = self._next()
            if not ver.text.startswith("2"):
                raise QasmError(f"unsupported OpenQASM version {ver.text}", ver.line, ver.col)
            self._expect(";")
        while self._peek() is not None:
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
        elif name == "qreg":
            self._parse_qreg()
        elif name == "creg":
            self._parse_creg()
        elif name == "gate":
            self._parse_gate_def()
        elif name == "opaque":
            self._parse_opaque()
        elif name == "barrier":
            self._parse_barrier(tok)
        elif name == "measure":
            self._parse_measure(tok)
        elif name in ("reset", "if"):
            raise QasmError(f"{name} statements are unsupported", tok.line, tok.col)
        else:
            self._parse_application(tok)

    def _declaration(self) -> tuple[_Token, int]:
        """`name[size];` after qreg or creg; a register holds at least one bit."""
        name_tok = self._expect_id()
        self._expect("[")
        size_tok = self._next()
        self._expect("]")
        self._expect(";")
        return name_tok, _integer(size_tok, "register size", least=1)

    def _parse_qreg(self):
        name_tok, size = self._declaration()
        if self.reg_name is not None:
            raise QasmError("quantum register redeclared", name_tok.line, name_tok.col)
        self.reg_name, self.reg_size = name_tok.text, size

    def _parse_creg(self):
        name_tok, size = self._declaration()
        if name_tok.text in self.cregs:
            raise QasmError("classical register redeclared", name_tok.line, name_tok.col)
        self.cregs[name_tok.text] = size

    def _parse_gate_def(self):
        name_tok = self._expect_id()
        params: list[str] = []
        if self._peek() and self._peek().text == "(":
            self._next()
            while self._peek() and self._peek().text != ")":
                params.append(self._expect_id().text)
                if self._peek().text == ",":
                    self._next()
            self._expect(")")
        args = [self._expect_id().text]
        while self._peek() and self._peek().text == ",":
            self._next()
            args.append(self._expect_id().text)
        self._expect("{")
        body = []
        while self._peek() and self._peek().text != "}":
            stmt_tok = self._expect_id()
            if stmt_tok.text == "barrier":  # barriers inside macros: skip wires
                while self._next().text != ";":
                    pass
                continue
            sub_params: list[list[_Token]] = []
            if self._peek() and self._peek().text == "(":
                self._next()
                while self._peek() and self._peek().text != ")":
                    sub_params.append(self._capture_expr_tokens())
                    if self._peek().text == ",":
                        self._next()
                self._expect(")")
            sub_args = [self._expect_id().text]
            while self._peek() and self._peek().text == ",":
                self._next()
                sub_args.append(self._expect_id().text)
            self._expect(";")
            body.append((stmt_tok.text, sub_params, sub_args, stmt_tok))
        self._expect("}")
        self.macros[name_tok.text] = _MacroDef(name_tok.text, params, args, body, name_tok.line)

    def _parse_opaque(self):
        self._expect_id()
        while self._peek() and self._peek().text != ";":
            self._next()
        self._expect(";")

    def _parse_barrier(self, tok: _Token):
        wires: list[int] = []
        while True:
            q = self._qubit_arg()
            wires.extend(range(self.reg_size) if q is None else [q])
            if self._peek() and self._peek().text == ",":
                self._next()
            else:
                break
        self._expect(";")
        self._emit_barrier(wires, tok)

    def _parse_measure(self, tok: _Token):
        qubit = self._qubit_arg()
        self._expect("->")
        size, bit = self._register_arg(self.cregs, "bit")
        self._expect(";")
        if (qubit is None) != (bit is None) or (bit is None and size != self.reg_size):
            raise QasmError(
                "measure takes an indexed qubit and bit, or whole registers of one size",
                tok.line,
                tok.col,
            )
        self._measured = True

    def _parse_application(self, tok: _Token):
        params: list[float] = []
        if self._peek() and self._peek().text == "(":
            self._next()
            while self._peek() and self._peek().text != ")":
                params.append(self._expr({}))
                if self._peek().text == ",":
                    self._next()
            self._expect(")")
        wires: list[int | None] = [self._qubit_arg()]
        while self._peek() and self._peek().text == ",":
            self._next()
            wires.append(self._qubit_arg())
        self._expect(";")
        if None in wires:
            if len(wires) != 1:
                raise QasmError("whole-register broadcast only applies to 1q gates", tok.line, tok.col)
            for w in range(self.reg_size):
                self._apply_named(tok.text, params, [w], tok, 0)
        else:
            self._apply_named(tok.text, params, wires, tok, 0)


def parse_qasm(text: str) -> CircuitDag:
    """Parse the restricted OpenQASM 2 dialect into a circuit DAG."""
    return _Parser(text).parse()


def _root_name(n: int) -> str:
    if n == 1:
        return "iswap"
    if n == 2:
        return "siswap"
    return f"iswap_r{n}"


def serialize_qasm(dag: CircuitDag, register: str = "q") -> str:
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
    lines.append(f"qreg {register}[{dag.num_qubits}];")
    for g in dag.gates:
        if g.kind == "unitary":
            raise QasmError("opaque-unitary gates have no QASM form")
        if g.kind == "barrier":
            args = ",".join(f"{register}[{w}]" for w in g.wires)
            lines.append(f"barrier {args};")
            continue
        name = _root_name(g.n) if g.kind == "root_iswap" else g.kind
        head = name
        if g.params:
            head += "(" + ",".join(repr(p) for p in g.params) + ")"
        args = ",".join(f"{register}[{w}]" for w in g.wires)
        if g.mirrored:
            lines.append(f"{head} {args}; // mirror half")
            lines.append(f"swap {args};")
        else:
            lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"
