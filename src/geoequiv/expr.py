"""Scalar expressions over a fixed coordinate tuple.

Small closed language: +, -, *, /, ^ (constant exponent), unary minus, and the
function set sin cos exp log sqrt abs. Expressions are immutable DAGs built
through smart constructors that fold constants, so symbolic derivatives stay
compact. Evaluation is exact float arithmetic; anything leaving the real domain
(log of a nonpositive number, division by zero, fractional power of a negative)
raises EvalDomainError instead of returning nan/inf.

parse() hash-conses through a table that the caller may share between texts
(a manifest shares one across its cells): structurally equal subexpressions
become one node, and a text or parenthesized group that recurs is parsed
once. differentiate() takes a memo per coordinate, and a model keeps one
per coordinate for all its derivative builds (partials takes the list), so
each distinct node is differentiated once per coordinate per model.
Neither changes a value or a printed or emitted source: sharing is
invisible except to identity.

Coordinates are referenced by index into the coords tuple supplied at parse
time; printing uses the stored names. parse() reports syntax and unknown-name
errors, and a number or a folded constant that is not finite, with the
character offset into the source text.

compile_exprs() makes every generated program: a function of one point q
(the Hamiltonian programs read the state (q, p) as one vector) that is
compiled to Python on its second call (or its first lane call) and walks
the expressions on its first: most derivative programs of a cold `analyze`
are called once, and the walk costs a fraction of compile(). Both paths
read one table of operations (_RULES), so they compute the same values and
raise the same errors. The smart constructors fold a function of a
constant with that table's function too, and a power of one with _pow,
which the table's "pow" rule is. A program checks only its results.
"""

import functools
import itertools
import math
import operator
from types import SimpleNamespace

import numpy as np

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log(-1), 1/0, sqrt(-2), ...)."""


class Expr:
    """Base node. Subclasses are Const, Coord, Unary, Binary, Pow."""

    __slots__ = ()

    def __repr__(self):
        return to_string(self, None)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Coord(Expr):
    __slots__ = ("index", "name")

    def __init__(self, index, name=None):
        self.index = index
        self.name = name


class Unary(Expr):
    # op in _FUNCTIONS or "neg"
    __slots__ = ("op", "arg")

    def __init__(self, op, arg):
        self.op = op
        self.arg = arg


class Binary(Expr):
    # op in "+", "-", "*", "/"
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Pow(Expr):
    """base ^ exponent with a float literal exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)


ZERO = Const(0.0)
ONE = Const(1.0)


def _as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError("cannot coerce %r to Expr" % (x,))


# ---------------------------------------------------------------------------
# smart constructors (light, value-preserving folding; they may enlarge the
# domain, e.g. 0 * log(x) -> 0, which is fine for this package's use). The
# binary ones coerce only an operand that is not an Expr, and test once per
# operand whether it is a Const, then branch: two constants fold, else a
# constant operand may be an identity (0.0 and -0.0 alike, as == compares
# them)

def add(a, b):
    a = a if isinstance(a, Expr) else _as_expr(a)
    b = b if isinstance(b, Expr) else _as_expr(b)
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Binary("+", a, b)


def sub(a, b):
    a = a if isinstance(a, Expr) else _as_expr(a)
    b = b if isinstance(b, Expr) else _as_expr(b)
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    return Binary("-", a, b)


def mul(a, b):
    a = a if isinstance(a, Expr) else _as_expr(a)
    b = b if isinstance(b, Expr) else _as_expr(b)
    if type(a) is Const:
        v = a.value
        if type(b) is Const:
            return Const(v * b.value)
        if v == 0.0:
            return ZERO
        if v == 1.0:
            return b
        if v == -1.0:
            return neg(b)
    elif type(b) is Const:
        v = b.value
        if v == 0.0:
            return ZERO
        if v == 1.0:
            return a
        if v == -1.0:
            return neg(a)
    return Binary("*", a, b)


def div(a, b):
    a = a if isinstance(a, Expr) else _as_expr(a)
    b = b if isinstance(b, Expr) else _as_expr(b)
    if type(a) is Const:
        if type(b) is Const and b.value != 0.0:
            return Const(a.value / b.value)
        if a.value == 0.0:
            return ZERO
    elif type(b) is Const and b.value == 1.0:
        return a
    return Binary("/", a, b)


def neg(a):
    a = _as_expr(a)
    if type(a) is Const:
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def pow_(base, exponent):
    base = _as_expr(base)
    exponent = float(exponent)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return ONE
    if type(base) is Const:
        try:
            return Const(_pow(base.value, exponent))
        except EvalDomainError:
            pass
    return Pow(base, exponent)


def func(name, arg):
    if name not in _FUNCTIONS:
        raise ValueError("unknown function %r" % name)
    arg = _as_expr(arg)
    if type(arg) is Const:
        # kept unfolded where the function is undefined or not finite, as
        # a program would raise there
        try:
            v = _RULES[name][1](arg.value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(v):
                return Const(v)
    return Unary(name, arg)


def sin(a):
    return func("sin", a)


def cos(a):
    return func("cos", a)


def exp(a):
    return func("exp", a)


def log(a):
    return func("log", a)


def sqrt(a):
    return func("sqrt", a)


def abs_(a):
    return func("abs", a)


# ---------------------------------------------------------------------------
# parsing

def _tokenize(text):
    """(tokens, closing): the (kind, value, offset) tokens of text ending with
    ("end", None, len(text)), and the token index of each "(" -> that of its
    matching ")". A number is a run of decimal digits (str.isdecimal), which
    float() reads: another digit, such as a superscript, cannot start or
    continue one."""
    tokens, closing, opened = [], {}, []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            value = float(text[i:j])
            if not math.isfinite(value):
                raise ExprSyntaxError("number %s is not finite" % text[i:j], i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            if ch == "(":
                opened.append(len(tokens))
            elif ch == ")" and opened:
                closing[opened.pop()] = len(tokens)
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens, closing


def hashcons(e, table):
    """The node of table structurally equal to e, which becomes it when there
    is none. The key is the node type (which an operator names),
    operator, a constant's or exponent's bits (float.hex, so 0.0 and -0.0
    differ), a coordinate's index and name and the children by identity;
    the children must be table nodes, which the table keeps alive, so their
    ids are not reused while it lives. The module's ZERO and ONE are copied
    in, so two tables share no node."""
    t = type(e)
    if t is Binary:
        key = (e.op, id(e.left), id(e.right))
    elif t is Unary:
        key = (e.op, id(e.arg))
    elif t is Const:
        key = (Const, e.value.hex())
    elif t is Coord:
        key = (Coord, e.index, e.name)
    else:
        key = (Pow, id(e.base), e.exponent.hex())
    node = table.get(key)
    if node is None:
        if e is ZERO or e is ONE:
            e = Const(e.value)
        node = table[key] = e
    return node


class _Parser:
    """Recursive descent over the tokens of text. Nodes are hash-consed
    through table; texts maps the text of each parenthesized group parsed
    through the table to its node, so a group whose text recurs is parsed
    once."""

    def __init__(self, text, coords, table, texts):
        self.text = text
        self.coords = {name: idx for idx, name in enumerate(coords)}
        self.tokens, self.closing = _tokenize(text)
        self.pos = 0
        self.table = table
        self.texts = texts

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError("expected %r" % op, offset)

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % (value,), offset)
        return e

    def folded(self, e, offset):
        """The table node of e, which the operator at offset built; a
        constant that it folded must be finite, as every literal is."""
        if type(e) is Const and not math.isfinite(e.value):
            raise ExprSyntaxError("constant expression is not finite", offset)
        return hashcons(e, self.table)

    def expr(self):
        e = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                e = self.folded(add(e, rhs) if value == "+" else sub(e, rhs), offset)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.unary()
                e = self.folded(mul(e, rhs) if value == "*" else div(e, rhs), offset)
            else:
                return e

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return hashcons(neg(self.unary()), self.table)
        if kind == "op" and value == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        e = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.next()
                e = hashcons(pow_(e, self.exponent()), self.table)
            else:
                return e

    def exponent(self):
        # constant exponent: number, -number, or a parenthesized signed number
        kind, value, offset = self.next()
        if kind == "num":
            return value
        if kind == "op" and value == "-":
            kind2, value2, offset2 = self.next()
            if kind2 != "num":
                raise ExprSyntaxError("exponent must be a numeric literal", offset2)
            return -value2
        if kind == "op" and value == "(":
            sign = 1.0
            kind2, value2, offset2 = self.next()
            if kind2 == "op" and value2 == "-":
                sign = -1.0
                kind2, value2, offset2 = self.next()
            if kind2 != "num":
                raise ExprSyntaxError("exponent must be a numeric literal", offset2)
            self.expect_op(")")
            return sign * value2
        raise ExprSyntaxError("exponent must be a numeric literal", offset)

    def atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return hashcons(Const(value), self.table)
        if kind == "op" and value == "(":
            return self.group(None)
        if kind == "ident":
            if value in _FUNCTIONS:
                kind2, value2, offset2 = self.peek()
                if not (kind2 == "op" and value2 == "("):
                    raise ExprSyntaxError(
                        "function %r must be applied to a parenthesized argument" % value, offset)
                self.next()
                return hashcons(func(value, self.group(value)), self.table)
            if value in self.coords:
                return hashcons(Coord(self.coords[value], value), self.table)
            raise UnknownIdentifierError("unknown identifier %r" % value, offset)
        raise ExprSyntaxError("expected a number, name, or parenthesized expression", offset)

    def group(self, function):
        """The expression between the "(" just read and its ")", which this
        consumes: the node of the group's text in texts, else parsed (as the
        argument of `function`, if given) and put there. Only a group that
        parsed without error is put there, so its ")" is the matching one."""
        start = self.pos - 1
        end = self.closing.get(start)
        if end is not None:
            text = self.text[self.tokens[start][2]:self.tokens[end][2] + 1]
            e = self.texts.get(text)
            if e is not None:
                self.pos = end + 1
                return e
        e = self.expr()
        kind, value, offset = self.peek()
        if function is not None and kind == "op" and value == ",":
            raise ExprSyntaxError("function %r takes exactly one argument" % function, offset)
        self.expect_op(")")
        if end is not None:
            self.texts[text] = e
        return e


def parse(text, coords, table=None):
    """Parse text into an Expr over the given coordinate name tuple.

    Nodes are hash-consed through table (see hashcons), a fresh one by
    default; texts parsed through one table share their equal subexpressions.
    The table also maps, for these coords (which decide what a text means),
    each text and parenthesized group parsed through it to its node, so a
    text or group that recurs is parsed once.
    """
    for name in coords:
        if name in _FUNCTIONS:
            raise ValueError("coordinate name %r shadows a function" % name)
    seen = set()
    for name in coords:
        if name in seen:
            raise ValueError("duplicate coordinate name %r" % name)
        seen.add(name)
    if table is None:
        table = {}
    texts = table.setdefault(("texts", tuple(coords)), {})
    e = texts.get(text)
    if e is None:
        e = texts[text] = _Parser(text, coords, table, texts).parse()
    return e


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 15, 30, 40


def _prec(e):
    if isinstance(e, (Const, Coord)):
        return _PREC_ATOM if not (isinstance(e, Const) and e.value < 0) else _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    return _PREC_ADD if e.op in "+-" else _PREC_MUL


def _wrap(s, need):
    return "(" + s + ")" if need else s


def to_string(e, coords=None):
    """Render e; reparsing the result over the same coords gives equal values."""

    def name(idx, stored):
        if coords is not None:
            return coords[idx]
        if stored is not None:
            return stored
        return "q%d" % (idx + 1)

    def rec(e):
        if isinstance(e, Const):
            # repr() round-trips doubles exactly
            return repr(e.value)
        if isinstance(e, Coord):
            return name(e.index, e.name)
        if isinstance(e, Pow):
            base = rec(e.base)
            if _prec(e.base) <= _PREC_POW:
                base = "(" + base + ")"
            ex = repr(e.exponent)
            if e.exponent < 0:
                ex = "(" + ex + ")"
            return base + "^" + ex
        if isinstance(e, Unary):
            if e.op == "neg":
                inner = rec(e.arg)
                return "-" + _wrap(inner, _prec(e.arg) < _PREC_NEG)
            return e.op + "(" + rec(e.arg) + ")"
        # Binary
        ls, rs = rec(e.left), rec(e.right)
        if e.op in "+-":
            ls = _wrap(ls, _prec(e.left) < _PREC_ADD)
            rs = _wrap(rs, _prec(e.right) <= _PREC_ADD if e.op == "-" else _prec(e.right) < _PREC_ADD)
            return "%s %s %s" % (ls, e.op, rs)
        ls = _wrap(ls, _prec(e.left) < _PREC_MUL)
        rs = _wrap(rs, _prec(e.right) <= _PREC_MUL if e.op == "/" else _prec(e.right) < _PREC_MUL)
        return "%s%s%s" % (ls, e.op, rs)

    return rec(e)


# ---------------------------------------------------------------------------
# powers

def _pow(base, exponent):
    # a square is the product x * x, as the compiled programs emit it
    try:
        v = base * base if exponent == 2.0 else math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError("power %r^%r out of real domain"
                              % (float(base), float(exponent))) from exc
    if math.isinf(v) or math.isnan(v):
        raise EvalDomainError("power %r^%r not finite" % (float(base), float(exponent)))
    return v


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, coord, memo=None):
    """Exact partial derivative with respect to coordinate index `coord`.

    memo maps the nodes already differentiated in `coord` to their
    derivatives, so each distinct node of a DAG is differentiated once; a
    model passes the memo of the coordinate that it keeps for all its
    derivative builds (see partials). The memo holds the nodes it keys, so
    their ids are not reused while it lives. The derivative does not depend
    on it.
    """
    return _derive(e, coord, {} if memo is None else memo)


def partials(exprs, memos):
    """d/dq_k of every expression of exprs for k < len(memos), k-major: entry
    k * len(exprs) + i is d exprs[i] / dq_k. memos[k] is the differentiate
    memo of coordinate k."""
    exprs = list(exprs)
    out = []
    for k, memo in enumerate(memos):
        out.extend(differentiate(e, k, memo) for e in exprs)
    return out


def _derive(e, coord, memo):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == coord else ZERO
    d = memo.get(e)
    if d is None:
        d = memo[e] = _derivative(e, coord, memo)
    return d


def _derivative(e, coord, memo):
    if isinstance(e, Pow):
        db = _derive(e.base, coord, memo)
        return mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1.0)), db)
    if isinstance(e, Unary):
        da = _derive(e.arg, coord, memo)
        if e.op == "neg":
            return neg(da)
        if e.op == "sin":
            return mul(cos(e.arg), da)
        if e.op == "cos":
            return neg(mul(sin(e.arg), da))
        if e.op == "exp":
            return mul(exp(e.arg), da)
        if e.op == "log":
            return div(da, e.arg)
        if e.op == "sqrt":
            return div(da, mul(Const(2.0), sqrt(e.arg)))
        # abs: f'*f/|f|, undefined (division by zero) at f = 0
        return div(mul(da, e.arg), abs_(e.arg))
    dl = _derive(e.left, coord, memo)
    dr = _derive(e.right, coord, memo)
    if e.op == "+":
        return add(dl, dr)
    if e.op == "-":
        return sub(dl, dr)
    if e.op == "*":
        return add(mul(dl, e.right), mul(e.left, dr))
    # quotient rule
    return div(sub(mul(dl, e.right), mul(e.left, dr)), pow_(e.right, 2.0))


# ---------------------------------------------------------------------------
# substitution

def substitute(e, subs):
    """Replace Coord(i) with subs[i] (an Expr) wherever i is a key of subs."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Coord):
        return subs.get(e.index, e)
    if isinstance(e, Pow):
        return pow_(substitute(e.base, subs), e.exponent)
    if isinstance(e, Unary):
        inner = substitute(e.arg, subs)
        return neg(inner) if e.op == "neg" else func(e.op, inner)
    ctors = {"+": add, "-": sub, "*": mul, "/": div}
    return ctors[e.op](substitute(e.left, subs), substitute(e.right, subs))


def is_zero(e):
    return type(e) is Const and e.value == 0.0


# ---------------------------------------------------------------------------
# compilation to python source (fast repeated evaluation)

# the operation of a node that is neither a Const nor a Coord, keyed as
# _operation keys it: (its source over the operands' locals and literals,
# the function of their values). _emit writes the source and _walk applies
# the function, so a compiled program and the walk compute the same
# operations in the same order
_RULES = {
    "+": ("%s + %s", operator.add),
    "-": ("%s - %s", operator.sub),
    "*": ("%s * %s", operator.mul),
    "/": ("%s / %s", operator.truediv),
    "neg": ("-%s", operator.neg),
    "abs": ("abs(%s)", abs),
    "pow": ("_pow(%s, %s)", _pow),
}
_RULES.update((f, ("_m.%s(%%s)" % f, getattr(math, f))) for f in _FUNCTIONS if f != "abs")


def _operation(e):
    """(rule key, operands) of e, a node that is neither a Const nor a Coord:
    e's value is the rule's function of the operands' values. A square is
    the product x * x (math.pow(x, 2.0) differs from it in the last bit for
    some doubles); another power takes its exponent as a Const operand."""
    t = type(e)
    if t is Binary:
        return e.op, (e.left, e.right)
    if t is Unary:
        return e.op, (e.arg,)
    if e.exponent == 2.0:
        return "*", (e.base, e.base)
    return "pow", (e.base, Const(e.exponent))


def _literal(v):
    """Source of the float v. repr() round-trips finite doubles; it writes an
    infinity or NaN as a bare name, so those are read from math."""
    if math.isfinite(v):
        return repr(v)
    if v != v:
        return "_m.nan"
    return "_m.inf" if v > 0 else "-_m.inf"


def _emit(e, out, cache):
    """The local (or literal) holding e; appends the lines it needs. cache maps
    each emitted node (keeping it alive) and each emitted source to its local:
    equal sources over the same locals compute equal values, so every
    distinct value gets one line. Each line applies one operation to locals
    and literals, so it needs no outer parentheses: without them it compiles
    to the same bytecode, and the parser reads it faster."""
    if type(e) is Const:
        return _literal(e.value)
    var = cache.get(e)
    if var is not None:
        return var
    if type(e) is Coord:
        s = "q[%d]" % e.index
    else:
        key, operands = _operation(e)
        a = _emit(operands[0], out, cache)
        s = _RULES[key][0] % ((a,) if len(operands) == 1
                              else (a, _emit(operands[1], out, cache)))
    var = cache.get(s)
    if var is None:
        var = cache[s] = "t%d" % len(out)
        out.append("    %s = %s" % (var, s))
    cache[e] = var
    return var


def _walk(exprs, q):
    """The values of exprs at q as their compiled program computes them,
    without compiling it: every node is computed once, in _emit's order,
    by the function of its rule. Errors are the operations' own, as in the
    program (see _guarded)."""
    values = {}

    def value(e):
        t = type(e)
        if t is Const:
            return e.value
        v = values.get(e)
        if v is None:
            if t is Coord:
                v = q[e.index]
            else:
                key, operands = _operation(e)
                fn = _RULES[key][1]
                a = value(operands[0])
                v = fn(a) if len(operands) == 1 else fn(a, value(operands[1]))
            values[e] = v
        return v

    return tuple([value(e) for e in exprs])


def _guarded(raw):
    """raw, a function of one point, with the guard of compiled programs:
    domain violations and non-finite results raise EvalDomainError."""
    isfinite = math.isfinite

    def call(q):
        try:
            values = raw(q)
        except EvalDomainError:
            raise
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(str(exc)) from exc
        # a finite sum has finite terms; only a sum that is not finite
        # (a non-finite value, or finite values that overflow) is looked
        # at value by value
        if not isfinite(sum(values)):
            for v in values:
                if not isfinite(v):
                    raise EvalDomainError("compiled expression not finite")
        return values

    return call


def _compile_program(exprs, name):
    """The function q -> tuple of the values of exprs: their lines emitted
    through _emit and compiled, guarded by _guarded.

    Domain violations and non-finite results raise EvalDomainError. The
    function's `lanes` attribute runs the same source over numpy lanes
    (see _lanes).
    """
    lines, cache = [], {}
    results = [_emit(e, lines, cache) for e in exprs]
    src = ["def %s(q):" % name]
    src.extend(lines)
    src.append("    return (%s%s)" % (", ".join(results), "," if len(results) == 1 else ""))
    code = compile("\n".join(src), "<geoequiv-expr>", "exec")
    namespace = {"_m": math, "_pow": _pow}
    exec(code, namespace)
    call = _guarded(namespace[name])
    call.__name__ = name
    call.lanes = _lanes(code, name, call, len(results))
    return call


def _lane_func(fn):
    """The math function fn applied to every value of a lane."""
    def mapped(x):
        values = np.ravel(x).tolist()
        return np.fromiter(map(fn, values), float, len(values))
    return mapped


def _lane_pow(base, exponent):
    """_pow on every value of a lane: math.pow, and an error where not finite.
    Squares never get here: they are emitted as products."""
    values = np.ravel(base).tolist()
    v = np.fromiter(map(math.pow, values, itertools.repeat(exponent)), float, len(values))
    if not np.isfinite(v).all():
        raise EvalDomainError("power not finite")
    return v


# the lanes apply the scalar program's own math functions value by value, so
# every value is the scalar value; numpy's transcendental functions can differ
# from math's by an ulp, and numpy's x ** 1.5 from math.pow(x, 1.5). Squares
# are products on both paths, which round alike
_LANE_NAMESPACE = {
    "_m": SimpleNamespace(inf=math.inf, nan=math.nan,
                          **{f: _lane_func(getattr(math, f)) for f in _FUNCTIONS
                             if f != "abs"}),
    "_pow": _lane_pow,
}


def _lanes(code, name, scalar, count):
    """Run the compiled source `code` over numpy lanes, one lane per row.

    The returned function takes an (N, k) array whose rows are the points
    that the scalar function takes, and returns the results as a (count, N)
    array. Row i equals scalar(a[i]) bit for bit: on float64 lanes +, -, *
    and / round as Python floats do, and abs, negation, the math functions
    and _pow act value by value. The lanes run under np.errstate(raise), so
    every value they compute from finite input stays finite. On any error
    there, on non-finite input or output, the rows are evaluated again by
    `scalar`, which raises its own errors.
    """
    namespace = dict(_LANE_NAMESPACE)
    exec(code, namespace)
    raw = namespace[name]

    def lanes(points):
        points = np.asarray(points, dtype=float)
        out = np.empty((count, len(points)))
        if np.isfinite(points).all():
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    for i, v in enumerate(raw(points.T.copy())):
                        out[i] = v
                if np.isfinite(out).all():
                    return out
            except (ArithmeticError, ValueError, ExprError):
                pass
        for i, row in enumerate(points.tolist()):
            out[:, i] = scalar(row)
        return out

    lanes.__name__ = name + "_lanes"
    return lanes


class _LazyProgram:
    """compile_exprs' function q -> values of exprs. Its first call walks
    the expressions (_walk); its second call, or the first use of `lanes`,
    compiles them, and it calls the compiled function from then on. Either
    way a call returns and raises what the compiled function does."""

    __slots__ = ("exprs", "name", "slot", "walked", "compiled")

    def __init__(self, exprs, name, slot):
        self.exprs = exprs
        self.name = name
        self.slot = slot
        self.walked = False
        self.compiled = None

    def __call__(self, q):
        fn = self.compiled
        if fn is None:
            if not self.walked:
                self.walked = True
                return _guarded(functools.partial(_walk, self.exprs))(q)
            fn = self._compile()
        return fn(q)

    @property
    def lanes(self):
        return (self.compiled or self._compile()).lanes

    def _compile(self):
        fn = self.compiled = _compile_program(self.exprs, self.name)
        self.exprs = None
        if self.slot is not None:
            cache, key = self.slot
            if cache.get(key) is self:
                cache[key] = fn
        return fn


def compile_exprs(exprs, name="_compiled", slot=None):
    """A function q -> tuple of the values of the flat sequence exprs.

    Domain violations and non-finite results raise EvalDomainError. A
    program called once is walked, not compiled (see _LazyProgram). slot,
    when given, is the (dict, key) that the caller stores the function
    under: once it compiles, the compiled function takes its place there,
    so that later lookups call it directly.
    """
    return _LazyProgram(list(exprs), name, slot)
