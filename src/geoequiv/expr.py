"""Scalar expression trees over a fixed coordinate tuple.

Small closed language: +, -, *, /, ^ (constant exponent), unary minus, and the
function set sin cos exp log sqrt abs. Expressions are immutable trees built
through smart constructors that fold constants, so symbolic derivatives stay
compact. Evaluation is exact float arithmetic; anything leaving the real domain
(log of a nonpositive number, division by zero, fractional power of a negative)
raises EvalDomainError instead of returning nan/inf.

Coordinates are referenced by index into the coords tuple supplied at parse
time; printing uses the stored names. parse() reports syntax and unknown-name
errors with the character offset into the source text.
"""

import math

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

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

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


def _is_const(e, value=None):
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# ---------------------------------------------------------------------------
# smart constructors (light, value-preserving folding; they may enlarge the
# domain, e.g. 0 * log(x) -> 0, which is fine for this package's use)

def add(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Binary("*", a, b)


def div(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return ZERO
    return Binary("/", a, b)


def neg(a):
    a = _as_expr(a)
    if _is_const(a):
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
    if _is_const(base):
        try:
            return Const(_pow(base.value, exponent))
        except EvalDomainError:
            pass
    return Pow(base, exponent)


def func(name, arg):
    if name not in _FUNCTIONS:
        raise ValueError("unknown function %r" % name)
    arg = _as_expr(arg)
    if _is_const(arg):
        try:
            return Const(_apply_func(name, arg.value))
        except EvalDomainError:
            pass
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
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", float(text[i:j]), i))
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
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, coords):
        self.text = text
        self.coords = {name: idx for idx, name in enumerate(coords)}
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return neg(self.unary())
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
                e = pow_(e, self.exponent())
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
            return Const(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if value in _FUNCTIONS:
                kind2, value2, offset2 = self.peek()
                if not (kind2 == "op" and value2 == "("):
                    raise ExprSyntaxError(
                        "function %r must be applied to a parenthesized argument" % value, offset)
                self.next()
                arg = self.expr()
                kind3, value3, offset3 = self.peek()
                if kind3 == "op" and value3 == ",":
                    raise ExprSyntaxError("function %r takes exactly one argument" % value, offset3)
                self.expect_op(")")
                return func(value, arg)
            if value in self.coords:
                return Coord(self.coords[value], value)
            raise UnknownIdentifierError("unknown identifier %r" % value, offset)
        raise ExprSyntaxError("expected a number, name, or parenthesized expression", offset)


def parse(text, coords):
    """Parse text into an Expr over the given coordinate name tuple."""
    for name in coords:
        if name in _FUNCTIONS:
            raise ValueError("coordinate name %r shadows a function" % name)
    seen = set()
    for name in coords:
        if name in seen:
            raise ValueError("duplicate coordinate name %r" % name)
        seen.add(name)
    return _Parser(text, coords).parse()


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


def _fmt_float(v):
    # repr() round-trips doubles exactly
    return repr(v)


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
            return _fmt_float(e.value)
        if isinstance(e, Coord):
            return name(e.index, e.name)
        if isinstance(e, Pow):
            base = rec(e.base)
            if _prec(e.base) <= _PREC_POW:
                base = "(" + base + ")"
            ex = _fmt_float(e.exponent)
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
# evaluation

def _pow(base, exponent):
    try:
        v = math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError("power %s^%s out of real domain"
                              % (_fmt_float(float(base)), _fmt_float(float(exponent)))) from exc
    if math.isinf(v) or math.isnan(v):
        raise EvalDomainError("power %s^%s not finite"
                              % (_fmt_float(float(base)), _fmt_float(float(exponent))))
    return v


def _apply_func(name, x):
    try:
        if name == "sin":
            return math.sin(x)
        if name == "cos":
            return math.cos(x)
        if name == "exp":
            v = math.exp(x)
        elif name == "log":
            v = math.log(x)
        elif name == "sqrt":
            v = math.sqrt(x)
        else:
            v = abs(x)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError("%s(%s) out of real domain" % (name, _fmt_float(float(x)))) from exc
    if math.isinf(v) or math.isnan(v):
        raise EvalDomainError("%s(%s) not finite" % (name, _fmt_float(float(x))))
    return v


def evaluate(e, q):
    """Evaluate e at the coordinate tuple q. Raises EvalDomainError off-domain."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        return float(q[e.index])
    if isinstance(e, Pow):
        return _pow(evaluate(e.base, q), e.exponent)
    if isinstance(e, Unary):
        if e.op == "neg":
            return -evaluate(e.arg, q)
        return _apply_func(e.op, evaluate(e.arg, q))
    a = evaluate(e.left, q)
    b = evaluate(e.right, q)
    if e.op == "+":
        v = a + b
    elif e.op == "-":
        v = a - b
    elif e.op == "*":
        v = a * b
    else:
        if b == 0.0:
            raise EvalDomainError("division by zero")
        v = a / b
    if math.isinf(v) or math.isnan(v):
        raise EvalDomainError("operation %r not finite" % e.op)
    return v


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, coord):
    """Exact partial derivative with respect to coordinate index `coord`."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == coord else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, coord)
        return mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1.0)), db)
    if isinstance(e, Unary):
        da = differentiate(e.arg, coord)
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
    dl = differentiate(e.left, coord)
    dr = differentiate(e.right, coord)
    if e.op == "+":
        return add(dl, dr)
    if e.op == "-":
        return sub(dl, dr)
    if e.op == "*":
        return add(mul(dl, e.right), mul(e.left, dr))
    # quotient rule
    return div(sub(mul(dl, e.right), mul(e.left, dr)), pow_(e.right, 2.0))


def gradient(e, n):
    return tuple(differentiate(e, k) for k in range(n))


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


def rename_coords(e, index_map):
    """Reindex coordinates: Coord(i) -> Coord(index_map[i]) keeping names out."""
    return substitute(e, {i: Coord(j) for i, j in index_map.items()})


def is_zero(e):
    return _is_const(e, 0.0)


# ---------------------------------------------------------------------------
# compilation to python source (fast repeated evaluation)

def _emit(e, out, cache):
    if isinstance(e, Const):
        return _fmt_float(e.value)
    key = id(e)
    if key in cache:
        return cache[key]
    if isinstance(e, Coord):
        s = "q[%d]" % e.index
    elif isinstance(e, Pow):
        s = "_pow(%s, %s)" % (_emit(e.base, out, cache), _fmt_float(e.exponent))
    elif isinstance(e, Unary):
        inner = _emit(e.arg, out, cache)
        if e.op == "neg":
            s = "(-%s)" % inner
        elif e.op == "abs":
            s = "abs(%s)" % inner
        else:
            s = "_m.%s(%s)" % (e.op, inner)
    else:
        a = _emit(e.left, out, cache)
        b = _emit(e.right, out, cache)
        s = "(%s %s %s)" % (a, "/" if e.op == "/" else e.op, b)
    var = "t%d" % len(out)
    out.append("    %s = %s" % (var, s))
    cache[key] = var
    return var


class Program:
    """Straight-line Python source built from Expr values and arithmetic lines.

    value(e) emits e through _emit and returns the local that holds it (a
    literal for a constant). assign() adds a line of plain arithmetic over
    such locals; its names must not have the form t<digits> that _emit uses.
    compile() returns the function params -> results. _emit caches by id(),
    so the program keeps every Expr it emitted alive until it is compiled: a
    collected node's id can be reused by a new node, which would then read a
    stale local.
    """

    def __init__(self, params=("q",)):
        self.params = tuple(params)
        self.lines = []
        self._cache = {}
        self._alive = []

    def value(self, e):
        self._alive.append(e)
        return _emit(e, self.lines, self._cache)

    def assign(self, name, source):
        self.lines.append("    %s = %s" % (name, source))
        return name

    def compile(self, results, name="_compiled"):
        """The function params -> tuple of results, guarded like evaluate().

        Domain violations and non-finite results raise EvalDomainError.
        """
        src = ["def %s(%s):" % (name, ", ".join(self.params))]
        src.extend(self.lines)
        src.append("    return (%s%s)" % (", ".join(results), "," if len(results) == 1 else ""))
        namespace = {"_m": math, "_pow": _pow}
        exec(compile("\n".join(src), "<geoequiv-expr>", "exec"), namespace)
        raw = namespace[name]
        isfinite = math.isfinite

        def call(*args):
            try:
                values = raw(*args)
            except EvalDomainError:
                raise
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalDomainError(str(exc)) from exc
            for v in values:
                if not isfinite(v):
                    raise EvalDomainError("compiled expression not finite")
            return values

        call.__name__ = name
        return call


def compile_exprs(exprs, name="_compiled"):
    """Compile a flat sequence of Expr into one function q -> tuple of floats.

    Domain violations raise EvalDomainError, matching evaluate().
    """
    prog = Program()
    return prog.compile([prog.value(e) for e in exprs], name=name)
