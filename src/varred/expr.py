"""Expression text <-> algebra objects.

The accepted grammar is deliberately small: integer literals, symbol names,
binary + - * /, unary -, ^ with a nonnegative integer literal exponent, and
parentheses.  Literals have at most MAX_DIGITS digits, exponents are at
most MAX_EXPONENT, and a power or a product is refused before it is
expanded when the `power_size` or `product_size` bound of its operands is
above MAX_POWER_TERMS, so that a short input cannot make a huge value.  The
parser evaluates on the fly through a resolver callback, so the same grammar
serves rational functions in one variable and multivariate Hamiltonian
polynomials.

Rendering produces text the parser maps back to the same object.
"""
from __future__ import annotations

from math import gcd
from typing import Callable, NamedTuple

# Longest integer literal, below the 4300 digits that int() converts by default.
MAX_DIGITS = 1000
# Largest exponent literal; the bundled files use at most 12.
MAX_EXPONENT = 100
# Most terms a power or a product may have once expanded, by the bound that
# power_size or product_size gives (for a rational function: the coefficients
# of its numerator or denominator).  The bundled and benchmark inputs stay
# below 20; (q1 + 2*q2 + 3*p1 + p2 + 1)^20 would have 10626 terms, and so
# would the product of 20 such factors.
MAX_POWER_TERMS = 2000


class ExprError(ValueError):
    """Parse or evaluation failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _check_size(what: str, size: int, pos: int) -> None:
    if size > MAX_POWER_TERMS:
        raise ExprError(f"{what} with up to {size} terms is above the limit of "
                        f"{MAX_POWER_TERMS} terms", pos)


class Token(NamedTuple):
    kind: str  # int | name | op | end
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() accepts; not "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprError(f"integer literal longer than {MAX_DIGITS} digits", i)
            toks.append(Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            toks.append(Token("op", ch, i))
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r}", i)
    toks.append(Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, tokens, resolve_name, make_const):
        self.toks = tokens
        self.k = 0
        self.resolve_name = resolve_name
        self.make_const = make_const

    def peek(self) -> Token:
        return self.toks[self.k]

    def next(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, ch):
        t = self.next()
        if t.kind != "op" or t.text != ch:
            raise ExprError(f"expected {ch!r}, found {t.text or 'end of input'!r}", t.pos)

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprError(f"trailing input {t.text!r}", t.pos)
        return v

    def expr(self):
        v = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            rhs = self.term()
            v = v + rhs if op.text == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.factor()
            _check_size("product", v.product_size(rhs), op.pos)
            if op.text == "*":
                v = v * rhs
            else:
                try:
                    v = v / rhs
                except ZeroDivisionError:
                    raise ExprError("division by zero", op.pos) from None
                except ValueError as exc:
                    raise ExprError(str(exc), op.pos) from None
        return v

    def factor(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return -self.factor()
        v = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            e = self.next()
            if e.kind != "int":
                raise ExprError("exponent must be a nonnegative integer literal", e.pos)
            k = int(e.text)
            if k > MAX_EXPONENT:
                raise ExprError(f"exponent {k} is above the limit of {MAX_EXPONENT}", e.pos)
            _check_size("power", v.power_size(k), e.pos)
            v = v ** k
        return v

    def atom(self):
        t = self.next()
        if t.kind == "int":
            return self.make_const(int(t.text))
        if t.kind == "name":
            v = self.resolve_name(t.text)
            if v is None:
                raise ExprError(f"unknown symbol {t.text!r}", t.pos)
            return v
        if t.kind == "op" and t.text == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise ExprError(f"unexpected {t.text or 'end of input'!r}", t.pos)


def parse_expression(text: str, resolve_name: Callable, make_const: Callable):
    """Parse text, mapping names and integer literals through the callbacks."""
    return _Parser(tokenize(text), resolve_name, make_const).parse()


# ---- rendering -----------------------------------------------------------


def poly_to_text(p, var: str) -> str:
    """Canonical text for a Poly, terms in descending degree.

    Reads the int numerators over the common denominator and reduces each
    coefficient by one gcd; c/1 prints as c.
    """
    nums, den = p._num, p._den
    if not nums:
        return "0"
    parts = []
    for k in range(len(nums) - 1, -1, -1):
        v = nums[k]
        if not v:
            continue
        a = -v if v < 0 else v
        g = gcd(a, den)
        n, d = a // g, den // g
        coeff = str(n) if d == 1 else f"{n}/{d}"
        if k == 0:
            body = coeff
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if a == den else f"{coeff}*{xs}"
        if not parts:
            parts.append(f"-{body}" if v < 0 else body)
        else:
            parts.append(f" - {body}" if v < 0 else f" + {body}")
    return "".join(parts)


def _is_bare_atom(text: str) -> bool:
    """True if the rendered polynomial is safe unparenthesized around / or *."""
    return all(ch not in "+-*/" for ch in text[1:]) and not text.startswith("-")
