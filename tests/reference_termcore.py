"""Reference parser: the per-token lexer and the recursive descent that
shares no node.

`_lex` matches one token at a time with a Python loop around a regular
expression, and `_Parser` builds a fresh node for every subterm it reads,
however often its text repeats.  The package's lexer splits the text in
a few C-level passes and its parser reads each repeated parenthesised
span once; tests compare the two on every input they can reach: equal
terms with equal prints, or the same `ParseError` message and position.
The grammar (symbol classes, wrapper keywords, infix tokens, reserved
names and messages) is read from the package's `_Level`s, so the two
parsers differ only in how they lex and whether they share.
"""

import re

from bordcalc import termcore as tc
from bordcalc.termcore import (SYMBOLS, UNIT, ObjGen, ObjTensor, ParseError,
                               VComp, _assemble, _MORPHISM, _RESERVED,
                               _TWO_CELL)

_TOKEN_RE = re.compile(r"""
    (?P<TENSOR>\(\*\)|⊗)
  | (?P<LPAR>\()
  | (?P<RPAR>\))
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<COMMA>,)
  | (?P<SEMI>;)
  | (?P<DOT>\.)
  | (?P<HASH>\#)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_'+-]*|\d+)
  | (?P<WS>\s+)
""", re.VERBOSE)


def _lex(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %s, got %r" % (kind, tok[1]), tok[2])
        return tok

    def at_end(self):
        return self.peek()[0] == "EOF"

    def object_word(self):
        kind, text, pos = self.peek()
        if kind == "NAME":
            self.next()
            if text == "1":
                return UNIT
            return ObjGen(text)
        if kind == "LPAR":
            self.next()
            left = self.object_word()
            self.expect("TENSOR")
            right = self.object_word()
            self.expect("RPAR")
            return ObjTensor(left, right)
        raise ParseError("expected object word, got %r" % text, pos)

    def _symbol(self, cls):
        group = cls.GROUP
        self.expect("LBRACK")
        args = []
        for i, (_, kind) in enumerate(cls.ARGS):
            if i:
                self.expect("COMMA")
            if group > 1 and i % group == 0:
                self.expect("LPAR")
            args.append(self.object_word() if kind == "object"
                        else self.term(_MORPHISM))
            if group > 1 and i % group == group - 1:
                self.expect("RPAR")
        self.expect("RBRACK")
        return cls(*args)

    def term(self, level):
        kind, text, pos = self.next()
        if kind == "NAME":
            if text == level.keyword:
                self.expect("LPAR")
                inner = self.term(level)
                self.expect("RPAR")
                return level.wrap(inner)
            cls = SYMBOLS.get(text)
            if cls is None and text not in _RESERVED:
                return level.generator(text)
            if cls in level.classes:
                return self._symbol(cls)
            raise ParseError("reserved name %r in %s position"
                             % (text, level.name), pos)
        if kind == "LPAR":
            children = [self.term(level)]
            kind, text, pos = self.next()
            cls = level.infix.get(kind)
            if cls is None:
                if kind == "RPAR" and level.chain:
                    return VComp(tuple(children))
                raise ParseError("expected %s, got %r"
                                 % (level.expected, text), pos)
            children.append(self.term(level))
            while cls is VComp and self.peek()[0] == kind:
                self.next()
                children.append(self.term(level))
            self.expect("RPAR")
            return _assemble(cls, children)
        raise ParseError("expected %s term, got %r" % (level.name, text), pos)


def _parse(text, read):
    p = _Parser(text)
    t = read(p)
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return t


def parse_object_word(text):
    return _parse(text, _Parser.object_word)


def parse_morphism(text):
    return _parse(text, lambda p: p.term(_MORPHISM))


def parse_two_cell(text):
    return _parse(text, lambda p: p.term(_TWO_CELL))


#: the package's parsers, paired with the reference's
PAIRS = ((tc.parse_object_word, parse_object_word),
         (tc.parse_morphism, parse_morphism),
         (tc.parse_two_cell, parse_two_cell))
