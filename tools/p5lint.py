#!/usr/bin/env python3
"""p5lint — static enforcement of the simulator's engine contracts.

Five rules, driven by the exported compile_commands.json:

  hot_path_no_alloc    nothing transitively reachable from a P5_HOT_PATH
                       root may allocate (operator new, malloc, growing
                       std-container methods).
  probe_purity         everything reachable from a P5_PROBE_PURE root
                       must be const-qualified and free of writes to
                       members or globals.
  determinism          no iteration over unordered containers, no
                       pointer-keyed default sorts, no banned RNG/clock
                       identifiers outside src/common/rng.hh.  Inside
                       the reach of a P5_SERIALIZE_ROOT (checkpoint
                       serialize/restore entry point) the unordered-
                       iteration ban is absolute: P5_ALLOW(determinism)
                       covers lookup-only access, which cannot be told
                       apart from iteration feeding the serialized byte
                       stream, so the exemption is void there.
  config_completeness  every field of a P5_CONFIG_STRUCT must be bound
                       by a bind* call in ConfigTree::bindAll().
  single_exit          no call to exit, _Exit, quick_exit or abort
                       outside panic() in src/common/log.cc: errors are
                       fatal(), which throws p5::Error to its caller,
                       and driverMain alone turns one into an exit code.

hot_path_no_alloc additionally rejects any P5_COLD function reachable
from a hot root: P5_COLD documents a path (checkpoint restore, store
I/O) as legitimately off the per-cycle path, and reaching one from a
P5_HOT_PATH root contradicts that declaration outright, whatever the
callee does.

Annotations come from src/common/annotate.hh (P5_HOT_PATH,
P5_PROBE_PURE, P5_CONFIG_STRUCT, P5_SERIALIZE_ROOT, P5_COLD,
P5_ALLOW(rule)).  P5_ALLOW placed on a declaration exempts the whole
function/member from one rule; placed at the start of a statement it
exempts that statement only.

The frontend is a self-contained C++ lexer/parser tuned to this
codebase's idiom; it needs nothing beyond the Python stdlib, so it runs
anywhere the repo builds.

Findings are keyed "file:function:rule" and diffed against the
committed tools/p5lint_baseline.json.  New findings and stale baseline
entries both fail; --update-baseline rewrites the baseline.

Usage:
  p5lint.py -p build                    # whole-repo mode, baseline diff
  p5lint.py --files a.cc b.hh           # explicit file set, no baseline
  p5lint.py -p build --json out.json    # machine-readable findings
  p5lint.py -p build --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = ("hot_path_no_alloc", "probe_purity", "determinism",
         "config_completeness", "single_exit")

ANNO_HOT = "hot_path"
ANNO_PURE = "probe_pure"
ANNO_CONFIG = "config_struct"
ANNO_SERIALIZE = "serialize_root"
ANNO_COLD = "cold"

# Methods that (re)allocate when invoked on a std container or on an
# unresolved receiver.  Resolved project-class methods are descended
# into instead, so SmallVector::push_back is judged by its own body.
ALLOC_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_front", "push",
    "push_front", "insert", "insert_or_assign", "try_emplace", "resize",
    "reserve", "assign", "append", "shrink_to_fit", "rehash",
}

# Free functions / expressions that always allocate.
FREE_ALLOCATORS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "to_string",
}

# Error paths: allocation on the way to abort() (panic) or to a throw
# (fatal) is fine, since neither returns to the caller's loop.
EXEMPT_CALLS = {"panic", "fatal", "assert", "abort", "exit",
                "static_assert", "__assert_fail"}

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")

BANNED_IDENTS = {"rand", "srand", "random_device", "mt19937",
                 "mt19937_64", "minstd_rand", "system_clock"}

RNG_WHITELIST_SUFFIX = os.path.join("src", "common", "rng.hh")

# Calls that end the process, and the one function allowed to make one.
EXIT_CALLS = {"exit", "_Exit", "quick_exit", "abort"}
EXIT_OWNER_SUFFIX = os.path.join("src", "common", "log.cc")
EXIT_OWNER = "panic"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<raw>R"(?P<rawd>[^()\s\\]*)\(.*?\)(?P=rawd)")
  | (?P<str>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<num>(?:0[xX][0-9a-fA-F']+|\.?[0-9][0-9a-fA-F'.eEpP]*(?:[+-][0-9]+)?)
            [uUlLfFzZ]*)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
             |\+=|-=|\*=|/=|%=|&=|\|=|\^=|.)
    """,
    re.DOTALL | re.VERBOSE,
)

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


@dataclass
class Token:
    kind: str          # 'id', 'num', 'str', 'punct'
    text: str
    line: int

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{self.text}@{self.line}"


def strip_preprocessor(src: str) -> str:
    """Blank out preprocessor directives (keeping newlines for line
    numbers) so the token stream is plain C++."""
    out = []
    in_directive = False
    for line in src.split("\n"):
        stripped = line.lstrip()
        if in_directive or stripped.startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(line)
    return "\n".join(out)


def tokenize(src: str) -> list:
    src = strip_preprocessor(src)
    toks = []
    line = 1
    for m in TOKEN_RE.finditer(src):
        text = m.group(0)
        if m.lastgroup in ("ws", "comment", "rawd"):
            line += text.count("\n")
            continue
        kind = m.lastgroup
        if kind == "raw":
            kind = "str"
        toks.append(Token(kind, text, line))
        line += text.count("\n")
    return toks


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class Member:
    name: str
    type: str
    annos: set
    file: str
    line: int


@dataclass
class Func:
    name: str                  # unqualified
    cls: str                   # owning class name or ""
    const: bool
    annos: set                 # {'hot_path', 'allow:<rule>', ...}
    ret: str                   # return type, best effort
    body: list                 # token slice or None (declaration only)
    file: str
    line: int
    virtual: bool = False
    params: list = field(default_factory=list)  # parameter-list tokens

    @property
    def qname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def allows(self, rule: str) -> bool:
        return f"allow:{rule}" in self.annos


@dataclass
class Cls:
    name: str
    bases: list
    members: dict = field(default_factory=dict)   # name -> Member
    methods: dict = field(default_factory=dict)   # name -> [Func]
    annos: set = field(default_factory=set)
    file: str = ""
    line: int = 0


class Model:
    def __init__(self):
        self.classes = {}        # name -> Cls
        self.free_funcs = {}     # name -> [Func]
        self.derived = {}        # base name -> [derived names]

    def cls(self, name: str) -> Cls:
        if name not in self.classes:
            self.classes[name] = Cls(name=name, bases=[])
        return self.classes[name]

    def add_func(self, fn: Func):
        if fn.cls:
            c = self.cls(fn.cls)
            lst = c.methods.setdefault(fn.name, [])
        else:
            lst = self.free_funcs.setdefault(fn.name, [])
        # An out-of-line definition completes an in-class declaration:
        # merge annotations / constness / body instead of duplicating.
        for prev in lst:
            if (prev.body is None) != (fn.body is None) and \
                    prev.const == fn.const:
                if prev.body is None:
                    prev.body, prev.file, prev.line = fn.body, fn.file, fn.line
                    prev.params = fn.params
                prev.annos |= fn.annos
                fn.annos = prev.annos
                if not prev.ret.strip():
                    prev.ret = fn.ret
                return
        lst.append(fn)

    def lookup_methods(self, cls_name: str, meth: str,
                      _seen=None) -> list:
        """Methods named `meth` on cls_name or any base class."""
        if _seen is None:
            _seen = set()
        if cls_name in _seen or cls_name not in self.classes:
            return []
        _seen.add(cls_name)
        c = self.classes[cls_name]
        if meth in c.methods:
            return c.methods[meth]
        out = []
        for b in c.bases:
            out.extend(self.lookup_methods(b, meth, _seen))
        return out

    def overrides(self, cls_name: str, meth: str) -> list:
        """Overrides of a (possibly virtual) method in derived classes."""
        out = []
        for d in self.derived.get(cls_name, []):
            dc = self.classes.get(d)
            if dc and meth in dc.methods:
                out.extend(dc.methods[meth])
            out.extend(self.overrides(d, meth))
        return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

ANNO_TOKENS = {
    "P5_HOT_PATH": ANNO_HOT,
    "P5_PROBE_PURE": ANNO_PURE,
    "P5_CONFIG_STRUCT": ANNO_CONFIG,
    "P5_SERIALIZE_ROOT": ANNO_SERIALIZE,
    "P5_COLD": ANNO_COLD,
}

DECL_QUALIFIERS = {"virtual", "static", "inline", "constexpr", "explicit",
                   "friend", "mutable", "extern", "typename", "volatile"}


def match_brace(toks, i, open_t="{", close_t="}"):
    """toks[i] == open_t; return index one past the matching close."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def skip_template_args(toks, i):
    """toks[i] == '<': skip a balanced template argument list."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{"):
            return i  # not a template list after all
        i += 1
    return len(toks)


def consume_annotations(toks, i, annos: set):
    """Consume any run of P5_* annotation macros at toks[i]."""
    while i < len(toks) and toks[i].kind == "id":
        t = toks[i].text
        if t in ANNO_TOKENS:
            annos.add(ANNO_TOKENS[t])
            i += 1
        elif t == "P5_ALLOW" and i + 3 < len(toks) and toks[i + 1].text == "(":
            annos.add(f"allow:{toks[i + 2].text}")
            i += 4  # P5_ALLOW ( rule )
        else:
            break
    return i


class FileParser:
    def __init__(self, model: Model, path: str, rel: str):
        self.model = model
        self.path = path
        self.rel = rel

    def parse(self):
        with open(self.path, "r", encoding="utf-8", errors="replace") as f:
            toks = tokenize(f.read())
        self.scan_scope(toks, 0, len(toks), cls=None)

    # -- scope scanning ----------------------------------------------------

    def scan_scope(self, toks, i, end, cls):
        pending = set()
        while i < end:
            t = toks[i]
            if t.kind == "id" and (t.text in ANNO_TOKENS or
                                   t.text == "P5_ALLOW"):
                i = consume_annotations(toks, i, pending)
                continue
            if t.text in (";", ":"):  # stray semicolons, access specifiers
                pending.clear()
                i += 1
                continue
            if t.kind == "id" and t.text in ("public", "private", "protected"):
                i += 1
                continue
            if t.text == "namespace":
                i += 1
                while i < end and toks[i].text not in ("{", ";"):
                    i += 1
                if i < end and toks[i].text == "{":
                    close = match_brace(toks, i)
                    self.scan_scope(toks, i + 1, close - 1, cls)
                    i = close
                else:
                    i += 1
                pending.clear()
                continue
            if t.text == "template":
                i += 1
                if i < end and toks[i].text == "<":
                    i = skip_template_args(toks, i)
                continue
            if t.text in ("using", "typedef"):
                while i < end and toks[i].text != ";":
                    i += 1
                i += 1
                pending.clear()
                continue
            if t.text == "friend":
                while i < end and toks[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.text == "enum":
                i += 1
                while i < end and toks[i].text not in ("{", ";"):
                    i += 1
                if i < end and toks[i].text == "{":
                    i = match_brace(toks, i)
                while i < end and toks[i].text != ";":
                    i += 1
                i += 1
                pending.clear()
                continue
            if t.text in ("class", "struct", "union"):
                i = self.scan_class(toks, i, end, pending, outer=cls)
                pending.clear()
                continue
            # General declaration: gather to ';' or '{' at depth 0.
            i = self.scan_declaration(toks, i, end, cls, pending)
            pending.clear()
        return i

    def scan_class(self, toks, i, end, pending, outer):
        kw_line = toks[i].line
        i += 1
        annos = set(pending)
        i = consume_annotations(toks, i, annos)
        if i >= end or toks[i].kind != "id":
            return i  # anonymous struct/union: skip keyword, reparse body
        name = toks[i].text
        i += 1
        if i < end and toks[i].text == "<":  # explicit specialization
            i = skip_template_args(toks, i)
        if i < end and toks[i].text == "final":
            i += 1
        bases = []
        if i < end and toks[i].text == ":":
            i += 1
            while i < end and toks[i].text != "{":
                if toks[i].kind == "id" and toks[i].text not in (
                        "public", "private", "protected", "virtual", "std"):
                    base = toks[i].text
                    j = i + 1
                    while j < end and toks[j].text == "::":
                        j += 2
                        base = toks[j - 1].text if toks[j - 1].kind == "id" \
                            else base
                    if j < end and toks[j].text == "<":
                        j = skip_template_args(toks, j)
                    bases.append(base)
                    i = j
                    continue
                i += 1
        if i >= end or toks[i].text != "{":
            while i < end and toks[i].text != ";":
                i += 1
            return i + 1  # forward declaration
        close = match_brace(toks, i)
        c = self.model.cls(name)
        c.bases = bases or c.bases
        c.annos |= annos
        if not c.file:
            c.file, c.line = self.rel, kw_line
        for b in bases:
            self.model.derived.setdefault(b, []).append(name)
        self.scan_scope(toks, i + 1, close - 1, cls=name)
        while close < end and toks[close].text != ";":
            close += 1
        return close + 1

    # -- declaration classification ---------------------------------------

    def scan_declaration(self, toks, i, end, cls, pending):
        start = i
        annos = set(pending)
        depth_p = depth_a = 0
        paren_at = -1          # first top-level '(' — candidate param list
        name_at = -1           # identifier immediately before that '('
        j = i
        while j < end:
            t = toks[j]
            text = t.text
            if text == "(":
                if depth_p == 0 and depth_a == 0 and paren_at < 0:
                    k = j - 1
                    if k >= start and toks[k].kind == "id" and \
                            toks[k].text not in ("alignas", "static_assert",
                                                 "decltype", "sizeof",
                                                 "noexcept"):
                        paren_at, name_at = j, k
                    elif k >= start and toks[k].kind == "punct":
                        # operator= / operator[] / operator== ...
                        kk = k
                        back = 0
                        while kk >= start and toks[kk].kind == "punct" and \
                                back < 2:
                            kk -= 1
                            back += 1
                        if kk >= start and toks[kk].text == "operator":
                            paren_at, name_at = j, k
                depth_p += 1
            elif text == ")":
                depth_p -= 1
            elif text == "<" and depth_p == 0 and j > start and \
                    toks[j - 1].kind == "id":
                depth_a += 1
            elif text in (">", ">>") and depth_a > 0 and depth_p == 0:
                depth_a -= 2 if text == ">>" else 1
                depth_a = max(depth_a, 0)
            elif depth_p == 0 and depth_a == 0:
                if text == ";":
                    j += 1
                    break
                if text == "{":
                    # Function body, brace-init member, or ctor-init list
                    # was already skipped to reach here.
                    break
                if text == "=" and paren_at < 0 and j > start and \
                        toks[j - 1].text == "operator":
                    j += 1  # the '=' names operator=; not an initializer
                    continue
                if text == "=" and paren_at < 0:
                    # Member with default initializer: run to ';'.
                    while j < end and toks[j].text != ";":
                        if toks[j].text == "{":
                            j = match_brace(toks, j) - 1
                        j += 1
                    j += 1
                    break
                if text == ":" and paren_at >= 0:
                    # Constructor initializer list: run to body '{'.
                    d = 0
                    while j < end:
                        if toks[j].text == "(":
                            d += 1
                        elif toks[j].text == ")":
                            d -= 1
                        elif toks[j].text == "{" and d == 0:
                            break
                        j += 1
                    break
                if text == ":":
                    break  # bitfield or stray — bail at statement level
            j += 1

        if paren_at >= 0:
            return self.finish_function(toks, start, j, end, cls, annos,
                                        paren_at, name_at)
        # Member / variable declaration (only recorded at class scope).
        if cls:
            self.record_member(toks, start, j, cls, annos)
        return max(j, start + 1)

    def finish_function(self, toks, start, j, end, cls, annos,
                        paren_at, name_at):
        name = toks[name_at].text
        owner = cls or ""
        # Qualified out-of-line definition:  Type Class::name(...)
        k = name_at - 1
        quals = []
        while k - 1 >= start and toks[k].text == "::" and \
                toks[k - 1].kind == "id":
            quals.append(toks[k - 1].text)
            k -= 2
            if k >= start and toks[k].text in (">", ">>"):
                break
        if quals:
            owner = quals[0]
        head = toks[start:name_at]
        virtual = any(t.text == "virtual" for t in head)
        ret = " ".join(t.text for t in head
                       if t.kind == "id" and t.text not in DECL_QUALIFIERS
                       and t.text not in ANNO_TOKENS or t.text in
                       ("<", ">", "::", "*", "&"))
        if name == "operator" or toks[name_at].kind == "punct":
            kk = name_at
            while kk > start and toks[kk].text != "operator":
                kk -= 1
            name = "operator" + "".join(
                t.text for t in toks[kk + 1:name_at + 1])
        # Trailer between ')' and body/terminator: const / noexcept / = ...
        close_p = paren_at
        d = 0
        while close_p < end:
            if toks[close_p].text == "(":
                d += 1
            elif toks[close_p].text == ")":
                d -= 1
                if d == 0:
                    break
            close_p += 1
        t = close_p + 1
        const = False
        body = None
        function_try = False
        line = toks[name_at].line
        while t < end:
            text = toks[t].text
            if text == "const":
                const = True
            elif text == "try":  # function-try-block
                function_try = True
            elif text == "noexcept":
                if t + 1 < end and toks[t + 1].text == "(":
                    t = match_brace(toks, t + 1, "(", ")") - 1
            elif text in ("override", "final", "&", "&&"):
                pass
            elif text == "->":  # trailing return type
                t += 1
                while t < end and toks[t].text not in ("{", ";"):
                    t += 1
                continue
            elif text == ":":  # ctor-init list
                d = 0
                while t < end:
                    if toks[t].text == "(":
                        d += 1
                    elif toks[t].text == ")":
                        d -= 1
                    elif toks[t].text == "{" and d == 0:
                        break
                    elif toks[t].text == ";" and d == 0:
                        break
                    t += 1
                continue
            elif text == "{":
                close = match_brace(toks, t)
                body = toks[t + 1:close - 1]
                t = close
                # A function-try-block's handlers belong to its body.
                while function_try and t < end and toks[t].text == "catch":
                    t = match_brace(toks, t + 1, "(", ")")
                    close = match_brace(toks, t)
                    body += toks[t + 1:close - 1]
                    t = close
                break
            elif text == ";":
                t += 1
                break
            elif text == "=":  # = default / = delete / = 0
                while t < end and toks[t].text != ";":
                    t += 1
                t += 1
                break
            else:
                break
            t += 1
        fn = Func(name=name, cls=owner, const=const, annos=annos,
                  ret=ret, body=body, file=self.rel, line=line,
                  virtual=virtual, params=toks[paren_at + 1:close_p])
        self.model.add_func(fn)
        return max(t, start + 1)

    def record_member(self, toks, start, j, cls, annos):
        run = toks[start:j]
        # Trim trailing ';' and initializer.
        names = [k for k, t in enumerate(run) if t.kind == "id"]
        if not names:
            return
        # Find terminator position within run.
        term = len(run)
        depth = 0
        for k, t in enumerate(run):
            if t.text in ("<",):
                depth += 1
            elif t.text in (">", ">>"):
                depth = max(0, depth - (2 if t.text == ">>" else 1))
            elif depth == 0 and t.text in (";", "=", "{"):
                term = k
                break
        # Member name: last identifier before terminator, skipping a
        # trailing array extent  [N].
        k = term - 1
        while k >= 0 and run[k].text in ("]",) or \
                (k >= 0 and run[k].kind == "num"):
            if run[k].text == "]":
                while k >= 0 and run[k].text != "[":
                    k -= 1
            k -= 1
        while k >= 0 and run[k].kind != "id":
            k -= 1
        if k < 0:
            return
        name = run[k].text
        if name in DECL_QUALIFIERS or name in ("return", "delete", "new"):
            return
        typ = " ".join(t.text for t in run[:k]
                       if t.text not in ANNO_TOKENS)
        if not typ.strip():
            return
        c = self.model.cls(cls)
        if name not in c.members:
            c.members[name] = Member(name=name, type=typ, annos=set(annos),
                                     file=self.rel, line=run[k].line)
        else:
            c.members[name].annos |= annos


# ---------------------------------------------------------------------------
# Type resolution
# ---------------------------------------------------------------------------

SMART_PTR_RE = re.compile(
    r"(?:std\s*::\s*)?(?:unique_ptr|shared_ptr)\s*<\s*(.*)>\s*$")
CONTAINER_ELEM_RE = re.compile(
    r"(?:std\s*::\s*)?(?:vector|array|deque|span)\s*<\s*([^,>]+)")
PROJECT_CONTAINER_RE = re.compile(
    r"(?:p5\s*::\s*)?(?:SmallVector|RingDeque)\s*<\s*([^,>]+)")


def base_name(type_str: str) -> str:
    """'const p5::SmtCore &' -> 'SmtCore'."""
    s = type_str.replace("const", " ").replace("&", " ").replace("*", " ")
    s = s.split("<")[0]
    parts = [p for p in re.split(r"\s|::", s) if p]
    return parts[-1] if parts else ""


def strip_ref(type_str: str) -> str:
    return type_str.replace("const ", " ").replace("&", " ").strip()


def deref_once(type_str: str) -> str:
    """Strip one level of pointer / smart pointer for '->' access."""
    m = SMART_PTR_RE.search(type_str.strip())
    if m:
        return m.group(1).strip()
    s = type_str.strip()
    if s.endswith("*"):
        return s[:-1].strip()
    return s


def element_type(type_str: str) -> str:
    for rx in (CONTAINER_ELEM_RE, PROJECT_CONTAINER_RE):
        m = rx.search(type_str)
        if m:
            return m.group(1).strip()
    # T name[N] style arrays keep their scalar type in `type_str`.
    return type_str


class BodyScope:
    """Per-function local-variable table plus receiver-type resolution."""

    def __init__(self, model: Model, fn: Func):
        self.model = model
        self.fn = fn
        self.locals = {}
        if fn.body:
            self.collect_params(fn.params)
            self.collect_locals(fn.body)

    # ---- locals ----------------------------------------------------------

    def collect_params(self, params):
        """Seed the locals with the named parameters `Type name [= d]`.
        A member's parameter of type Self is the object itself (the
        checkpoint bodies' `ckpt(Self &self, Io &io)` idiom), so it
        resolves to the owning class."""
        pieces, start, depth = [], 0, 0
        for k, t in enumerate(params):
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == "," and depth == 0:
                pieces.append(params[start:k])
                start = k + 1
        pieces.append(params[start:])
        for p in pieces:
            eq = next((k for k, t in enumerate(p) if t.text == "="), len(p))
            ids = [k for k in range(eq) if p[k].kind == "id"]
            if not ids or not any(p[k].text not in DECL_QUALIFIERS and
                                  p[k].text not in ("const", "class",
                                                    "struct")
                                  for k in ids[:-1]):
                continue  # unnamed parameter
            typ = " ".join(t.text for t in p[:ids[-1]])
            if base_name(typ) == "Self" and self.fn.cls:
                typ = self.fn.cls
            self.locals[p[ids[-1]].text] = typ

    def collect_locals(self, body):
        i = 0
        stmt_start = True
        while i < len(body):
            t = body[i]
            if t.text in (";", "{", "}"):
                stmt_start = True
                i += 1
                continue
            if stmt_start and t.kind == "id" and t.text not in (
                    "return", "if", "while", "for", "switch", "case",
                    "break", "continue", "else", "do", "delete", "new"):
                i = self.try_local_decl(body, i)
                stmt_start = False
                continue
            if t.text == "(" and i > 0 and body[i - 1].text == "for":
                i = self.try_range_for(body, i)
                continue
            if t.text in (";",):
                stmt_start = True
            else:
                stmt_start = t.text in ("{", "}")
            i += 1

    def try_local_decl(self, body, i):
        """Parse `Type [&|*] name = ...` / `auto &name = expr` at body[i]."""
        start = i
        # Gather a type-ish run: ids, ::, <...>, const, &, *.
        j = i
        depth = 0
        last_id = -1
        while j < len(body):
            text = body[j].text
            if text == "<" and j > start and body[j - 1].kind == "id":
                depth += 1
            elif text in (">", ">>") and depth > 0:
                depth = max(0, depth - (2 if text == ">>" else 1))
            elif depth > 0:
                # Anything goes inside template args except a statement
                # boundary (then this was a comparison, not a decl).
                if text in (";", "{", "}"):
                    return i + 1
            elif body[j].kind == "id":
                if text in ("return", "new", "delete"):
                    return i + 1
                last_id = j
            elif text in ("::", "&", "*", "const"):
                pass
            else:
                break
            j += 1
        if depth != 0 or last_id <= start or j >= len(body):
            return i + 1
        if body[j].text not in ("=", "{", "(", ";"):
            return i + 1
        name = body[last_id].text
        typ_toks = body[start:last_id]
        typ = " ".join(t.text for t in typ_toks)
        if not typ.strip() or typ.strip() in ("const",):
            return i + 1
        if "auto" in typ:
            if body[j].text == "=":
                resolved = self.resolve_chain(body, j + 1)
                if resolved:
                    typ = resolved
        self.locals[name] = typ
        return j

    def try_range_for(self, body, i):
        """body[i] == '(' right after 'for'; handle `for (T &x : expr)`."""
        close = match_brace(body, i, "(", ")")
        inner = body[i + 1:close - 1]
        colon = -1
        d = 0
        for k, t in enumerate(inner):
            if t.text in ("(", "["):
                d += 1
            elif t.text in (")", "]"):
                d -= 1
            elif t.text == ":" and d == 0:
                colon = k
                break
        if colon <= 0:
            return i + 1
        # Loop variable: last identifier before ':'.
        k = colon - 1
        while k >= 0 and inner[k].kind != "id":
            k -= 1
        if k < 0:
            return close
        name = inner[k].text
        typ = " ".join(t.text for t in inner[:k])
        rng_type = self.resolve_chain(inner, colon + 1)
        if "auto" in typ and rng_type:
            typ = element_type(rng_type)
        self.locals[name] = typ
        return close

    # ---- chain resolution ------------------------------------------------

    def resolve_base(self, name: str) -> str:
        if name == "this":
            return self.fn.cls
        if name in self.locals:
            return self.locals[name]
        if self.fn.cls:
            c = self.model.classes.get(self.fn.cls)
            seen = set()
            while c is not None and c.name not in seen:
                seen.add(c.name)
                if name in c.members:
                    return c.members[name].type
                c = self.model.classes.get(c.bases[0]) if c.bases else None
        if name in self.model.classes:
            return name  # static/scope use
        return ""

    def resolve_chain(self, toks, i, end=None) -> str:
        """Resolve the type of the postfix chain starting at toks[i]
        (stopping at index `end`): base [.m | ->m | (args) | [idx]]* —
        returns a type string ('' if unknown)."""
        if end is None:
            end = len(toks)
        if i >= end:
            return ""
        # std:: / p5:: prefixes
        while i + 1 < end and toks[i].kind == "id" and \
                toks[i + 1].text == "::":
            if toks[i].text in ("std", "p5"):
                i += 2
            else:
                break
        if toks[i].text == "*":
            inner = self.resolve_chain(toks, i + 1, end)
            return deref_once(inner) if inner else ""
        if toks[i].kind != "id":
            return ""
        cur = self.resolve_base(toks[i].text)
        i += 1
        while i < end and cur:
            text = toks[i].text
            if text == "(":
                i = match_brace(toks, i, "(", ")")
                continue
            if text == "[":
                i = match_brace(toks, i, "[", "]")
                cur = element_type(cur)
                continue
            if text in (".", "->"):
                if text == "->":
                    cur = deref_once(cur)
                if i + 1 >= end or toks[i + 1].kind != "id":
                    break
                field_name = toks[i + 1].text
                cls = self.model.classes.get(base_name(cur))
                nxt = ""
                if cls:
                    if field_name in cls.members:
                        nxt = cls.members[field_name].type
                    else:
                        meths = self.model.lookup_methods(cls.name,
                                                          field_name)
                        if meths:
                            nxt = meths[0].ret
                cur = nxt
                i += 2
                continue
            break
        return cur


# ---------------------------------------------------------------------------
# Call scanning
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    name: str           # callee name
    recv_type: str      # resolved receiver type ('' = free / unresolved)
    recv_known: bool    # receiver resolved to a project class
    qual: str           # explicit Class:: qualifier, if any
    line: int
    allows: set         # statement-level allows active at this site
    is_new: bool = False
    argc: int = 0
    first_arg_type: str = ""
    member: bool = False  # called through '.' or '->'


@dataclass
class WriteSite:
    target: str
    line: int
    allows: set


def scan_body(model: Model, fn: Func):
    """Yield CallSite / WriteSite / ('range_for', type, line, allows)
    events from fn's body."""
    body = fn.body or []
    scope = BodyScope(model, fn)
    events = []
    stmt_allows = set()
    stmt_start = True
    i = 0
    n = len(body)
    while i < n:
        t = body[i]
        text = t.text
        if text in (";", "{", "}"):
            stmt_allows = set()
            stmt_start = True
            i += 1
            continue
        if stmt_start and text == "P5_ALLOW" and i + 3 < n and \
                body[i + 1].text == "(":
            stmt_allows.add(body[i + 2].text)
            i += 4
            continue
        stmt_start = False
        if text == "new" and (i == 0 or body[i - 1].text != "operator"):
            # `new (addr) T` is placement new: constructs in existing
            # storage, no allocation.
            if not (i + 1 < n and body[i + 1].text == "("):
                events.append(CallSite(name="new", recv_type="",
                                       recv_known=False, qual="",
                                       line=t.line,
                                       allows=set(stmt_allows),
                                       is_new=True))
            i += 1
            continue
        if text == "operator" and i + 1 < n and body[i + 1].text == "new":
            events.append(CallSite(name="new", recv_type="",
                                   recv_known=False, qual="", line=t.line,
                                   allows=set(stmt_allows), is_new=True))
            i += 2
            continue
        if t.kind == "id" and text != "for" and i + 1 < n and \
                body[i + 1].text == "(":
            prev = body[i - 1].text if i > 0 else ""
            qual = ""
            recv_type = ""
            recv_known = False
            if prev == "::" and i >= 2 and body[i - 2].kind == "id":
                q = body[i - 2].text
                if q not in ("std", "p5"):
                    qual = q
            elif prev in (".", "->"):
                # Walk back to the start of the postfix chain.
                k = i - 1
                depth = 0
                while k >= 0:
                    txt = body[k].text
                    if txt in (")", "]"):
                        depth += 1
                    elif txt in ("(", "["):
                        depth -= 1
                        if depth < 0:
                            k += 1
                            break
                    elif depth == 0 and txt not in (".", "->", "::") and \
                            body[k].kind not in ("id",):
                        k += 1
                        break
                    k -= 1
                k = max(k, 0)
                recv_type = scope.resolve_chain(body, k, end=i - 1)
                recv_known = base_name(recv_type) in model.classes
            argc, first_arg = count_args(body, i + 1)
            first_arg_type = ""
            if first_arg is not None:
                first_arg_type = scope.resolve_chain(body, first_arg)
            events.append(CallSite(name=text, recv_type=recv_type,
                                   recv_known=recv_known, qual=qual,
                                   line=t.line, allows=set(stmt_allows),
                                   argc=argc, first_arg_type=first_arg_type,
                                   member=prev in (".", "->")))
            i += 1
            continue
        if t.kind == "id" and i + 1 < n and body[i + 1].text in ASSIGN_OPS \
                and body[i + 1].text == "=" or \
                (t.kind == "id" and i + 1 < n and
                 body[i + 1].text in ASSIGN_OPS):
            # Simple write:  ident <assign-op> ...
            events.append(WriteSite(target=text, line=t.line,
                                    allows=set(stmt_allows)))
            i += 1
            continue
        if text in ("++", "--"):
            # prefix:  ++ident   postfix handled by ident lookbehind
            tgt = None
            if i + 1 < n and body[i + 1].kind == "id":
                tgt = body[i + 1].text
            elif i > 0 and body[i - 1].kind == "id":
                tgt = body[i - 1].text
            if tgt:
                events.append(WriteSite(target=tgt, line=t.line,
                                        allows=set(stmt_allows)))
            i += 1
            continue
        if text == "for" and i + 1 < n and body[i + 1].text == "(":
            close = match_brace(body, i + 1, "(", ")")
            inner = body[i + 2:close - 1]
            d = 0
            colon = -1
            for k, tt in enumerate(inner):
                if tt.text in ("(", "["):
                    d += 1
                elif tt.text in (")", "]"):
                    d -= 1
                elif tt.text == ":" and d == 0:
                    colon = k
                    break
            if colon >= 0:
                rng = scope.resolve_chain(inner, colon + 1)
                events.append(("range_for", rng, t.line, set(stmt_allows)))
            i += 1
            continue
        i += 1
    return events, scope


def count_args(body, open_paren):
    """Return (argc, index-of-first-arg-token or None)."""
    i = open_paren + 1
    if i < len(body) and body[i].text == ")":
        return 0, None
    first = i
    argc = 1
    depth = 0
    while i < len(body):
        text = body[i].text
        if text in ("(", "[", "{"):
            depth += 1
        elif text in ("]", "}"):
            depth -= 1
        elif text == ")":
            if depth == 0:
                break
            depth -= 1
        elif text == "," and depth == 0:
            argc += 1
        i += 1
    return argc, first


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    file: str
    function: str
    rule: str
    line: int
    message: str

    @property
    def key(self) -> str:
        return f"{self.file}:{self.function}:{self.rule}"

    def to_json(self):
        return {"file": self.file, "function": self.function,
                "rule": self.rule, "line": self.line,
                "message": self.message}


class Analysis:
    def __init__(self, model: Model):
        self.model = model
        self.findings = []
        self._seen = set()

    def add(self, file, function, rule, line, message):
        f = Finding(file, function, rule, line, message)
        if f.key not in self._seen:
            self._seen.add(f.key)
            self.findings.append(f)

    # ---- reachability ----------------------------------------------------

    def all_funcs(self):
        for lst in self.model.free_funcs.values():
            yield from lst
        for c in self.model.classes.values():
            for lst in c.methods.values():
                yield from lst

    def roots(self, anno):
        return [f for f in self.all_funcs() if anno in f.annos]

    def callees(self, fn: Func, rule: str):
        """Resolved project callees of fn, with the events that are NOT
        resolved (for leaf checks)."""
        events, scope = scan_body(self.model, fn)
        resolved, leaf = [], []
        for ev in events:
            if not isinstance(ev, CallSite):
                continue
            if rule in ev.allows:
                continue
            if ev.name in EXEMPT_CALLS:
                continue
            targets = []
            if ev.qual and ev.qual in self.model.classes:
                targets = self.model.lookup_methods(ev.qual, ev.name)
            elif ev.recv_known:
                cls = base_name(ev.recv_type)
                targets = self.model.lookup_methods(cls, ev.name)
                for t in list(targets):
                    if t.virtual or (t.body is None and
                                     self.model.derived.get(cls)):
                        targets.extend(self.overload_overrides(cls, ev.name))
            elif not ev.recv_type and not ev.qual and not ev.is_new:
                # Unqualified: method of this class, else free function.
                if fn.cls:
                    targets = self.model.lookup_methods(fn.cls, ev.name)
                    cls0 = fn.cls
                    for t in list(targets):
                        if t.virtual:
                            targets.extend(
                                self.overload_overrides(cls0, ev.name))
                if not targets:
                    targets = self.model.free_funcs.get(ev.name, [])
            if targets and rule == "probe_purity":
                # A const/non-const overload pair resolves to the const
                # one in a const calling context (which is what a pure
                # root's call tree is).
                const_overloads = [t for t in targets if t.const]
                if const_overloads:
                    targets = const_overloads
            if targets:
                resolved.append((ev, targets))
            else:
                leaf.append(ev)
        return resolved, leaf

    def overload_overrides(self, cls, name):
        out = []
        seen = set()
        for t in self.model.overrides(cls, name):
            if id(t) not in seen:
                seen.add(id(t))
                out.append(t)
        return out

    def reach(self, anno, rule):
        """BFS from annotated roots; returns {id(fn): (fn, via)} where via
        is the root-to-fn call chain string."""
        reached = {}
        work = []
        for r in self.roots(anno):
            if r.allows(rule):
                continue
            reached[id(r)] = (r, r.qname)
            work.append(r)
        while work:
            fn = work.pop()
            _, via = reached[id(fn)]
            resolved, _ = self.callees(fn, rule)
            for ev, targets in resolved:
                for t in targets:
                    if id(t) in reached:
                        continue
                    if t.allows(rule):
                        continue
                    reached[id(t)] = (t, f"{via} -> {t.qname}")
                    if t.body:
                        work.append(t)
        return reached

    def reach_ignoring_allows(self, anno):
        """BFS from annotated roots like reach(), but P5_ALLOW(rule)
        neither stops the descent nor exempts a node: used where the
        contract is absolute (serialize roots)."""
        reached = {}
        work = []
        for r in self.roots(anno):
            reached[id(r)] = (r, r.qname)
            work.append(r)
        while work:
            fn = work.pop()
            _, via = reached[id(fn)]
            # "__no_rule__" so statement-level P5_ALLOW(rule) does not
            # prune the call graph either.
            resolved, _ = self.callees(fn, "__no_rule__")
            for ev, targets in resolved:
                for t in targets:
                    if id(t) in reached:
                        continue
                    reached[id(t)] = (t, f"{via} -> {t.qname}")
                    if t.body:
                        work.append(t)
        return reached

    # ---- rule 1: hot_path_no_alloc --------------------------------------

    def run_hot_path(self):
        rule = "hot_path_no_alloc"
        for fn, via in self.reach(ANNO_HOT, rule).values():
            if ANNO_COLD in fn.annos:
                self.add(fn.file, fn.qname, rule, fn.line,
                         f"P5_COLD function reachable from a hot root "
                         f"via {via} — restore/IO paths must stay off "
                         f"the per-cycle path")
            if not fn.body:
                continue
            _, leaves = self.callees(fn, rule)
            for ev in leaves:
                bad = None
                if ev.is_new:
                    bad = "operator new"
                elif ev.name in FREE_ALLOCATORS:
                    bad = f"{ev.name}()"
                elif ev.name in ALLOC_METHODS and (ev.recv_type or
                                                   ev.qual or
                                                   ev.name not in ("insert",)):
                    recv = base_name(ev.recv_type) or ev.qual or "<unknown>"
                    bad = f"{recv}.{ev.name}()"
                if bad:
                    self.add(fn.file, fn.qname, rule, ev.line,
                             f"{bad} reachable from hot root via {via}")

    # ---- rule 2: probe_purity -------------------------------------------

    def run_probe_purity(self):
        rule = "probe_purity"
        for fn, via in self.reach(ANNO_PURE, rule).values():
            if fn.cls and not fn.const:
                c = self.model.classes.get(fn.cls)
                is_static = False  # parser folds 'static' into quals; rare
                if not is_static:
                    self.add(fn.file, fn.qname, rule, fn.line,
                             f"must be const-qualified (reached via {via})")
            if not fn.body:
                continue
            events, scope = scan_body(self.model, fn)
            cls = self.model.classes.get(fn.cls) if fn.cls else None
            for ev in events:
                if isinstance(ev, WriteSite):
                    if rule in ev.allows:
                        continue
                    if cls and ev.target in cls.members:
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 f"writes member '{ev.target}' "
                                 f"(reached via {via})")
                elif isinstance(ev, CallSite):
                    if rule in ev.allows or ev.name in EXEMPT_CALLS:
                        continue
                    tcls = None
                    if ev.recv_known:
                        tcls = base_name(ev.recv_type)
                    elif not ev.recv_type and not ev.qual and fn.cls:
                        if self.model.lookup_methods(fn.cls, ev.name):
                            tcls = fn.cls
                    if not tcls:
                        continue
                    meths = self.model.lookup_methods(tcls, ev.name)
                    if meths and not any(m.const for m in meths) and \
                            not any(m.allows(rule) for m in meths):
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 f"calls non-const {tcls}::{ev.name}() "
                                 f"(reached via {via})")

    # ---- rule 3: determinism --------------------------------------------

    def run_determinism(self):
        rule = "determinism"
        for c in self.model.classes.values():
            for m in c.members.values():
                if UNORDERED_RE.search(m.type) and \
                        f"allow:{rule}" not in m.annos:
                    self.add(m.file, f"{c.name}::{m.name}", rule, m.line,
                             "unordered container member: iteration order "
                             "is nondeterministic — use an ordered/indexed "
                             "container or annotate P5_ALLOW(determinism) "
                             "if access is lookup-only")
        for fn in self.all_funcs():
            if not fn.body or fn.allows(rule):
                continue
            whitelisted = fn.file.endswith(RNG_WHITELIST_SUFFIX)
            events, scope = scan_body(self.model, fn)
            for ev in events:
                if isinstance(ev, tuple) and ev[0] == "range_for":
                    _, rng_type, line, allows = ev
                    if rule in allows:
                        continue
                    if rng_type and UNORDERED_RE.search(rng_type):
                        self.add(fn.file, fn.qname, rule, line,
                                 "iterates an unordered container "
                                 f"({rng_type.strip()})")
                elif isinstance(ev, CallSite):
                    if rule in ev.allows:
                        continue
                    if ev.name in ("begin", "cbegin") and \
                            ev.recv_type and UNORDERED_RE.search(ev.recv_type):
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 "iterates an unordered container "
                                 f"({ev.recv_type.strip()})")
                    elif ev.name in ("sort", "stable_sort") and ev.argc == 2:
                        elem = element_type(ev.first_arg_type or "")
                        if elem.strip().endswith("*"):
                            self.add(fn.file, fn.qname, rule, ev.line,
                                     "default-sorts a pointer range: "
                                     "ordering depends on allocation "
                                     "addresses — supply a comparator over "
                                     "stable keys")
                    elif ev.name in BANNED_IDENTS and not whitelisted:
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 f"'{ev.name}' is a nondeterminism source — "
                                 "use p5::Rng (src/common/rng.hh)")
                    elif ev.name == "time" and not whitelisted and \
                            not ev.recv_type:
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 "'time()' is a nondeterminism source — "
                                 "use p5::Rng (src/common/rng.hh)")
            if whitelisted:
                continue
            for t in fn.body:
                if t.kind == "id" and t.text in BANNED_IDENTS:
                    self.add(fn.file, fn.qname, rule, t.line,
                             f"'{t.text}' is a nondeterminism source — "
                             "use p5::Rng (src/common/rng.hh)")
                    break

        # Serialize roots (P5_SERIALIZE_ROOT: the checkpoint
        # saveState/restoreState entry points). Everything in their
        # reach feeds — or orders the reads of — the serialized byte
        # stream, so unordered-container iteration is an error even
        # under P5_ALLOW(determinism): the allow escape covers
        # lookup-only access, which this audit cannot distinguish from
        # iteration that emits bytes. Only occurrences the general
        # pass exempted are reported here, so nothing is flagged
        # twice.
        for fn, via in self.reach_ignoring_allows(ANNO_SERIALIZE) \
                .values():
            if not fn.body:
                continue
            fn_exempt = fn.allows(rule)
            events, _ = scan_body(self.model, fn)
            for ev in events:
                if isinstance(ev, tuple) and ev[0] == "range_for":
                    _, rng_type, line, allows = ev
                    if not (fn_exempt or rule in allows):
                        continue
                    if rng_type and UNORDERED_RE.search(rng_type):
                        self.add(fn.file, fn.qname, rule, line,
                                 "iterates an unordered container "
                                 f"({rng_type.strip()}) inside a "
                                 f"serialize root's reach (via {via}) "
                                 "— P5_ALLOW(determinism) does not "
                                 "apply to the serialized byte stream")
                elif isinstance(ev, CallSite):
                    if not (fn_exempt or rule in ev.allows):
                        continue
                    if ev.name in ("begin", "cbegin") and \
                            ev.recv_type and \
                            UNORDERED_RE.search(ev.recv_type):
                        self.add(fn.file, fn.qname, rule, ev.line,
                                 "iterates an unordered container "
                                 f"({ev.recv_type.strip()}) inside a "
                                 f"serialize root's reach (via {via}) "
                                 "— P5_ALLOW(determinism) does not "
                                 "apply to the serialized byte stream")

    # ---- rule 5: single_exit ---------------------------------------------

    def run_single_exit(self):
        rule = "single_exit"
        for fn in self.all_funcs():
            if not fn.body or (fn.qname == EXIT_OWNER and
                               fn.file.endswith(EXIT_OWNER_SUFFIX)):
                continue
            events, _ = scan_body(self.model, fn)
            for ev in events:
                if isinstance(ev, CallSite) and ev.name in EXIT_CALLS \
                        and not ev.member and not ev.qual:
                    self.add(fn.file, fn.qname, rule, ev.line,
                             f"'{ev.name}()' ends the process — call "
                             "fatal() (throws p5::Error) or, for a "
                             "simulator bug, panic()")

    # ---- rule 4: config_completeness ------------------------------------

    def run_config_completeness(self):
        rule = "config_completeness"
        config_structs = {n: c for n, c in self.model.classes.items()
                          if ANNO_CONFIG in c.annos}
        if not config_structs:
            return
        binders = []
        for name, lst in self.model.free_funcs.items():
            if name == "bindAll":
                binders.extend(lst)
        for c in self.model.classes.values():
            binders.extend(c.methods.get("bindAll", []))
        binders = [b for b in binders if b.body]
        if not binders:
            return  # cannot evaluate (e.g. fixture set without a binder)
        bound = set()        # (StructName, field) pairs
        bound_names = set()  # name-only fallback for unresolved receivers
        for b in binders:
            self.collect_bound(b, bound, bound_names)
        for sname, c in sorted(config_structs.items()):
            for m in c.members.values():
                if f"allow:{rule}" in m.annos:
                    continue
                ftype = base_name(m.type)
                if ftype in config_structs:
                    continue  # compound: its own fields are checked
                if "static" in m.type or "constexpr" in m.type:
                    continue
                if (sname, m.name) in bound or m.name in bound_names:
                    continue
                self.add(m.file, f"{sname}::{m.name}", rule, m.line,
                         "config field is not bound in bindAll() — a new "
                         "parameter outside the fingerprint is a cache "
                         "poisoning hole; bind it or annotate "
                         "P5_ALLOW(config_completeness)")

    def collect_bound(self, fn: Func, bound: set, bound_names: set):
        body = fn.body
        scope = BodyScope(self.model, fn)
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            # Any `base.field` / `base->field` / `&base.field` reference
            # inside bindAll counts as a binding of (typeof(base), field).
            if t.kind == "id" and i + 2 < n and \
                    body[i + 1].text in (".", "->") and \
                    body[i + 2].kind == "id":
                base_t = scope.resolve_chain(body, i)
                # walk the chain to its final member
                j = i
                last_field = None
                cur = scope.resolve_base(body[i].text)
                while j + 2 < n and body[j + 1].text in (".", "->") and \
                        body[j + 2].kind == "id":
                    owner = cur
                    if body[j + 1].text == "->":
                        owner = deref_once(owner)
                    field_name = body[j + 2].text
                    ocls = self.model.classes.get(base_name(owner))
                    if ocls and field_name in ocls.members:
                        last_field = (ocls.name, field_name)
                        cur = ocls.members[field_name].type
                    else:
                        last_field = ("", field_name)
                        cur = ""
                    j += 2
                if last_field:
                    if last_field[0]:
                        bound.add(last_field)
                    else:
                        bound_names.add(last_field[1])
                i = j + 1
                continue
            i += 1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def discover_files(build_dir):
    """Translation units from compile_commands.json plus all project
    headers next to them."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        sys.exit(f"p5lint: {db_path} not found — configure the build first "
                 f"(cmake -B {build_dir} -S .)")
    with open(db_path) as f:
        db = json.load(f)
    sources = set()
    root = None
    for entry in db:
        p = entry["file"]
        if not os.path.isabs(p):
            p = os.path.normpath(os.path.join(entry["directory"], p))
        sep = os.sep
        if f"{sep}src{sep}" in p and p.endswith(".cc"):
            sources.add(p)
            if root is None:
                root = p.split(f"{sep}src{sep}")[0]
    if root is None:
        sys.exit("p5lint: no src/*.cc translation units in the compile "
                 "database")
    for dirpath, _dirs, names in os.walk(os.path.join(root, "src")):
        for nm in names:
            if nm.endswith(".hh"):
                sources.add(os.path.join(dirpath, nm))
    return root, sorted(sources)


def build_model_lex(files, root):
    model = Model()
    for path in files:
        rel = os.path.relpath(path, root)
        FileParser(model, path, rel).parse()
    return model


def load_baseline(path):
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        data = json.load(f)
    return data.get("findings", data) if isinstance(data, dict) else data


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="p5lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir containing compile_commands.json "
                         "(default: build)")
    ap.add_argument("--files", nargs="+",
                    help="analyze exactly these files (fixture mode; no "
                         "baseline diff)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: p5lint_baseline.json "
                         "next to this script)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with current findings")
    ap.add_argument("--json", metavar="OUT",
                    help="write findings as JSON to OUT ('-' for stdout)")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in RULES:
            ap.error(f"unknown rule '{r}' (known: {', '.join(RULES)})")

    if args.files:
        root = os.getcwd()
        files = [os.path.abspath(f) for f in args.files]
        for f in files:
            if not os.path.isfile(f):
                sys.exit(f"p5lint: no such file: {f}")
    else:
        root, files = discover_files(args.build_dir)

    model = build_model_lex(files, root)

    an = Analysis(model)
    if "hot_path_no_alloc" in rules:
        an.run_hot_path()
    if "probe_purity" in rules:
        an.run_probe_purity()
    if "determinism" in rules:
        an.run_determinism()
    if "config_completeness" in rules:
        an.run_config_completeness()
    if "single_exit" in rules:
        an.run_single_exit()
    findings = sorted(an.findings, key=lambda f: f.key)

    if args.json:
        payload = json.dumps({"findings": [f.to_json() for f in findings]},
                             indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as f:
                f.write(payload)

    if args.files:
        # Fixture mode: report everything, no baseline.
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.function}: {f.message}")
        if not args.quiet:
            print(f"p5lint: {len(findings)} finding(s) over "
                  f"{len(files)} file(s)")
        return 1 if findings else 0

    baseline_path = args.baseline or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "p5lint_baseline.json")
    if args.update_baseline:
        with open(baseline_path, "w") as f:
            json.dump({"findings": sorted(f2.key for f2 in findings)},
                      f, indent=2)
            f.write("\n")
        print(f"p5lint: baseline updated with {len(findings)} finding(s) "
              f"-> {baseline_path}")
        return 0

    baseline = set(load_baseline(baseline_path))
    current = {f.key: f for f in findings}
    new = [f for k, f in sorted(current.items()) if k not in baseline]
    stale = sorted(baseline - set(current))
    for f in new:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.function}: {f.message}")
    for k in stale:
        print(f"p5lint: stale baseline entry (fixed? run --update-baseline): "
              f"{k}")
    if not args.quiet:
        print(f"p5lint: {len(files)} files, {len(findings)} finding(s) "
              f"({len(new)} new, {len(stale)} stale baseline)")
    return 1 if (new or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
