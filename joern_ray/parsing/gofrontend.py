"""Go fragment frontend — gosrc2cpg analog on the shared C-family parser.

The reference ships a Go frontend (`joern-cli/frontends/gosrc2cpg`,
`GoAstJsonParser` + `AstCreator`); this re-expresses its output shape
(package NAMESPACE_BLOCK, receiver methods as `Type.name` METHODs,
struct TYPE_DECLs with MEMBERs, `:=` short declarations as LOCAL +
assignment) on top of the existing recursive-descent machinery:
EXPRESSIONS reuse `FragmentParser`'s Pratt parser unchanged (Go's
operator grammar is C's), only the declaration/statement layer differs —
no parenthesized conditions, optional init clauses, postfix types,
multi-value returns.

Conventions (mirroring gosrc2cpg naming):
- `package p` -> NAMESPACE_BLOCK named p; top-level `func F` ->
  full_name "p.F" (package-qualified, "main"/empty packages use the bare
  name so cross-document linking by name still works);
- `func (r *T) M()` -> METHOD full_name "T.M" with the receiver as the
  first typed parameter — member calls `r.M()` resolve to "T.M" through
  the shared typed-receiver pathway (parser.py `_parse_postfix`);
- `type T struct {...}` -> TYPE_DECL + MEMBER rows; `type A = B` /
  `type A B` -> TYPE_DECL with signature "alias:B" (AliasLinkerPass
  convention);
- `x := e` -> LOCAL + `<operator>.assignment` CALL;
- `for` forms lower to the C FOR/WHILE shapes the CFG builder knows.
"""

from __future__ import annotations

import re

from .astmodel import FRAG_PLACEHOLDER, PNode, STATIC_DISPATCH
from .parser import FragmentParser, ParseError
from .tokenizer import tokenize

_RAW_STR = re.compile(r"`[^`]*`", re.S)

# tokens that may appear inside a type expression (postfix Go types)
_TYPE_PUNCT = {"*", "[", "]", ".", "(", ")", ","}


def _sanitize_raw_strings(src: str) -> str:
    """Replace Go raw strings with same-LENGTH quoted strings so the
    shared tokenizer (no backtick rule) sees one string token and all
    byte offsets stay aligned."""

    def repl(m: re.Match) -> str:
        body = m.group(0)[1:-1].replace('"', "'").replace("\n", " ")
        return '"' + body + '"'

    return _RAW_STR.sub(repl, src)


class GoFragmentParser(FragmentParser):
    """`parse(src, url, idx)` surface identical to the other frontends;
    one instance per actor, reused across fragments."""

    def __init__(self) -> None:
        super().__init__("c")
        self.dialect = "go"

    # ---- entry -----------------------------------------------------------

    def parse(self, src: str, url: str, fragment_idx: int) -> PNode:
        self.src = _sanitize_raw_strings(src)
        self.toks = tokenize(self.src)
        self.i = 0
        self.url = url
        self.fragment_idx = fragment_idx
        self.scopes = [{}]
        self.class_members_stack = []
        self.class_name_stack = []
        self.node_count = 0
        self.lambda_counter = 0
        self.lambda_stack = []
        self.pkg = ""
        root = PNode(
            "NAMESPACE_BLOCK",
            name="<global>",
            full_name=f"{FRAG_PLACEHOLDER}:<global>",
            code="<global>",
            line=1,
            col=1,
        )
        n_meaningful = 0
        while not self._at_eof():
            before = self.i
            t = self._tok()
            txt = t.text
            if txt == "package" and self._tok(1).kind == "id":
                self.pkg = self._tok(1).text
                root.name = self.pkg
                root.full_name = f"{FRAG_PLACEHOLDER}:{self.pkg}"
                root.code = f"package {self.pkg}"
                self.i += 2
                n_meaningful += 1
            elif txt == "import":
                self.i += 1
                self._go_imports(root)
                n_meaningful += 1
            elif txt == "func":
                root.add(self._go_func())
                n_meaningful += 1
            elif txt == "type":
                node = self._go_type()
                if node is not None:
                    root.add(node)
                    n_meaningful += 1
            elif txt in ("var", "const"):
                for n in self._go_var():
                    root.add(n)
                n_meaningful += 1
            else:
                self.i += 1
            if self.i == before:
                self.i += 1
        if n_meaningful == 0:
            raise ParseError("no go declarations found")
        return root

    # ---- declarations ----------------------------------------------------

    def _go_imports(self, root: PNode) -> None:
        def add(tok) -> None:
            imp = tok.text.strip('"')
            node = PNode("IMPORT", name=imp, code=f"import {imp}", line=tok.line, col=tok.col)
            self.node_count += 1
            root.add(node)
            root.extra_edges.append(("IMPORTS", node))

        if self._at("("):
            self.i += 1
            while not self._at_eof() and not self._at(")"):
                tt = self._tok()
                if tt.kind == "str":
                    add(tt)
                self.i += 1
            self._accept(")")
        else:
            if self._tok().kind == "id" and self._tok(1).kind == "str":
                self.i += 1  # aliased import
            if self._tok().kind == "str":
                add(self._tok())
                self.i += 1

    def _qual(self, name: str) -> str:
        return f"{self.pkg}.{name}" if self.pkg not in ("", "main") else name

    def _go_type_expr(self) -> str:
        """Consume a (postfix) type expression, return its text."""
        start = self.i
        depth = 0
        while not self._at_eof():
            t = self._tok()
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and t.kind != "id" and t.text not in _TYPE_PUNCT:
                break
            elif depth == 0 and t.text == ",":
                break
            elif (
                depth == 0
                and t.kind == "id"
                and self.i > start
                and self.toks[self.i - 1].kind == "id"
            ):
                break  # two adjacent ids never form one type
            self.i += 1
        return self._slice(start).strip() or "ANY"

    def _go_type(self) -> "PNode | None":
        t = self._expect("type")
        nt = self._tok()
        if nt.kind != "id":
            return None
        name = nt.text
        self.i += 1
        if self._at("["):  # generic params
            self._skip_balanced("[", "]")
        qual = self._qual(name)
        if self._at("struct"):
            self.i += 1
            td = self._new(
                "TYPE_DECL", t, name=name, full_name=qual, code=f"type {name} struct"
            )
            self._expect("{")
            cur_line = -1
            group: list = []

            def flush() -> None:
                if len(group) >= 2:
                    ftype = " ".join(x.text for x in group[1:] if x.text not in ("*",))
                    td.add(
                        self._new(
                            "MEMBER",
                            group[0],
                            name=group[0].text,
                            # keyed on the UNQUALIFIED type name — the
                            # receiver probe side sees `Server`, not
                            # `util.Server` (FieldAccessLinkerPass handle)
                            full_name=f"{name}.{group[0].text}",
                            code=f"{group[0].text} {ftype}",
                            type_full_name=ftype,
                        )
                    )
                elif len(group) == 1:  # embedded field
                    td.add(
                        self._new(
                            "MEMBER",
                            group[0],
                            name=group[0].text,
                            full_name=f"{name}.{group[0].text}",
                            code=group[0].text,
                            type_full_name=group[0].text,
                        )
                    )
                group.clear()

            while not self._at_eof() and not self._at("}"):
                tt = self._tok()
                if tt.line != cur_line:
                    flush()
                    cur_line = tt.line
                if tt.kind in ("id",) or tt.text in ("*", ".", "[", "]"):
                    if tt.kind == "id":
                        group.append(tt)
                self.i += 1
            flush()
            self._accept("}")
            return td
        if self._at("interface"):
            self.i += 1
            td = self._new(
                "TYPE_DECL", t, name=name, full_name=qual, code=f"type {name} interface"
            )
            if self._at("{"):
                self._skip_balanced("{", "}")
            return td
        # alias (`type A = B`) or defined type (`type A B`)
        self._accept("=")
        target = self._go_type_expr()
        return self._new(
            "TYPE_DECL",
            t,
            name=name,
            full_name=qual,
            signature=f"alias:{target}",
            code=f"type {name} {target}",
        )

    def _go_params(self) -> list:
        """Go parameter list: `name[, name] Type` groups -> the shared
        (type, name, tok) triples `_make_method_shell` consumes."""
        params: list = []
        self._expect("(")
        group: list = []  # pending name tokens awaiting their type
        while not self._at_eof() and not self._at(")"):
            t = self._tok()
            if t.text == ",":
                self.i += 1
                continue
            if t.kind == "id" and self._tok(1).text in (",", ")"):
                # name awaiting a shared type (`a, b int`), or a lone
                # unnamed type — resolved when the group flushes
                group.append(t)
                self.i += 1
                continue
            if t.kind == "id":
                name_tok = t
                self.i += 1
                typ = self._go_type_expr()
                for g in group:
                    params.append((typ, g.text, g))
                group.clear()
                params.append((typ if typ != "ANY" else "", name_tok.text, name_tok))
                continue
            if t.text in ("*", "[", "..."):
                typ = self._go_type_expr()
                params.append((typ, "", t))
                continue
            self.i += 1
        for g in group:  # trailing lone names: treat as untyped params
            params.append(("", g.text, g))
        self._accept(")")
        return params

    def _go_func(self) -> PNode:
        ft = self._expect("func")
        recv_type = ""
        recv_name = ""
        recv_tok = ft
        if self._at("("):  # method receiver `(r *T)`
            self.i += 1
            if self._tok().kind == "id":
                recv_tok = self._tok()
                recv_name = recv_tok.text
                self.i += 1
            while self._at("*"):
                self.i += 1
            if self._tok().kind == "id":
                recv_type = self._tok().text
                self.i += 1
            self._accept(")")
        name = "<anonymous>"
        if self._tok().kind == "id":
            name = self._tok().text
            self.i += 1
        if self._at("["):
            self._skip_balanced("[", "]")
        self.scopes.append({})
        params = self._go_params()
        if recv_name:
            params = [(recv_type, recv_name, recv_tok)] + params
        # return type: `T`, `(A, B)` or nothing before `{`
        if self._at("("):
            r0 = self.i
            self._skip_balanced("(", ")")
            ret_type = self._slice(r0)
        elif not self._at("{"):
            ret_type = self._go_type_expr()
        else:
            ret_type = "void"
        full = f"{recv_type}.{name}" if recv_type else self._qual(name)
        sig = f"{ret_type}({','.join((p[0] or 'ANY') for p in params)})"
        m = self._make_method_shell(name, full, sig, params, ret_type, ft)
        self.lambda_stack.append([])
        body = self._parse_block() if self._at("{") else self._new("BLOCK", ft, code="{}")
        self._finish_method(m, body, ret_type)
        self.lambda_stack.pop()
        self.scopes.pop()
        return m

    def _go_var(self) -> list:
        """`var x T [= e]` / `const x = e` (single or parenthesized group)
        -> LOCAL (+ assignment CALL) nodes."""
        kw = self._tok()
        self.i += 1
        out: list = []
        if self._at("("):
            self.i += 1
            while not self._at_eof() and not self._at(")"):
                before = self.i
                out.extend(self._go_var_one(kw))
                if self.i == before:
                    self.i += 1
            self._accept(")")
            return out
        return self._go_var_one(kw)

    def _go_var_one(self, kw) -> list:
        t = self._tok()
        if t.kind != "id":
            return []
        names = [t]
        self.i += 1
        while self._at(",") and self._tok(1).kind == "id":
            names.append(self._tok(1))
            self.i += 2
        typ = ""
        if not self._at("=") and (self._tok().kind == "id" or self._tok().text in ("*", "[")):
            typ = self._go_type_expr()
        out: list = []
        for nt in names:
            loc = self._new(
                "LOCAL", nt, name=nt.text, code=f"{nt.text} {typ}".strip(), type_full_name=typ
            )
            self.scopes[-1][nt.text] = loc
            out.append(loc)
        if self._accept("="):
            estart = self.i
            rhs = self._parse_expr()
            while self._accept(","):  # multi-value: keep first target form
                self._parse_expr()
            ident = self._new("IDENTIFIER", names[0], name=names[0].text, code=names[0].text)
            ident.ref_target = self.scopes[-1][names[0].text]
            call = self._new(
                "CALL",
                names[0],
                name="<operator>.assignment",
                method_full_name="<operator>.assignment",
                dispatch_type=STATIC_DISPATCH,
                code=f"{names[0].text} = {self._slice(estart)}",
            )
            call.add(ident, rhs)
            call.argument_children = [ident, rhs]
            out.append(call)
        self._accept(";")
        return out

    def _member_call_fqn(self, node: PNode, fname: str) -> str:
        """Go package selectors: `fmt.Println(x)` — an UNRESOLVED bare
        identifier receiver is (almost always) a package name, so the
        call carries the package-qualified full name `fmt.Println`
        (gosrc2cpg qualifies callees by import path the same way)."""
        base = super()._member_call_fqn(node, fname)
        if (
            base == fname
            and node.label == "IDENTIFIER"
            and node.ref_target is None
            and node.name
        ):
            return f"{node.name}.{fname}"
        return base

    # ---- statements --------------------------------------------------------

    def _has_semi_before_brace(self) -> bool:
        depth = 0
        j = self.i
        while j < len(self.toks):
            x = self.toks[j].text
            if x in ("(", "["):
                depth += 1
            elif x in (")", "]"):
                depth -= 1
            elif depth == 0 and x == ";":
                return True
            elif depth == 0 and x in ("{", "}"):
                return False
            j += 1
        return False

    def _short_decl(self) -> list:
        """`a[, b] := expr[, expr]` -> LOCALs + one assignment CALL."""
        names = [self._tok()]
        self.i += 1
        while self._at(",") and self._tok(1).kind == "id":
            names.append(self._tok(1))
            self.i += 2
        self._expect(":")
        self._expect("=")
        estart = self.i
        rhs = self._parse_expr()
        while self._accept(","):
            self._parse_expr()
        out: list = []
        for nt in names:
            loc = self._new("LOCAL", nt, name=nt.text, code=nt.text)
            self.scopes[-1][nt.text] = loc
            out.append(loc)
        ident = self._new("IDENTIFIER", names[0], name=names[0].text, code=names[0].text)
        ident.ref_target = self.scopes[-1][names[0].text]
        call = self._new(
            "CALL",
            names[0],
            name="<operator>.assignment",
            method_full_name="<operator>.assignment",
            dispatch_type=STATIC_DISPATCH,
            code=f"{names[0].text} := {self._slice(estart)}",
        )
        call.add(ident, rhs)
        call.argument_children = [ident, rhs]
        out.append(call)
        self._accept(";")
        return out

    def _at_short_decl(self) -> bool:
        if self._tok().kind != "id":
            return False
        j = self.i + 1
        while (
            j + 1 < len(self.toks)
            and self.toks[j].text == ","
            and self.toks[j + 1].kind == "id"
        ):
            j += 2
        return (
            j + 1 < len(self.toks)
            and self.toks[j].text == ":"
            and self.toks[j + 1].text == "="
        )

    def _parse_stmt(self) -> list:
        t = self._tok()
        txt = t.text
        if txt == "if":
            return self._go_if()
        if txt == "for":
            return self._go_for()
        if txt in ("switch", "select"):
            return [self._go_switch()]
        if txt in ("var", "const"):
            return self._go_var()
        if txt in ("defer", "go"):
            self.i += 1
            e = self._parse_expr()
            self._accept(";")
            return [e]
        if txt == "fallthrough":
            self.i += 1
            self._accept(";")
            return []
        if txt == "return":
            self.i += 1
            node = self._new("RETURN", t, code="return")
            if not self._at(";") and not self._at("}"):
                start = self.i
                node.add(self._parse_expr())
                while self._accept(","):
                    node.add(self._parse_expr())
                node.code = f"return {self._slice(start)}"
            node.argument_children = list(node.children)
            self._accept(";")
            return [node]
        if self._at_short_decl():
            return self._short_decl()
        return super()._parse_stmt()

    def _go_if(self) -> list:
        t = self._expect("if")
        out: list = []
        if self._has_semi_before_brace():
            out.extend(self._parse_stmt())  # init clause (often `v := f()`)
            self._accept(";")
        cstart = self.i
        cond = self._parse_expr()
        node = self._new(
            "CONTROL_STRUCTURE", t, name="IF", code=f"if {self._slice(cstart)}"
        )
        node.add(cond)
        node.condition_child = cond
        node.add(self._parse_block() if self._at("{") else self._wrap_single(self._parse_stmt(), t))
        if self._at("else"):
            et = self._tok()
            self.i += 1
            els = self._new("CONTROL_STRUCTURE", et, name="ELSE", code="else")
            els.add(self._wrap_single(self._parse_stmt(), et))
            node.add(els)
        out.append(node)
        return out

    def _go_for(self) -> list:
        t = self._expect("for")
        self.scopes.append({})
        try:
            if self._at("{"):
                # `for { ... }` — infinite loop: WHILE(true)
                node = self._new("CONTROL_STRUCTURE", t, name="WHILE", code="for")
                cond = self._new("LITERAL", t, code="true", type_full_name="boolean")
                node.add(cond)
                node.condition_child = cond
                node.add(self._parse_block())
                return [node]
            # range form: `for i[, v] := range xs` / `for range xs`
            j = self.i
            depth = 0
            has_range = False
            while j < len(self.toks):
                x = self.toks[j].text
                if x in ("(", "["):
                    depth += 1
                elif x in (")", "]"):
                    depth -= 1
                elif depth == 0 and x == "{":
                    break
                elif depth == 0 and x == "range":
                    has_range = True
                    break
                j += 1
            if has_range:
                node = self._new("CONTROL_STRUCTURE", t, name="FOR", code="for range")
                while not self._at("range") and not self._at_eof():
                    tt = self._tok()
                    if tt.kind == "id":
                        loc = self._new("LOCAL", tt, name=tt.text, code=tt.text)
                        self.scopes[-1][tt.text] = loc
                        node.add(loc)
                    self.i += 1
                self._accept("range")
                cond = self._parse_expr()
                node.add(cond)
                node.condition_child = cond
                node.add(self._parse_block() if self._at("{") else self._wrap_single(self._parse_stmt(), t))
                return [node]
            if self._has_semi_before_brace():
                # 3-clause `for init; cond; post { }` — C FOR shape
                node = self._new("CONTROL_STRUCTURE", t, name="FOR", code="for (...)")
                if not self._at(";"):
                    for n in self._parse_stmt():  # init (may be `i := 0`)
                        node.add(n)
                self._accept(";")
                if not self._at(";"):
                    cond = self._parse_expr()
                    node.add(cond)
                    node.condition_child = cond
                self._accept(";")
                if not self._at("{"):
                    node.add(self._parse_expr())
                node.add(self._parse_block() if self._at("{") else self._wrap_single(self._parse_stmt(), t))
                return [node]
            # `for cond { }` — while loop
            cstart = self.i
            cond = self._parse_expr()
            node = self._new(
                "CONTROL_STRUCTURE", t, name="WHILE", code=f"for {self._slice(cstart)}"
            )
            node.add(cond)
            node.condition_child = cond
            node.add(self._parse_block() if self._at("{") else self._wrap_single(self._parse_stmt(), t))
            return [node]
        finally:
            self.scopes.pop()

    def _go_switch(self) -> PNode:
        t = self._tok()
        self.i += 1  # switch | select
        node = self._new("CONTROL_STRUCTURE", t, name="SWITCH", code=t.text)
        if t.text == "switch" and not self._at("{"):
            if self._has_semi_before_brace():
                for _n in self._parse_stmt():
                    node.add(_n)
                self._accept(";")
            if not self._at("{"):
                cond = self._parse_expr()
                node.add(cond)
                node.condition_child = cond
        if node.condition_child is None:
            cond = self._new("LITERAL", t, code="true", type_full_name="boolean")
            node.add(cond)
            node.condition_child = cond
        blk_tok = self._tok()
        self._expect("{")
        self.scopes.append({})
        blk = self._new("BLOCK", blk_tok, code="{ ... }")
        while not self._at_eof() and not self._at("}"):
            ct = self._tok()
            if ct.text == "case":
                self.i += 1
                estart = self.i
                depth = 0
                while not self._at_eof():
                    x = self._tok().text
                    if x in ("(", "["):
                        depth += 1
                    elif x in (")", "]"):
                        depth -= 1
                    elif depth == 0 and x == ":":
                        break
                    self.i += 1
                code = self._slice(estart)
                self._accept(":")
                blk.add(self._new("JUMP_TARGET", ct, name="case", code=f"case {code}:"))
                continue
            if ct.text == "default":
                self.i += 1
                self._accept(":")
                blk.add(self._new("JUMP_TARGET", ct, name="default", code="default:"))
                continue
            before = self.i
            for n in self._parse_stmt_safe():
                blk.add(n)
            if self.i == before:
                self.i += 1
        self._accept("}")
        self.scopes.pop()
        node.add(blk)
        return node
