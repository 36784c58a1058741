//! Phase 1 of the two-phase engine: a lightweight per-file *item model*
//! parsed from the lexed code view — no `syn`, no full grammar. The
//! parser recognizes exactly what the reachability rules need:
//!
//! * `fn` items (free and inside `impl`/`trait` blocks) with their
//!   visibility, `unsafe`-ness, `#[target_feature]` attributes, and
//!   whether they are trait methods;
//! * every call site in a body, classified as a free call (`foo(..)`),
//!   a method call (`x.y.foo(..)`, receiver chain kept for
//!   field-type resolution), or a path call (`Type::foo(..)`); a fn
//!   named as a value (`.map(helper)`, `.or_insert_with(Hist::new)`)
//!   is recorded as a use of it too;
//! * calls outside any fn body: `static`/`const` and `thread_local!`
//!   initializers, and the items inside macros such as `proptest!`;
//! * slice-index expressions (`x[..]`), each with its `// INVARIANT:`
//!   justification status;
//! * guard tokens: `no_grad(` calls and `is_x86_feature_detected!` CPUID
//!   gates;
//! * `struct` field types and simple `let`/parameter types, which feed
//!   the receiver-type heuristics in [`crate::graph`].
//!
//! Everything the parser cannot classify it skips; the linker treats
//! unresolved receivers conservatively (over-approximation), so a parse
//! miss can only add edges downstream, never silently remove a finding
//! the lexical rules would have caught.

use std::collections::BTreeMap;

use crate::lexer::SourceModel;

/// One token of the code view: identifiers/numbers keep their text,
/// punctuation is a single char. Whitespace and blanked literal/comment
/// interiors never become tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// Identifier or number text; empty for punctuation.
    pub text: String,
    /// Punctuation char; `'\0'` for identifiers/numbers.
    pub punct: char,
    /// 0-based source line.
    pub line: usize,
}

impl Tok {
    fn is_ident(&self) -> bool {
        self.punct == '\0'
            && !self.text.is_empty()
            && !self.text.starts_with(|c: char| c.is_ascii_digit())
    }
    fn is(&self, p: char) -> bool {
        self.punct == p
    }
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `foo(..)` — a free function (or an in-scope closure; the linker
    /// only links names that resolve to workspace free fns).
    Free(String),
    /// `recv.chain.foo(..)` — `chain` is the dotted receiver path
    /// (`["self", "model", "lm"]` for `self.model.lm.prefill(..)`);
    /// empty when the receiver is an expression (`f(x).foo(..)`).
    Method { name: String, chain: Vec<String> },
    /// `Qual::foo(..)` — `qualifier` is the last path segment before the
    /// function name (`Tensor` in `zg_tensor::Tensor::from_op(..)`).
    Path { qualifier: String, name: String },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 0-based source line.
    pub line: usize,
    pub kind: CallKind,
    /// The fn is named as a value (`.map(helper)`), not called. The
    /// linker keeps such a site only when it names a workspace fn, since
    /// most bare identifiers are locals.
    pub value: bool,
}

/// A slice-index expression (`x[..]`) inside a body.
#[derive(Debug, Clone)]
pub struct IndexSite {
    /// 0-based source line.
    pub line: usize,
    /// Whether an `// INVARIANT:` justification covers the line.
    pub justified: bool,
}

/// One `fn` item with everything the reachability rules inspect.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// Function name (unqualified).
    pub name: String,
    /// Enclosing `impl`/`trait` self-type, if any.
    pub impl_type: Option<String>,
    /// 0-based declaration line.
    pub line: usize,
    /// Declared plain `pub` (not `pub(crate)`, `pub(super)`, `pub(in ..)`).
    pub is_pub: bool,
    /// Declared in a `trait` block or an `impl Trait for Type` block: a
    /// callee of dispatch the linker cannot see (`Drop::drop`, `fmt`).
    pub trait_method: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Carries a `#[target_feature(..)]` attribute.
    pub has_target_feature: bool,
    /// Declaration sits in test scope (`#[cfg(test)]` / `mod tests` /
    /// a test-only directory).
    pub in_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Slice-index expressions (`x[..]`) in the body.
    pub index_sites: Vec<IndexSite>,
    /// Body calls `no_grad(..)` — a grad-guard node for R2.
    pub calls_no_grad: bool,
    /// Body contains `is_x86_feature_detected!` — a CPUID gate for R4.
    pub has_cpuid_gate: bool,
    /// Known local types: parameter and simple `let` bindings,
    /// name → type's last path segment.
    pub locals: BTreeMap<String, String>,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` for free fns — the form
    /// used by rule roots and the emitted inference-root manifest.
    pub fn qualified_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `struct` definition's named fields (field → type's last segment).
#[derive(Debug, Clone, Default)]
pub struct StructDef {
    pub name: String,
    pub fields: BTreeMap<String, String>,
}

/// Parsed item model of one file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructDef>,
    /// Calls made outside any fn body (`static`, `const` and
    /// `thread_local!` initializers), gathered into unnamed pseudo-fns:
    /// at most one outside and one inside test scope.
    pub item_calls: Vec<FnItem>,
}

/// The modifiers parsed ahead of a `fn` keyword.
struct FnHead {
    is_pub: bool,
    is_unsafe: bool,
    has_target_feature: bool,
    trait_method: bool,
}

/// Tokenize the code view of a lexed file.
pub fn tokenize(model: &SourceModel) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (lineno, line) in model.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' || c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    punct: '\0',
                    line: lineno,
                });
            } else {
                toks.push(Tok {
                    text: String::new(),
                    punct: c,
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    toks
}

/// A justification comment (`tag`) on the flagged line or anywhere in
/// the contiguous comment block directly above it (lines whose code view
/// is blank — pure comment or empty lines). Shared by R1 and the lexical
/// P1/U1 rules, so every rule accepts the same justification.
pub(crate) fn justified(model: &SourceModel, idx: usize, tag: &str) -> bool {
    if model.lines[idx].comment.contains(tag) {
        return true;
    }
    for line in model.lines[..idx].iter().rev() {
        if !line.code.trim().is_empty() {
            return false;
        }
        if line.comment.contains(tag) {
            return true;
        }
    }
    false
}

const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "ref", "mut", "box", "break", "continue", "where", "impl", "dyn", "use", "await",
];

struct Parser<'a> {
    toks: &'a [Tok],
    src: &'a SourceModel,
    i: usize,
    out: FileModel,
    /// Item-level calls outside (`[0]`) and inside (`[1]`) test scope.
    item_calls: [FnItem; 2],
}

/// Parse a lexed file into its item model. `path` is workspace-relative.
pub fn parse_file(path: &str, src: &SourceModel) -> FileModel {
    let toks = tokenize(src);
    let mut p = Parser {
        toks: &toks,
        src,
        i: 0,
        out: FileModel {
            path: path.to_string(),
            ..FileModel::default()
        },
        item_calls: Default::default(),
    };
    p.parse_items(None, false);
    for (in_test, mut item) in [false, true].into_iter().zip(p.item_calls) {
        if !item.calls.is_empty() {
            item.in_test = in_test;
            p.out.item_calls.push(item);
        }
    }
    p.out
}

impl<'a> Parser<'a> {
    fn peek(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.i + off)
    }

    fn in_test_at(&self, line: usize) -> bool {
        self.src.lines.get(line).is_some_and(|l| l.in_test)
    }

    /// Skip a balanced `#[..]` / `#![..]` attribute starting at `#`,
    /// returning the identifiers seen inside.
    fn skip_attr(&mut self) -> Vec<String> {
        let mut idents = Vec::new();
        self.i += 1; // '#'
        if self.peek(0).is_some_and(|t| t.is('!')) {
            self.i += 1;
        }
        if !self.peek(0).is_some_and(|t| t.is('[')) {
            return idents;
        }
        let mut depth = 0i64;
        while let Some(t) = self.toks.get(self.i) {
            if t.is('[') {
                depth += 1;
            } else if t.is(']') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    break;
                }
            } else if t.is_ident() {
                idents.push(t.text.clone());
            }
            self.i += 1;
        }
        idents
    }

    /// Skip a balanced token group opened by the char at the cursor.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i64;
        while let Some(t) = self.toks.get(self.i) {
            if t.is(open) {
                depth += 1;
            } else if t.is(close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            } else if open == '<' && t.is('-') && self.peek(1).is_some_and(|n| n.is('>')) {
                // `->` inside generic bounds (`Fn(..) -> T`): the `>` is
                // not a closer.
                self.i += 2;
                continue;
            }
            self.i += 1;
        }
    }

    /// Item-level loop: runs at file top level and inside `impl`/`trait`,
    /// `mod` and other braced bodies (enums, macro invocations such as
    /// `thread_local!` and `proptest!`). Returns on the closing `}` of the
    /// enclosing block (consumed) or at end of input. `in_trait` marks
    /// the fns of a `trait` or `impl Trait for Type` body.
    fn parse_items(&mut self, impl_type: Option<&str>, in_trait: bool) {
        let mut pending_pub = false;
        let mut pending_unsafe = false;
        let mut pending_target_feature = false;
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is('#') {
                let idents = self.skip_attr();
                if idents.iter().any(|s| s == "target_feature") {
                    pending_target_feature = true;
                }
                continue;
            }
            if t.is('}') {
                self.i += 1;
                return;
            }
            if t.is('{') {
                // Any other braced body: enum variants, a `const`
                // initializer block, a macro's items.
                self.i += 1;
                self.parse_items(None, false);
                continue;
            }
            if t.is_ident() {
                match t.text.as_str() {
                    "pub" => {
                        self.i += 1;
                        // `pub(crate)` / `pub(super)` restriction group.
                        if self.peek(0).is_some_and(|n| n.is('(')) {
                            self.skip_balanced('(', ')');
                        } else {
                            pending_pub = true;
                        }
                        continue;
                    }
                    "unsafe" => {
                        pending_unsafe = true;
                        self.i += 1;
                        continue;
                    }
                    // `const fn` / `async fn` keep the pending modifiers.
                    "const" | "async"
                        if self
                            .peek(1)
                            .is_some_and(|n| n.text == "fn" || n.text == "unsafe") =>
                    {
                        self.i += 1;
                        continue;
                    }
                    "use" => {
                        self.skip_use();
                        pending_pub = false;
                        continue;
                    }
                    "fn" => {
                        self.i += 1;
                        self.parse_fn(
                            impl_type,
                            FnHead {
                                is_pub: pending_pub,
                                is_unsafe: pending_unsafe,
                                has_target_feature: pending_target_feature,
                                trait_method: in_trait,
                            },
                        );
                        pending_pub = false;
                        pending_unsafe = false;
                        pending_target_feature = false;
                        continue;
                    }
                    "impl" | "trait" => {
                        self.i += 1;
                        self.parse_impl(t.text == "trait");
                        pending_pub = false;
                        pending_unsafe = false;
                        pending_target_feature = false;
                        continue;
                    }
                    "struct" => {
                        self.i += 1;
                        self.parse_struct();
                        pending_pub = false;
                        pending_unsafe = false;
                        pending_target_feature = false;
                        continue;
                    }
                    "mod" => {
                        // `mod name { .. }` shares the item grammar;
                        // `mod name;` is a file reference.
                        self.i += 1;
                        if self.peek(0).is_some_and(|n| n.is_ident()) {
                            self.i += 1;
                        }
                        if self.peek(0).is_some_and(|n| n.is('{')) {
                            self.i += 1;
                            self.parse_items(None, false);
                        }
                        pending_pub = false;
                        pending_unsafe = false;
                        continue;
                    }
                    _ => {
                        // A call, or a fn named as a value, in an
                        // initializer.
                        if let Some(site) = self.use_site(&t) {
                            let scope = usize::from(self.in_test_at(t.line));
                            self.item_calls[scope].calls.push(site);
                        }
                        self.i += 1;
                        pending_pub = false;
                        pending_unsafe = false;
                        continue;
                    }
                }
            }
            self.i += 1;
        }
    }

    /// Skip a `use` declaration through its `;`: an import names fns
    /// without using them.
    fn skip_use(&mut self) {
        while let Some(t) = self.toks.get(self.i) {
            self.i += 1;
            if t.is(';') {
                return;
            }
        }
    }

    /// After `impl`/`trait`: find the self-type name, then parse the
    /// braced body as an item scope. The self-type is the last
    /// identifier before `{`, outside generic args and before `where`
    /// (`impl<E: Engine> Server<E> { ..` → `Server`;
    /// `impl Engine for ZiGongEngine { ..` → `ZiGongEngine`). The fns of
    /// a `trait` body or a trait impl are trait methods.
    fn parse_impl(&mut self, is_trait: bool) {
        let mut name: Option<String> = None;
        let mut trait_impl = is_trait;
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is('<') {
                self.skip_balanced('<', '>');
                continue;
            }
            if t.is('{') {
                self.i += 1;
                let ty = name.clone();
                self.parse_items(ty.as_deref(), trait_impl);
                return;
            }
            if t.is(';') {
                self.i += 1;
                return;
            }
            if t.is_ident() {
                if t.text == "where" {
                    // Skip the where clause without capturing bound types.
                    while let Some(w) = self.toks.get(self.i) {
                        if w.is('{') || w.is(';') {
                            break;
                        }
                        if w.is('<') {
                            self.skip_balanced('<', '>');
                        } else {
                            self.i += 1;
                        }
                    }
                    continue;
                }
                if t.text == "for" {
                    trait_impl = true;
                } else if t.text != "dyn" && t.text != "mut" {
                    name = Some(t.text.clone());
                }
            }
            self.i += 1;
        }
    }

    /// After `struct`: record named-field types; skip tuple/unit forms.
    fn parse_struct(&mut self) {
        let name = match self.peek(0) {
            Some(t) if t.is_ident() => t.text.clone(),
            _ => return,
        };
        self.i += 1;
        if self.peek(0).is_some_and(|t| t.is('<')) {
            self.skip_balanced('<', '>');
        }
        // Skip a where clause, stop at the defining `{` / `;` / `(`.
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is('(') {
                self.skip_balanced('(', ')');
                return; // tuple struct — fields untyped for our purposes
            }
            if t.is(';') {
                self.i += 1;
                return;
            }
            if t.is('{') {
                break;
            }
            if t.is('<') {
                self.skip_balanced('<', '>');
                continue;
            }
            self.i += 1;
        }
        self.i += 1; // '{'
        let mut def = StructDef {
            name,
            fields: BTreeMap::new(),
        };
        let mut depth = 1i64;
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is('#') {
                self.skip_attr();
                continue;
            }
            if t.is('{') || t.is('(') {
                let close = if t.is('{') { '}' } else { ')' };
                if t.is('{') {
                    depth += 1;
                    self.i += 1;
                    let _ = close;
                } else {
                    self.skip_balanced('(', ')');
                }
                continue;
            }
            if t.is('}') {
                depth -= 1;
                self.i += 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            if t.is('<') {
                self.skip_balanced('<', '>');
                continue;
            }
            if depth == 1
                && t.is_ident()
                && t.text != "pub"
                && self.peek(1).is_some_and(|n| n.is(':'))
                && !self.peek(2).is_some_and(|n| n.is(':'))
            {
                let field = t.text.clone();
                self.i += 2; // name ':'
                if let Some(ty) = self.parse_type_last_segment() {
                    def.fields.insert(field, ty);
                }
                continue;
            }
            self.i += 1;
        }
        self.out.structs.push(def);
    }

    /// At the start of a type: skip `&`/`mut`/`dyn`/`impl`/lifetimes and
    /// return the last path segment before any generic args, leaving the
    /// cursor on the delimiter (`,` `)` `}` `;` `=`). Returns `None` for
    /// non-path types (slices, tuples, fn pointers).
    fn parse_type_last_segment(&mut self) -> Option<String> {
        let mut last: Option<String> = None;
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is(',') || t.is(')') || t.is('}') || t.is(';') || t.is('=') || t.is('{') {
                return last;
            }
            if t.is('<') {
                self.skip_balanced('<', '>');
                continue;
            }
            if t.is('[') {
                self.skip_balanced('[', ']');
                // Slice/array type: no single path segment.
                return last;
            }
            if t.is('(') {
                self.skip_balanced('(', ')');
                return last;
            }
            if t.is_ident() && t.text != "mut" && t.text != "dyn" && t.text != "impl" {
                last = Some(t.text.clone());
            }
            self.i += 1;
        }
        last
    }

    /// After the `fn` keyword: parse name, signature, and body.
    fn parse_fn(&mut self, impl_type: Option<&str>, head: FnHead) {
        let (name, decl_line) = match self.peek(0) {
            Some(t) if t.is_ident() => (t.text.clone(), t.line),
            // `fn(..)` pointer type or malformed input: not a decl.
            _ => return,
        };
        self.i += 1;
        let mut item = FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            line: decl_line,
            is_pub: head.is_pub,
            trait_method: head.trait_method,
            is_unsafe: head.is_unsafe,
            has_target_feature: head.has_target_feature,
            in_test: self.in_test_at(decl_line),
            ..FnItem::default()
        };
        if self.peek(0).is_some_and(|t| t.is('<')) {
            self.skip_balanced('<', '>');
        }
        // Parameter list: capture `name: Type` pairs at depth 1.
        if self.peek(0).is_some_and(|t| t.is('(')) {
            self.i += 1;
            let mut depth = 1i64;
            while let Some(t) = self.toks.get(self.i).cloned() {
                if t.is('(') {
                    depth += 1;
                    self.i += 1;
                    continue;
                }
                if t.is(')') {
                    depth -= 1;
                    self.i += 1;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                if t.is('<') {
                    self.skip_balanced('<', '>');
                    continue;
                }
                // `proptest!` parameters draw from strategy calls
                // (`x in arb_batch()`).
                if let Some(site) = self.use_site(&t) {
                    item.calls.push(site);
                }
                if depth == 1
                    && t.is_ident()
                    && t.text != "mut"
                    && t.text != "self"
                    && self.peek(1).is_some_and(|n| n.is(':'))
                    && !self.peek(2).is_some_and(|n| n.is(':'))
                {
                    let pname = t.text.clone();
                    self.i += 2;
                    if let Some(ty) = self.parse_type_last_segment() {
                        item.locals.insert(pname, ty);
                    }
                    continue;
                }
                self.i += 1;
            }
        }
        // Return type / where clause: skip to the body `{` or a
        // bodiless `;` (trait method declaration — no node).
        loop {
            match self.toks.get(self.i).cloned() {
                Some(t) if t.is(';') => {
                    self.i += 1;
                    return;
                }
                Some(t) if t.is('{') => break,
                Some(t) if t.is('<') => self.skip_balanced('<', '>'),
                Some(t) if t.is('-') && self.peek(1).is_some_and(|n| n.is('>')) => self.i += 2,
                Some(_) => self.i += 1,
                None => return,
            }
        }
        self.i += 1; // body '{'
        self.parse_body(&mut item);
        self.out.fns.push(item);
    }

    /// Walk a body to its matching `}`, collecting call sites, index
    /// expressions, guard tokens, and simple `let` types. Nested `fn`
    /// items are parsed as their own [`FnItem`]s.
    fn parse_body(&mut self, item: &mut FnItem) {
        let mut depth = 1i64;
        while let Some(t) = self.toks.get(self.i).cloned() {
            if t.is('#') {
                self.skip_attr();
                continue;
            }
            if t.is('{') {
                depth += 1;
                self.i += 1;
                continue;
            }
            if t.is('}') {
                depth -= 1;
                self.i += 1;
                if depth == 0 {
                    return;
                }
                continue;
            }
            if t.is('[') {
                // Index expression: `expr[..]` — previous token is an
                // identifier (not a keyword), a number, `)` or `]`.
                let prev = self.i.checked_sub(1).and_then(|j| self.toks.get(j));
                let is_index = prev.is_some_and(|p| {
                    (p.punct == '\0' && !KEYWORDS.contains(&p.text.as_str()))
                        || p.is(')')
                        || p.is(']')
                });
                if is_index && !item.in_test {
                    item.index_sites.push(IndexSite {
                        line: t.line,
                        justified: justified(self.src, t.line, "INVARIANT:"),
                    });
                }
                self.i += 1;
                continue;
            }
            if t.is_ident() {
                let name = t.text.as_str();
                if name == "use" {
                    self.skip_use();
                    continue;
                }
                // `let` bindings: record simple explicit or `Type::new`
                // inferred local types.
                if name == "let" {
                    self.i += 1;
                    if self
                        .peek(0)
                        .is_some_and(|n| n.is_ident() && n.text == "mut")
                    {
                        self.i += 1;
                    }
                    if let Some(n) = self.peek(0).cloned() {
                        if n.is_ident() && !KEYWORDS.contains(&n.text.as_str()) {
                            let lname = n.text.clone();
                            if self.peek(1).is_some_and(|c| c.is(':'))
                                && !self.peek(2).is_some_and(|c| c.is(':'))
                            {
                                self.i += 2;
                                if let Some(ty) = self.parse_type_last_segment() {
                                    item.locals.insert(lname, ty);
                                }
                                continue;
                            }
                            // `let x = Type::..` — first segment names
                            // the type when capitalized.
                            if self.peek(1).is_some_and(|c| c.is('='))
                                && self.peek(2).is_some_and(|c| {
                                    c.is_ident()
                                        && c.text.starts_with(|ch: char| ch.is_ascii_uppercase())
                                })
                                && self.peek(3).is_some_and(|c| c.is(':'))
                                && self.peek(4).is_some_and(|c| c.is(':'))
                            {
                                let ty = self.peek(2).map(|c| c.text.clone());
                                if let Some(ty) = ty {
                                    item.locals.insert(lname, ty);
                                }
                            }
                        }
                    }
                    continue;
                }
                // Macro invocation `name!..`: skipped as a call.
                if self.peek(1).is_some_and(|n| n.is('!')) {
                    if name == "is_x86_feature_detected" {
                        item.has_cpuid_gate = true;
                    }
                    self.i += 2;
                    continue;
                }
                if let Some(site) = self.use_site(&t) {
                    if !site.value
                        && matches!(&site.kind, CallKind::Free(n) | CallKind::Path { name: n, .. } if n == "no_grad")
                    {
                        item.calls_no_grad = true;
                    }
                    item.calls.push(site);
                }
                self.i += 1;
                continue;
            }
            self.i += 1;
        }
    }

    /// The use of a fn at `toks[self.i]`, the identifier `t`: a call
    /// `t(..)`, or `t` named as a value and followed by `)`, `,`, `;`,
    /// `]` or `}` — either as a path (`Hist::default_edges`) or bare
    /// after `(`, `,` or `=` (`.map(to_pretrain_sample)`).
    fn use_site(&self, t: &Tok) -> Option<CallSite> {
        if !t.is_ident() || KEYWORDS.contains(&t.text.as_str()) {
            return None;
        }
        let site = |kind, value| {
            Some(CallSite {
                line: t.line,
                kind,
                value,
            })
        };
        let next = self.peek(1)?;
        if next.is('(') {
            return site(self.call_kind(t), false);
        }
        let ends_value = [')', ',', ';', ']', '}'].iter().any(|&c| next.is(c));
        if !ends_value || !t.text.starts_with(|c: char| c.is_ascii_lowercase()) || t.text == "self"
        {
            return None;
        }
        let back = |k: usize| self.i.checked_sub(k).and_then(|j| self.toks.get(j));
        if back(1).is_some_and(|p| p.is(':')) && back(2).is_some_and(|p| p.is(':')) {
            return site(self.path_kind(t), true);
        }
        if back(1).is_some_and(|p| p.is('(') || p.is(',') || p.is('=')) {
            return site(CallKind::Free(t.text.clone()), true);
        }
        None
    }

    /// Classify the call at `toks[self.i]` (an ident followed by `(`).
    fn call_kind(&self, t: &Tok) -> CallKind {
        let name = t.text.clone();
        let prev = self.i.checked_sub(1).and_then(|j| self.toks.get(j));
        match prev {
            Some(p) if p.is('.') => {
                // Receiver chain: walk `ident(.ident)*` leftward.
                let mut chain = Vec::new();
                let mut j = self.i - 1; // at '.'
                while let Some(recv) = j.checked_sub(1).and_then(|k| self.toks.get(k)) {
                    if recv.is_ident() && !KEYWORDS.contains(&recv.text.as_str()) {
                        chain.push(recv.text.clone());
                        match j.checked_sub(2).and_then(|k| self.toks.get(k)) {
                            Some(d) if d.is('.') => j -= 2,
                            // Chain head must not itself be a field
                            // projection of an expression (`f(x).a.b(..)`).
                            Some(d) if d.is(')') || d.is(']') || d.is('?') => {
                                chain.clear();
                                break;
                            }
                            _ => break,
                        }
                    } else {
                        // Expression receiver: unknown chain.
                        chain.clear();
                        break;
                    }
                }
                chain.reverse();
                CallKind::Method { name, chain }
            }
            Some(p)
                if p.is(':')
                    && self
                        .i
                        .checked_sub(2)
                        .and_then(|j| self.toks.get(j))
                        .is_some_and(|q| q.is(':')) =>
            {
                self.path_kind(t)
            }
            _ => CallKind::Free(name),
        }
    }

    /// `Qual::name` at `toks[self.i]`: the qualifier is the path segment
    /// before the `::`.
    fn path_kind(&self, t: &Tok) -> CallKind {
        let qualifier = self
            .i
            .checked_sub(3)
            .and_then(|j| self.toks.get(j))
            .filter(|q| q.is_ident())
            .map(|q| q.text.clone())
            .unwrap_or_default();
        CallKind::Path {
            qualifier,
            name: t.text.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileModel {
        parse_file("crates/demo/src/lib.rs", &lex(src))
    }

    #[test]
    fn free_fn_with_calls_and_params() {
        let m = parse("pub fn f(x: Foo, n: usize) -> u32 {\n    helper(x);\n    x.go()\n}\n");
        assert_eq!(m.fns.len(), 1);
        let f = &m.fns[0];
        assert_eq!(f.name, "f");
        assert!(f.is_pub);
        assert_eq!(f.impl_type, None);
        assert_eq!(f.locals.get("x").map(String::as_str), Some("Foo"));
        assert_eq!(f.calls.len(), 3);
        assert_eq!(f.calls[0].kind, CallKind::Free("helper".into()));
        // The bare argument `x` may name a fn: kept as a value use.
        assert!(f.calls[1].value);
        assert_eq!(f.calls[1].kind, CallKind::Free("x".into()));
        assert!(!f.calls[2].value);
        assert_eq!(
            f.calls[2].kind,
            CallKind::Method {
                name: "go".into(),
                chain: vec!["x".into()]
            }
        );
    }

    #[test]
    fn impl_methods_get_self_type_incl_trait_impls() {
        let src = "\
impl<E: Engine> Server<E> {
    pub fn tick(&mut self) { self.queue.pop(); }
}
impl Engine for ZiGongEngine {
    fn execute(&mut self) { Self::chunks(1); }
}
";
        let m = parse(src);
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("Server"));
        assert_eq!(m.fns[1].impl_type.as_deref(), Some("ZiGongEngine"));
        assert_eq!(
            m.fns[0].calls[0].kind,
            CallKind::Method {
                name: "pop".into(),
                chain: vec!["self".into(), "queue".into()]
            }
        );
        assert_eq!(
            m.fns[1].calls[0].kind,
            CallKind::Path {
                qualifier: "Self".into(),
                name: "chunks".into()
            }
        );
    }

    #[test]
    fn struct_fields_recorded_with_last_type_segment() {
        let src = "pub struct Replica {\n    model: ZiGongModel,\n    tx: Sender<Msg>,\n    n: usize,\n}\n";
        let m = parse(src);
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(
            s.fields.get("model").map(String::as_str),
            Some("ZiGongModel")
        );
        assert_eq!(s.fields.get("tx").map(String::as_str), Some("Sender"));
    }

    #[test]
    fn index_sites_with_justification() {
        let src = "\
pub fn f(v: &[u32]) -> u32 {
    let a = v[0];
    // INVARIANT: checked non-empty above.
    let b = v[1];
    let c = v[2]; // INVARIANT: len checked by the caller
    a + b + c
}
";
        let m = parse(src);
        let f = &m.fns[0];
        let justified: Vec<bool> = f.index_sites.iter().map(|s| s.justified).collect();
        assert_eq!(justified, vec![false, true, true]);
    }

    #[test]
    fn macro_brackets_are_not_index_sites() {
        let m = parse(
            "pub fn f(o: Option<u32>) -> u32 {\n    let v = vec![1];\n    o.unwrap_or(v[0])\n}\n",
        );
        // vec![..] is a macro, not an index expression; v[0] is an index.
        assert_eq!(m.fns[0].index_sites.len(), 1);
    }

    #[test]
    fn guards_detected() {
        let src = "\
pub fn g() { no_grad(|| body()); }
pub fn s() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }
";
        let m = parse(src);
        assert!(m.fns[0].calls_no_grad);
        assert!(m.fns[1].has_cpuid_gate);
    }

    #[test]
    fn unsafe_and_target_feature_attrs() {
        let src = "\
#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"avx2\")]
unsafe fn mk(kc: usize) {}
pub unsafe fn raw(p: *const f32) -> f32 { *p }
fn safe() {}
";
        let m = parse(src);
        assert!(m.fns[0].is_unsafe && m.fns[0].has_target_feature);
        assert!(m.fns[1].is_unsafe && !m.fns[1].has_target_feature);
        assert!(!m.fns[2].is_unsafe);
    }

    #[test]
    fn trait_method_decls_without_body_are_skipped() {
        let src = "\
pub trait Engine {
    fn execute(&mut self, batch: &[u32]) -> Vec<u32>;
    fn shutdown(&mut self) { cleanup(); }
}
";
        let m = parse(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "shutdown");
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("Engine"));
    }

    #[test]
    fn test_scope_fns_marked() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    fn helper(v: &[u32]) -> u32 { v[0] }
}
";
        let m = parse(src);
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
        // Index sites inside test scope are not collected.
        assert!(m.fns[1].index_sites.is_empty());
    }

    #[test]
    fn let_type_inference_simple() {
        let src = "\
pub fn f() {
    let q: BoundedQueue = make();
    let r = StdRng::seed_from_u64(0);
    q.push(1);
    r.next();
}
";
        let m = parse(src);
        let f = &m.fns[0];
        assert_eq!(f.locals.get("q").map(String::as_str), Some("BoundedQueue"));
        assert_eq!(f.locals.get("r").map(String::as_str), Some("StdRng"));
    }

    #[test]
    fn attribute_contents_are_not_calls_or_indexes() {
        let src = "\
pub fn f() {
    #[cfg(target_arch = \"x86_64\")]
    let avx = detect();
    avx
}
";
        let m = parse(src);
        let names: Vec<String> = m.fns[0]
            .calls
            .iter()
            .map(|c| match &c.kind {
                CallKind::Free(n) => n.clone(),
                CallKind::Method { name, .. } | CallKind::Path { name, .. } => name.clone(),
            })
            .collect();
        assert_eq!(names, vec!["detect"]);
        assert!(m.fns[0].index_sites.is_empty());
    }
}
