//! The per-file item index: functions (with enclosing impl types),
//! struct fields, and per-function *body facts* — call sites with
//! receiver chains, panic/arithmetic/allocation sites, push loops, lock
//! regions — plus the file's float-ordering sites. `facts` is the only
//! pass that finds sites: every rule reads what it recorded, so a file
//! is lexed and walked exactly once per run.
//!
//! The index is deliberately *syntactic*: receiver types are recorded as
//! ident chains (`self.arena`) plus a per-function table of typed
//! params/locals, and resolution against other files' items happens
//! later in `callgraph` with the global field/impl tables. Anything the
//! heuristics cannot resolve stays `Opaque`/external and is treated
//! conservatively by the transitive rules.

use crate::lexer::{lex, Tok, Token};

/// Methods that allocate an owned copy. `.copied()` is deliberately
/// absent: it only compiles for `Copy` element types, so it is its own
/// proof that no allocation happens.
pub(crate) const ALLOC_METHODS: &[&str] = &["clone", "cloned", "to_vec", "to_owned"];
pub(crate) const PANIC_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "unwrap_unchecked",
    "get_unchecked",
    "get_unchecked_mut",
];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];
/// Calls whose presence in a function body counts as "the buffer was
/// sized": one anywhere in the function is taken as evidence the author
/// thought about growth.
const RESERVERS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// One indexed source file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    pub fns: Vec<FnItem>,
    pub fields: Vec<FieldDef>,
    /// `type A = B;` aliases: alias name → outer segment of the target
    /// (`type CounterDelta = CounterVector;` records
    /// `("CounterDelta", "CounterVector")`).
    pub aliases: Vec<(String, String)>,
    /// `.partial_cmp(` calls and `NAN` constants outside test code,
    /// module-level tokens included (R3).
    pub float_sites: Vec<Site>,
}

/// A named struct field and the outermost path segment of its type
/// (`frames: Vec<Frame>` records `Vec`; `arena: IngestArena` records
/// `IngestArena`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub owner: String,
    pub field: String,
    pub ty: String,
}

/// One function item and the facts extracted from its body. Closures
/// and nested blocks belong to their enclosing function; nested `fn`
/// items own their bodies.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type's last path segment, if any.
    pub impl_type: Option<String>,
    /// The trait this method belongs to: `Tr` inside `impl Tr for X` and
    /// inside `trait Tr` itself. A call on a `dyn Tr`/`impl Tr` receiver
    /// lands on every such method.
    pub trait_name: Option<String>,
    pub line: u32,
    pub test: bool,
    /// Declared parameters, the `self` receiver excluded; `None` when
    /// the signature did not parse.
    pub params: Option<usize>,
    /// The first parameter is a `self` receiver (a method, callable
    /// with `.name(..)` syntax).
    pub has_self: bool,
    /// The body calls `with_capacity`/`reserve`/`reserve_exact` —
    /// evidence the author sized their buffers (R6).
    pub reserves: bool,
    /// Typed params and `let` locals: name → outer type segment.
    pub locals: Vec<(String, String)>,
    pub calls: Vec<CallSite>,
    /// `unwrap`/`expect`-family methods, panicking macros and direct
    /// indexing, each with a human-readable description.
    pub panic_sites: Vec<Site>,
    /// Unchecked `value (+|-|*) value`; R5 reads these only in the
    /// files where attacker-controlled lengths feed size math.
    pub arith_sites: Vec<Site>,
    /// `clone`/`cloned`/`to_vec`/`to_owned` call sites.
    pub alloc_sites: Vec<Site>,
    /// `.push(...)` inside a `for`/`while`/`loop` body.
    pub push_loops: Vec<Site>,
    pub lock_regions: Vec<LockRegion>,
}

/// A flagged body location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub line: u32,
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub callee: String,
    pub recv: Recv,
    pub line: u32,
    /// Arguments written at the call (`None` for a bare fn reference
    /// and for a group the scanner could not close). Resolution rejects
    /// candidates that declare a different number of parameters.
    pub args: Option<usize>,
}

/// How a call names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `name(...)` or `path::name(...)`; the qualifier is the path
    /// segment directly before the name, when present.
    Free { qualifier: Option<String> },
    /// `.name(...)` on an ident chain, e.g. `self.arena.push_batch(..)`
    /// records `["self", "arena"]`.
    Chain(Vec<String>),
    /// `.name(...)` on a non-ident expression (call result, literal…).
    Opaque,
    /// A bare ident in argument position — `sort_by(fragment_order)`.
    /// Usually a plain variable, so it resolves only against workspace
    /// free fns and never taints when unresolved.
    FnRef,
}

/// The tokens between a `.lock()` acquire and the end of its guard's
/// life (end of statement for temporaries, end of the enclosing block or
/// an explicit `drop(guard)` for `let`-bound guards), with everything R7
/// cares about collected from that extent.
#[derive(Debug, Clone, Default)]
pub struct LockRegion {
    /// Normalised lock identity: the last segment of the receiver chain
    /// (`self.shared.state` and `shared.state` both map to `state`).
    pub lock_id: String,
    pub line: u32,
    /// Calls made while the guard is (conservatively) held.
    pub calls: Vec<CallSite>,
    /// Rayon entry points inside the extent (`rayon::join`, `.par_iter()`…).
    pub rayon_sites: Vec<Site>,
    /// Channel sends inside the extent.
    pub send_sites: Vec<Site>,
    /// Further `.lock()` acquires inside the extent: `(lock_id, line)`.
    pub nested_locks: Vec<(String, u32)>,
}

/// Methods that enter a rayon parallel region.
const RAYON_METHODS: &[&str] = &["par_iter", "into_par_iter", "par_chunks", "par_bridge"];
/// Free/path calls that enter the rayon pool when qualified with
/// `rayon::`. `spawn` hands the closure to another thread and
/// `yield_now` runs somebody else's queued job on this one: either way
/// code that may want the held lock runs before the guard is dropped.
const RAYON_FREE: &[&str] = &["join", "scope", "spawn", "yield_now"];
/// Channel-send method names.
const SEND_METHODS: &[&str] = &["send", "try_send", "send_timeout"];
/// Pseudo-type recorded for `let f = |..| ..` closure bindings; a call
/// through such a binding runs code already scanned inline.
pub const CLOSURE_TY: &str = "{closure}";

/// What an `impl`/`trait` block is for: the type's last path segment
/// and, for `impl Tr for X` and `trait Tr`, the trait's.
#[derive(Debug, Clone, Default, PartialEq)]
struct ImplOf {
    ty: Option<String>,
    tr: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum ScopeKind {
    Block,
    Fn(usize),
    Impl(ImplOf),
    Struct(String),
}

#[derive(Debug, Clone)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

#[derive(Debug)]
enum Pending {
    Fn { sig_start: usize },
    Mod(String),
    Impl(ImplOf),
    Struct(String),
    Item,
}

/// Ownership of each token: the innermost enclosing `fn` item, if any,
/// and whether the token sits in test-only code.
struct Structure {
    owner: Vec<Option<usize>>,
    in_test: Vec<bool>,
    fns: Vec<FnItem>,
    fields: Vec<FieldDef>,
    aliases: Vec<(String, String)>,
    /// Signature token range per fn (between the name and the body `{`).
    sigs: Vec<(usize, usize)>,
}

/// Index one source file.
pub fn index_file(src: &str) -> FileIndex {
    let lexed = lex(src);
    index_tokens(&lexed.tokens)
}

/// Index an already-lexed token stream.
pub fn index_tokens(tokens: &[Token]) -> FileIndex {
    let st = structure(tokens);
    let mut fns = st.fns;
    for (f, item) in fns.iter_mut().enumerate() {
        let (sig_start, sig_end) = st.sigs[f];
        collect_params(&tokens[sig_start..sig_end], item);
        collect_arity(&tokens[sig_start..sig_end], item);
    }
    let float_sites = facts(tokens, &st.owner, &st.in_test, &mut fns);
    FileIndex { fns, fields: st.fields, aliases: st.aliases, float_sites }
}

/// Pass A: brace-scope structure — which fn owns each token, impl types,
/// struct fields, and test attribution (`#[test]`, `#[cfg(test)]` items
/// and `mod tests`).
fn structure(tokens: &[Token]) -> Structure {
    let mut owner: Vec<Option<usize>> = Vec::with_capacity(tokens.len());
    let mut in_test: Vec<bool> = Vec::with_capacity(tokens.len());
    let mut fns: Vec<FnItem> = Vec::new();
    let mut sigs: Vec<(usize, usize)> = Vec::new();
    let mut fields: Vec<FieldDef> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new();

    let mut stack: Vec<Scope> = Vec::new();
    let mut attr_depth: Option<u32> = None;
    let mut attr_inner = false;
    let mut attr_has_test = false;
    let mut pending_attr_test = false;
    let mut pending: Option<(Pending, bool)> = None;
    let mut pending_nest: i64 = 0;
    let mut root_test = false;

    let cur_fn = |stack: &[Scope]| -> Option<usize> {
        stack.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(f) => Some(f),
            _ => None,
        })
    };
    let cur_impl = |stack: &[Scope]| -> ImplOf {
        stack
            .iter()
            .rev()
            .find_map(|s| match &s.kind {
                ScopeKind::Impl(of) if of.ty.is_some() => Some(of.clone()),
                _ => None,
            })
            .unwrap_or_default()
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let top_test = stack.last().map(|s| s.test).unwrap_or(root_test);
        // Tokens an item header skipped over belong where it started.
        owner.resize(i + 1, cur_fn(&stack));
        in_test.resize(i + 1, top_test);
        let t = &tokens[i];

        if let Some(depth) = attr_depth {
            match &t.tok {
                Tok::Ident(s) if s == "test" => attr_has_test = true,
                Tok::Punct(p) if p == "[" => attr_depth = Some(depth + 1),
                Tok::Punct(p) if p == "]" => {
                    if depth == 0 {
                        attr_depth = None;
                        if attr_has_test {
                            if attr_inner {
                                match stack.last_mut() {
                                    Some(s) => s.test = true,
                                    None => root_test = true,
                                }
                            } else {
                                pending_attr_test = true;
                            }
                        }
                        attr_has_test = false;
                    } else {
                        attr_depth = Some(depth - 1);
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        if let Tok::Punct(p) = &t.tok {
            if p == "#" {
                let (bang, bracket) = match (tokens.get(i + 1), tokens.get(i + 2)) {
                    (Some(a), b) => {
                        if a.tok == Tok::Punct("!".into()) {
                            (true, b.map(|x| x.tok == Tok::Punct("[".into())).unwrap_or(false))
                        } else {
                            (false, a.tok == Tok::Punct("[".into()))
                        }
                    }
                    _ => (false, false),
                };
                if bracket {
                    attr_depth = Some(0);
                    attr_inner = bang;
                    attr_has_test = false;
                    i += if bang { 3 } else { 2 };
                    continue;
                }
            }
        }

        if pending.is_some() {
            match &t.tok {
                Tok::Punct(p) if p == "(" || p == "[" => pending_nest += 1,
                Tok::Punct(p) if p == ")" || p == "]" => pending_nest -= 1,
                Tok::Punct(p) if p == ";" && pending_nest == 0 => {
                    if let Some((Pending::Fn { sig_start, .. }, _)) = &pending {
                        // Body-less signature (trait decl, extern): the
                        // fn was registered; give it empty ranges.
                        let f = fns.len() - 1;
                        sigs[f] = (*sig_start, i);
                    }
                    pending = None;
                }
                Tok::Punct(p) if p == "{" && pending_nest == 0 => {
                    let (kind, attr_test) = pending.take().unwrap_or((Pending::Item, false));
                    let test = top_test
                        || attr_test
                        || matches!(&kind, Pending::Mod(n) if n == "tests");
                    let scope_kind = match kind {
                        Pending::Fn { sig_start, .. } => {
                            let f = fns.len() - 1;
                            fns[f].test = test;
                            sigs[f] = (sig_start, i);
                            ScopeKind::Fn(f)
                        }
                        Pending::Impl(t) => ScopeKind::Impl(t),
                        Pending::Struct(n) => ScopeKind::Struct(n),
                        Pending::Mod(_) | Pending::Item => ScopeKind::Block,
                    };
                    stack.push(Scope { kind: scope_kind, test });
                    i += 1;
                    continue;
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        match &t.tok {
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(Token { tok: Tok::Ident(name), line }) = tokens.get(i + 1) {
                    let of = cur_impl(&stack);
                    fns.push(FnItem {
                        name: name.clone(),
                        impl_type: of.ty,
                        trait_name: of.tr,
                        line: *line,
                        test: top_test || pending_attr_test,
                        ..FnItem::default()
                    });
                    sigs.push((i + 2, i + 2));
                    pending = Some((
                        Pending::Fn { sig_start: i + 2 },
                        pending_attr_test,
                    ));
                    pending_attr_test = false;
                    pending_nest = 0;
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "mod" => {
                if let Some(Token { tok: Tok::Ident(name), .. }) = tokens.get(i + 1) {
                    pending = Some((Pending::Mod(name.clone()), pending_attr_test));
                    pending_attr_test = false;
                    pending_nest = 0;
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let (of, next) = impl_target(tokens, i + 1, kw == "trait");
                pending = Some((Pending::Impl(of), pending_attr_test));
                pending_attr_test = false;
                pending_nest = 0;
                i = next;
                continue;
            }
            Tok::Ident(kw) if kw == "struct" => {
                if let Some(Token { tok: Tok::Ident(name), .. }) = tokens.get(i + 1) {
                    pending = Some((Pending::Struct(name.clone()), pending_attr_test));
                    pending_attr_test = false;
                    pending_nest = 0;
                    i += 2;
                    continue;
                }
            }
            // `type A = ...;` — record the alias target's outer segment
            // (last uppercase ident at angle-depth 0 before the `;`).
            Tok::Ident(kw) if kw == "type" => {
                if let (Some(Token { tok: Tok::Ident(name), .. }), true) = (
                    tokens.get(i + 1),
                    tokens.get(i + 2).is_some_and(|n| n.tok == Tok::Punct("=".into())),
                ) {
                    let mut j = i + 3;
                    let mut angle = 0i64;
                    let mut target: Option<String> = None;
                    while let Some(t) = tokens.get(j) {
                        match &t.tok {
                            Tok::Punct(p) if p == ";" => break,
                            Tok::Punct(p) if p == "<" => angle += 1,
                            Tok::Punct(p) if p == ">" => angle -= 1,
                            Tok::Ident(seg)
                                if angle == 0
                                    && seg
                                        .chars()
                                        .next()
                                        .is_some_and(|c| c.is_ascii_uppercase()) =>
                            {
                                target = Some(seg.clone());
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(target) = target {
                        if &target != name {
                            aliases.push((name.clone(), target));
                        }
                    }
                    i = j;
                    continue;
                }
            }
            Tok::Ident(kw)
                if pending_attr_test
                    && matches!(kw.as_str(), "enum" | "union" | "macro_rules") =>
            {
                pending = Some((Pending::Item, true));
                pending_attr_test = false;
                pending_nest = 0;
            }
            Tok::Punct(p) if p == "{" => {
                let test = top_test;
                stack.push(Scope { kind: ScopeKind::Block, test });
            }
            Tok::Punct(p) if p == "}" => {
                stack.pop();
            }
            // Struct field: `name :` directly inside a struct body.
            Tok::Ident(name)
                if tokens.get(i + 1).is_some_and(|n| n.tok == Tok::Punct(":".into()))
                    && !tokens.get(i + 2).is_some_and(|n| n.tok == Tok::Punct(":".into())) =>
            {
                if let (Some(ScopeKind::Struct(owner_name)), Some(ty)) =
                    (stack.last().map(|s| s.kind.clone()), outer_type(tokens, i + 2))
                {
                    fields.push(FieldDef { owner: owner_name, field: name.clone(), ty });
                }
            }
            _ => {}
        }
        i += 1;
    }
    owner.resize(tokens.len(), None);
    in_test.resize(tokens.len(), root_test);
    Structure { owner, in_test, fns, fields, aliases, sigs }
}

/// Parse the target of an `impl`/`trait` item starting at `i` (right
/// after the keyword): skip generics, read the type path; when a `for`
/// follows, that path was the trait and the type comes after. Returns
/// the last path segments and the index to resume scanning from (the
/// caller's pending-item machinery finds the `{`).
fn impl_target(tokens: &[Token], mut i: usize, is_trait: bool) -> (ImplOf, usize) {
    let start = i;
    i = skip_generics(tokens, i);
    if is_trait {
        // `trait Name` — the name is the first ident.
        if let Some(Token { tok: Tok::Ident(name), .. }) = tokens.get(i) {
            return (ImplOf { ty: Some(name.clone()), tr: Some(name.clone()) }, i + 1);
        }
        return (ImplOf::default(), start);
    }
    let mut last: Option<String> = None;
    let mut chosen: Option<String> = None;
    let mut tr: Option<String> = None;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Ident(s) if s == "for" => {
                tr = chosen.take().or(last.take());
                i += 1;
            }
            Tok::Ident(s) if s == "where" => break,
            Tok::Ident(s) => {
                last = Some(s.clone());
                i += 1;
            }
            Tok::Punct(p) if p == "::" || p == "&" || p == "(" || p == ")" || p == "," => {
                i += 1;
            }
            Tok::Punct(p) if p == "<" || p == "<<" => {
                chosen = chosen.or(last.take());
                i = skip_generics(tokens, i);
            }
            Tok::Punct(p) if p == "{" => break,
            _ => {
                i += 1;
            }
        }
        if matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if p == "{") {
            break;
        }
    }
    (ImplOf { ty: chosen.or(last), tr }, start)
}

/// Skip a `<...>` generics group starting at `i` (when present),
/// counting `<<`/`>>` as two brackets.
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0i64;
    let starts = matches!(
        tokens.get(i).map(|t| &t.tok),
        Some(Tok::Punct(p)) if p == "<" || p == "<<"
    );
    if !starts {
        return i;
    }
    while let Some(t) = tokens.get(i) {
        if let Tok::Punct(p) = &t.tok {
            match p.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" | ">=" => depth -= 1,
                ">>" | ">>=" => depth -= 2,
                _ => {}
            }
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// The outermost path segment of a type starting at token `i`:
/// `Vec<Frame>` → `Vec`, `crate::detect::window::Window` → `Window`,
/// `&mut IngestArena` → `IngestArena`.
fn outer_type(tokens: &[Token], mut i: usize) -> Option<String> {
    let mut last: Option<String> = None;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct(p) if p == "&" => i += 1,
            Tok::Ident(s) if s == "mut" || s == "dyn" || s == "impl" => i += 1,
            Tok::Ident(s) => {
                last = Some(s.clone());
                if tokens.get(i + 1).is_some_and(|n| n.tok == Tok::Punct("::".into())) {
                    i += 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    last
}

/// How many comma-separated items the parenthesised group opened at
/// `open` holds; `None` when `open` is not a `(` or the group never
/// closes. Commas inside nested `()`/`[]`/`{}` groups do not count; nor
/// do those of a generic argument list (every `<..>` when `types` is
/// set — a signature — and only a turbofish `::<..>` in an expression,
/// where a bare `<` is a comparison) or of a closure's `|a, b|`
/// parameter list.
fn group_arity(tokens: &[Token], open: usize, types: bool) -> Option<usize> {
    if tokens.get(open)?.tok != Tok::Punct("(".into()) {
        return None;
    }
    let (mut nest, mut angle, mut commas) = (0i64, 0i64, 0usize);
    let mut item_start = open + 1;
    let mut i = open + 1;
    while let Some(Token { tok, .. }) = tokens.get(i) {
        match tok {
            Tok::Punct(p) if matches!(p.as_str(), "(" | "[" | "{") => nest += 1,
            Tok::Punct(p) if matches!(p.as_str(), ")" | "]" | "}") && nest > 0 => nest -= 1,
            // A trailing comma opens no further item.
            Tok::Punct(p) if p == ")" => return Some(commas + usize::from(item_start < i)),
            Tok::Punct(p)
                if p == "<"
                    && (types || angle > 0 || tokens[i - 1].tok == Tok::Punct("::".into())) =>
            {
                angle += 1
            }
            Tok::Punct(p) if (p == ">" || p == ">>") && angle > 0 => {
                angle = (angle - p.len() as i64).max(0)
            }
            Tok::Punct(p) if p == "," && nest == 0 && angle == 0 => {
                commas += 1;
                item_start = i + 1;
            }
            // A closure's parameter list opens an argument.
            Tok::Punct(p)
                if p == "|"
                    && !types
                    && nest == 0
                    && (i == item_start || tokens[i - 1].tok == Tok::Ident("move".into())) =>
            {
                i += 1;
                while tokens.get(i).is_some_and(|t| t.tok != Tok::Punct("|".into())) {
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parameter count and `self` receiver of a signature token range.
fn collect_arity(sig: &[Token], item: &mut FnItem) {
    // The parameter list is the first `(` outside the generics.
    let mut angle = 0i64;
    let open = sig.iter().position(|t| match &t.tok {
        Tok::Punct(p) if p == "<" => {
            angle += 1;
            false
        }
        Tok::Punct(p) if p == ">" || p == ">>" => {
            angle -= p.len() as i64;
            false
        }
        Tok::Punct(p) => p == "(" && angle <= 0,
        _ => false,
    });
    let Some(open) = open else { return };
    // `self`, `&self`, `&mut self`, `mut self`, `self: Box<Self>`.
    item.has_self = sig[open + 1..].iter().take(3).any(|t| t.tok == Tok::Ident("self".into()));
    item.params = group_arity(sig, open, true).map(|n| n - usize::from(item.has_self));
}

/// Extract `name: Type` params from a signature token range.
fn collect_params(sig: &[Token], item: &mut FnItem) {
    let mut depth = 0i64;
    let mut i = 0usize;
    while i < sig.len() {
        match &sig[i].tok {
            Tok::Punct(p) if p == "(" => depth += 1,
            Tok::Punct(p) if p == ")" => depth -= 1,
            Tok::Ident(name)
                if depth == 1
                    && sig.get(i + 1).is_some_and(|n| n.tok == Tok::Punct(":".into()))
                    && !sig.get(i + 2).is_some_and(|n| n.tok == Tok::Punct(":".into()))
                    && (i == 0
                        || matches!(&sig[i - 1].tok, Tok::Punct(p) if p == "(" || p == ","))
                    =>
            {
                let rel = i + 2;
                let abs_tokens = &sig[rel..];
                if let Some(ty) = outer_type(abs_tokens, 0) {
                    item.locals.push((name.clone(), ty));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn punct(tokens: &[Token], i: usize, p: &str) -> bool {
    matches!(tokens.get(i), Some(Token { tok: Tok::Punct(q), .. }) if q == p)
}

/// Can `tok` end a value (so a `[` or operator after it indexes or
/// computes)? Keywords cannot: `let [a, b] = …` and `return -1` never
/// look like indexing or arithmetic. (`self` is a value, not on the
/// keyword list.)
fn is_value_end(tok: &Tok) -> bool {
    match tok {
        Tok::Lit => true,
        Tok::Punct(p) => p == ")" || p == "]",
        Tok::Ident(s) => !is_keyword(s),
    }
}

fn is_value_start(tok: &Tok) -> bool {
    match tok {
        Tok::Lit => true,
        Tok::Punct(p) => p == "(",
        Tok::Ident(s) => !is_keyword(s),
    }
}

/// The `(` opening the argument list of a call whose name ends right
/// before `after`: directly there, or past a turbofish (`name::<8>(`).
fn call_paren(tokens: &[Token], after: usize) -> Option<usize> {
    let turbofish = punct(tokens, after, "::")
        && (punct(tokens, after + 1, "<") || punct(tokens, after + 1, "<<"));
    let open = if turbofish { skip_generics(tokens, after + 1) } else { after };
    punct(tokens, open, "(").then_some(open)
}

/// The method call `.name(` / `.name::<..>(` whose `.` is at `dot`.
fn method_call(tokens: &[Token], dot: usize) -> Option<CallSite> {
    if !punct(tokens, dot, ".") {
        return None;
    }
    let Some(Token { tok: Tok::Ident(name), line }) = tokens.get(dot + 1) else { return None };
    let open = call_paren(tokens, dot + 2)?;
    Some(CallSite {
        callee: name.clone(),
        recv: receiver_chain(tokens, dot),
        line: *line,
        args: group_arity(tokens, open, false),
    })
}

/// The free or path call `name(` / `path::name::<..>(` whose name is at
/// `i` (not a method, a `fn` item's own name or an attribute's).
fn free_call(tokens: &[Token], i: usize) -> Option<CallSite> {
    let Tok::Ident(name) = &tokens[i].tok else { return None };
    let open = call_paren(tokens, i + 1)?;
    if is_keyword(name)
        || i == 0
        || punct(tokens, i - 1, ".")
        || punct(tokens, i - 1, "#")
        || tokens[i - 1].tok == Tok::Ident("fn".into())
    {
        return None;
    }
    let qualifier = match (punct(tokens, i - 1, "::"), tokens.get(i.wrapping_sub(2))) {
        (true, Some(Token { tok: Tok::Ident(q), .. })) => Some(q.clone()),
        _ => None,
    };
    Some(CallSite {
        callee: name.clone(),
        recv: Recv::Free { qualifier },
        line: tokens[i].line,
        args: group_arity(tokens, open, false),
    })
}

/// Pass B: body facts — the one site-finding walk. Every fact lands on
/// the fn that owns the token; float-ordering sites are the file's and
/// are returned.
fn facts(
    tokens: &[Token],
    owner: &[Option<usize>],
    in_test: &[bool],
    fns: &mut [FnItem],
) -> Vec<Site> {
    // Loop-body tracking: brace depth plus the depths at which
    // `for`/`while`/`loop` bodies opened.
    let mut depth = 0u32;
    let mut pending_loop = false;
    // Between `impl` and the `{` that opens its block: the `for` of
    // `impl Trait for Type` is not a loop.
    let mut impl_header = false;
    let mut loop_depths: Vec<u32> = Vec::new();
    let in_attr = attr_mask(tokens);
    let mut float_sites = Vec::new();
    let site = |line: u32, what: String| Site { line, what };

    for i in 0..tokens.len() {
        if in_attr[i] {
            continue;
        }
        let t = &tokens[i];

        match &t.tok {
            // `for<'a>` HRTBs are type syntax, not loops.
            Tok::Ident(s) if s == "while" || s == "loop" => pending_loop = true,
            Tok::Ident(s) if s == "impl" => impl_header = true,
            Tok::Ident(s) if s == "for" && !punct(tokens, i + 1, "<") => pending_loop = !impl_header,
            Tok::Ident(s) if s == "NAN" && !in_test[i] => float_sites.push(site(
                t.line,
                "NAN constant in a numeric path corrupts ordering silently".into(),
            )),
            Tok::Punct(p) if p == ";" => (pending_loop, impl_header) = (false, false),
            Tok::Punct(p) if p == "{" => {
                depth += 1;
                impl_header = false;
                if pending_loop {
                    loop_depths.push(depth);
                    pending_loop = false;
                }
            }
            Tok::Punct(p) if p == "}" => {
                if loop_depths.last() == Some(&depth) {
                    loop_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        let method = method_call(tokens, i);
        if method.as_ref().is_some_and(|c| c.callee == "partial_cmp") && !in_test[i] {
            float_sites.push(site(
                tokens[i + 1].line,
                "partial_cmp is not a total order under NaN (use total_cmp)".into(),
            ));
        }

        let Some(f) = owner[i] else { continue };
        let item = &mut fns[f];

        // `let name = Type::..` / `let name = Type { .. }` / `let name: Type`.
        if t.tok == Tok::Ident("let".into()) {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.tok == Tok::Ident("mut".into())) {
                j += 1;
            }
            if let Some(Token { tok: Tok::Ident(name), .. }) = tokens.get(j) {
                if punct(tokens, j + 1, ":") {
                    if let Some(ty) = outer_type(tokens, j + 2) {
                        item.locals.push((name.clone(), ty));
                    }
                } else if punct(tokens, j + 1, "=") {
                    match tokens.get(j + 2).map(|n| &n.tok) {
                        Some(Tok::Ident(ty)) => {
                            if ty == "move" && punct(tokens, j + 3, "|") {
                                item.locals.push((name.clone(), CLOSURE_TY.into()));
                            } else if (punct(tokens, j + 3, "::") || punct(tokens, j + 3, "{"))
                                && ty.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                            {
                                item.locals.push((name.clone(), ty.clone()));
                            }
                        }
                        // `let f = |x| ...` / `let f = || ...`: a closure
                        // binding — calls through it run code already
                        // scanned inline in this fn.
                        Some(Tok::Punct(p)) if p == "|" || p == "||" => {
                            item.locals.push((name.clone(), CLOSURE_TY.into()));
                        }
                        _ => {}
                    }
                }
            }
        }

        if let Some(call) = method {
            let (m, line) = (call.callee.as_str(), call.line);
            if ALLOC_METHODS.contains(&m) {
                item.alloc_sites.push(site(line, format!(".{m}() allocates an owned copy")));
            }
            if PANIC_METHODS.contains(&m) {
                item.panic_sites.push(site(line, format!(".{m}() can panic")));
            }
            if m == "push" && !loop_depths.is_empty() {
                item.push_loops.push(site(
                    line,
                    "per-element .push() in a loop without with_capacity/reserve".into(),
                ));
            }
            if m == "lock" {
                item.lock_regions.push(lock_region(tokens, i, line, &call.recv));
            }
            item.reserves |= RESERVERS.contains(&m);
            item.calls.push(call);
        }
        if let Some(call) = free_call(tokens, i) {
            item.reserves |= RESERVERS.contains(&call.callee.as_str());
            item.calls.push(call);
        }

        match &t.tok {
            Tok::Ident(m) if punct(tokens, i + 1, "!") && PANIC_MACROS.contains(&m.as_str()) => {
                item.panic_sites.push(site(t.line, format!("{m}! can panic")));
            }
            Tok::Punct(p) if p == "[" && i > 0 && is_value_end(&tokens[i - 1].tok) => {
                item.panic_sites.push(site(t.line, "direct slice indexing can panic".into()));
            }
            Tok::Punct(op)
                if matches!(op.as_str(), "+" | "-" | "*")
                    && i > 0
                    && is_value_end(&tokens[i - 1].tok)
                    && tokens.get(i + 1).is_some_and(|n| is_value_start(&n.tok)) =>
            {
                item.arith_sites.push(site(
                    t.line,
                    format!("unchecked `{op}` can overflow (use checked/saturating forms)"),
                ));
            }
            _ => {}
        }
    }

    // Function references passed as arguments: a bare ident followed by
    // `)` or `,` — recorded so `sort_by(fragment_order)` keeps
    // `fragment_order` in the reachable set. Almost all such idents are
    // plain variables, so these sites carry `Recv::FnRef` and resolve
    // only against workspace free fns, never tainting when unresolved.
    for i in 1..tokens.len() {
        let Some(f) = owner[i] else { continue };
        if let Tok::Ident(m) = &tokens[i].tok {
            let before = punct(tokens, i - 1, "(") || punct(tokens, i - 1, ",");
            let after = punct(tokens, i + 1, ")") || punct(tokens, i + 1, ",");
            if before && after && !is_keyword(m) {
                fns[f].calls.push(CallSite {
                    callee: m.clone(),
                    recv: Recv::FnRef,
                    line: tokens[i].line,
                    args: None,
                });
            }
        }
    }
    float_sites
}

/// Token positions inside `#[...]` / `#![...]` attributes: their
/// contents (`#[cfg(feature = "x")]`) look like calls but run nothing.
fn attr_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct("#".into()) {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.tok == Tok::Punct("!".into())) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.tok == Tok::Punct("[".into())) {
                let mut bracket = 0i64;
                let mut k = j;
                while let Some(t) = tokens.get(k) {
                    match &t.tok {
                        Tok::Punct(p) if p == "[" => bracket += 1,
                        Tok::Punct(p) if p == "]" => {
                            bracket -= 1;
                            if bracket == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Walk backwards from a `.` token collecting the receiver ident chain.
fn receiver_chain(tokens: &[Token], dot: usize) -> Recv {
    let mut chain: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 {
            break;
        }
        match &tokens[i - 1].tok {
            Tok::Ident(s) if !is_keyword(s) || s == "self" => {
                chain.push(s.clone());
                if i >= 2 && tokens[i - 2].tok == Tok::Punct(".".into()) {
                    i -= 2;
                    continue;
                }
                // Chain start must not be a call/index result.
                if i >= 2
                    && matches!(&tokens[i - 2].tok, Tok::Punct(p) if p == ")" || p == "]" || p == "." || p == "?")
                {
                    return Recv::Opaque;
                }
                break;
            }
            _ => return Recv::Opaque,
        }
    }
    if chain.is_empty() {
        return Recv::Opaque;
    }
    chain.reverse();
    Recv::Chain(chain)
}

/// Normalised lock identity: the last segment of the receiver chain.
fn lock_id_of(recv: &Recv) -> String {
    match recv {
        Recv::Chain(chain) => chain.last().cloned().unwrap_or_else(|| "<expr>".into()),
        _ => "<expr>".into(),
    }
}

/// Scan forward from a `.lock(` site and collect the guard's extent.
fn lock_region(tokens: &[Token], dot: usize, line: u32, recv: &Recv) -> LockRegion {
    let lock_id = lock_id_of(recv);
    // Is the guard `let`-bound? Walk back past the receiver chain to
    // look for `let [mut] name =`.
    let mut start = dot;
    while start >= 2 && matches!(&tokens[start - 1].tok, Tok::Ident(_)) {
        if tokens[start - 2].tok == Tok::Punct(".".into()) {
            start -= 2;
        } else {
            start -= 1;
            break;
        }
    }
    let mut guard: Option<String> = None;
    if start >= 2 && tokens[start - 1].tok == Tok::Punct("=".into()) {
        if let Tok::Ident(name) = &tokens[start - 2].tok {
            let let_pos = if start >= 3 && tokens[start - 3].tok == Tok::Ident("mut".into()) {
                start.checked_sub(4)
            } else {
                start.checked_sub(3)
            };
            if let_pos
                .and_then(|p| tokens.get(p))
                .is_some_and(|t| t.tok == Tok::Ident("let".into()))
            {
                guard = Some(name.clone());
            }
        }
    }

    let mut region = LockRegion { lock_id, line, ..LockRegion::default() };
    let mut depth = 0i64;
    let mut i = dot + 3; // past `.` `lock` `(`
    // Skip the (normally empty) lock argument list.
    let mut arg_depth = 1i64;
    while let Some(t) = tokens.get(i) {
        if let Tok::Punct(p) = &t.tok {
            if p == "(" {
                arg_depth += 1;
            } else if p == ")" {
                arg_depth -= 1;
                if arg_depth == 0 {
                    i += 1;
                    break;
                }
            }
        }
        i += 1;
    }
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct(p) if p == "{" => depth += 1,
            Tok::Punct(p) if p == "}" => {
                depth -= 1;
                if depth < 0 {
                    break; // enclosing block closed: guard dropped
                }
            }
            Tok::Punct(p) if p == ";" && depth == 0 && guard.is_none() => break,
            Tok::Ident(s) if s == "drop" => {
                // `drop(guard)` ends a let-bound region.
                if let (Some(g), Some(Token { tok: Tok::Punct(open), .. }), Some(arg)) =
                    (&guard, tokens.get(i + 1), tokens.get(i + 2))
                {
                    if open == "(" && arg.tok == Tok::Ident(g.clone()) {
                        break;
                    }
                }
            }
            _ => {}
        }

        if let Some(call) = method_call(tokens, i) {
            let (m, line) = (call.callee.as_str(), call.line);
            if RAYON_METHODS.contains(&m) {
                region.rayon_sites.push(Site { line, what: format!(".{m}() enters rayon") });
            }
            if SEND_METHODS.contains(&m) {
                region.send_sites.push(Site { line, what: format!(".{m}() is a channel send") });
            }
            if m == "lock" {
                region.nested_locks.push((lock_id_of(&call.recv), line));
            }
            region.calls.push(call);
        }
        if let Some(call) = free_call(tokens, i) {
            if RAYON_FREE.contains(&call.callee.as_str())
                && call.recv == (Recv::Free { qualifier: Some("rayon".into()) })
            {
                region.rayon_sites.push(Site {
                    line: call.line,
                    what: format!("rayon::{} entered", call.callee),
                });
            }
            region.calls.push(call);
        }
        i += 1;
    }
    region
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "in" | "if" | "while" | "match" | "return" | "else" | "move" | "mut"
            | "ref" | "as" | "break" | "continue" | "where" | "const" | "static" | "fn"
            | "pub" | "use" | "mod" | "enum" | "struct" | "union" | "trait" | "unsafe"
            | "for" | "loop" | "impl" | "dyn" | "box" | "type" | "crate" | "super"
            | "async" | "await" | "yield" | "true" | "false"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        index_file(src)
    }

    fn find<'a>(ix: &'a FileIndex, name: &str) -> &'a FnItem {
        ix.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("fn {name}"))
    }

    #[test]
    fn impl_types_and_methods_are_indexed() {
        let src = "
            struct Arena { pools: Vec<u32>, tracker: RankTracker }
            impl Arena {
                fn absorb(&mut self) { self.tracker.admit(); }
            }
            impl Iterator for RankTracker {
                fn next(&mut self) -> Option<u32> { None }
            }
            fn free_helper(x: u32) -> u32 { x }
        ";
        let ix = index(src);
        assert_eq!(find(&ix, "absorb").impl_type.as_deref(), Some("Arena"));
        assert_eq!(find(&ix, "next").impl_type.as_deref(), Some("RankTracker"));
        assert_eq!(find(&ix, "free_helper").impl_type, None);
        assert!(ix.fields.contains(&FieldDef {
            owner: "Arena".into(),
            field: "pools".into(),
            ty: "Vec".into()
        }));
        assert!(ix.fields.contains(&FieldDef {
            owner: "Arena".into(),
            field: "tracker".into(),
            ty: "RankTracker".into()
        }));
        let absorb = find(&ix, "absorb");
        assert!(absorb
            .calls
            .iter()
            .any(|c| c.callee == "admit"
                && c.recv == Recv::Chain(vec!["self".into(), "tracker".into()])));
    }

    #[test]
    fn params_and_locals_are_typed() {
        let src = "
            fn f(arena: &mut IngestArena, n: usize) {
                let pool = ColumnarPool::new();
                let other: RankTracker = make();
                let r = Reader { buf: n };
                pool.refill(arena);
                other.admit(n);
                let p: &mut ArenaPool = slot?;
            }
        ";
        let ix = index(src);
        let f = find(&ix, "f");
        assert!(f.locals.contains(&("arena".into(), "IngestArena".into())));
        assert!(f.locals.contains(&("pool".into(), "ColumnarPool".into())));
        assert!(f.locals.contains(&("other".into(), "RankTracker".into())));
        assert!(f.locals.contains(&("r".into(), "Reader".into())), "struct literal");
        assert!(f.locals.contains(&("p".into(), "ArenaPool".into())), "reference to a type");
    }

    #[test]
    fn panic_alloc_and_push_sites_are_collected() {
        let src = "
            const POISON: f64 = f64::NAN;
            fn f(v: &[u8], xs: &Vec<u8>) -> u8 {
                let total = v.len() * 4 + 2;
                let mut out = Vec::new();
                for x in xs.iter() {
                    out.push(*x);
                }
                let _c = xs.clone();
                assert!(v.len() > 0);
                v[0]
            }
        ";
        let ix = index(src);
        let f = find(&ix, "f");
        assert_eq!(f.push_loops.len(), 1);
        assert_eq!(f.alloc_sites.len(), 1);
        assert!(f.panic_sites.iter().any(|s| s.what.contains("assert!")));
        assert!(f.panic_sites.iter().any(|s| s.what.contains("indexing")));
        assert_eq!(f.arith_sites.len(), 2, "`*` and `+`: {:?}", f.arith_sites);
        assert!(!f.reserves);
        assert_eq!(ix.float_sites.len(), 1, "module-level NAN: {:?}", ix.float_sites);
    }

    #[test]
    fn a_trait_impl_block_is_not_a_loop_body() {
        let src = "
            impl Sink for Table {
                fn member(&mut self, row: u32) {
                    self.members.push(row);
                }
                fn fill(&mut self, rows: impl Iterator<Item = u32>) {
                    for row in rows {
                        self.members.push(row);
                    }
                }
            }
        ";
        let ix = index(src);
        assert!(find(&ix, "member").push_loops.is_empty());
        assert_eq!(find(&ix, "fill").push_loops.len(), 1);
    }

    #[test]
    fn lock_regions_track_extent_and_rayon() {
        let src = "
            fn bad(m: &Mutex<Vec<u32>>) {
                let g = m.lock();
                rayon::join(|| g.len(), || 0);
            }
            fn good(m: &Mutex<Vec<u32>>) {
                let g = m.lock();
                drop(g);
                rayon::join(|| 1, || 0);
            }
            fn temporary(m: &Mutex<Vec<u32>>) {
                m.lock().push(1);
                rayon::join(|| 1, || 0);
            }
        ";
        let ix = index(src);
        let bad = find(&ix, "bad");
        assert_eq!(bad.lock_regions.len(), 1);
        assert_eq!(bad.lock_regions[0].lock_id, "m");
        assert_eq!(bad.lock_regions[0].rayon_sites.len(), 1);
        let good = find(&ix, "good");
        assert!(good.lock_regions[0].rayon_sites.is_empty(), "drop(g) ends the region");
        let temp = find(&ix, "temporary");
        assert!(temp.lock_regions[0].rayon_sites.is_empty(), "statement ends the region");
    }

    #[test]
    fn nested_locks_are_recorded() {
        let src = "
            fn f(a: &Mutex<u32>, b: &Mutex<u32>) {
                let g = a.lock();
                let h = b.lock();
                let _ = *g + *h;
            }
        ";
        let ix = index(src);
        let f = find(&ix, "f");
        assert_eq!(f.lock_regions.len(), 2);
        assert_eq!(f.lock_regions[0].nested_locks, vec![("b".into(), 4)]);
    }

    #[test]
    fn test_functions_are_marked() {
        let src = "
            fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let v = vec![1]; v[0]; }
            }
        ";
        let ix = index(src);
        assert!(!find(&ix, "prod").test);
        assert!(find(&ix, "t").test);
    }

    #[test]
    fn parameters_and_arguments_are_counted() {
        let src = "
            impl Matrix {
                fn index(&self, (r, c): (usize, usize)) -> &f64 { &self.data[r * self.cols + c] }
                fn fit<F: Fn(u8) -> u8>(self: Box<Self>, f: F, m: HashMap<u8, Vec<u8>>,) {}
                fn origin() -> Matrix { Matrix::zeros(0, 0) }
            }
            fn caller(m: &Matrix, v: Vec<u8>) {
                m.index((0, 1));
                id.index();
                v.iter().fold(0, |acc, x| acc + x);
                pair(a < b, c > d);
                wrap(parse::<HashMap<u8, u8>>(v), 1,);
                r.column::<8>(n);
            }
        ";
        let ix = index(src);
        let sig = |name: &str| (find(&ix, name).params, find(&ix, name).has_self);
        assert_eq!(sig("index"), (Some(1), true));
        assert_eq!(sig("fit"), (Some(2), true));
        assert_eq!(sig("origin"), (Some(0), false));
        let args = |callee: &str| -> Vec<Option<usize>> {
            let calls = &find(&ix, "caller").calls;
            calls.iter().filter(|c| c.callee == callee).map(|c| c.args).collect()
        };
        assert_eq!(args("index"), [Some(1), Some(0)]);
        assert_eq!(args("fold"), [Some(2)], "a closure's parameter list is one argument");
        assert_eq!(args("pair"), [Some(2)], "a bare `<` in an expression is a comparison");
        assert_eq!(args("wrap"), [Some(2)], "turbofish commas and a trailing comma");
        assert_eq!(args("parse"), [Some(1)], "a turbofish free call is a call");
        assert_eq!(args("column"), [Some(1)], "a turbofish method call is a call");
    }
}
