//! The whole-workspace conservative call graph and the three rules
//! scoped by it:
//!
//! * **R5 panic-freedom** — every configured entry point (wire decode,
//!   server admission, fleet routing, VOPR oracle) must be panic-free
//!   across its entire reachable call tree. Findings carry the full
//!   call path `entry → helper → panic site`.
//! * **R6 hot-path allocation** — no owned copy and no unreserved
//!   push loop in any function an R6 root reaches: the window-close
//!   door and every function of the hot-path modules.
//! * **R7 lock hygiene** — no guard held across a rayon entry, a
//!   channel send, or a call into another lock-taking function, plus
//!   lock-order cycle detection over the held-edge digraph.
//!
//! Resolution is deliberately conservative. Free and `module::`-path
//! calls resolve by name against workspace free functions; `Type::assoc`
//! calls against the impl index; methods by inferred receiver type
//! (self → impl type, typed params/locals, struct-field chains; a
//! receiver declared `dyn Tr`/`impl Tr` lands on every `impl Tr for _`).
//! A method whose receiver cannot be inferred falls back to *every*
//! workspace method of that name — unless the name is on the
//! total-by-contract std list (`KNOWN_TOTAL`), where by-name taint would
//! drown the signal (`.push()` would otherwise pull in every workspace
//! `push`). The list only ever stands in for a type the index does not
//! know: a receiver whose declared type is a workspace type resolves
//! against the workspace whatever the method is called. Whatever the
//! route, a candidate that declares a different
//! number of parameters than the call passes arguments is not the
//! callee and is dropped (`id.index()` on a `CounterId` is not
//! `impl Index<(usize, usize)> for Matrix`). External calls not on that
//! list are tainted-unless-waived inside an R5 tree.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::items::{
    CallSite, FileIndex, FnItem, Recv, Site, ALLOC_METHODS, CLOSURE_TY, PANIC_METHODS,
};
use crate::rules::{file_matches, FnScope, LintConfig};

/// (file index, fn index) into the workspace file list.
pub(crate) type FnId = (usize, usize);

/// One hop of a reported call path: where the function is defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub file: String,
    pub line: u32,
    pub func: String,
}

/// A transitive finding before waiver application.
#[derive(Debug, Clone)]
pub(crate) struct RawTransitive {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Call path from the entry point to the function holding the site.
    pub path: Vec<Hop>,
    /// Entry-point labels whose trees reach this site.
    pub entries: Vec<String>,
}

/// Per-entry-point reachability for the report.
#[derive(Debug, Clone)]
pub struct EntryStat {
    pub rule: String,
    /// `file::Type::fn` label of the entry point (`file::*` for a scope
    /// that roots every function of its files).
    pub entry: String,
    pub reachable_fns: usize,
    /// Labels of the functions the walk visited, roots included.
    pub reachable: BTreeSet<String>,
}

/// Method/function names assumed total (non-panicking) when they
/// resolve outside the workspace. The contract is by *name*: a name
/// shared between a panicking and a total std API (`Vec::insert` vs
/// `HashMap::insert`) is admitted when the workspace's dominant use is
/// the total one — positional slice/Vec panics are covered by the
/// direct-indexing rule instead. See DESIGN.md §10.
const KNOWN_TOTAL: &[&str] = &[
    // Option/Result plumbing.
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err", "ok_or",
    "ok_or_else", "map_err", "and_then", "or_else", "is_some", "is_none", "is_ok",
    "is_err", "as_ref", "as_mut", "as_deref", "take", "replace", "get_or_insert", "get_or_insert_with",
    "get_or_init", "unwrap_unchecked_never", "into_inner", "map_or", "map_or_else",
    // Containers and slices (total surface).
    "get", "get_mut", "len", "is_empty", "iter", "iter_mut", "into_iter", "push",
    "push_back", "push_front", "pop", "pop_front", "pop_back", "insert", "remove",
    "entry", "or_insert", "or_insert_with", "or_default", "contains", "contains_key",
    "keys", "values", "values_mut", "clear", "truncate", "retain", "extend", "append",
    "drain", "first", "last", "first_mut", "last_mut", "split_first", "split_last",
    "binary_search", "binary_search_by", "binary_search_by_key", "partition_point",
    "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by",
    "sort_unstable_by_key", "dedup", "dedup_by", "dedup_by_key", "fill", "swap_remove",
    "reserve", "reserve_exact", "with_capacity", "capacity", "shrink_to_fit",
    "as_slice", "as_bytes", "as_str", "to_string", "starts_with", "ends_with",
    "trim", "split", "splitn", "split_once", "find", "chars", "bytes", "parse",
    "get_unchecked_never", "concat", "join", "repeat", "make_ascii_lowercase",
    "first_key_value", "last_key_value", "pop_first", "pop_last", "split_at_checked",
    "remainder", "into_boxed_str", "into_boxed_slice", "is_some_and", "is_none_or",
    "then_with", "then", "reverse", "as_chunks", "first_chunk", "split_first_chunk",
    "extend_from_slice", "resize", "retain_mut",
    // Iterator adapters and consumers.
    "map", "filter", "filter_map", "flat_map", "flatten", "chain", "zip", "enumerate",
    "rev", "skip", "take_while", "skip_while", "map_while", "step_by", "cloned", "copied", "fuse",
    "peekable", "peek", "next", "next_back", "nth", "count", "sum", "product", "fold",
    "try_fold", "all", "any", "position", "max", "min", "max_by", "min_by",
    "max_by_key", "min_by_key", "collect", "for_each", "by_ref", "windows", "chunks",
    "chunks_exact", "unzip", "partition", "scan", "cycle_never", "last_never",
    // Numeric total ops.
    "saturating_add", "saturating_sub", "saturating_mul", "checked_add", "checked_sub",
    "checked_mul", "checked_div", "checked_rem", "wrapping_add", "wrapping_sub",
    "wrapping_mul", "overflowing_add", "overflowing_sub", "abs", "signum", "powi",
    "powf", "sqrt", "ln", "log2", "log10", "exp", "floor", "ceil", "round", "trunc",
    "fract", "hypot", "mul_add", "recip", "to_bits", "from_bits", "to_le_bytes",
    "to_be_bytes", "from_le_bytes", "from_be_bytes", "leading_zeros", "trailing_zeros",
    "count_ones", "rotate_left", "rotate_right", "is_finite", "is_nan", "is_infinite",
    "is_sign_negative", "is_sign_positive", "clamp", "total_cmp", "partial_cmp",
    "cmp", "eq", "ne", "hash", "min_val", "max_val", "rem_euclid", "div_euclid",
    "is_power_of_two", "next_power_of_two", "checked_next_power_of_two", "midpoint",
    // Constructors and conversions.
    "new", "default", "from", "into", "try_into", "try_from", "from_utf8",
    "from_utf8_lossy", "to_owned", "to_vec", "clone", "borrow", "borrow_mut",
    "as_ptr", "as_mut_ptr", "cast", "boxed", "leak", "pin", "id", "name",
    // Sync primitives (parking_lot never panics; std poison is surfaced
    // by the unwrap/expect the caller writes, which R5 flags itself).
    "lock", "try_lock", "read", "write", "wait", "notify_one", "notify_all",
    "load", "store", "fetch_add", "fetch_sub", "fetch_or", "fetch_and", "swap",
    "compare_exchange", "compare_exchange_weak", "fetch_update_never",
    // `Cell::set` stores; `OnceLock::set` returns `Result`.
    "set",
    // Time and misc (total by contract).
    "elapsed", "duration_since_never", "as_nanos", "as_micros", "as_millis",
    "as_secs", "as_secs_f64", "saturating_duration_since", "min_stack_never",
    "current_num_threads", "available_parallelism", "hash_one", "finish",
    "catch_unwind",
    "write_u64", "write_u32", "write_u8", "write_usize",
    // Rayon (vendored stub and real crate alike: totality is the
    // closure's business, and closure bodies are scanned inline).
    // `rayon::spawn` only queues its closure and `yield_now` runs a
    // queued job under `catch_unwind`: neither can panic the caller.
    "par_iter", "into_par_iter", "par_chunks", "par_bridge", "yield_now",
    // `rayon::spawn` (above); `thread::Builder::spawn` /
    // `serde_json::from_slice` return `Result`, and the caller's
    // unwrap/expect is what R5 flags.
    "spawn", "from_slice",
    // The x86_64 intrinsics the CRC fold uses: register-to-register ops
    // only (pointer-taking loads and stores stay off the list).
    "_mm_clmulepi64_si128", "_mm_xor_si128", "_mm_and_si128", "_mm_srli_si128",
    "_mm_set_epi64x", "_mm_set_epi32", "_mm_cvtsi32_si128", "_mm_extract_epi32",
    // Free fns / assoc constructors commonly called bare.
    "Some", "Ok", "Err", "None", "size_of", "align_of", "drop", "min_of", "max_of",
    "format", "vec", "mem_take", "mem_replace", "mem_swap", "identity", "once",
    "empty", "repeat_with", "from_fn", "successors", "black_box",
];

/// Receiver types that are std/vendored containers: methods on them are
/// resolved externally (never against same-named workspace methods).
const STD_TYPES: &[&str] = &[
    "Vec", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "String",
    "Option", "Result", "Box", "Arc", "Rc", "Cow", "Cell", "RefCell", "Mutex",
    "RwLock", "Condvar", "OnceLock", "OnceCell", "LazyLock", "AtomicU64",
    "AtomicU32", "AtomicUsize", "AtomicBool", "AtomicI64", "Instant", "Duration",
    "PathBuf", "Path", "Ordering", "Range", "RangeInclusive", "DefaultHasher",
    "JoinHandle", "Builder", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard",
];

/// Std smart pointers that deref to a workspace type: a method that is
/// not one of their own (total) methods lands on the pointee, whose
/// type the field table does not record — resolve it by name.
const DEREF_TYPES: &[&str] = &["Arc", "Rc", "Box"];

/// Resolve `type A = B;` alias chains to their final type name
/// (bounded: an alias of an alias of …).
fn canon<'a>(aliases: &HashMap<&'a str, &'a str>, mut ty: &'a str) -> &'a str {
    for _ in 0..8 {
        match aliases.get(ty) {
            Some(next) => ty = next,
            None => break,
        }
    }
    ty
}

fn is_total(name: &str) -> bool {
    KNOWN_TOTAL.iter().any(|x| x == &name)
}

/// Where a call lands.
pub(crate) enum Target {
    Workspace(Vec<FnId>),
    External { total: bool },
}

pub(crate) struct Graph<'a> {
    pub files: &'a [(String, FileIndex)],
    /// Methods (fns with an impl type) by name, workspace-wide.
    methods_by_name: HashMap<&'a str, Vec<FnId>>,
    /// Free fns (no impl type) by name.
    free_by_name: HashMap<&'a str, Vec<FnId>>,
    /// (impl type, method name) → fns.
    by_impl: HashMap<(&'a str, &'a str), Vec<FnId>>,
    /// (trait, method name) → that method in every `impl Tr for _`.
    by_trait: HashMap<(&'a str, &'a str), Vec<FnId>>,
    /// (owner type, field name) → field outer type.
    fields: HashMap<(&'a str, &'a str), &'a str>,
    /// `type A = B;` — alias name → target, workspace-wide.
    aliases: HashMap<&'a str, &'a str>,
    /// Memoised transitive lock-acquire sets (R7).
    acquires: std::cell::RefCell<HashMap<FnId, BTreeSet<String>>>,
}

impl<'a> Graph<'a> {
    pub(crate) fn build(files: &'a [(String, FileIndex)]) -> Self {
        let mut methods_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut by_impl: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut by_trait: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut fields: HashMap<(&str, &str), &str> = HashMap::new();
        let mut aliases: HashMap<&str, &str> = HashMap::new();
        for (_, ix) in files {
            for (name, target) in &ix.aliases {
                aliases.insert(name.as_str(), target.as_str());
            }
        }
        let canon = |ty: &'a str| canon(&aliases, ty);
        for (fi, (_, ix)) in files.iter().enumerate() {
            for (ni, f) in ix.fns.iter().enumerate() {
                if f.test {
                    continue;
                }
                let id = (fi, ni);
                match &f.impl_type {
                    Some(ty) => {
                        methods_by_name.entry(f.name.as_str()).or_default().push(id);
                        by_impl
                            .entry((canon(ty.as_str()), f.name.as_str()))
                            .or_default()
                            .push(id);
                        if let Some(tr) = f.trait_name.as_deref().filter(|tr| *tr != ty) {
                            by_trait.entry((tr, f.name.as_str())).or_default().push(id);
                        }
                    }
                    None => free_by_name.entry(f.name.as_str()).or_default().push(id),
                }
            }
            for fd in &ix.fields {
                fields.insert(
                    (fd.owner.as_str(), fd.field.as_str()),
                    canon(fd.ty.as_str()),
                );
            }
        }
        Graph {
            files,
            methods_by_name,
            free_by_name,
            by_impl,
            by_trait,
            fields,
            aliases,
            acquires: std::cell::RefCell::new(HashMap::new()),
        }
    }

    fn canon(&self, ty: &'a str) -> &'a str {
        canon(&self.aliases, ty)
    }

    /// `file::Type::name` (`file::name` for a free fn).
    fn label(&self, id: FnId) -> String {
        let item = self.item(id);
        match &item.impl_type {
            Some(ty) => format!("{}::{ty}::{}", self.file(id), item.name),
            None => format!("{}::{}", self.file(id), item.name),
        }
    }

    pub(crate) fn item(&self, id: FnId) -> &'a FnItem {
        &self.files[id.0].1.fns[id.1]
    }

    pub(crate) fn file(&self, id: FnId) -> &'a str {
        &self.files[id.0].0
    }

    /// Infer the outer type of a receiver chain in `caller`'s scope.
    /// Every source (impl type, locals, field table) borrows from
    /// `files`, so the result lives as long as the graph.
    fn chain_type(&self, caller: FnId, chain: &[String]) -> Option<&'a str> {
        let item = self.item(caller);
        let first = chain.first()?;
        let mut ty: &'a str = if first == "self" {
            item.impl_type.as_deref()?
        } else {
            // Last binding wins (shadowing).
            item.locals.iter().rev().find(|(n, _)| n == first).map(|(_, t)| t.as_str())?
        };
        ty = self.canon(ty);
        for seg in &chain[1..] {
            ty = self.fields.get(&(ty, seg.as_str())).copied()?;
        }
        Some(ty)
    }

    /// Where `call` lands, candidates of the wrong arity dropped. A
    /// call left with no workspace candidate is external.
    pub(crate) fn resolve(&self, caller: FnId, call: &CallSite) -> Target {
        match self.resolve_by_name(caller, call) {
            Target::Workspace(mut targets) => {
                targets.retain(|&t| self.arity_matches(t, call));
                if targets.is_empty() {
                    Target::External { total: is_total(&call.callee) }
                } else {
                    Target::Workspace(targets)
                }
            }
            external => external,
        }
    }

    /// Could `call` be a call of `id`, going by argument count alone?
    /// Method syntax passes the receiver outside the parentheses; path
    /// syntax (`Type::method(x, ..)`) passes it as the first argument.
    /// Unknown on either side matches.
    fn arity_matches(&self, id: FnId, call: &CallSite) -> bool {
        let item = self.item(id);
        let (Some(params), Some(args)) = (item.params, call.args) else { return true };
        match call.recv {
            Recv::Chain(_) | Recv::Opaque => item.has_self && params == args,
            Recv::Free { .. } => params + usize::from(item.has_self) == args,
            Recv::FnRef => true,
        }
    }

    fn resolve_by_name(&self, caller: FnId, call: &CallSite) -> Target {
        let callee = call.callee.as_str();
        // `Site(x)`, `StateKey::Site(x)`: an uppercase name that is no
        // workspace fn is a tuple-struct or enum-variant constructor —
        // pure construction, total by definition.
        let ctor = callee.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        match &call.recv {
            Recv::Free { qualifier } => match qualifier {
                // `Self::helper(..)` — the caller's own impl type.
                Some(q) if q == "Self" => match self
                    .item(caller)
                    .impl_type
                    .as_deref()
                    .and_then(|ty| self.by_impl.get(&(self.canon(ty), callee)))
                {
                    Some(t) => Target::Workspace(t.clone()),
                    None => Target::External { total: ctor || is_total(callee) },
                },
                Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                    match self.by_impl.get(&(self.canon(q.as_str()), callee)) {
                        Some(t) => Target::Workspace(t.clone()),
                        None => Target::External { total: ctor || is_total(callee) },
                    }
                }
                _ => {
                    // A closure binding shadows any same-named free fn;
                    // its body was already scanned inline in the caller.
                    // So was the body behind an `impl Fn*` parameter: in
                    // whichever function built the closure.
                    let closure = qualifier.is_none()
                        && self
                            .item(caller)
                            .locals
                            .iter()
                            .rev()
                            .find(|(n, _)| n == callee)
                            .is_some_and(|(_, t)| {
                                matches!(t.as_str(), CLOSURE_TY | "Fn" | "FnMut" | "FnOnce")
                            });
                    if closure {
                        return Target::External { total: true };
                    }
                    match self.free_by_name.get(callee) {
                        Some(t) => Target::Workspace(t.clone()),
                        None => Target::External { total: ctor || is_total(callee) },
                    }
                }
            },
            // Bare ident in argument position: resolve against workspace
            // free fns only; anything else is a plain variable.
            Recv::FnRef => match self.free_by_name.get(callee) {
                Some(t) => Target::Workspace(t.clone()),
                None => Target::External { total: true },
            },
            Recv::Chain(chain) => match self.chain_type(caller, chain) {
                Some(ty) if DEREF_TYPES.contains(&ty) && !is_total(callee) => {
                    self.fallback(callee)
                }
                Some(ty) if STD_TYPES.contains(&ty) => {
                    Target::External { total: is_total(callee) }
                }
                // A declared workspace type: its own method, and for a
                // trait (`dyn Tr`, `impl Tr`) every implementor's.
                Some(ty) => {
                    let of = |map: &HashMap<_, Vec<FnId>>| map.get(&(ty, callee)).cloned();
                    let targets =
                        [of(&self.by_impl), of(&self.by_trait)].into_iter().flatten().flatten();
                    match targets.collect::<Vec<_>>() {
                        t if t.is_empty() => Target::External { total: is_total(callee) },
                        t => Target::Workspace(t),
                    }
                }
                None => self.fallback(callee),
            },
            Recv::Opaque => self.fallback(callee),
        }
    }

    /// Unresolvable receiver: taint every workspace method of that name,
    /// unless the name is total-by-contract (where taint would pull in
    /// `Vec::push`-style noise for every unresolved container).
    fn fallback(&self, callee: &str) -> Target {
        if is_total(callee) {
            return Target::External { total: true };
        }
        match self.methods_by_name.get(callee) {
            Some(t) => Target::Workspace(t.clone()),
            None => Target::External { total: is_total(callee) },
        }
    }

    /// BFS over workspace edges from `roots`. Functions whose *name* is
    /// on the frontier are not visited (nor their bodies scanned).
    pub(crate) fn walk(&self, roots: &[FnId], frontier: &[String]) -> Walk {
        let mut parent: HashMap<FnId, FnId> = HashMap::new();
        let mut order: Vec<FnId> = Vec::new();
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut queue: VecDeque<FnId> = roots.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for call in &self.item(id).calls {
                if let Target::Workspace(targets) = self.resolve(id, call) {
                    for t in targets {
                        let f = self.item(t);
                        if f.test || frontier.iter().any(|n| n == &f.name) {
                            continue;
                        }
                        if seen.insert(t) {
                            parent.insert(t, id);
                            queue.push_back(t);
                        }
                    }
                }
            }
        }
        Walk { order, parent }
    }

    /// Transitive set of lock ids `id` (or anything it can reach) may
    /// acquire. Memoised; in-progress cycles contribute nothing extra.
    pub(crate) fn acquire_set(&self, id: FnId) -> BTreeSet<String> {
        if let Some(cached) = self.acquires.borrow().get(&id) {
            return cached.clone();
        }
        let mut set = BTreeSet::new();
        let mut seen = BTreeSet::new();
        self.collect_acquires(id, &mut set, &mut seen);
        self.acquires.borrow_mut().insert(id, set.clone());
        set
    }

    fn collect_acquires(
        &self,
        id: FnId,
        set: &mut BTreeSet<String>,
        seen: &mut BTreeSet<FnId>,
    ) {
        if !seen.insert(id) {
            return;
        }
        let item = self.item(id);
        for r in &item.lock_regions {
            set.insert(r.lock_id.clone());
            for (n, _) in &r.nested_locks {
                set.insert(n.clone());
            }
        }
        for call in &item.calls {
            if let Target::Workspace(targets) = self.resolve(id, call) {
                for t in targets {
                    if !self.item(t).test {
                        self.collect_acquires(t, set, seen);
                    }
                }
            }
        }
    }
}

pub(crate) struct Walk {
    pub order: Vec<FnId>,
    parent: HashMap<FnId, FnId>,
}

impl Walk {
    /// Call path from the entry to `id`, as definition-site hops.
    fn path(&self, graph: &Graph, mut id: FnId) -> Vec<Hop> {
        let mut hops = Vec::new();
        loop {
            let item = graph.item(id);
            hops.push(Hop {
                file: graph.file(id).to_string(),
                line: item.line,
                func: item.name.clone(),
            });
            match self.parent.get(&id) {
                Some(p) => id = *p,
                None => break,
            }
        }
        hops.reverse();
        hops
    }
}

/// Entry points named by a scope list, as `(label, roots)`: one entry
/// per function a scope names, one for the whole scope when it names
/// none (every non-test function of its files is then a root).
fn entry_fns(graph: &Graph, scopes: &[FnScope]) -> Vec<(String, Vec<FnId>)> {
    let mut out = Vec::new();
    for scope in scopes {
        let mut all = Vec::new();
        for (fi, (rel, ix)) in graph.files.iter().enumerate() {
            if !rel.starts_with(scope.file.as_str()) {
                continue;
            }
            for (ni, f) in ix.fns.iter().enumerate() {
                if f.test {
                    continue;
                }
                if scope.funcs.is_empty() {
                    all.push((fi, ni));
                } else if scope.funcs.iter().any(|n| n == &f.name) {
                    out.push((graph.label((fi, ni)), vec![(fi, ni)]));
                }
            }
        }
        if scope.funcs.is_empty() {
            out.push((format!("{}::*", scope.file), all));
        }
    }
    out
}

/// Raw findings of one run, one per `(rule, file, line, site)`: the
/// first path to reach a site is the one reported, later entries
/// reaching it only append their label.
#[derive(Default)]
struct Raws {
    raws: Vec<RawTransitive>,
    seen: HashMap<(&'static str, String, u32, String), usize>,
}

impl Raws {
    /// `path` is the call path from the entry (R5/R6, quoted in the
    /// message) or just the site's own function (R7).
    fn push(&mut self, rule: &'static str, file: &str, site: &Site, path: &[Hop], entry: &str) {
        let key = (rule, file.to_string(), site.line, site.what.clone());
        match self.seen.get(&key) {
            Some(&i) => {
                if !self.raws[i].entries.iter().any(|e| e == entry) {
                    self.raws[i].entries.push(entry.to_string());
                }
            }
            None => {
                self.seen.insert(key, self.raws.len());
                let via = path.iter().map(|h| h.func.as_str()).collect::<Vec<_>>().join(" → ");
                let message = match rule {
                    "R7" => site.what.clone(),
                    _ => format!("{} reached from {via}", site.what),
                };
                self.raws.push(RawTransitive {
                    rule,
                    file: file.to_string(),
                    line: site.line,
                    message,
                    path: path.to_vec(),
                    entries: vec![entry.to_string()],
                });
            }
        }
    }
}

/// What R5 reports in one function of a door's tree: its panic sites,
/// its unchecked arithmetic where `r5_arith_files` says so, and calls
/// that land outside the workspace on a name not known total.
fn r5_sites(graph: &Graph, cfg: &LintConfig, id: FnId) -> Vec<Site> {
    let item = graph.item(id);
    let mut sites = item.panic_sites.clone();
    if file_matches(graph.file(id), &cfg.r5_arith_files) {
        sites.extend_from_slice(&item.arith_sites);
    }
    for call in &item.calls {
        // unwrap/expect-family calls are the panic sites themselves;
        // clone-family is R6 business.
        let callee = call.callee.as_str();
        if matches!(graph.resolve(id, call), Target::External { total: false })
            && !PANIC_METHODS.contains(&callee)
            && !ALLOC_METHODS.contains(&callee)
        {
            sites.push(Site {
                line: call.line,
                what: format!("call to `{callee}` (external, not on the total-by-contract list)"),
            });
        }
    }
    sites
}

/// What R6 reports in one function an R6 root reaches: owned copies,
/// and push loops unless the function sizes a buffer somewhere.
fn r6_sites(graph: &Graph, id: FnId) -> Vec<Site> {
    // The by-name fallback can wander into the lint's own sources; its
    // allocations are nobody's hot path.
    if graph.file(id).starts_with("crates/lint/") {
        return Vec::new();
    }
    let item = graph.item(id);
    let mut sites = item.alloc_sites.clone();
    if !item.reserves {
        sites.extend_from_slice(&item.push_loops);
    }
    sites
}

/// Run R5/R6/R7 over the workspace. Returns raw findings (waivers are
/// applied by the caller, which owns the per-file waiver tables) and
/// per-entry reachability stats.
pub(crate) fn run_transitive(
    files: &[(String, FileIndex)],
    cfg: &LintConfig,
) -> (Vec<RawTransitive>, Vec<EntryStat>) {
    let graph = Graph::build(files);
    let mut out = Raws::default();
    let mut stats: Vec<EntryStat> = Vec::new();

    // ---- R5 panic-freedom, R6 hot-path allocation --------------------
    let no_frontier: &[String] = &[];
    for (rule, entries, frontier) in [
        ("R5", &cfg.r5_entries, cfg.r5_frontier.as_slice()),
        ("R6", &cfg.r6_entries, no_frontier),
    ] {
        for (label, roots) in entry_fns(&graph, entries) {
            let walk = graph.walk(&roots, frontier);
            for &id in &walk.order {
                let sites = match rule {
                    "R5" => r5_sites(&graph, cfg, id),
                    _ => r6_sites(&graph, id),
                };
                let path = walk.path(&graph, id);
                for site in &sites {
                    out.push(rule, graph.file(id), site, &path, &label);
                }
            }
            stats.push(EntryStat {
                rule: rule.into(),
                entry: label,
                reachable_fns: walk.order.len(),
                reachable: walk.order.iter().map(|&id| graph.label(id)).collect(),
            });
        }
    }

    // ---- R7: lock hygiene --------------------------------------------
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut r7 = |file: &str, line: u32, what: String, path: &[Hop]| {
        out.push("R7", file, &Site { line, what }, path, "workspace")
    };
    for (fi, (rel, ix)) in files.iter().enumerate() {
        if !file_matches(rel, &cfg.r7_files) {
            continue;
        }
        for (ni, item) in ix.fns.iter().enumerate() {
            if item.test {
                continue;
            }
            let id = (fi, ni);
            let hop = [Hop { file: rel.clone(), line: item.line, func: item.name.clone() }];
            for region in &item.lock_regions {
                let guard = &region.lock_id;
                for site in &region.rayon_sites {
                    let what = &site.what;
                    r7(
                        rel,
                        site.line,
                        format!("guard `{guard}` held across a rayon parallel region ({what})"),
                        &hop,
                    );
                }
                for site in &region.send_sites {
                    let what = &site.what;
                    r7(rel, site.line, format!("guard `{guard}` held across a channel send ({what})"), &hop);
                }
                for (nested, line) in &region.nested_locks {
                    if nested == guard {
                        r7(
                            rel,
                            *line,
                            format!("guard `{guard}` re-acquired while already held (self-deadlock)"),
                            &hop,
                        );
                    } else {
                        edges.entry((guard.clone(), nested.clone())).or_insert((rel.clone(), *line));
                    }
                }
                for call in &region.calls {
                    if call.callee == "lock" {
                        continue; // nested acquires handled above
                    }
                    if let Target::Workspace(targets) = graph.resolve(id, call) {
                        let mut acquired: BTreeSet<String> = BTreeSet::new();
                        for t in &targets {
                            acquired.extend(graph.acquire_set(*t));
                        }
                        if acquired.is_empty() {
                            continue;
                        }
                        let names: Vec<_> = acquired.iter().map(|s| format!("`{s}`")).collect();
                        r7(
                            rel,
                            call.line,
                            format!(
                                "guard `{guard}` held across call into lock-taking `{}` (acquires {})",
                                call.callee,
                                names.join(", ")
                            ),
                            &hop,
                        );
                        for a in acquired {
                            if &a != guard {
                                edges.entry((guard.clone(), a)).or_insert((rel.clone(), call.line));
                            }
                        }
                    }
                }
            }
        }
    }
    for cycle in find_cycles(&edges) {
        let (file, line) = edges
            .get(&(cycle[0].clone(), cycle[1].clone()))
            .cloned()
            .unwrap_or_else(|| ("<workspace>".into(), 0));
        let names: Vec<_> = cycle.iter().map(|s| format!("`{s}`")).collect();
        r7(&file, line, format!("lock-order cycle: {}", names.join(" → ")), &[]);
    }

    (out.raws, stats)
}

/// Elementary cycles in the lock-order digraph, canonicalised (rotated
/// so the smallest node leads, closing node repeated at the end).
fn find_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut stack: Vec<&str> = vec![start];
        let mut on_stack: Vec<&str> = vec![start];
        dfs_cycles(start, start, &adj, &mut stack, &mut on_stack, &mut found);
    }
    found.into_iter().collect()
}

fn dfs_cycles<'s>(
    node: &'s str,
    start: &'s str,
    adj: &BTreeMap<&'s str, Vec<&'s str>>,
    stack: &mut Vec<&'s str>,
    on_stack: &mut Vec<&'s str>,
    found: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if next == start {
            // Canonicalise: rotate so the lexicographically smallest
            // node leads, then close the loop.
            let min_pos = stack
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| **s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut cyc: Vec<String> =
                stack[min_pos..].iter().chain(stack[..min_pos].iter()).map(|s| s.to_string()).collect();
            let head = cyc[0].clone();
            cyc.push(head);
            found.insert(cyc);
        } else if !on_stack.contains(&next) && next > start {
            // `next > start` keeps each cycle discovered exactly once
            // (only from its smallest node).
            stack.push(next);
            on_stack.push(next);
            dfs_cycles(next, start, adj, stack, on_stack, found);
            stack.pop();
            on_stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, FileIndex)> {
        srcs.iter().map(|(rel, src)| (rel.to_string(), index_file(src))).collect()
    }

    fn cfg_r5(entry_file: &str, entry_fn: &str) -> LintConfig {
        LintConfig {
            r5_entries: vec![FnScope {
                file: entry_file.into(),
                funcs: vec![entry_fn.into()],
            }],
            ..LintConfig::default()
        }
    }

    #[test]
    fn two_hop_panic_is_reported_with_path() {
        let fs = files(&[(
            "a.rs",
            "pub fn entry(v: &[u8]) -> u8 { helper_one(v) }\n\
             fn helper_one(v: &[u8]) -> u8 { helper_two(v) }\n\
             fn helper_two(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
        )]);
        let (raws, stats) = run_transitive(&fs, &cfg_r5("a.rs", "entry"));
        let r5: Vec<_> = raws.iter().filter(|r| r.rule == "R5").collect();
        assert!(
            r5.iter().any(|r| r.message.contains("unwrap")
                && r.message.contains("entry → helper_one → helper_two")),
            "missing pathful finding: {r5:?}"
        );
        assert_eq!(stats[0].reachable_fns, 3);
    }

    #[test]
    fn methods_resolve_through_fields_and_impls() {
        let fs = files(&[
            (
                "a.rs",
                "pub struct Outer { inner: Inner }\n\
                 impl Outer {\n\
                     pub fn entry(&self) { self.inner.go(); }\n\
                 }\n",
            ),
            (
                "b.rs",
                "pub struct Inner;\n\
                 impl Inner {\n\
                     pub fn go(&self) { boom!(); }\n\
                 }\n",
            ),
        ]);
        let mut cfg = cfg_r5("a.rs", "entry");
        cfg.r5_frontier = vec![];
        let (raws, _) = run_transitive(&fs, &cfg);
        // boom! is not a panic macro, but the cross-file edge must exist:
        // check via reachability instead.
        let graph = Graph::build(&fs);
        let entry = (0usize, 0usize);
        let walk = graph.walk(&[entry], &[]);
        assert_eq!(walk.order.len(), 2, "entry should reach Inner::go");
        assert!(raws.iter().all(|r| r.rule != "R5"));
    }

    #[test]
    fn methods_resolve_through_an_arc_field() {
        let fs = files(&[(
            "a.rs",
            "pub struct Stage { shared: Arc<Shared> }\n\
             impl Stage {\n\
                 pub fn entry(&self, v: &[u8]) { self.shared.run(v); self.shared.clone(); }\n\
             }\n\
             pub struct Shared;\n\
             impl Shared {\n\
                 fn run(&self, v: &[u8]) -> u8 { *v.first().unwrap() }\n\
             }\n",
        )]);
        let (raws, stats) = run_transitive(&fs, &cfg_r5("a.rs", "entry"));
        assert!(
            raws.iter().any(|r| r.rule == "R5" && r.message.contains("entry → run")),
            "the pointee's method must be walked: {raws:?}"
        );
        assert_eq!(stats[0].reachable_fns, 2, "Arc's own total methods stay external");
    }

    #[test]
    fn a_call_through_an_impl_fn_parameter_is_not_an_external() {
        let fs = files(&[(
            "a.rs",
            "pub fn entry(v: &[u8]) -> bool { wait_until(|| v.is_empty()) }\n\
             fn wait_until(ready: impl Fn() -> bool) -> bool { ready() }\n",
        )]);
        let (raws, _) = run_transitive(&fs, &cfg_r5("a.rs", "entry"));
        assert!(raws.is_empty(), "{raws:?}");
    }

    #[test]
    fn frontier_stops_the_walk() {
        let fs = files(&[(
            "a.rs",
            "pub fn entry(v: &[u8]) { sealed(v); }\n\
             fn sealed(v: &[u8]) { let _ = v[0]; }\n",
        )]);
        let mut cfg = cfg_r5("a.rs", "entry");
        cfg.r5_frontier = vec!["sealed".into()];
        let (raws, stats) = run_transitive(&fs, &cfg);
        assert!(raws.is_empty(), "frontier fn body must not be scanned: {raws:?}");
        assert_eq!(stats[0].reachable_fns, 1);
    }

    #[test]
    fn unknown_external_calls_are_tainted() {
        let fs = files(&[(
            "a.rs",
            "pub fn entry(v: &[u8]) -> usize { mystery_extern(v) }\n",
        )]);
        let (raws, _) = run_transitive(&fs, &cfg_r5("a.rs", "entry"));
        assert!(
            raws.iter().any(|r| r.rule == "R5" && r.message.contains("mystery_extern")),
            "{raws:?}"
        );
    }

    #[test]
    fn lock_cycles_are_detected() {
        let fs = files(&[(
            "a.rs",
            "pub fn ab(a: &Mutex<u32>, b: &Mutex<u32>) { let g = a.lock(); let h = b.lock(); }\n\
             pub fn ba(a: &Mutex<u32>, b: &Mutex<u32>) { let g = b.lock(); let h = a.lock(); }\n",
        )]);
        let cfg = LintConfig { r7_files: vec!["a.rs".into()], ..LintConfig::default() };
        let (raws, _) = run_transitive(&fs, &cfg);
        assert!(
            raws.iter().any(|r| r.rule == "R7" && r.message.contains("lock-order cycle")),
            "{raws:?}"
        );
    }

    #[test]
    fn call_into_lock_taking_fn_is_flagged() {
        let fs = files(&[(
            "a.rs",
            "pub struct S { m: Mutex<u32>, n: Mutex<u32> }\n\
             impl S {\n\
                 pub fn outer(&self) { let g = self.m.lock(); self.inner(); }\n\
                 fn inner(&self) { let h = self.n.lock(); }\n\
             }\n",
        )]);
        let cfg = LintConfig { r7_files: vec!["a.rs".into()], ..LintConfig::default() };
        let (raws, _) = run_transitive(&fs, &cfg);
        assert!(
            raws.iter().any(|r| r.rule == "R7"
                && r.message.contains("lock-taking `inner`")
                && r.message.contains("`n`")),
            "{raws:?}"
        );
    }
}
