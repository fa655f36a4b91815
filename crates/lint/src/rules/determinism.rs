//! R2 `determinism`: results must not depend on hash-iteration order or
//! the clock.
//!
//! TANE's contract (DESIGN §9) is that the dependency cover, the candidate
//! keys, and every counter are byte-identical across thread counts and
//! runs. Two things silently break that:
//!
//! 1. **Hash-map iteration feeding results.** Iterating a
//!    `HashMap`/`FxHashMap` yields an arbitrary order; if that order
//!    reaches a result or serialization path, output becomes
//!    hasher-dependent. v1 policed a fixed file list; v2 tracks the flow:
//!    every unsuppressed, uncanonicalized hash iteration anywhere in the
//!    workspace is a **taint source**, and taint propagates callee→caller
//!    through *resolved* return edges of the call graph until it reaches a
//!    function that constructs a determinism-audited sink
//!    (`LevelEvent`/`TaneResult`/`TaneStats`/`RankState` — see
//!    `callgraph::SINK_TYPES`). Only sources with such a witness chain are
//!    violations; an iteration whose order provably stays local (feeds a
//!    `sort`, a `BTreeMap`, an order-insensitive reduction, or never
//!    reaches a sink through resolved calls) is fine. A call edge whose
//!    call site canonicalizes the returned data breaks the chain.
//!
//! 2. **Reading the clock in search code.** `Instant::now`/
//!    `SystemTime::now` outside the dedicated timing modules means elapsed
//!    time *could* steer a search decision (adaptive cutoffs, time-based
//!    eviction), which no determinism test would catch reliably. Timing
//!    belongs in `tane_util::timing` and the stats structs.

use super::Ctx;
use crate::diag::Diagnostic;
use crate::lexer::Kind;
use crate::RULE_DETERMINISM;

/// Clock reads are policed in everything that feeds the search, with the
/// timing infrastructure itself allowlisted.
pub const CLOCK_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/partition/src",
    "crates/relation/src",
    "crates/util/src",
    "crates/delta/src",
];

/// The modules whose whole purpose is reading the clock: the `Stopwatch`
/// abstraction and the worker pool's busy/spin-time accounting. Both only
/// ever *report* durations (TaneStats), never branch on them — in
/// particular the pool's steal loop is bounded by probe counts and queue
/// emptiness, not elapsed time. Everything else times through
/// `Stopwatch`, e.g. the segment store's fetch-wait counter.
pub const CLOCK_ALLOWLIST: &[&str] = &["crates/util/src/timing.rs", "crates/util/src/pool.rs"];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

pub fn clock_in_scope(path: &str) -> bool {
    CLOCK_SCOPE.iter().any(|s| path.contains(s))
        && !CLOCK_ALLOWLIST.iter().any(|s| path.ends_with(s))
}

/// One hash-iteration taint source.
#[derive(Debug, Clone)]
pub struct HashSource {
    /// Token index of the iteration site.
    pub tok: usize,
    pub line: u32,
    /// The hash-typed name being iterated.
    pub name: String,
    /// How (`iter`, `keys`, ..., or `for-loop`).
    pub how: String,
}

/// Collects every name in the file that is visibly hash-typed: fields and
/// typed bindings (`name: FxHashMap<..>`), and `let` bindings initialized
/// from a hash-type constructor (`let m = FxHashMap::default()`).
fn hash_names(ctx: &Ctx) -> Vec<String> {
    let toks = ctx.toks;
    let mut names = Vec::new();
    for i in 0..toks.len() {
        // `name : [path::]HashType <`
        if toks[i].kind == Kind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| !t.is_punct(':'))
        {
            let mut j = i + 2;
            // Walk a type path: idents, `::`, and reference sigils
            // (`&'a mut`), giving up at anything else.
            while j < toks.len() && j < i + 12 {
                match &toks[j] {
                    t if t.is_punct('&') || t.kind == Kind::Lifetime || t.is_ident("mut") => {
                        j += 1;
                    }
                    t if t.kind == Kind::Ident => {
                        if HASH_TYPES.contains(&t.text.as_str())
                            && toks.get(j + 1).is_some_and(|n| n.is_punct('<'))
                        {
                            names.push(toks[i].text.clone());
                        }
                        j += 1;
                    }
                    t if t.is_punct(':') => j += 1,
                    _ => break,
                }
            }
        }
        // `let [mut] name = HashType::...`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == Kind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                && toks
                    .get(j + 2)
                    .is_some_and(|t| HASH_TYPES.contains(&t.text.as_str()))
            {
                names.push(toks[j].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Extracts the file's taint sources: hash iterations with no visible
/// local canonicalization, outside test code. Suppression filtering is the
/// caller's job (it must happen *before* propagation, so a documented
/// `lint:allow` kills the whole downstream chain, not just the local
/// report).
pub fn sources(ctx: &Ctx) -> Vec<HashSource> {
    let names = hash_names(ctx);
    let mut out = Vec::new();
    if names.is_empty() {
        return out;
    }
    let toks = ctx.toks;
    let tracked =
        |t: &crate::lexer::Tok| t.kind == Kind::Ident && names.iter().any(|n| n == &t.text);
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        // `name.iter()` and friends.
        let mut site = None;
        if tracked(&toks[i])
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            site = Some((i + 2, toks[i].text.clone(), toks[i + 2].text.clone()));
        }
        // `for pat in [&][mut] name {`
        if toks[i].is_ident("in") {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            if toks.get(j).is_some_and(tracked) && toks.get(j + 1).is_some_and(|t| t.is_punct('{'))
            {
                site = Some((j, toks[j].text.clone(), "for-loop".to_string()));
            }
        }
        let Some((at, name, how)) = site else {
            continue;
        };
        if canonicalized_downstream(toks, at) {
            continue;
        }
        out.push(HashSource {
            tok: at,
            line: toks[at].line,
            name,
            how,
        });
    }
    out
}

/// True if, within the rest of this statement or the following one, the
/// data at token `from` is visibly canonicalized (`sort*`, `BTreeMap`,
/// `BTreeSet`) or consumed order-insensitively
/// (`min*`/`max*`/`sum`/`count`/`all`/`any`). Used both at iteration sites
/// and at call sites when deciding whether taint crosses a return edge.
pub fn canonicalized_downstream(toks: &[crate::lexer::Tok], from: usize) -> bool {
    let mut semis = 0;
    let mut depth = 0i32;
    for t in toks.iter().skip(from).take(90) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            // Fell out of the enclosing block: nothing past here is
            // downstream of the iteration.
            if depth < 0 {
                return false;
            }
        }
        if t.is_punct(';') {
            semis += 1;
            if semis == 2 {
                return false;
            }
            continue;
        }
        if t.kind == Kind::Ident {
            let w = t.text.as_str();
            if w.starts_with("sort")
                || w.starts_with("min")
                || w.starts_with("max")
                || matches!(w, "BTreeMap" | "BTreeSet" | "sum" | "count" | "all" | "any")
            {
                return true;
            }
        }
    }
    false
}

/// The clock half of the rule, still file-scoped.
pub fn clock_run(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        let clock = toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime");
        if clock
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Diagnostic::new(
                RULE_DETERMINISM,
                ctx.path,
                toks[i].line,
                format!(
                    "`{}::now` outside the timing modules: the clock must never \
                     steer search decisions — measure through `tane_util::timing` \
                     and report via stats",
                    toks[i].text
                ),
            ));
        }
    }
    out
}
