//! The ordering-totality (`order-totality`) and parallel-determinism
//! (`par-contract`) passes.
//!
//! Ordering totality guards the PR 7 determinism contract: every
//! comparator feeding a sort, min/max, or priority queue must be a total
//! order (NaN-safe, `total_cmp` or integer keys) and sorts must be
//! stable, because tie order is observable in the golden traces.
//!
//! The parallel contract pins where concurrency is allowed to live:
//! primitives only in `par.rs` (reasoned allows elsewhere), no
//! shared-mutable state captured by worker closures, and no
//! arrival-order channel drains anywhere.

use crate::diag::{Edit, Fix, Lint};
use crate::lexer::{Token, TokenKind};
use crate::lints::Emitter;
use crate::parse::{Expr, File};
use crate::resolve::Imports;
use crate::scan::FileCtx;

/// Concurrency primitives banned outside `par.rs`.
fn is_par_primitive(name: &str) -> bool {
    matches!(
        name,
        "Mutex" | "RwLock" | "Condvar" | "Barrier" | "OnceLock" | "LazyLock" | "mpsc"
    ) || name.starts_with("Atomic")
        || matches!(name, "rayon" | "crossbeam")
}

/// Shared-mutable cell types that must not be captured by (or built
/// inside) a worker closure: they make the closure's effects depend on
/// scheduling order.
fn is_shared_mutable(name: &str) -> bool {
    matches!(name, "Rc" | "RefCell" | "Cell" | "UnsafeCell")
}

/// Channel drains whose yield order is arrival order (scheduling-
/// dependent) rather than a deterministic count or key.
fn is_arrival_order_drain(name: &str) -> bool {
    matches!(name, "try_iter" | "try_recv" | "recv_timeout")
}

/// Runs both passes over one file.
pub fn check(em: &mut Emitter<'_>, file: &File, toks: &[Token], ctx: &FileCtx) {
    if em.in_scope(Lint::OrderTotality) {
        order_totality(em, file, toks);
    }
    if em.in_scope(Lint::ParContract) {
        par_contract(em, file, toks, ctx);
    }
}

// ------------------------------------------------------------- ordering

fn order_totality(em: &mut Emitter<'_>, file: &File, toks: &[Token]) {
    file.for_each_fn(&mut |fd| {
        let Some(body) = &fd.body else { return };
        body.for_each_expr(&mut |e| {
            let Expr::Method(m) = e else { return };
            // `x.partial_cmp(y).unwrap()` / `.expect(..)`: panics on NaN
            // and hides the partiality the contract bans.
            if matches!(m.name.as_str(), "unwrap" | "expect") {
                if let Expr::Method(pm) = &m.recv {
                    if pm.name == "partial_cmp" {
                        let fix = Fix {
                            edits: vec![
                                Edit {
                                    lo: pm.name_span.lo,
                                    hi: pm.name_span.hi,
                                    text: "total_cmp".to_string(),
                                },
                                Edit {
                                    lo: m.dot_lo,
                                    hi: m.call_hi,
                                    text: String::new(),
                                },
                            ],
                        };
                        em.emit(
                            Lint::OrderTotality,
                            pm.name_span.line,
                            pm.name_span.col,
                            format!(
                                "`partial_cmp().{}()` is not a total order \
                                 (panics or lies on NaN); use `total_cmp`",
                                m.name
                            ),
                            Some(fix),
                        );
                    }
                }
            }
            // Unstable sorts with custom comparators/keys: tie order is
            // observable in the traces, so stability is required.
            if matches!(m.name.as_str(), "sort_unstable_by" | "sort_unstable_by_key") {
                let stable = if m.name == "sort_unstable_by" {
                    "sort_by"
                } else {
                    "sort_by_key"
                };
                let fix = Fix {
                    edits: vec![Edit {
                        lo: m.name_span.lo,
                        hi: m.name_span.hi,
                        text: stable.to_string(),
                    }],
                };
                em.emit(
                    Lint::OrderTotality,
                    m.name_span.line,
                    m.name_span.col,
                    format!(
                        "`{}` forfeits stable tie order under a custom \
                         comparator; use `{stable}`",
                        m.name
                    ),
                    Some(fix),
                );
            }
            // Float sort/min/max keys: `f64` keys are not a total order.
            if matches!(
                m.name.as_str(),
                "sort_by_key" | "sort_unstable_by_key" | "min_by_key" | "max_by_key"
            ) {
                if let Some(Expr::Closure(c)) = m.args.first() {
                    if let Some(why) = float_evidence(&c.body) {
                        em.emit(
                            Lint::OrderTotality,
                            m.name_span.line,
                            m.name_span.col,
                            format!(
                                "float key in `{}` ({why}) is not a total \
                                 order; use an integer key like `(at, seq)` \
                                 or sort with `total_cmp`",
                                m.name
                            ),
                            None,
                        );
                    }
                }
            }
        });
    });

    // `BinaryHeap<f64...>`: float priorities break `Ord`-based heaps.
    for i in 0..toks.len() {
        if !toks[i].is_ident("BinaryHeap") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        let mut depth = 0i32;
        let mut k = i + 1;
        while let Some(t) = toks.get(k) {
            match &t.kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth <= 0 {
                        break;
                    }
                }
                TokenKind::Ident(name) if matches!(name.as_str(), "f64" | "f32") => {
                    em.emit(
                        Lint::OrderTotality,
                        toks[i].line,
                        toks[i].col,
                        format!("`BinaryHeap` keyed by `{name}` is not a total order"),
                        None,
                    );
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
}

/// If the closure body computes a float, says how (for the message).
fn float_evidence(body: &Expr) -> Option<&'static str> {
    let mut why = None;
    body.for_each(&mut |e| {
        if why.is_some() {
            return;
        }
        match e {
            Expr::Cast(_, ty, _) if matches!(ty.as_str(), "f32" | "f64") => {
                why = Some("cast to float");
            }
            Expr::Num(text, _) if is_float_literal(text) => {
                why = Some("float literal");
            }
            Expr::Method(m) if matches!(m.name.as_str(), "as_secs_f64" | "as_secs_f32") => {
                why = Some("float conversion");
            }
            _ => {}
        }
    });
    why
}

fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.contains('e')
        || text.contains('E')
        || text.ends_with("f64")
        || text.ends_with("f32")
}

// ------------------------------------------------------------- parallel

fn par_contract(em: &mut Emitter<'_>, file: &File, toks: &[Token], ctx: &FileCtx) {
    let in_par_module = ctx
        .rel
        .rsplit('/')
        .next()
        .is_some_and(|base| base == "par.rs");

    if !in_par_module {
        // Primitive scan: concurrency machinery lives in `par.rs` only.
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if is_par_primitive(name) {
                em.emit(
                    Lint::ParContract,
                    toks[i].line,
                    toks[i].col,
                    format!(
                        "concurrency primitive `{name}` outside `par.rs` — \
                         the fork-join helpers own all thread machinery"
                    ),
                    None,
                );
            } else if name == "thread"
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                em.emit(
                    Lint::ParContract,
                    toks[i].line,
                    toks[i].col,
                    "`thread::` use outside `par.rs` — the fork-join \
                     helpers own all thread machinery"
                        .to_string(),
                    None,
                );
            }
        }
        // Import aliases: `use std::sync::Mutex as Lock` must not smuggle
        // a primitive past the ident scan.
        let imports = Imports::build(file);
        for u in &file.uses {
            if u.path.last().is_some_and(|s| u.alias != *s)
                && imports.resolves_to(&u.alias, is_par_primitive)
            {
                let real = u.path.last().map(String::as_str).unwrap_or("");
                em.emit(
                    Lint::ParContract,
                    u.span.line,
                    u.span.col,
                    format!(
                        "import aliases concurrency primitive `{real}` as \
                         `{}` outside `par.rs`",
                        u.alias
                    ),
                    None,
                );
            }
        }
    }

    // Worker-closure captures and arrival-order drains apply everywhere,
    // including `par.rs` itself.
    file.for_each_fn(&mut |fd| {
        let Some(body) = &fd.body else { return };
        body.for_each_expr(&mut |e| {
            let (is_spawn, args) = match e {
                Expr::Method(m) if m.name == "spawn" => (true, &m.args),
                Expr::Call(c, args, _) => match c.as_ref() {
                    Expr::Path(segs, _) if segs.last().is_some_and(|s| s == "spawn") => {
                        (true, args)
                    }
                    _ => (false, args),
                },
                _ => return,
            };
            if !is_spawn {
                return;
            }
            for a in args {
                let Expr::Closure(c) = a else { continue };
                c.body.for_each(&mut |inner| {
                    if let Expr::Path(segs, span) = inner {
                        if let Some(seg) = segs.iter().find(|s| is_shared_mutable(s)) {
                            em.emit(
                                Lint::ParContract,
                                span.line,
                                span.col,
                                format!(
                                    "shared-mutable `{seg}` inside a worker \
                                     closure makes results depend on \
                                     scheduling order"
                                ),
                                None,
                            );
                        }
                    }
                });
            }
        });
    });

    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if is_arrival_order_drain(name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            em.emit(
                Lint::ParContract,
                toks[i].line,
                toks[i].col,
                format!(
                    "`.{name}()` drains in arrival order (scheduling-\
                     dependent); drain by counted `recv()` loop and commit \
                     in key order"
                ),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::diag::Lint;
    use crate::lints::check_file;
    use crate::scan::FileCtx;

    fn lint_at(path: &str, src: &str, lint: Lint) -> Vec<String> {
        let ctx = FileCtx::classify(path);
        check_file(&ctx, src)
            .into_iter()
            .filter(|d| d.lint == lint)
            .map(|d| d.message)
            .collect()
    }

    fn order(src: &str) -> Vec<String> {
        lint_at("crates/sim/src/engine.rs", src, Lint::OrderTotality)
    }

    fn par(src: &str) -> Vec<String> {
        lint_at("crates/sim/src/engine.rs", src, Lint::ParContract)
    }

    #[test]
    fn partial_cmp_unwrap_flagged_with_fix() {
        let ctx = FileCtx::classify("crates/sim/src/engine.rs");
        let d: Vec<_> = check_file(
            &ctx,
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        )
        .into_iter()
        .filter(|d| d.lint == Lint::OrderTotality)
        .collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].fix.is_some(), "fix expected");
    }

    #[test]
    fn total_cmp_is_silent() {
        let d = order("fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn partial_cmp_definition_is_silent() {
        // Implementing `PartialOrd` mentions partial_cmp without calling
        // `.unwrap()` on it — must not fire.
        let d = order(
            "impl PartialOrd for S {\n\
             fn partial_cmp(&self, o: &S) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sort_unstable_with_comparator_flagged() {
        let d = order("fn f(v: &mut Vec<u64>) { v.sort_unstable_by(|a, b| b.cmp(a)); }\n");
        assert_eq!(d.len(), 1);
        // Plain sort_unstable on Ord is total and injective-agnostic.
        let d = order("fn f(v: &mut Vec<u64>) { v.sort_unstable(); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_sort_key_flagged() {
        let d = order("fn f(v: &mut Vec<u64>) { v.sort_by_key(|x| *x as f64); }\n");
        assert_eq!(d.len(), 1);
        // Integer keys are fine.
        let d = order("fn f(v: &mut Vec<(u64, u64)>) { v.sort_by_key(|x| (x.0, x.1)); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn binary_heap_of_floats_flagged() {
        let d = order("fn f() { let h: BinaryHeap<(f64, u64)> = BinaryHeap::new(); }\n");
        assert_eq!(d.len(), 1);
        let d = order("fn f() { let h: BinaryHeap<(u64, u64)> = BinaryHeap::new(); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn primitives_flagged_outside_par_module() {
        let d = par("use std::sync::Mutex;\n");
        assert_eq!(d.len(), 1);
        let d = par("fn f() { let h = std::thread::spawn(|| {}); }\n");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn par_module_is_exempt_from_primitive_scan() {
        let d = lint_at(
            "crates/core/src/par.rs",
            "use std::sync::mpsc;\nfn f() { let (tx, rx) = mpsc::channel::<u32>(); }\n",
            Lint::ParContract,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn aliased_primitive_is_caught() {
        let d = par("use std::sync::Mutex as Lock;\n");
        // The direct ident scan sees `Mutex`, and the alias check sees
        // the smuggled name.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|m| m.contains("aliases")));
    }

    #[test]
    fn shared_mutable_capture_in_spawn_flagged_even_in_par_module() {
        let d = lint_at(
            "crates/core/src/par.rs",
            "fn f(s: &Scope) { s.spawn(move || { let c = RefCell::new(0); c }); }\n",
            Lint::ParContract,
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn arrival_order_drain_flagged_everywhere() {
        let d = lint_at(
            "crates/core/src/par.rs",
            "fn f(rx: &Receiver<u32>) { for r in rx.try_iter() { use_it(r); } }\n",
            Lint::ParContract,
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn counted_recv_loop_is_silent() {
        let d = lint_at(
            "crates/core/src/par.rs",
            "fn f(rx: &Receiver<u32>, n: usize) -> Vec<u32> {\n\
             (0..n).map(|_| rx.recv().unwrap_or_default()).collect()\n}\n",
            Lint::ParContract,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_annotation_suppresses_par_contract() {
        let d = par(
            "// simlint: allow(par-contract, per-seed fork-join with deterministic join order)\n\
             fn f() { std::thread::scope(|s| { s; }); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
