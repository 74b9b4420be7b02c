//! Static precision diagnostics: a lint pass over the IR and analysis
//! results that explains *why* an analysis might be imprecise on a given
//! app before anyone reads a wrong signature out of it.
//!
//! Each lint names a statement-level site and a category:
//!
//! * **unresolved-virtual-site** — a virtual/interface call with no
//!   explicit target, no stub resolution, and no implicit edge: dispatch
//!   goes nowhere the analysis can see.
//! * **empty-points-to** — the receiver of a devirtualizable site has an
//!   empty points-to set, so the call graph fell back to the CHA cone.
//! * **model-gap** — dispatch lands in a bodyless platform/library stub
//!   that no API model covers: taint dies silently at this call.
//! * **reflection** — a reflective call (`Class.forName`,
//!   `Method.invoke`, `Class.newInstance`): behavior invisible to any
//!   static call graph (paper §6 limitation).
//! * **dead-block** — a CFG block unreachable from the method entry;
//!   usually a malformed corpus app or obfuscator artifact.
//!
//! Output ordering is total and deterministic: lints sort by class name,
//! method name, statement index, then category — never by hash order —
//! so lint listings obey the same byte-identical guarantee as reports.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::pointsto::PointsTo;
use extractocol_ir::{CallKind, MethodId, MethodRef, ProgramIndex, Value};

/// What kind of precision problem a lint reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCategory {
    UnresolvedVirtualSite,
    EmptyPointsTo,
    ModelGap,
    Reflection,
    DeadBlock,
}

impl LintCategory {
    /// Stable kebab-case name used in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            LintCategory::UnresolvedVirtualSite => "unresolved-virtual-site",
            LintCategory::EmptyPointsTo => "empty-points-to",
            LintCategory::ModelGap => "model-gap",
            LintCategory::Reflection => "reflection",
            LintCategory::DeadBlock => "dead-block",
        }
    }
}

/// One diagnostic finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lint {
    pub category: LintCategory,
    /// `class.method` of the site.
    pub context: String,
    /// Statement index within the method.
    pub stmt: usize,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} @{}: {}", self.category.name(), self.context, self.stmt, self.message)
    }
}

/// All lints of one program, in stable order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Number of lints in one category.
    pub fn count(&self, cat: LintCategory) -> usize {
        self.lints.iter().filter(|l| l.category == cat).count()
    }

    /// The canonical text rendering: one line per lint, then a summary
    /// line per non-empty category. Deterministic byte-for-byte.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for l in &self.lints {
            let _ = writeln!(out, "{l}");
        }
        for cat in [
            LintCategory::UnresolvedVirtualSite,
            LintCategory::EmptyPointsTo,
            LintCategory::ModelGap,
            LintCategory::Reflection,
            LintCategory::DeadBlock,
        ] {
            let n = self.count(cat);
            if n > 0 {
                let _ = writeln!(out, "# {}: {}", cat.name(), n);
            }
        }
        out
    }
}

/// True when a callee looks like a reflective entry point.
fn is_reflective(callee: &MethodRef) -> bool {
    callee.class.starts_with("java.lang.reflect.")
        || (callee.class == "java.lang.Class"
            && matches!(callee.name.as_str(), "forName" | "newInstance" | "getMethod"))
}

/// Runs every lint over the program, or over an analysis scope. `pts` is
/// the solved points-to result when the pipeline ran with
/// devirtualization (enables the empty-points-to lint); `model_covers`
/// reports whether the semantic API-flow model knows a given bodyless
/// callee (the `stubs.rs` / `semantics.rs` coverage question, answered by
/// the caller because the model lives a crate above this one).
///
/// With `scope`, only methods in the set are visited (the targeted mode's
/// cone — lints for never-analyzed code would be noise, and visiting it
/// would defeat the point of targeting). `None` lints the whole program.
pub fn lint_scoped(
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    pts: Option<&PointsTo>,
    model_covers: &dyn Fn(&MethodRef) -> bool,
    scope: Option<&std::collections::HashSet<MethodId>>,
) -> LintReport {
    let mut lints = Vec::new();
    let mut methods: Vec<MethodId> =
        prog.concrete_methods().filter(|mid| scope.is_none_or(|s| s.contains(mid))).collect();
    methods.sort_unstable();
    for mid in methods {
        let method = prog.method(mid);
        let context = format!("{}.{}", prog.class(mid.class).name, method.name);

        // Statement-level lints.
        for (si, stmt) in method.body.iter().enumerate() {
            let Some(call) = stmt.call() else { continue };
            let site = (mid, si);
            if is_reflective(&call.callee) {
                lints.push(Lint {
                    category: LintCategory::Reflection,
                    context: context.clone(),
                    stmt: si,
                    message: format!("reflective call to {}", call.callee.qualified()),
                });
            }
            let explicit = graph.targets_of(site);
            let stubs = graph.unresolved_of(site);
            let implicit = graph.implicit_of(site);
            for t in stubs {
                if !model_covers(&call.callee) {
                    lints.push(Lint {
                        category: LintCategory::ModelGap,
                        context: context.clone(),
                        stmt: si,
                        message: format!(
                            "bodyless target {} has no API model",
                            prog.method_display(*t)
                        ),
                    });
                }
            }
            if matches!(call.kind, CallKind::Virtual | CallKind::Interface) {
                if explicit.is_empty() && stubs.is_empty() && implicit.is_empty() {
                    lints.push(Lint {
                        category: LintCategory::UnresolvedVirtualSite,
                        context: context.clone(),
                        stmt: si,
                        message: format!("{} resolves to nothing", call.callee.qualified()),
                    });
                }
                if let (Some(pts), Some(recv)) =
                    (pts, call.receiver.as_ref().and_then(Value::as_local))
                {
                    if pts.local_pts(mid, recv).is_empty() && !explicit.is_empty() {
                        lints.push(Lint {
                            category: LintCategory::EmptyPointsTo,
                            context: context.clone(),
                            stmt: si,
                            message: format!(
                                "receiver of {} has an empty points-to set (CHA fallback, \
                                 {} target(s))",
                                call.callee.qualified(),
                                explicit.len()
                            ),
                        });
                    }
                }
            }
        }

        // Dead blocks: anything the CFG's reverse post-order never visits.
        let cfg = Cfg::build(method);
        for (bi, block) in cfg.blocks.iter().enumerate() {
            if bi != 0 && !cfg.rpo.contains(&bi) {
                lints.push(Lint {
                    category: LintCategory::DeadBlock,
                    context: context.clone(),
                    stmt: block.stmts().start,
                    message: format!(
                        "block {bi} (statements {}..{}) is unreachable",
                        block.stmts().start,
                        block.stmts().end
                    ),
                });
            }
        }
    }
    lints.sort_by(|a, b| {
        (&a.context, a.stmt, a.category, &a.message)
            .cmp(&(&b.context, b.stmt, b.category, &b.message))
    });
    LintReport { lints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callbacks::CallbackRegistry;
    use extractocol_ir::{ApkBuilder, Type};

    fn lint_all(apk: &extractocol_ir::Apk, with_pts: bool) -> LintReport {
        let prog = ProgramIndex::new(apk);
        let pts = with_pts.then(|| PointsTo::solve(&prog));
        let graph = match &pts {
            Some(p) => CallGraph::build_with_pointsto(&prog, &CallbackRegistry::empty(), p),
            None => CallGraph::build(&prog, &CallbackRegistry::empty()),
        };
        lint_scoped(&prog, &graph, pts.as_ref(), &|_| false, None)
    }

    #[test]
    fn model_gap_and_reflection_reported() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.Stub", |c| {
            c.stub_method("api", vec![], Type::Void);
        });
        b.class("t.M", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.M");
                let s = m.new_obj("t.Stub", vec![]);
                m.vcall_void(s, "t.Stub", "api", vec![]);
                m.scall(
                    "java.lang.Class",
                    "forName",
                    vec![Value::str("t.Hidden")],
                    Type::object("java.lang.Class"),
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let r = lint_all(&apk, false);
        assert_eq!(r.count(LintCategory::ModelGap), 1, "{}", r.to_text());
        assert_eq!(r.count(LintCategory::Reflection), 1, "{}", r.to_text());
    }

    #[test]
    fn unresolved_virtual_site_reported() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.M", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.M");
                let x = m.temp(Type::object("t.Ghost"));
                // t.Ghost is not declared anywhere: resolution finds nothing.
                m.vcall_void(x, "t.Ghost", "spooky", vec![]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let r = lint_all(&apk, false);
        assert_eq!(r.count(LintCategory::UnresolvedVirtualSite), 1, "{}", r.to_text());
    }

    #[test]
    fn empty_points_to_reported_on_cha_fallback() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.A", |c| {
            c.method("work", vec![], Type::Void, |m| {
                m.recv("t.A");
                m.ret_void();
            });
        });
        b.class("t.M", |c| {
            // The receiver arrives as a parameter from nowhere: its
            // points-to set is empty and the site keeps the CHA targets.
            c.method("go", vec![Type::object("t.A")], Type::Void, |m| {
                m.recv("t.M");
                let a = m.arg(0, "a");
                m.vcall_void(a, "t.A", "work", vec![]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let with = lint_all(&apk, true);
        assert_eq!(with.count(LintCategory::EmptyPointsTo), 1, "{}", with.to_text());
        let without = lint_all(&apk, false);
        assert_eq!(without.count(LintCategory::EmptyPointsTo), 0, "lint requires points-to");
    }

    #[test]
    fn dead_block_reported_and_order_is_stable() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.M", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.M");
                m.goto("end");
                // unreachable:
                let d = m.temp(Type::string());
                m.cstr(d, "never");
                m.label("end");
                m.ret_void();
            });
        });
        let apk = b.build();
        let r = lint_all(&apk, false);
        assert!(r.count(LintCategory::DeadBlock) >= 1, "{}", r.to_text());
        // stable ordering: repeated runs render identically
        let r2 = lint_all(&apk, false);
        assert_eq!(r.to_text(), r2.to_text());
    }
}
