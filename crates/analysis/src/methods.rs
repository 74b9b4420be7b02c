//! Per-method facts shared by the analyses: each method's CFG and its
//! entry/exit locals (`@this`, `@paramN`, the `return` statements).
//!
//! One [`MethodTable`] serves a whole analysis run. The points-to solver
//! reads the locals when it binds a call; the lint's dead-block check and
//! the taint engine read the CFG. Each fact is computed at most once per
//! method, on first request, so a run that only visits a cone of the
//! program (targeted mode) only builds that cone's CFGs. The table is
//! filled through `&self` and is `Sync`, so parallel workers share it.

use crate::cfg::Cfg;
use extractocol_ir::{IdentityKind, Local, MethodId, ProgramIndex, Stmt};
use std::collections::HashSet;
use std::sync::OnceLock;

/// The entry and exit bindings of one method.
#[derive(Debug, Default)]
pub struct MethodInfo {
    /// Local bound by `@this`, if any.
    pub this_local: Option<Local>,
    /// Locals bound by `@paramN`, indexed by N.
    pub param_locals: Vec<Option<Local>>,
    /// Statement indices of `Return` statements, ascending.
    pub returns: Vec<usize>,
}

#[derive(Default)]
struct Slot {
    info: OnceLock<MethodInfo>,
    cfg: OnceLock<Box<Cfg>>,
}

/// Lazily filled per-method facts of one program, by dense method index.
pub struct MethodTable<'p> {
    prog: &'p ProgramIndex<'p>,
    slots: Vec<Slot>,
}

impl<'p> MethodTable<'p> {
    /// An empty table over `prog`.
    pub fn new(prog: &'p ProgramIndex<'p>) -> MethodTable<'p> {
        let slots = std::iter::repeat_with(Slot::default).take(prog.method_count()).collect();
        MethodTable { prog, slots }
    }

    /// The program the table describes.
    pub fn prog(&self) -> &'p ProgramIndex<'p> {
        self.prog
    }

    /// The entry/exit bindings of `m`.
    pub fn info(&self, m: MethodId) -> &MethodInfo {
        self.slots[self.prog.method_index(m)].info.get_or_init(|| {
            let method = self.prog.method(m);
            let mut info = MethodInfo {
                param_locals: vec![None; method.params.len()],
                ..MethodInfo::default()
            };
            for (i, s) in method.body.iter().enumerate() {
                match s {
                    Stmt::Identity { local, kind: IdentityKind::This } => {
                        info.this_local = Some(*local);
                    }
                    Stmt::Identity { local, kind: IdentityKind::Param(p) } => {
                        if let Some(slot) = info.param_locals.get_mut(*p as usize) {
                            *slot = Some(*local);
                        }
                    }
                    Stmt::Return(_) => info.returns.push(i),
                    _ => {}
                }
            }
            info
        })
    }

    /// The control-flow graph of `m`.
    pub fn cfg(&self, m: MethodId) -> &Cfg {
        self.slots[self.prog.method_index(m)]
            .cfg
            .get_or_init(|| Box::new(Cfg::build(self.prog.method(m))))
    }
}

/// An analysis scope as per-method flags by dense method index (`None`,
/// the whole program, stays `None`).
pub(crate) fn scope_flags(
    prog: &ProgramIndex<'_>,
    scope: Option<&HashSet<MethodId>>,
) -> Option<Vec<bool>> {
    scope.map(|scope| {
        let mut flags = vec![false; prog.method_count()];
        for &m in scope {
            flags[prog.method_index(m)] = true;
        }
        flags
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_ir::{ApkBuilder, Type};

    #[test]
    fn facts_match_the_body_and_are_built_once() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.A", |c| {
            c.method("id", vec![Type::obj_root()], Type::obj_root(), |m| {
                m.recv("t.A");
                let p = m.arg(0, "p");
                m.ret(p);
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let table = MethodTable::new(&prog);
        let id = prog.resolve_method("t.A", "id", 1).unwrap();
        let info = table.info(id);
        assert!(info.this_local.is_some());
        assert_eq!(info.param_locals.len(), 1);
        assert_eq!(info.returns, vec![prog.method(id).body.len() - 1]);
        assert!(std::ptr::eq(table.cfg(id), table.cfg(id)));
        assert_eq!(table.cfg(id).blocks.len(), Cfg::build(prog.method(id)).blocks.len());
    }
}
