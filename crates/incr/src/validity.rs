//! Summary validity fingerprints.
//!
//! A memoized taint summary rooted at method `M` reads, beyond `M`'s own
//! body, exactly a *one-hop neighborhood*: the call graph's dispatch
//! targets and implicit edges at `M`'s call sites (plus the bodies of
//! those callees), and `M`'s callers (their bodies, whether their sites
//! still dispatch into `M`, and any implicit edges at those sites
//! involving `M`). The validity fingerprint `V(M)` folds all
//! of that — content hashes included — into a single FNV-1a value, so a
//! persisted summary is safe to replay iff the stored `V(M)` equals the
//! one recomputed against the current program: equality means every input
//! the summary's computation ever observed is unchanged.
//!
//! Devirtualization is folded in by *result*, not by cause: `V(M)` encodes
//! the target lists themselves, so a far-away edit that changes a
//! points-to set (and therefore dispatch at one of `M`'s sites) changes
//! `V(M)` even though the edit is outside the one-hop neighborhood.

use crate::key;
use extractocol_analysis::{CallGraph, OperandSource};
use extractocol_ir::container::put_u64;
use extractocol_ir::hash::fnv1a64;
use extractocol_ir::{MethodId, ProgramIndex};
use std::collections::HashMap;

/// Everything the archive layer needs to name and validate methods:
/// stable keys, content hashes, and validity fingerprints.
pub struct Fingerprints {
    /// Stable key per concrete method.
    pub keys: HashMap<MethodId, String>,
    /// Reverse lookup: stable key → current [`MethodId`].
    pub by_key: HashMap<String, MethodId>,
    /// Content hash per concrete method.
    pub content: HashMap<MethodId, u64>,
    /// Validity fingerprint per in-scope concrete method.
    pub validity: HashMap<MethodId, u64>,
}

fn put_operand(buf: &mut Vec<u8>, o: &Option<OperandSource>) {
    match o {
        None => buf.push(0),
        Some(OperandSource::Receiver) => buf.push(1),
        Some(OperandSource::Arg(i)) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
    }
}

/// Computes fingerprints for every concrete method (keys, content) and
/// every in-scope method (validity). `scope` is the targeted cone, or
/// `None` for whole-program runs. `graph` supplies the per-site dispatch;
/// it must be the graph (same scope, same points-to input) of the taint
/// engine that will consume or produce the summaries.
pub fn fingerprints(
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    scope: Option<&std::collections::HashSet<MethodId>>,
) -> Fingerprints {
    let keys = key::stable_keys(prog);
    let content = key::content_hashes(prog);
    // Keys and content hashes cover concrete methods; a (defensive) zero
    // stands in for bodyless edge endpoints, which carry no content.
    let key_hash = |m: MethodId| keys.get(&m).map(|k| fnv1a64(k.as_bytes())).unwrap_or_default();
    let chash = |m: MethodId| content.get(&m).copied().unwrap_or_default();

    let mut validity = HashMap::new();
    for m in prog.concrete_methods() {
        if let Some(scope) = scope {
            if !scope.contains(&m) {
                continue;
            }
        }
        let mut buf: Vec<u8> = Vec::new();
        put_u64(&mut buf, chash(m));

        // Outgoing sites: dispatch + implicit edges.
        for (si, stmt) in prog.method(m).body.iter().enumerate() {
            if stmt.call().is_none() {
                continue;
            }
            let site = (m, si);
            buf.push(0xC1);
            put_u64(&mut buf, si as u64);
            let targets = graph.targets_of(site);
            put_u64(&mut buf, targets.len() as u64);
            for &t in targets {
                put_u64(&mut buf, key_hash(t));
                put_u64(&mut buf, chash(t));
            }
            let implicit = graph.implicit_of(site);
            put_u64(&mut buf, implicit.len() as u64);
            for e in implicit {
                put_u64(&mut buf, key_hash(e.target));
                put_u64(&mut buf, chash(e.target));
                put_operand(&mut buf, &e.recv_from);
                put_u64(&mut buf, e.param_from.len() as u64);
                for p in &e.param_from {
                    put_operand(&mut buf, p);
                }
                match e.chains_to {
                    None => buf.push(0),
                    Some((chained, pidx)) => {
                        buf.push(1);
                        put_u64(&mut buf, key_hash(chained));
                        put_u64(&mut buf, chash(chained));
                        put_u64(&mut buf, pidx as u64);
                    }
                }
            }
        }

        // Incoming sites: caller bodies, whether they still dispatch into
        // `m`, and implicit edges at those sites involving `m`.
        let mut callers: Vec<(MethodId, usize)> =
            graph.callers.get(&m).cloned().unwrap_or_default();
        callers.sort_by(|a, b| (keys.get(&a.0), a.1).cmp(&(keys.get(&b.0), b.1)));
        callers.dedup();
        buf.push(0xCA);
        put_u64(&mut buf, callers.len() as u64);
        for (cm, cs) in callers {
            put_u64(&mut buf, key_hash(cm));
            put_u64(&mut buf, cs as u64);
            put_u64(&mut buf, chash(cm));
            let dispatches = graph.targets_of((cm, cs)).contains(&m);
            buf.push(dispatches as u8);
            for e in graph.implicit_of((cm, cs)) {
                let chained = e.chains_to.map(|(c, _)| c);
                if e.target != m && chained != Some(m) {
                    continue;
                }
                buf.push(0xCB);
                put_u64(&mut buf, key_hash(e.target));
                put_u64(&mut buf, chash(e.target));
                put_operand(&mut buf, &e.recv_from);
                put_u64(&mut buf, e.param_from.len() as u64);
                for p in &e.param_from {
                    put_operand(&mut buf, p);
                }
                match e.chains_to {
                    None => buf.push(0),
                    Some((c, pidx)) => {
                        buf.push(1);
                        put_u64(&mut buf, key_hash(c));
                        put_u64(&mut buf, chash(c));
                        put_u64(&mut buf, pidx as u64);
                    }
                }
            }
        }
        validity.insert(m, fnv1a64(&buf));
    }

    let by_key = keys.iter().map(|(m, k)| (k.clone(), *m)).collect();
    Fingerprints { keys, by_key, content, validity }
}
