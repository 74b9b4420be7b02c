//! The `.exsm` persistent summary-cache archive.
//!
//! An [`extractocol_ir::container`] with magic `"EXSUMMRY"`: the same
//! 32-byte checksummed header as the serving side's `.exsv` archives,
//! then a payload of three positional parts with no section tags — the
//! epoch, the method table, the summary table. This module owns only that
//! schema. Loads are hostile-input safe: the container verifies the
//! checksum before any decoding, bounds-checks every read, validates
//! counts against the remaining payload and requires UTF-8 strings; this
//! module range-checks every cross-reference (summary → method-table
//! index). Anything off refuses the whole archive with a typed error — a
//! cache must never be able to corrupt an analysis, only to miss.
//!
//! Methods are named by stable key (`class#name#arity#occurrence`), never
//! by positional [`MethodId`], so archives survive renumbering; each
//! method record carries the content hash and validity fingerprint its
//! summaries were computed under, which the loader compares against the
//! current program before admitting an entry.
//!
//! [`MethodId`]: extractocol_ir::MethodId

use extractocol_analysis::{AccessPath, Direction, Root};
use extractocol_ir::container::{self, put_str, put_u32, put_u64, ContainerError, Reader};
use extractocol_ir::Local;
use std::path::Path;

/// `.exsm` file magic.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"EXSUMMRY";
/// Current format version. Bumped on any layout change; readers refuse
/// other versions rather than guessing.
pub const ARCHIVE_VERSION: u32 = 1;

/// The cache's compatibility epoch: analyses under different options (or
/// of a different app) produce incomparable summaries, so a mismatch
/// invalidates the whole archive without looking at any entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Epoch {
    /// The APK name the summaries were computed from.
    pub app: String,
    /// `TaintOptions::max_field_depth` (access-path shapes depend on it).
    pub max_field_depth: u32,
    /// Whether points-to devirtualization was enabled.
    pub pointsto: bool,
    /// Whether the run was targeted (cone-scoped) — scoped and
    /// whole-program engines agree on results but not on which summaries
    /// exist, so the epochs are kept apart.
    pub targeted: bool,
}

/// One method-table entry: stable identity plus the fingerprints its
/// summaries were computed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodRecord {
    /// Stable key, `class#name#arity#occurrence`.
    pub key: String,
    /// Content hash (FNV-1a over the canonical printed form).
    pub content: u64,
    /// Validity fingerprint (zero for methods that only appear as
    /// cross-references, whose own validity is never consulted).
    pub validity: u64,
}

/// A persisted summary. Method references are indices into the archive's
/// method table, remapped to live [`extractocol_ir::MethodId`]s on load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryRecord {
    pub direction: Direction,
    /// Root method (method-table index).
    pub method: u32,
    /// Entry statement.
    pub stmt: u32,
    /// Entry fact.
    pub fact: AccessPath,
    /// Intra-method nodes visited, `(stmt, fact)`.
    pub nodes: Vec<(u32, AccessPath)>,
    /// Sliced statements inside the root method.
    pub marks: Vec<u32>,
    /// Statements marked in other methods, `(method-table index, stmt)`.
    pub extern_marks: Vec<(u32, u32)>,
    /// Facts leaving the method, `(method-table index, stmt, fact)`.
    pub exits: Vec<(u32, u32, AccessPath)>,
    /// Static-field keys tainted inside the segment.
    pub statics: Vec<String>,
}

/// A decoded `.exsm` archive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryArchive {
    pub epoch: Epoch,
    pub methods: Vec<MethodRecord>,
    pub summaries: Vec<SummaryRecord>,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_path(out: &mut Vec<u8>, p: &AccessPath) {
    match &p.root {
        Root::Local(l) => {
            out.push(0);
            put_u32(out, l.0);
        }
        Root::Static(k) => {
            out.push(1);
            put_str(out, k);
        }
    }
    put_u64(out, p.fields.len() as u64);
    for f in &p.fields {
        put_str(out, f);
    }
}

/// Serializes an archive: the container header, then the epoch, the
/// method table and the summary table.
pub fn write_archive(a: &SummaryArchive) -> Vec<u8> {
    container::write(ARCHIVE_MAGIC, ARCHIVE_VERSION, |out| {
        put_str(out, &a.epoch.app);
        put_u32(out, a.epoch.max_field_depth);
        out.push((a.epoch.pointsto as u8) | ((a.epoch.targeted as u8) << 1));
        put_u64(out, a.methods.len() as u64);
        for m in &a.methods {
            put_str(out, &m.key);
            put_u64(out, m.content);
            put_u64(out, m.validity);
        }
        put_u64(out, a.summaries.len() as u64);
        for s in &a.summaries {
            put_summary(out, s);
        }
    })
}

fn put_summary(out: &mut Vec<u8>, s: &SummaryRecord) {
    out.push(match s.direction {
        Direction::Forward => 0,
        Direction::Backward => 1,
    });
    put_u32(out, s.method);
    put_u32(out, s.stmt);
    put_path(out, &s.fact);
    put_u64(out, s.nodes.len() as u64);
    for (st, p) in &s.nodes {
        put_u32(out, *st);
        put_path(out, p);
    }
    put_u64(out, s.marks.len() as u64);
    for st in &s.marks {
        put_u32(out, *st);
    }
    put_u64(out, s.extern_marks.len() as u64);
    for (m, st) in &s.extern_marks {
        put_u32(out, *m);
        put_u32(out, *st);
    }
    put_u64(out, s.exits.len() as u64);
    for (m, st, p) in &s.exits {
        put_u32(out, *m);
        put_u32(out, *st);
        put_path(out, p);
    }
    put_u64(out, s.statics.len() as u64);
    for k in &s.statics {
        put_str(out, k);
    }
}

/// Writes an archive to disk.
pub fn write_file(path: &Path, a: &SummaryArchive) -> Result<(), ContainerError> {
    container::write_file(path, &write_archive(a))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn get_path(cur: &mut Reader<'_>, context: &'static str) -> Result<AccessPath, ContainerError> {
    let root = match cur.u8(context)? {
        0 => Root::Local(Local(cur.u32(context)?)),
        1 => Root::Static(cur.str(context)?),
        tag => return Err(ContainerError::BadTag { context, tag }),
    };
    let n = cur.count(1, context)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(cur.str(context)?);
    }
    Ok(AccessPath { root, fields })
}

/// Decodes a `.exsm` archive. Checksum first, then bounds-checked decode;
/// any inconsistency refuses the whole archive.
pub fn read_archive(bytes: &[u8]) -> Result<SummaryArchive, ContainerError> {
    let mut cur = container::open(bytes, ARCHIVE_MAGIC, ARCHIVE_VERSION)?;
    let app = cur.str("epoch app name")?;
    let max_field_depth = cur.u32("epoch max_field_depth")?;
    let flags = cur.u8("epoch flags")?;
    if flags & !0b11 != 0 {
        return Err(ContainerError::BadTag { context: "epoch flags", tag: flags });
    }
    let epoch = Epoch { app, max_field_depth, pointsto: flags & 1 != 0, targeted: flags & 2 != 0 };
    let n_methods = cur.count(24, "method table")?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let key = cur.str("method key")?;
        let content = cur.u64("method content hash")?;
        let validity = cur.u64("method validity")?;
        methods.push(MethodRecord { key, content, validity });
    }
    let n_sums = cur.count(17, "summary table")?;
    let mut summaries = Vec::with_capacity(n_sums);
    for _ in 0..n_sums {
        summaries.push(get_summary(&mut cur, methods.len() as u32)?);
    }
    cur.finish()?;
    Ok(SummaryArchive { epoch, methods, summaries })
}

/// One summary record; every method index must land in the
/// `n_methods`-entry method table.
fn get_summary(cur: &mut Reader<'_>, n_methods: u32) -> Result<SummaryRecord, ContainerError> {
    let direction = match cur.u8("summary direction")? {
        0 => Direction::Forward,
        1 => Direction::Backward,
        tag => return Err(ContainerError::BadTag { context: "summary direction", tag }),
    };
    let method = cur.u32("summary method")?;
    let stmt = cur.u32("summary stmt")?;
    let fact = get_path(cur, "summary fact")?;
    let n = cur.count(5, "summary nodes")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let st = cur.u32("node stmt")?;
        nodes.push((st, get_path(cur, "node fact")?));
    }
    let n = cur.count(4, "summary marks")?;
    let mut marks = Vec::with_capacity(n);
    for _ in 0..n {
        marks.push(cur.u32("mark stmt")?);
    }
    let n = cur.count(8, "summary extern marks")?;
    let mut extern_marks = Vec::with_capacity(n);
    for _ in 0..n {
        let m = cur.u32("extern mark method")?;
        extern_marks.push((m, cur.u32("extern mark stmt")?));
    }
    let n = cur.count(9, "summary exits")?;
    let mut exits = Vec::with_capacity(n);
    for _ in 0..n {
        let m = cur.u32("exit method")?;
        let st = cur.u32("exit stmt")?;
        exits.push((m, st, get_path(cur, "exit fact")?));
    }
    let n = cur.count(1, "summary statics")?;
    let mut statics = Vec::with_capacity(n);
    for _ in 0..n {
        statics.push(cur.str("static key")?);
    }
    let refs = std::iter::once(method)
        .chain(extern_marks.iter().map(|&(m, _)| m))
        .chain(exits.iter().map(|&(m, _, _)| m));
    for r in refs {
        if r >= n_methods {
            return Err(ContainerError::Invalid(format!(
                "summary references method index {r} but the table has {n_methods} entries"
            )));
        }
    }
    Ok(SummaryRecord { direction, method, stmt, fact, nodes, marks, extern_marks, exits, statics })
}

/// Reads an archive from disk. A missing file is a [`ContainerError::Io`].
pub fn read_file(path: &Path) -> Result<SummaryArchive, ContainerError> {
    read_archive(&container::read_file(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SummaryArchive {
        SummaryArchive {
            epoch: Epoch { app: "app".into(), max_field_depth: 2, pointsto: true, targeted: false },
            methods: vec![
                MethodRecord { key: "com.app.A#f#0#0".into(), content: 11, validity: 21 },
                MethodRecord { key: "com.app.A#g#1#0".into(), content: 12, validity: 22 },
            ],
            summaries: vec![SummaryRecord {
                direction: Direction::Backward,
                method: 0,
                stmt: 3,
                fact: AccessPath { root: Root::Local(Local(2)), fields: vec!["url".into()] },
                nodes: vec![(1, AccessPath { root: Root::Local(Local(0)), fields: vec![] })],
                marks: vec![1, 3],
                extern_marks: vec![(1, 7)],
                exits: vec![(
                    1,
                    0,
                    AccessPath { root: Root::Static("com.app.C#K".into()), fields: vec![] },
                )],
                statics: vec!["com.app.C#K".into()],
            }],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_idempotent() {
        let a = sample();
        let bytes = write_archive(&a);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back, a);
        // write(read(write(x))) == write(x)
        assert_eq!(write_archive(&back), bytes);
    }

    /// `write_archive(&sample())`, pinned: any change to the codec's
    /// output fails here.
    const GOLDEN_HEX: &str = concat!(
        "455853554d4d525901000000000000000f0100000000000079d91ca3d559a4ca0300000000000000",
        "617070020000000102000000000000000f00000000000000636f6d2e6170702e412366233023300b",
        "0000000000000015000000000000000f00000000000000636f6d2e6170702e412367233123300c00",
        "00000000000016000000000000000100000000000000010000000003000000000200000001000000",
        "00000000030000000000000075726c01000000000000000100000000000000000000000000000000",
        "02000000000000000100000003000000010000000000000001000000070000000100000000000000",
        "0100000000000000010b00000000000000636f6d2e6170702e43234b000000000000000001000000",
        "000000000b00000000000000636f6d2e6170702e43234b",
    );

    #[test]
    fn sample_archive_matches_the_golden_bytes() {
        let hex: String = write_archive(&sample()).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
    }

    #[test]
    fn hostile_input_sweep() {
        // Payload offsets of u64 counts: the app-name length, the method
        // table count, and the first method key's length.
        container::hostile_input_sweep(&write_archive(&sample()), &[0, 16, 24], read_archive);
    }

    #[test]
    fn out_of_range_method_index_is_refused() {
        let mut a = sample();
        a.summaries[0].method = 9; // past the 2-entry table
        let bytes = write_archive(&a); // checksum is valid — semantic check must catch it
        assert!(matches!(read_archive(&bytes), Err(ContainerError::Invalid(_))));
    }
}
