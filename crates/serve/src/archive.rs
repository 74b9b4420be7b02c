//! Persistent, versioned binary archive for a compiled [`SignatureIndex`].
//!
//! `extractocol-serve` used to recompile the index from analysis reports
//! on every invocation — seconds of static analysis to answer a
//! millisecond question. The archive turns the index into a deployable
//! artifact: `extractocol-serve compile` writes it once, every other
//! subcommand (and the daemon's hot-swap path) loads it near-instantly.
//!
//! # Layout (version 1)
//!
//! The archive is an [`extractocol_ir::container`] with magic
//! `"EXSERVIX"`: the shared 32-byte header (magic, version, reserved,
//! payload length, FNV-1a 64 payload checksum), then a payload of two
//! tagged sections in fixed order:
//!
//! ```text
//! section = tag (u32 LE) + byte_len (u64 LE) + bytes
//!   "SIGS" — the flat signature table (id = position)
//!   "NODE" — the flat trie-node table (index = position)
//! ```
//!
//! This module owns only that schema. Strings are `u64` byte length +
//! UTF-8 bytes; recursive patterns ([`SigPat`], [`JsonSig`], [`XmlSig`])
//! are tag-byte trees with a hard decode-depth cap.
//!
//! # Guarantees
//!
//! * **Deterministic**: the same index serializes to byte-identical
//!   archives (every container is ordered — `Vec`s by construction,
//!   JSON object keys via `BTreeMap`), so `write(read(write(i))) ==
//!   write(i)` and archives diff cleanly.
//! * **Validated on load**: besides the checksum, the flat layouts are
//!   structurally verified — child edges sorted and forward-pointing
//!   (the trie is append-ordered, so cycles are impossible to encode),
//!   every bucket id in range and used exactly once, and every
//!   signature's stored prefix re-derivable from its URI pattern and
//!   resolvable to the node holding it. A loaded index is
//!   verdict-identical to a freshly compiled one (pinned corpus-wide by
//!   `tests/serve_archive.rs`).
//! * **Typed rejection**: corruption, truncation, and version skew each
//!   surface as a distinct [`ContainerError`] variant — never a panic,
//!   never a silently wrong index.

use crate::index::{CompiledSig, SignatureIndex, TrieNode};
use extractocol_core::sigbuild::BodySig;
use extractocol_core::siglang::{JsonSig, SigPat, TypeHint, XmlSig};
use extractocol_http::HttpMethod;
use extractocol_ir::container::{self, put_str, put_u32, put_u64, ContainerError, Reader};
use std::path::Path;

/// The 8-byte archive magic.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"EXSERVIX";
/// Current (and only) archive format version.
pub const ARCHIVE_VERSION: u32 = 1;
/// Maximum nesting depth accepted when decoding pattern trees. Corpus
/// signatures are a few levels deep; this only bounds hostile archives.
const MAX_PATTERN_DEPTH: usize = 256;

const SECTION_SIGS: u32 = u32::from_le_bytes(*b"SIGS");
const SECTION_NODES: u32 = u32::from_le_bytes(*b"NODE");

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_method(out: &mut Vec<u8>, m: HttpMethod) {
    out.push(match m {
        HttpMethod::Get => 0,
        HttpMethod::Post => 1,
        HttpMethod::Put => 2,
        HttpMethod::Delete => 3,
    });
}

fn put_sigpat(out: &mut Vec<u8>, p: &SigPat) {
    match p {
        SigPat::Const(s) => {
            out.push(0);
            put_str(out, s);
        }
        SigPat::Unknown(h) => {
            out.push(1);
            out.push(match h {
                TypeHint::Num => 0,
                TypeHint::Bool => 1,
                TypeHint::Str => 2,
            });
        }
        SigPat::Concat(parts) => {
            out.push(2);
            put_u64(out, parts.len() as u64);
            for part in parts {
                put_sigpat(out, part);
            }
        }
        SigPat::Rep(inner) => {
            out.push(3);
            put_sigpat(out, inner);
        }
        SigPat::Or(arms) => {
            out.push(4);
            put_u64(out, arms.len() as u64);
            for arm in arms {
                put_sigpat(out, arm);
            }
        }
        SigPat::Json(j) => {
            out.push(5);
            put_jsonsig(out, j);
        }
        SigPat::Xml(x) => {
            out.push(6);
            put_xmlsig(out, x);
        }
    }
}

fn put_jsonsig(out: &mut Vec<u8>, j: &JsonSig) {
    match j {
        JsonSig::Object(map) => {
            out.push(0);
            put_u64(out, map.len() as u64);
            for (k, v) in map {
                put_str(out, k);
                put_jsonsig(out, v);
            }
        }
        JsonSig::Array(elem) => {
            out.push(1);
            put_jsonsig(out, elem);
        }
        JsonSig::Value(p) => {
            out.push(2);
            put_sigpat(out, p);
        }
        JsonSig::Unknown => out.push(3),
    }
}

fn put_xmlsig(out: &mut Vec<u8>, x: &XmlSig) {
    put_str(out, &x.name);
    put_u64(out, x.attrs.len() as u64);
    for (k, v) in &x.attrs {
        put_str(out, k);
        put_sigpat(out, v);
    }
    put_u64(out, x.children.len() as u64);
    for c in &x.children {
        put_xmlsig(out, c);
    }
    match &x.text {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_sigpat(out, p);
        }
    }
}

fn put_bodysig(out: &mut Vec<u8>, b: &BodySig) {
    match b {
        BodySig::Form(pairs) => {
            out.push(0);
            put_u64(out, pairs.len() as u64);
            for (k, v) in pairs {
                put_sigpat(out, k);
                put_sigpat(out, v);
            }
        }
        BodySig::Json(j) => {
            out.push(1);
            put_jsonsig(out, j);
        }
        BodySig::Xml(x) => {
            out.push(2);
            put_xmlsig(out, x);
        }
        BodySig::Text(p) => {
            out.push(3);
            put_sigpat(out, p);
        }
    }
}

fn put_sig(out: &mut Vec<u8>, sig: &CompiledSig) {
    put_str(out, &sig.app);
    put_u64(out, sig.txn_id as u64);
    put_str(out, &sig.dp_class);
    put_method(out, sig.method);
    put_sigpat(out, &sig.uri);
    match &sig.body {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_bodysig(out, b);
        }
    }
    put_str(out, &sig.prefix);
}

fn put_node(out: &mut Vec<u8>, node: &TrieNode) {
    put_u64(out, node.children.len() as u64);
    for (label, child) in &node.children {
        out.push(*label);
        put_u32(out, *child);
    }
    put_u64(out, node.bucket.len() as u64);
    for id in &node.bucket {
        put_u32(out, *id);
    }
}

/// Serializes a compiled index into archive bytes. Deterministic: the
/// same index always produces byte-identical output.
pub fn write_archive(index: &SignatureIndex) -> Vec<u8> {
    container::write(ARCHIVE_MAGIC, ARCHIVE_VERSION, |out| {
        container::put_section(out, SECTION_SIGS, |out| {
            put_u64(out, index.sigs.len() as u64);
            for sig in &index.sigs {
                put_sig(out, sig);
            }
        });
        container::put_section(out, SECTION_NODES, |out| {
            put_u64(out, index.nodes.len() as u64);
            for node in &index.nodes {
                put_node(out, node);
            }
        });
    })
}

/// [`write_archive`] to a file.
pub fn write_archive_file(
    index: &SignatureIndex,
    path: impl AsRef<Path>,
) -> Result<(), ContainerError> {
    container::write_file(path.as_ref(), &write_archive(index))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn get_method(cur: &mut Reader<'_>) -> Result<HttpMethod, ContainerError> {
    match cur.u8("method")? {
        0 => Ok(HttpMethod::Get),
        1 => Ok(HttpMethod::Post),
        2 => Ok(HttpMethod::Put),
        3 => Ok(HttpMethod::Delete),
        tag => Err(ContainerError::BadTag { context: "method", tag }),
    }
}

fn get_sigpat(cur: &mut Reader<'_>, depth: usize) -> Result<SigPat, ContainerError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(ContainerError::TooDeep { context: "SigPat", limit: MAX_PATTERN_DEPTH });
    }
    match cur.u8("SigPat")? {
        0 => Ok(SigPat::Const(cur.str("SigPat::Const")?)),
        1 => match cur.u8("TypeHint")? {
            0 => Ok(SigPat::Unknown(TypeHint::Num)),
            1 => Ok(SigPat::Unknown(TypeHint::Bool)),
            2 => Ok(SigPat::Unknown(TypeHint::Str)),
            tag => Err(ContainerError::BadTag { context: "TypeHint", tag }),
        },
        2 => {
            let n = cur.count(1, "SigPat::Concat")?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(get_sigpat(cur, depth + 1)?);
            }
            Ok(SigPat::Concat(parts))
        }
        3 => Ok(SigPat::Rep(Box::new(get_sigpat(cur, depth + 1)?))),
        4 => {
            let n = cur.count(1, "SigPat::Or")?;
            let mut arms = Vec::with_capacity(n);
            for _ in 0..n {
                arms.push(get_sigpat(cur, depth + 1)?);
            }
            Ok(SigPat::Or(arms))
        }
        5 => Ok(SigPat::Json(get_jsonsig(cur, depth + 1)?)),
        6 => Ok(SigPat::Xml(Box::new(get_xmlsig(cur, depth + 1)?))),
        tag => Err(ContainerError::BadTag { context: "SigPat", tag }),
    }
}

fn get_jsonsig(cur: &mut Reader<'_>, depth: usize) -> Result<JsonSig, ContainerError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(ContainerError::TooDeep { context: "JsonSig", limit: MAX_PATTERN_DEPTH });
    }
    match cur.u8("JsonSig")? {
        0 => {
            let n = cur.count(1, "JsonSig::Object")?;
            let mut map = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = cur.str("JsonSig key")?;
                map.insert(k, get_jsonsig(cur, depth + 1)?);
            }
            Ok(JsonSig::Object(map))
        }
        1 => Ok(JsonSig::Array(Box::new(get_jsonsig(cur, depth + 1)?))),
        2 => Ok(JsonSig::Value(Box::new(get_sigpat(cur, depth + 1)?))),
        3 => Ok(JsonSig::Unknown),
        tag => Err(ContainerError::BadTag { context: "JsonSig", tag }),
    }
}

fn get_xmlsig(cur: &mut Reader<'_>, depth: usize) -> Result<XmlSig, ContainerError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(ContainerError::TooDeep { context: "XmlSig", limit: MAX_PATTERN_DEPTH });
    }
    let name = cur.str("XmlSig name")?;
    let n_attrs = cur.count(1, "XmlSig attrs")?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let k = cur.str("XmlSig attr key")?;
        attrs.push((k, get_sigpat(cur, depth + 1)?));
    }
    let n_children = cur.count(1, "XmlSig children")?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(get_xmlsig(cur, depth + 1)?);
    }
    let text = match cur.u8("XmlSig text")? {
        0 => None,
        1 => Some(get_sigpat(cur, depth + 1)?),
        tag => return Err(ContainerError::BadTag { context: "XmlSig text", tag }),
    };
    Ok(XmlSig { name, attrs, children, text })
}

fn get_bodysig(cur: &mut Reader<'_>) -> Result<BodySig, ContainerError> {
    match cur.u8("BodySig")? {
        0 => {
            let n = cur.count(1, "BodySig::Form")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_sigpat(cur, 0)?;
                let v = get_sigpat(cur, 0)?;
                pairs.push((k, v));
            }
            Ok(BodySig::Form(pairs))
        }
        1 => Ok(BodySig::Json(get_jsonsig(cur, 0)?)),
        2 => Ok(BodySig::Xml(get_xmlsig(cur, 0)?)),
        3 => Ok(BodySig::Text(get_sigpat(cur, 0)?)),
        tag => Err(ContainerError::BadTag { context: "BodySig", tag }),
    }
}

fn get_sig(cur: &mut Reader<'_>) -> Result<CompiledSig, ContainerError> {
    let app = cur.str("sig app")?;
    let txn_id = cur.u64("sig txn_id")? as usize;
    let dp_class = cur.str("sig dp_class")?;
    let method = get_method(cur)?;
    let uri = get_sigpat(cur, 0)?;
    let body = match cur.u8("sig body")? {
        0 => None,
        1 => Some(get_bodysig(cur)?),
        tag => return Err(ContainerError::BadTag { context: "sig body", tag }),
    };
    let prefix = cur.str("sig prefix")?;
    Ok(CompiledSig { app, txn_id, dp_class, method, uri, body, prefix })
}

fn get_node(cur: &mut Reader<'_>) -> Result<TrieNode, ContainerError> {
    let n_children = cur.count(1, "node children")?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        let label = cur.u8("child label")?;
        let child = cur.u32("child index")?;
        children.push((label, child));
    }
    let n_bucket = cur.count(1, "node bucket")?;
    let mut bucket = Vec::with_capacity(n_bucket);
    for _ in 0..n_bucket {
        bucket.push(cur.u32("bucket id")?);
    }
    Ok(TrieNode { children, bucket })
}

/// Deserializes and validates archive bytes back into a
/// [`SignatureIndex`]. Every failure mode is a typed [`ContainerError`].
pub fn read_archive(bytes: &[u8]) -> Result<SignatureIndex, ContainerError> {
    let mut payload = container::open(bytes, ARCHIVE_MAGIC, ARCHIVE_VERSION)?;
    let mut cur = payload.section(SECTION_SIGS)?;
    let n_sigs = cur.count(1, "signature count")?;
    let mut sigs = Vec::with_capacity(n_sigs);
    for _ in 0..n_sigs {
        sigs.push(get_sig(&mut cur)?);
    }
    cur.finish()?;
    let mut cur = payload.section(SECTION_NODES)?;
    let n_nodes = cur.count(1, "node count")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(get_node(&mut cur)?);
    }
    cur.finish()?;
    payload.finish()?;

    let index = SignatureIndex { sigs, nodes };
    validate_layout(&index)?;
    Ok(index)
}

/// [`read_archive`] from a file.
pub fn read_archive_file(path: impl AsRef<Path>) -> Result<SignatureIndex, ContainerError> {
    read_archive(&container::read_file(path.as_ref())?)
}

/// Structural validation of the decoded flat layouts — the guarantees
/// [`SignatureIndex::classify`] relies on and a hostile or bit-rotted
/// archive could otherwise violate.
fn validate_layout(index: &SignatureIndex) -> Result<(), ContainerError> {
    let bad = |msg: String| Err(ContainerError::Invalid(msg));
    if index.nodes.is_empty() {
        return bad("no trie root".into());
    }
    let n_sigs = index.sigs.len();
    let n_nodes = index.nodes.len();
    let mut bucketed = vec![false; n_sigs];
    for (i, node) in index.nodes.iter().enumerate() {
        for w in node.children.windows(2) {
            if w[0].0 >= w[1].0 {
                return bad(format!("node {i}: child labels not strictly increasing"));
            }
        }
        for &(label, child) in &node.children {
            let child = child as usize;
            if child >= n_nodes {
                return bad(format!("node {i}: child {child} out of range ({n_nodes} nodes)"));
            }
            if child <= i {
                return bad(format!(
                    "node {i}: child {child} not forward-pointing (label {label:#04x})"
                ));
            }
        }
        for w in node.bucket.windows(2) {
            if w[0] >= w[1] {
                return bad(format!("node {i}: bucket ids not strictly increasing"));
            }
        }
        for &id in &node.bucket {
            let id = id as usize;
            if id >= n_sigs {
                return bad(format!("node {i}: bucket id {id} out of range ({n_sigs} sigs)"));
            }
            if bucketed[id] {
                return bad(format!("signature {id} appears in more than one bucket"));
            }
            bucketed[id] = true;
        }
    }
    if let Some(id) = bucketed.iter().position(|b| !b) {
        return bad(format!("signature {id} missing from every trie bucket"));
    }
    for (id, sig) in index.sigs.iter().enumerate() {
        if sig.prefix != sig.uri.literal_prefix() {
            return bad(format!("signature {id}: stored prefix diverges from its URI pattern"));
        }
        // The prefix must walk to a node whose bucket holds this id.
        let mut node = 0usize;
        for &b in sig.prefix.as_bytes() {
            match index.nodes[node].children.binary_search_by_key(&b, |e| e.0) {
                Ok(i) => node = index.nodes[node].children[i].1 as usize,
                Err(_) => return bad(format!("signature {id}: prefix walks off the trie")),
            }
        }
        if !index.nodes[node].bucket.contains(&(id as u32)) {
            return bad(format!("signature {id}: prefix node does not bucket it"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_core::metrics::Metrics;
    use extractocol_core::pairing::Pairing;
    use extractocol_core::report::{AnalysisReport, Stats, TxnReport};
    use extractocol_http::Request;

    fn small_index() -> SignatureIndex {
        let mut body = JsonSig::object();
        body.put("id", JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Num))));
        let txns = vec![
            TxnReport {
                id: 0,
                dp_class: "java.net.HttpURLConnection".into(),
                root: "t.C.go".into(),
                method: HttpMethod::Get,
                uri_regex: String::new(),
                uri: SigPat::Concat(vec![
                    SigPat::lit("http://h/api/"),
                    SigPat::Unknown(TypeHint::Num),
                    SigPat::Rep(Box::new(SigPat::lit("/x"))),
                ]),
                headers: Vec::new(),
                header_sigs: Vec::new(),
                request_body: None,
                response: None,
                pairing: Pairing::Unique,
                origins: Vec::new(),
                consumptions: Vec::new(),
            },
            TxnReport {
                id: 1,
                dp_class: "org.apache.http.client.HttpClient".into(),
                root: "t.C.post".into(),
                method: HttpMethod::Post,
                uri_regex: String::new(),
                uri: SigPat::lit("http://h/api/login"),
                headers: Vec::new(),
                header_sigs: Vec::new(),
                request_body: Some(BodySig::Json(body)),
                response: None,
                pairing: Pairing::Unique,
                origins: Vec::new(),
                consumptions: Vec::new(),
            },
        ];
        SignatureIndex::compile(&[AnalysisReport {
            app: "demo".into(),
            transactions: txns,
            dependencies: Vec::new(),
            stats: Stats::default(),
            metrics: Metrics::default(),
        }])
    }

    #[test]
    fn round_trip_preserves_the_index() {
        let index = small_index();
        let bytes = write_archive(&index);
        let loaded = read_archive(&bytes).expect("load");
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.trie_nodes(), index.trie_nodes());
        for (a, b) in index.sigs().iter().zip(loaded.sigs()) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.txn_id, b.txn_id);
            assert_eq!(a.method, b.method);
            assert_eq!(a.uri, b.uri);
            assert_eq!(a.body, b.body);
            assert_eq!(a.prefix, b.prefix);
        }
        // Re-serialization is byte-identical (lossless decode).
        assert_eq!(write_archive(&loaded), bytes);
    }

    #[test]
    fn verdicts_survive_the_round_trip() {
        let index = small_index();
        let loaded = read_archive(&write_archive(&index)).expect("load");
        for req in [
            Request::get("http://h/api/42/x/x"),
            Request::get("http://h/api/nope"),
            Request::post("http://h/api/login", extractocol_http::Body::Empty),
        ] {
            assert_eq!(index.classify(&req), loaded.classify(&req));
        }
    }

    /// `write_archive(&small_index())`, pinned: any change to the codec's
    /// output fails here.
    const GOLDEN_HEX: &str = concat!(
        "45585345525649580100000000000000bf020000000000002e2509a0316f2b06534947530d010000",
        "000000000200000000000000040000000000000064656d6f00000000000000001a00000000000000",
        "6a6176612e6e65742e4874747055524c436f6e6e656374696f6e00020300000000000000000d0000",
        "0000000000687474703a2f2f682f6170692f0100030002000000000000002f78000d000000000000",
        "00687474703a2f2f682f6170692f040000000000000064656d6f0100000000000000210000000000",
        "00006f72672e6170616368652e687474702e636c69656e742e48747470436c69656e740100120000",
        "0000000000687474703a2f2f682f6170692f6c6f67696e0101000100000000000000020000000000",
        "000069640201001200000000000000687474703a2f2f682f6170692f6c6f67696e4e4f44459a0100",
        "00000000001300000000000000010000000000000068010000000000000000000000010000000000",
        "00007402000000000000000000000001000000000000007403000000000000000000000001000000",
        "000000007004000000000000000000000001000000000000003a0500000000000000000000000100",
        "0000000000002f06000000000000000000000001000000000000002f070000000000000000000000",
        "01000000000000006808000000000000000000000001000000000000002f09000000000000000000",
        "00000100000000000000610a00000000000000000000000100000000000000700b00000000000000",
        "000000000100000000000000690c000000000000000000000001000000000000002f0d0000000000",
        "00000000000001000000000000006c0e00000001000000000000000000000001000000000000006f",
        "0f000000000000000000000001000000000000006710000000000000000000000001000000000000",
        "006911000000000000000000000001000000000000006e1200000000000000000000000000000000",
        "000000010000000000000001000000",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn small_index_archive_matches_the_golden_bytes() {
        assert_eq!(hex(&write_archive(&small_index())), GOLDEN_HEX);
    }

    #[test]
    fn hostile_input_sweep() {
        // Payload offsets of u64 counts: the SIGS section length, the
        // signature count, and the first signature's app-name length.
        container::hostile_input_sweep(&write_archive(&small_index()), &[4, 12, 20], read_archive);
    }

    #[test]
    fn empty_index_round_trips() {
        let index = SignatureIndex::compile(&[]);
        let loaded = read_archive(&write_archive(&index)).expect("load");
        assert!(loaded.is_empty());
        assert_eq!(loaded.trie_nodes(), 1);
    }

    #[test]
    fn layout_validation_rejects_inconsistent_tables() {
        let index = small_index();
        // Drop a signature from its bucket: rebuild with an empty root
        // bucket and a dangling signature.
        let mut broken = index.clone();
        for node in &mut broken.nodes {
            node.bucket.clear();
        }
        let bytes = write_archive(&broken);
        match read_archive(&bytes) {
            Err(ContainerError::Invalid(msg)) => {
                assert!(msg.contains("missing from every trie bucket"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
