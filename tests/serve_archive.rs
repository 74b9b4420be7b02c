//! Archive-format guarantees on the real corpus (ISSUE 8):
//!
//! * **Deterministic recompile** — analyzing the corpus twice and
//!   compiling two indexes yields byte-identical archives, and the
//!   write → read → write round trip is byte-stable.
//! * **Verdict equality** — an archive-loaded index classifies every
//!   request of the full 34-app fuzzer corpus exactly like the
//!   JSON-compiled index it was written from (verdicts *and* probe
//!   counters).
//! * **Typed rejection** — corruption, truncation at any byte, and
//!   version skew are refused with typed `ContainerError`s, never panics.
//! * **Load speedup** — loading the archive is at least 20x faster than
//!   the rebuild it replaces (corpus static analysis + compile).

use extractocol_serve::bench::{corpus_reports, corpus_requests};
use extractocol_serve::{read_archive, write_archive, ContainerError, SignatureIndex};
use std::time::Instant;

#[test]
fn corpus_archive_is_deterministic_and_byte_stable() {
    let a = SignatureIndex::compile(&corpus_reports(1));
    let b = SignatureIndex::compile(&corpus_reports(1));
    let bytes_a = write_archive(&a);
    let bytes_b = write_archive(&b);
    assert!(bytes_a.len() > 1_000, "corpus archive suspiciously small: {}", bytes_a.len());
    assert_eq!(bytes_a, bytes_b, "recompiling the corpus changed the archive bytes");

    // write(read(write(i))) == write(i): decode is lossless.
    let loaded = read_archive(&bytes_a).expect("self-written archive loads");
    assert_eq!(write_archive(&loaded), bytes_a);
}

#[test]
fn archive_loaded_index_is_verdict_identical_across_the_corpus() {
    let compiled = SignatureIndex::compile(&corpus_reports(1));
    let loaded = read_archive(&write_archive(&compiled)).expect("load");
    assert_eq!(loaded.len(), compiled.len());
    assert_eq!(loaded.trie_nodes(), compiled.trie_nodes());

    let requests = corpus_requests();
    assert!(requests.len() > 100, "corpus traffic unexpectedly small");
    for req in &requests {
        let (v_compiled, p_compiled) = compiled.classify(req);
        let (v_loaded, p_loaded) = loaded.classify(req);
        assert_eq!(
            v_compiled, v_loaded,
            "archive-loaded verdict diverges on {} {}",
            req.method, req.uri.raw
        );
        assert_eq!(p_compiled, p_loaded, "probe counters diverge on {}", req.uri.raw);
    }
}

#[test]
fn corrupted_and_truncated_corpus_archives_are_refused_with_typed_errors() {
    let index = SignatureIndex::compile(&corpus_reports(1));
    let bytes = write_archive(&index);

    // Version skew: refused by number, not by crash.
    let mut skewed = bytes.clone();
    skewed[8] = 0x7F;
    assert!(matches!(
        read_archive(&skewed),
        Err(ContainerError::VersionMismatch { found: 0x7F, .. })
    ));

    // Single-bit corruption anywhere in the payload fails the checksum.
    for at in [32usize, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x20;
        assert!(
            matches!(read_archive(&corrupt), Err(ContainerError::ChecksumMismatch { .. })),
            "corruption at byte {at} not caught"
        );
    }

    // Truncation at a spread of cut points (headers, section boundaries,
    // mid-signature, mid-node) is always a typed error.
    for cut in [0, 7, 8, 16, 31, 32, 40, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        match read_archive(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncated archive loaded at cut {cut}/{}", bytes.len()),
        }
    }
}

/// The persistent index's reason to exist: the best of three archive
/// loads beats the full rebuild (analysis of every corpus app plus
/// compile) by at least 20x.
#[test]
fn archive_load_is_twenty_times_faster_than_a_rebuild() {
    let t = Instant::now();
    let index = SignatureIndex::compile(&corpus_reports(0));
    let rebuild = t.elapsed();
    let bytes = write_archive(&index);
    let load = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(read_archive(&bytes).expect("self-written archive loads"));
            t.elapsed()
        })
        .min()
        .expect("three timed loads");
    let speedup = rebuild.as_secs_f64() / load.as_secs_f64();
    println!("index rebuild {rebuild:?} vs archive load {load:?}: {speedup:.0}x");
    assert!(
        speedup >= 20.0,
        "archive load {load:?} is only {speedup:.1}x faster than the rebuild {rebuild:?} (bar: 20x)"
    );
}
