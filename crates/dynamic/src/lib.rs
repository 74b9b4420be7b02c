//! # extractocol-dynamic
//!
//! The dynamic-analysis side of the evaluation (paper §5.1): running apps
//! and capturing their traffic. The paper executes real apps on devices
//! behind a decrypting proxy and drives them by hand and with PUMA \[54\];
//! our substitution is a **concrete interpreter** for the corpus IR wired
//! to the per-app mock server:
//!
//! * [`interp`] — executes methods with concrete values, giving every
//!   modelled API its real semantics (StringBuilder concatenation, JSON
//!   parse/build, HTTP execution against the `ServerSpec`), and records
//!   each network interaction as a `Transaction` in a trace;
//! * [`fuzz`] — the two UI-fuzzing simulators: *manual* fuzzing reaches
//!   everything a human can (including custom UI and login flows) while
//!   *automatic* fuzzing (PUMA) reaches only standard clickable UI — and
//!   neither reaches timers, server pushes, or side-effectful commerce
//!   actions;
//! * [`trace`] — captured traffic plus the evaluation metrics: signature
//!   matching (Table 1 validity), constant-keyword counts (Fig. 7), and
//!   byte-level Rk/Rv/Rn attribution (Table 2);
//! * [`eval`] — per-app and corpus-wide aggregation for Tables 1–2 and
//!   Figs. 6–7;
//! * [`replay`] — the §5.3 Kayak replay client built purely from
//!   recovered signatures.

pub mod adversarial;
pub mod conformance;
pub mod eval;
pub mod fuzz;
pub mod interp;
pub mod replay;
pub mod trace;

pub use adversarial::{generate_attacks, AdversarialConfig, AttackCase, AttackClass};
pub use conformance::{conformance_check, mutation_self_test, MutationSummary};
pub use fuzz::{run_auto_fuzzer, run_manual_fuzzer, run_perfect_fuzzer};
pub use interp::{Interpreter, RtError};
pub use trace::{parse_request_line, TraceParseError, TraceParseErrorKind, TrafficTrace};
