//! # extractocol-ir
//!
//! A Jimple-like typed three-address intermediate representation (IR) for
//! Android application code, together with an APK container model
//! (manifest, resources, classes).
//!
//! The original Extractocol system (CoNEXT '16) consumes Dalvik bytecode and
//! immediately lifts it to Soot's Jimple IR via Dexpler; every analysis in
//! the paper — slicing, signature extraction, pairing, dependency analysis —
//! "operates at Jimple/Shimple code level, instead of the Dalvik bytecode"
//! (paper §4). This crate is the Rust stand-in for that layer: a small,
//! fully-typed 3-address-code IR with classes, fields, virtual dispatch,
//! branches and loops, plus:
//!
//! * a fluent [`builder`] API used by the synthetic app corpus,
//! * a Jimple-flavoured [text format](parser) with a parser and
//!   [pretty-printer](printer) that round-trip,
//! * a ProGuard-style [obfuscator](obfuscate) used to reproduce the paper's
//!   obfuscation experiments (§3.4, §5.1),
//! * a structural [validator](validate) used throughout the test suite,
//! * the binary [container] codec shared by the on-disk
//!   archive formats.
//!
//! The IR intentionally mirrors Jimple's statement forms (assignments with a
//! single operation on the right-hand side, identity statements binding
//! `this`/parameters, explicit `goto`/`if`) so that analyses written against
//! it exercise the same shapes the real system sees.

pub mod apk;
pub mod builder;
pub mod class;
pub mod container;
pub mod hash;
pub mod obfuscate;
pub mod parser;
pub mod printer;
pub mod program;
pub mod rng;
pub mod stmt;
pub mod types;
pub mod validate;
pub mod values;

pub use apk::{Apk, Manifest, Resources};
pub use builder::{ApkBuilder, ClassBuilder, MethodBuilder};
pub use class::{Class, FieldDecl, LocalDecl, Method};
pub use program::{CalleeId, ClassId, MethodId, ProgramIndex};
pub use stmt::{BinOp, Call, CallKind, Cond, CondOp, Expr, IdentityKind, Stmt, UnOp};
pub use types::Type;
pub use values::{Const, FieldRef, Local, MethodRef, Place, Value};
