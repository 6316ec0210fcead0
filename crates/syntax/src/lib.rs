//! # vault-syntax
//!
//! Front end for the Vault surface language from *Enforcing High-Level
//! Protocols in Low-Level Software* (DeLine & Fähndrich, PLDI 2001):
//! source maps, diagnostics, lexer, AST, parser, and pretty-printer.
//!
//! The surface language is C-like, extended with the paper's resource
//! management features: `tracked` types, guarded types (`K@open : FILE`),
//! effect clauses on functions (`[S@raw->named]`), keyed variants
//! (`'SomeKey{K}`), statesets (partial orders of key states), and globally
//! declared keys such as `IRQL`.
//!
//! ## Example
//!
//! ```
//! use vault_syntax::{parse_program, DiagSink};
//!
//! let mut diags = DiagSink::new();
//! let program = parse_program(
//!     "void fclose(tracked(F) FILE f) [-F];",
//!     &mut diags,
//! );
//! assert!(!diags.has_errors());
//! assert_eq!(program.functions()[0].name.name, "fclose");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::{ImportDecl, Program};
pub use diag::{Attribution, Code, DiagSink, DiagView, Diagnostic, LabelView, Severity};
pub use intern::{FnvBuildHasher, IStr, Interner, Symbol};
pub use parser::{
    parse_expr, parse_outline, parse_program, parse_program_with_depth,
    parse_program_with_depth_timed, parse_range_in, parse_range_with_depth, FrontEndTiming,
    Outline, DEFAULT_PARSER_DEPTH,
};
pub use span::{SourceMap, Span};
