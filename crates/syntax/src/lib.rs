//! # rsc-syntax
//!
//! The front end of the RSC reproduction: a lexer, recursive-descent
//! parser and AST for the Refined TypeScript input language — the paper's
//! FRSC core (§3.1.1 of *Refinement Types for TypeScript*, PLDI 2016)
//! extended with the features its implementation supports (§4): loops,
//! nested functions, interfaces, bit-vector enums, overload (`sig`)
//! declarations, type aliases and refinement annotations.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     type nat = {v: number | 0 <= v};
//!     function inc(x: nat): {v: number | x < v} {
//!         return x + 1;
//!     }
//! "#;
//! let prog = rsc_syntax::parse_program(src).unwrap();
//! assert_eq!(prog.items.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod qualify;
pub mod span;
pub mod token;
pub mod types;

pub use ast::Program;
pub use parser::{parse_pred, parse_program, parse_type, ParseError, MAX_NESTING};
pub use qualify::{demangle, module_id, qualified_name, qualify_program, ModuleEnv, QualifyError};
pub use span::{LineCol, LineIndex, Span};
pub use types::{AnnArg, AnnTy, FunTy, Mutability};
