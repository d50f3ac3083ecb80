//! # bop-clc — an OpenCL C subset compiler front-end
//!
//! This crate stands in for Altera's OpenCL kernel compiler in the DATE 2014
//! reproduction: it turns OpenCL C kernel sources into the `bop-clir`
//! dataflow IR that the simulated devices (FPGA/GPU/CPU) consume. The
//! pipeline is classic:
//!
//! ```text
//! source --lex--> tokens --parse--> AST --lower--> IR --passes--> IR
//! ```
//!
//! The accepted language is the subset needed for high-throughput numeric
//! kernels (and a little more): scalar types (`bool`, `int`, `uint`,
//! `long`, `ulong`, `size_t`, `float`, `double`), pointers with OpenCL
//! address-space qualifiers, private fixed-size arrays, the full C
//! expression grammar (including `?:`, compound assignment, short-circuit
//! `&&`/`||` and `++`/`--`), `if`/`for`/`while`/`do-while`/`break`/
//! `continue`, `#pragma unroll`, work-item builtins, `barrier(...)` and
//! the math builtins `exp`, `log`, `pow`, `sqrt`, `fmax`, `fmin`, `fabs`,
//! `floor`, `min`, `max`. Optimisations: constant folding and DCE (always
//! on), local-value-numbering CSE + copy propagation (opt-in, see
//! [`Options::cse`]).
//!
//! Unsupported (diagnosed, not silently ignored): user-defined helper
//! functions, structs, vector types, `switch`, `goto`, taking addresses
//! of locals, and nesting deeper than [`parser::MAX_NESTING`] levels.
//!
//! ## Example
//!
//! ```
//! use bop_clc::{compile, Options};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     __kernel void scale(__global const double* in, __global double* out, double k) {
//!         size_t gid = get_global_id(0);
//!         out[gid] = k * in[gid];
//!     }
//! "#;
//! let module = compile("scale.cl", src, &Options::default())?;
//! assert!(module.kernel("scale").is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;
#[cfg(test)]
mod passes;
pub mod printer;
pub mod token;

pub use diag::{CompileError, Diag, Pos};

use bop_clir::ir::Module;
use bop_clir::passes::{
    eliminate_dead_code_in, fold_constants_in, local_cse_in, propagate_copies_in,
};

/// Front-end options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// If set, overrides the factor of every `#pragma unroll` loop in the
    /// source. This models re-compiling the same kernel with a different
    /// unroll directive, as the paper's design-space exploration does.
    pub unroll_override: Option<u32>,
    /// Skip the IR optimisation passes (constant folding, dead-code
    /// elimination). Useful for testing and for before/after comparisons.
    pub no_opt: bool,
    /// Enable common-subexpression elimination (local value numbering).
    /// Off by default: removing redundant operators changes the FPGA
    /// resource estimates, so it is exposed as an explicit design choice
    /// (and an ablation) rather than silently applied.
    pub cse: bool,
}

impl Options {
    /// Options with an unroll override.
    pub fn with_unroll(factor: u32) -> Options {
        Options { unroll_override: Some(factor), ..Options::default() }
    }
}

/// Compile OpenCL C source into an IR [`Module`].
///
/// # Errors
/// Returns a [`CompileError`] carrying one or more positioned diagnostics
/// if the source fails to lex, parse or type-check.
pub fn compile(source_name: &str, source: &str, options: &Options) -> Result<Module, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    let module = lower::lower_unit(source_name, &unit, options)?;
    let module = if options.no_opt {
        module
    } else {
        let mut m = module;
        for func in &mut m.functions {
            fold_constants_in(func);
            if options.cse {
                local_cse_in(func);
                propagate_copies_in(func);
            }
            eliminate_dead_code_in(func);
        }
        m
    };
    bop_clir::verify::verify_module(&module).map_err(|e| {
        CompileError::single(Pos::default(), format!("internal: verifier rejected lowered IR: {e}"))
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile(
            "t.cl",
            "__kernel void k(__global double* o) { o[get_global_id(0)] = 1.0; }",
            &Options::default(),
        )
        .expect("compiles");
        assert_eq!(m.kernels().count(), 1);
    }

    #[test]
    fn compile_error_carries_position() {
        let err = compile(
            "t.cl",
            "__kernel void k(__global double* o) { o[0] = ; }",
            &Options::default(),
        )
        .expect_err("syntax error");
        assert!(!err.diags().is_empty());
        assert!(err.diags()[0].pos.line > 0);
    }

    const NEST_SHAPES: [&str; 5] =
        ["parentheses", "binary chain", "blocks", "prefix operators", "unbraced ifs"];

    /// A kernel nesting one construct of `shape` `k` deep.
    fn nested_kernel(shape: &str, k: usize) -> String {
        kernel(&match shape {
            "parentheses" => format!("o[0] = {}1.0{};", "(".repeat(k), ")".repeat(k)),
            "binary chain" => format!("o[0] = 1.0{};", " + 1.0".repeat(k)),
            "blocks" => format!("{}o[0] = 1.0;{}", "{".repeat(k), "}".repeat(k)),
            "prefix operators" => format!("o[0] = {}1.0;", "- ".repeat(k)),
            "unbraced ifs" => format!("{}o[0] = 1.0;", "if (o[1] > 0.0) ".repeat(k)),
            _ => unreachable!("unknown shape {shape}"),
        })
    }

    fn kernel(body: &str) -> String {
        format!("__kernel void k(__global double* o) {{ {body} }}")
    }

    /// Run `f` on a thread with the default 2 MiB test stack, so a test
    /// proves the bound whatever stack size the harness was given.
    fn on_2mib_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawns")
            .join()
            .expect("no stack overflow")
    }

    fn nesting_error(src: &str) -> Option<CompileError> {
        compile("deep.cl", src, &Options::default())
            .err()
            .filter(|e| e.diags()[0].message.contains("nesting exceeds the limit"))
    }

    #[test]
    fn pathological_nesting_is_a_positioned_error() {
        let inputs = [
            nested_kernel("parentheses", 5_000),
            nested_kernel("binary chain", 49_999),
            nested_kernel("blocks", 5_000),
        ];
        on_2mib_stack(move || {
            for src in inputs {
                let err = nesting_error(&src).expect("typed nesting error");
                let pos = err.diags()[0].pos;
                assert!(pos.line == 1 && pos.col > 1, "positioned: {err}");
            }
        });
    }

    #[test]
    fn sources_at_the_nesting_limit_compile() {
        for shape in NEST_SHAPES {
            let parses = |k| parser::parse(&lexer::lex(&nested_kernel(shape, k)).unwrap()).is_ok();
            let deepest = (0..=parser::MAX_NESTING).rev().find(|&k| parses(k)).expect(shape);
            assert!(deepest + 8 >= parser::MAX_NESTING, "{shape}: only {deepest} levels");
            let too_deep = nested_kernel(shape, deepest + 1);
            assert!(nesting_error(&too_deep).is_some(), "{shape}: the limit is exact");
            let src = nested_kernel(shape, deepest);
            let module = on_2mib_stack(move || {
                compile("deep.cl", &src, &Options::default()).map(|m| m.kernels().count())
            });
            assert_eq!(module.expect(shape), 1, "{shape}");
        }
    }

    #[test]
    fn every_shipped_kernel_compiles() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/kernels");
        let mut compiled = 0;
        for entry in std::fs::read_dir(&dir).expect("kernel directory") {
            let path = entry.expect("entry").path();
            if path.extension().is_none_or(|e| e != "cl") {
                continue;
            }
            let raw = std::fs::read_to_string(&path).expect("readable");
            for real in ["double", "float"] {
                let src = raw.replace("REAL", real).replace("PRIVN", "65");
                let name = path.display().to_string();
                compile(&name, &src, &Options::default())
                    .unwrap_or_else(|e| panic!("{name} ({real}): {e}"));
            }
            compiled += 1;
        }
        assert_eq!(compiled, 7, "every kernel under {}", dir.display());
    }
}
