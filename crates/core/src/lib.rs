#![warn(missing_docs)]

//! **cf2df-core** — the paper's contribution: translating imperative
//! control-flow graphs into dataflow graphs.
//!
//! Beck, Johnson & Pingali, *From Control Flow to Dataflow* (Cornell
//! TR 89-1050 / ICPP 1990) present a sequence of translation schemas:
//!
//! * **Schema 1** (§2.3): a single access token circulates like a program
//!   counter — sequential semantics, expression parallelism only.
//! * **Schema 2** (§3): one access token per variable; independent memory
//!   operations proceed in parallel. Cyclic graphs require interval
//!   decomposition and loop-control statements.
//! * **Schema 3** (§5): aliasing handled by circulating one token per
//!   *cover element*; an operation on `x` collects every token whose
//!   element intersects the alias class `[x]`.
//! * **Optimized construction** (§4): switches are placed only where
//!   iterated control dependence requires them (Theorem 1), and the graph
//!   is wired directly from *source vectors* (Fig 11) with no redundant
//!   switches.
//! * **Parallelizing transformations** (§6): memory elimination for
//!   unaliased scalars, read parallelization, and array-store
//!   parallelization (Fig 14).
//!
//! All three schemas are implemented by one parameterized translator
//! ([`translator`]): Schema 1 is the single-element cover, Schema 2 the
//! singleton cover over an alias-free program, Schema 3 the general case.
//! The optimized construction ([`optimized`]) shares the same statement
//! translation but wires token lines from source vectors.
//!
//! Entry point: [`pipeline::translate`]. It runs the stages as one
//! straight function over a [`cf2df_cfg::FunctionContext`], whose cache
//! the stages share, and records each stage in a [`PassRecord`].
//!
//! ```
//! use cf2df_core::pipeline::{translate, TranslateOptions};
//! let parsed = cf2df_lang::parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
//! let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
//! assert!(cf2df_dfg::validate(&t.dfg).is_ok());
//! ```

pub mod certify;
pub mod lines;
pub mod optimized;
pub mod pass;
pub mod pipeline;
pub mod source_vec;
pub mod stmt_tr;
pub mod switch_place;
pub mod transform;
pub mod translator;

pub use certify::{CertifyReport, SwitchSite};
pub use lines::{LineId, LineMode, Lines};
pub use pass::{render_pass_table, PassRecord};
pub use pipeline::{
    translate, translate_cfg, Schema, TranslateError, TranslateOptions, Translated,
};
pub use switch_place::SwitchPlacement;

/// Stage set-ups shared by the unit tests: each starts from a fresh
/// [`cf2df_cfg::FunctionContext`], the uncached path.
#[cfg(test)]
mod test_support {
    use crate::lines::Lines;
    use crate::source_vec::SourceVectors;
    use crate::switch_place::SwitchPlacement;
    use crate::translator::Built;
    use cf2df_cfg::loop_control::{insert_loop_control, LoopControlMeta};
    use cf2df_cfg::{Cover, CoverStrategy, FunctionContext};

    /// The loop-controlled CFG of `src` in a fresh context, its
    /// loop-control metadata, and its singleton-cover token lines (with
    /// §6.1 memory elimination when `elim`).
    pub(crate) fn loop_controlled(
        src: &str,
        elim: bool,
    ) -> (FunctionContext, LoopControlMeta, Lines) {
        let parsed = cf2df_lang::parse_to_cfg(src).unwrap();
        let cover = Cover::build(&CoverStrategy::Singletons, &parsed.alias);
        let lines = Lines::new(&parsed.cfg.vars, &parsed.alias, &cover, elim);
        let mut fctx = FunctionContext::new(parsed.cfg, parsed.alias);
        let meta = insert_loop_control(&mut fctx).unwrap();
        (fctx, meta, lines)
    }

    /// The §4 stages in order: switch placement, source vectors, then the
    /// construction.
    pub(crate) fn optimized(
        fctx: &mut FunctionContext,
        meta: &LoopControlMeta,
        lines: &Lines,
    ) -> Built {
        let sp = SwitchPlacement::compute(fctx, meta, lines);
        let sv = SourceVectors::compute(fctx, meta, lines, &sp).unwrap();
        crate::optimized::construct(fctx, lines, &sp, &sv).unwrap()
    }
}
