#![warn(missing_docs)]

//! The dataflow-graph intermediate representation targeted by the
//! translation schemas of Beck, Johnson & Pingali, *From Control Flow to
//! Dataflow* (1990).
//!
//! A dataflow graph is a set of operators connected by arcs. Operators fire
//! when tokens are present on their input ports (§2.2); arcs either carry
//! *values* or *dummy access tokens* used purely for sequencing memory
//! operations (drawn dotted in the paper's figures).
//!
//! The operator set ([`op`]) includes the paper's `switch`, `merge` and
//! `synch tree` (Fig 2), split-phase `load`/`store` on a multiply-written
//! memory (the paper's extension of the classical dataflow memory model),
//! the loop-control operators of §3 realized as iteration-tag managers, the
//! iteration-retagging operators (`prev-iter`, `iter-index`) behind the
//! array-store parallelization of Fig 14, and I-structure operations for
//! the write-once enhancement of §6.3.

pub mod build;
pub mod certify;
pub mod dot;
pub mod fuse;
pub mod graph;
pub mod io;
pub mod mutate;
pub mod op;
pub mod stats;
pub mod validate;

pub use build::synch_tree;
pub use certify::{certify, Defect, DefectKind};
pub use fuse::{fuse, FuseStats};
pub use graph::{Arc, ArcIndex, ArcKind, Dfg, OpId, Port};
pub use mutate::{mutate, Mutation, MutationClass};
pub use op::{macro_eval, MacroSrc, MacroStep, OpKind};
pub use stats::DfgStats;
pub use validate::{validate, DfgError};
