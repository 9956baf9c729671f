#![warn(missing_docs)]

//! Control-flow graphs and the analyses required to translate them to
//! dataflow graphs, following Beck, Johnson & Pingali, *From Control Flow to
//! Dataflow* (Cornell TR 89-1050, ICPP 1990).
//!
//! This crate provides:
//!
//! * the statement-level program representation of §2.1: variables
//!   ([`var`]), expressions ([`expr`]), statements ([`stmt`]) and the
//!   control-flow graph itself ([`graph`]);
//! * postdominator and dominator trees ([`postdom`]);
//! * control dependence and iterated control dependence ([`control_dep`]),
//!   the machinery behind the paper's Theorem 1;
//! * interval (loop) decomposition and loop-control insertion
//!   ([`intervals`], [`loop_control`]) required by translation Schema 2 (§3);
//! * alias structures and covers ([`alias`]) required by Schema 3 (§5);
//! * a per-function [`context::FunctionContext`] owning the CFG behind a
//!   revision-stamped, compute-once [`context`] analysis cache — the
//!   one context every translation stage reads and mutates;
//! * memory layouts binding variable names to locations ([`layout`]),
//!   including layouts that realize a particular aliasing;
//! * graph utilities ([`reach`]) and DOT export ([`dot`]).

pub mod alias;
pub mod context;
pub mod control_dep;
pub mod dot;
pub mod expr;
pub mod graph;
pub mod intervals;
pub mod layout;
pub mod loop_control;
pub mod postdom;
pub mod reach;
pub mod stmt;
pub mod var;

pub use alias::{AliasStructure, Cover, CoverStrategy};
pub use context::{AnalysisKind, CacheStats, FunctionContext, Preserved};
pub use control_dep::{between, ControlDeps};
pub use expr::{BinOp, Expr, UnOp};
pub use graph::{Cfg, CfgError, EdgeRef, NodeId, OutDir};
pub use intervals::{LoopForest, LoopId, LoopInfo};
pub use layout::MemLayout;
pub use postdom::DomTree;
pub use stmt::{LValue, Stmt};
pub use var::{VarId, VarKind, VarTable};
