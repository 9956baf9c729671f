//! The sequential baseline: a program-counter interpreter of control-flow
//! graphs.
//!
//! This is the execution model the paper contrasts with — "a simulation of
//! von Neumann instruction sequencing" — used both as the semantic oracle
//! (every translation schema must compute the same final memory) and as the
//! parallelism-1 baseline in the experiments. Its cost model mirrors the
//! dataflow translation's operation counts: one load per distinct scalar
//! read per statement, one load per array-element read, one ALU operation
//! per expression operator, one store per assignment, one decision per
//! fork.

use crate::exec::MachineConfig;
use crate::memory::{MemError, Memory};
use crate::metrics::ExecStats;
use cf2df_cfg::{Cfg, Expr, LValue, MemLayout, NodeId, Stmt};

/// Sequential execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VnError {
    /// Memory fault.
    Memory(MemError),
    /// Statement budget exhausted (non-terminating program).
    FuelExhausted,
}

impl std::fmt::Display for VnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VnError::Memory(e) => write!(f, "memory fault: {e}"),
            VnError::FuelExhausted => write!(f, "fuel exhausted"),
        }
    }
}

impl std::error::Error for VnError {}

impl From<MemError> for VnError {
    fn from(e: MemError) -> Self {
        VnError::Memory(e)
    }
}

/// Result of a sequential run.
#[derive(Clone, Debug)]
pub struct VnOutcome {
    /// Final memory, indexed by absolute cell address.
    pub memory: Vec<i64>,
    /// Metrics under the same cost model as the dataflow machine
    /// (`makespan` = total sequential time; parallelism ≈ 1).
    pub stats: ExecStats,
    /// Statements executed.
    pub statements: u64,
}

struct Interp<'a> {
    cfg: &'a Cfg,
    layout: &'a MemLayout,
    mem: Memory<()>,
    /// Element loads performed in the current statement.
    element_loads: u64,
    /// ALU operations performed in the current statement.
    alu_ops: u64,
}

impl<'a> Interp<'a> {
    fn eval(&mut self, e: &Expr) -> Result<i64, VnError> {
        Ok(match e {
            Expr::Const(c) => *c,
            Expr::Var(v) => self.mem.read_scalar(self.layout, *v),
            Expr::Index(v, idx) => {
                let i = self.eval(idx)?;
                self.element_loads += 1;
                self.mem.read_element(self.layout, *v, i)?
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                self.alu_ops += 1;
                op.eval(v)
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                self.alu_ops += 1;
                op.eval(lv, rv)
            }
        })
    }
}

/// Interpret the CFG sequentially. `config` supplies the cost model
/// (latencies) and fuel; `processors` is ignored.
pub fn interpret(
    cfg: &Cfg,
    layout: &MemLayout,
    config: &MachineConfig,
) -> Result<VnOutcome, VnError> {
    let mut it = Interp {
        cfg,
        layout,
        mem: Memory::new(layout),
        element_loads: 0,
        alu_ops: 0,
    };
    let mut stats = ExecStats::default();
    let mut statements = 0u64;
    let mut time = 0u64;
    let mut pc: NodeId = cfg.entry();
    let end = cfg.end();

    while pc != end {
        statements += 1;
        if statements > config.fuel {
            return Err(VnError::FuelExhausted);
        }
        it.element_loads = 0;
        it.alu_ops = 0;
        let next = match it.cfg.stmt(pc) {
            Stmt::Start => cfg.entry(),
            Stmt::End => unreachable!("loop guard"),
            Stmt::Join | Stmt::LoopEntry { .. } | Stmt::LoopExit { .. } => cfg.succs(pc)[0],
            Stmt::Assign { lhs, rhs } => {
                // Distinct scalar reads cost one load each (the dataflow
                // read block loads each referenced variable once).
                let scalar_reads = rhs
                    .vars()
                    .iter()
                    .chain(lhs.read_vars().iter())
                    .filter(|v| {
                        matches!(it.cfg.vars.kind(**v), cf2df_cfg::VarKind::Scalar)
                    })
                    .collect::<std::collections::BTreeSet<_>>()
                    .len() as u64;
                let value = it.eval(rhs)?;
                match lhs {
                    LValue::Var(v) => it.mem.write_scalar(layout, *v, value),
                    LValue::Index(v, idx) => {
                        let i = it.eval(idx)?;
                        it.mem.write_element(layout, *v, i, value)?;
                    }
                }
                let loads = scalar_reads + it.element_loads;
                stats.fired += loads + it.alu_ops + 1; // +1 store
                time += config.mem_latency * (loads + 1) + config.op_latency * it.alu_ops;
                cfg.succs(pc)[0]
            }
            Stmt::Branch { pred } => {
                let scalar_reads = pred
                    .vars()
                    .iter()
                    .filter(|v| {
                        matches!(it.cfg.vars.kind(**v), cf2df_cfg::VarKind::Scalar)
                    })
                    .count() as u64;
                let taken = it.eval(pred)? != 0;
                let loads = scalar_reads + it.element_loads;
                stats.fired += loads + it.alu_ops + 1; // +1 branch decision
                time += config.mem_latency * loads + config.op_latency * (it.alu_ops + 1);
                if taken {
                    cfg.succs(pc)[0]
                } else {
                    cfg.succs(pc)[1]
                }
            }
            Stmt::Case { selector } => {
                let scalar_reads = selector
                    .vars()
                    .iter()
                    .filter(|v| {
                        matches!(it.cfg.vars.kind(**v), cf2df_cfg::VarKind::Scalar)
                    })
                    .count() as u64;
                let sel = it.eval(selector)?;
                let loads = scalar_reads + it.element_loads;
                stats.fired += loads + it.alu_ops + 1;
                time += config.mem_latency * loads + config.op_latency * (it.alu_ops + 1);
                let k = cfg.succs(pc).len();
                let idx = if sel >= 0 && (sel as usize) < k - 1 {
                    sel as usize
                } else {
                    k - 1
                };
                cfg.succs(pc)[idx]
            }
        };
        pc = next;
    }

    stats.makespan = time;
    stats.mem_reads = it.mem.reads();
    stats.mem_writes = it.mem.writes();
    stats.max_parallelism = 1;
    Ok(VnOutcome {
        memory: it.mem.cells().to_vec(),
        stats,
        statements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_lang::parse_to_cfg;

    fn run_src(src: &str) -> (cf2df_cfg::Cfg, MemLayout, VnOutcome) {
        let parsed = parse_to_cfg(src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let out = interpret(&parsed.cfg, &layout, &MachineConfig::default()).unwrap();
        (parsed.cfg, layout, out)
    }

    fn var(cfg: &cf2df_cfg::Cfg, layout: &MemLayout, out: &VnOutcome, name: &str) -> i64 {
        out.memory[layout.base(cfg.vars.lookup(name).unwrap()) as usize]
    }

    #[test]
    fn straight_line_arithmetic() {
        let (cfg, layout, out) = run_src("x := 3; y := x * x + 1;");
        assert_eq!(var(&cfg, &layout, &out, "x"), 3);
        assert_eq!(var(&cfg, &layout, &out, "y"), 10);
        assert_eq!(out.statements, 2);
    }

    #[test]
    fn running_example_terminates_with_x5_y5() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::RUNNING_EXAMPLE);
        // x: 0→1→2→3→4→5 (loop while x<5); y set to x+1 before each incr.
        assert_eq!(var(&cfg, &layout, &out, "x"), 5);
        assert_eq!(var(&cfg, &layout, &out, "y"), 5);
    }

    #[test]
    fn gcd_and_fib() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::GCD);
        assert_eq!(var(&cfg, &layout, &out, "a"), 21); // gcd(252, 105)
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::FIB);
        assert_eq!(var(&cfg, &layout, &out, "b"), 987); // fib(16)
    }

    #[test]
    fn arrays_and_reduction() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::REDUCTION);
        // sum of squares 0..15 = 1240.
        assert_eq!(var(&cfg, &layout, &out, "s"), 1240);
    }

    #[test]
    fn array_loop_stores_each_element() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::ARRAY_LOOP);
        let x = cfg.vars.lookup("x").unwrap();
        for i in 1..=10 {
            assert_eq!(out.memory[layout.element(x, i).unwrap() as usize], 1);
        }
        assert_eq!(out.memory[layout.element(x, 0).unwrap() as usize], 0);
    }

    #[test]
    fn collatz_steps() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::COLLATZ);
        assert_eq!(var(&cfg, &layout, &out, "steps"), 111); // collatz(27)
        assert_eq!(var(&cfg, &layout, &out, "n"), 1);
    }

    #[test]
    fn bubble_sort_sorts() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::BUBBLE_SORT);
        let v = cfg.vars.lookup("v").unwrap();
        let sorted: Vec<i64> = (0..8)
            .map(|i| out.memory[layout.element(v, i).unwrap() as usize])
            .collect();
        assert_eq!(sorted, vec![0, 1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn matmul_computes_products() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::MATMUL);
        let mc = cfg.vars.lookup("mc").unwrap();
        // ma = [[1,2,3],[4,5,6],[7,8,9]], mb = [[9,8,7],[6,5,4],[3,2,1]].
        // (ma*mb)[0][0] = 1*9 + 2*6 + 3*3 = 30.
        assert_eq!(out.memory[layout.element(mc, 0).unwrap() as usize], 30);
        // (ma*mb)[2][2] = 7*7 + 8*4 + 9*1 = 90.
        assert_eq!(out.memory[layout.element(mc, 8).unwrap() as usize], 90);
    }

    #[test]
    fn sieve_counts_primes_below_20() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::SIEVE);
        // 2, 3, 5, 7, 11, 13, 17, 19.
        assert_eq!(var(&cfg, &layout, &out, "primes"), 8);
    }

    #[test]
    fn quicksort_sorts() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::QUICKSORT);
        let v = cfg.vars.lookup("v").unwrap();
        let got: Vec<i64> = (0..12)
            .map(|i| out.memory[layout.element(v, i).unwrap() as usize])
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 14]);
    }

    #[test]
    fn vm_dispatch_interprets_bytecode() {
        // ((0 + 5) * 3 - 4 + 9) * 2 = 40.
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::VM_DISPATCH);
        assert_eq!(var(&cfg, &layout, &out, "acc"), 40);
        assert_eq!(var(&cfg, &layout, &out, "pc"), 5);
    }

    #[test]
    fn binsearch_finds_target() {
        let (cfg, layout, out) = run_src(cf2df_lang::corpus::BINSEARCH);
        assert_eq!(var(&cfg, &layout, &out, "found"), 11); // v[11] = 33
    }

    #[test]
    fn fuel_stops_runaway() {
        let parsed = parse_to_cfg("x := 0; while x < 100 do { x := x + 1; }").unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let cfgc = MachineConfig {
            fuel: 10,
            ..MachineConfig::default()
        };
        assert_eq!(
            interpret(&parsed.cfg, &layout, &cfgc).unwrap_err(),
            VnError::FuelExhausted
        );
    }

    #[test]
    fn out_of_bounds_faults() {
        let parsed = parse_to_cfg("array a[2]; a[5] := 1;").unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let err = interpret(&parsed.cfg, &layout, &MachineConfig::default()).unwrap_err();
        assert!(matches!(err, VnError::Memory(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn aliased_layout_changes_result() {
        let src = "alias p ~ q; p := 1; q := 2; r := p;";
        let parsed = parse_to_cfg(src).unwrap();
        let p = parsed.cfg.vars.lookup("p").unwrap();
        let q = parsed.cfg.vars.lookup("q").unwrap();
        let r = parsed.cfg.vars.lookup("r").unwrap();

        let distinct = MemLayout::distinct(&parsed.cfg.vars);
        let out1 = interpret(&parsed.cfg, &distinct, &MachineConfig::default()).unwrap();
        assert_eq!(out1.memory[distinct.base(r) as usize], 1);

        let shared = MemLayout::with_binding(&parsed.cfg.vars, &[vec![p, q]]);
        let out2 = interpret(&parsed.cfg, &shared, &MachineConfig::default()).unwrap();
        assert_eq!(out2.memory[shared.base(r) as usize], 2, "p and q share a cell");
    }

    #[test]
    fn cost_model_counts_work() {
        let (_, _, out) = run_src("x := 1; y := x + x;");
        // stmt1: 0 loads, 0 alu, 1 store = 1 op.
        // stmt2: 1 distinct load (x), 1 alu, 1 store = 3 ops.
        assert_eq!(out.stats.fired, 4);
        assert_eq!(out.stats.max_parallelism, 1);
        // time: stmt1 = 1 store; stmt2 = 1 load + 1 alu + 1 store = 3.
        assert_eq!(out.stats.makespan, 4);
    }
}
