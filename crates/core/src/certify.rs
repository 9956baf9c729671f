//! Translation validation for the pipeline (the `certify` pass).
//!
//! Three independent obligations, layered on the abstract token-rate
//! analysis of [`mod@cf2df_dfg::certify`]:
//!
//! 1. **Token linearity** — the dataflow graph's context analysis must be
//!    defect-free: every arc carries exactly one token per activation in
//!    its tag context, cycles are gated, loop tags are stripped before
//!    `End`.
//! 2. **Theorem 1 switch placement** — for the §4 optimized construction,
//!    an independent oracle recomputes the needed-switch relation from
//!    control dependence (`CD⁺`, Definition 5) node by node, with its own
//!    circulation fixpoint, and cross-checks the translator's placement
//!    both ways. A switch the oracle demands but the translator omitted is
//!    *unsound* (the token would bypass a fork its line is live across); a
//!    switch the translator placed but the oracle rejects is a missed
//!    optimization. Both are reported, separately.
//! 3. **Access-token conservation** — every pair of memory operations
//!    whose access sets intersect (and at least one of which writes) must
//!    be ordered within an activation whenever both can fire in one trace
//!    (Schema 2/3 soundness); and the cover must give aliased variables
//!    intersecting access sets and every variable a non-empty one
//!    (Schema 3's Fig 12/13 obligation).
//!
//! A failed obligation aborts the translation with
//! [`crate::pipeline::TranslateError::Certify`], carrying the full
//! [`CertifyReport`] — the graph never reaches the executor.

use crate::lines::{LineId, Lines};
use cf2df_cfg::loop_control::LoopControlMeta;
use cf2df_cfg::{AliasStructure, Cfg, ControlDeps, NodeId, Stmt, VarTable};
use cf2df_dfg::certify::Analysis;
use cf2df_dfg::{Defect, Dfg, OpId, OpKind};
use std::fmt;

/// A `(fork node, token line)` switch site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SwitchSite {
    /// The fork node in the (loop-controlled) CFG.
    pub node: NodeId,
    /// The token line the switch routes.
    pub line: LineId,
}

impl fmt::Display for SwitchSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fork {:?} line {:?}", self.node, self.line)
    }
}

/// The full result of the `certify` pass.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CertifyReport {
    /// Token-rate defects in the dataflow graph (with path witnesses).
    pub graph_defects: Vec<Defect>,
    /// Switch sites the Theorem 1 oracle demands but the translator did
    /// not place — unsoundness.
    pub missing_switches: Vec<SwitchSite>,
    /// Switch sites the translator placed but the oracle rejects — missed
    /// optimizations (every such switch is provably redundant).
    pub extra_switches: Vec<SwitchSite>,
    /// Access-token conservation violations (unordered conflicting memory
    /// operations).
    pub conservation_defects: Vec<String>,
    /// Cover-soundness violations (aliased variables whose access sets
    /// miss each other).
    pub cover_defects: Vec<String>,
    /// Switch sites cross-checked against the oracle (0 when the
    /// translation was not the optimized construction).
    pub switches_checked: usize,
    /// Conflicting co-occurring memory-operation pairs whose ordering was
    /// verified.
    pub memory_pairs_checked: usize,
}

impl CertifyReport {
    /// Did every obligation hold?
    pub fn is_clean(&self) -> bool {
        self.defect_count() == 0
    }

    /// Total defects across all obligations.
    pub fn defect_count(&self) -> usize {
        self.graph_defects.len()
            + self.missing_switches.len()
            + self.extra_switches.len()
            + self.conservation_defects.len()
            + self.cover_defects.len()
    }

    /// Machine-readable JSON rendering (hand-rolled; the report contains
    /// no externally controlled strings beyond variable names).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    '\n' => vec!['\\', 'n'],
                    c => vec![c],
                })
                .collect()
        }
        fn strings(items: &[String]) -> String {
            let body: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
            format!("[{}]", body.join(","))
        }
        fn sites(items: &[SwitchSite]) -> String {
            let body: Vec<String> = items
                .iter()
                .map(|s| format!("{{\"node\":{},\"line\":{}}}", s.node.0, s.line.0))
                .collect();
            format!("[{}]", body.join(","))
        }
        let defects: Vec<String> = self
            .graph_defects
            .iter()
            .map(|d| {
                let witness: Vec<String> =
                    d.witness.iter().map(|o| o.index().to_string()).collect();
                format!(
                    "{{\"kind\":\"{}\",\"op\":{},\"detail\":\"{}\",\"witness\":[{}]}}",
                    d.kind.name(),
                    d.op.map_or("null".into(), |o| o.index().to_string()),
                    esc(&d.detail),
                    witness.join(",")
                )
            })
            .collect();
        format!(
            "{{\"clean\":{},\"graph_defects\":[{}],\"missing_switches\":{},\
             \"extra_switches\":{},\"conservation_defects\":{},\"cover_defects\":{},\
             \"switches_checked\":{},\"memory_pairs_checked\":{}}}",
            self.is_clean(),
            defects.join(","),
            sites(&self.missing_switches),
            sites(&self.extra_switches),
            strings(&self.conservation_defects),
            strings(&self.cover_defects),
            self.switches_checked,
            self.memory_pairs_checked,
        )
    }
}

impl fmt::Display for CertifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "certified: {} switch sites, {} memory pairs, 0 defects",
                self.switches_checked, self.memory_pairs_checked
            );
        }
        writeln!(f, "{} certification defects:", self.defect_count())?;
        for d in &self.graph_defects {
            writeln!(f, "  {d}")?;
        }
        for s in &self.missing_switches {
            writeln!(
                f,
                "  [missing-switch] {s}: Theorem 1 requires a switch here"
            )?;
        }
        for s in &self.extra_switches {
            writeln!(
                f,
                "  [extra-switch] {s}: provably redundant (missed optimization)"
            )?;
        }
        for d in &self.conservation_defects {
            writeln!(f, "  [conservation] {d}")?;
        }
        for d in &self.cover_defects {
            writeln!(f, "  [cover] {d}")?;
        }
        Ok(())
    }
}

/// The Theorem 1 oracle: recompute the needed-switch relation from
/// control dependence, independently of the Fig 10 worklist in
/// [`crate::switch_place`]. Returns the needed sites, ascending.
///
/// Differences from the production algorithm, deliberate so the two do
/// not share failure modes: `CD⁺` is taken per *node* (Definition 5
/// directly, one closure per referencing node, as a row of nodes) rather
/// than by pushing rows of lines along control-dependence edges, and the
/// needed set is recomputed from scratch each round of the circulation
/// fixpoint rather than resumed from the last round's rows. Closures,
/// loop bodies, circulation and the needed set are bitsets (rows of
/// nodes or of lines).
pub fn theorem1_switches(
    cfg: &Cfg,
    cd: &ControlDeps,
    meta: &LoopControlMeta,
    lines: &Lines,
) -> Vec<SwitchSite> {
    let n = cfg.len();
    let lw = lines.n().div_ceil(64);
    let nw = n.div_ceil(64);

    // Lines each node references (the access lines of every variable it
    // reads or writes), one row per node.
    let mut refs = vec![0u64; n * lw];
    for node in cfg.node_ids() {
        for v in cfg.stmt(node).referenced_vars() {
            for l in lines.access_lines(v) {
                set_bit(&mut refs[node.index() * lw..], l.index());
            }
        }
    }

    // Circulation: a line circulates through a loop iff it is referenced
    // in the body or needs a switch at a fork in the body; upward-closed
    // over the loop forest.
    let n_loops = meta.forest.len();
    let mut body = vec![0u64; n_loops * nw];
    let mut circ = vec![0u64; n_loops * lw];
    for (lid, info) in meta.forest.iter() {
        for &b in &info.body {
            set_bit(&mut body[lid.index() * nw..], b.index());
            or_into(
                &mut circ[lid.index() * lw..][..lw],
                &refs[b.index() * lw..][..lw],
            );
        }
    }
    // `start` is exempt by the start→end convention: its constant
    // predicate makes its "switch" emit directly.
    let mut forks = vec![0u64; nw];
    for f in cfg.node_ids() {
        if cfg.stmt(f).is_fork() && f != cfg.start() {
            set_bit(&mut forks, f.index());
        }
    }

    // CD⁺ closures, one per node that references anything, memoized.
    let mut closures = vec![0u64; n * nw];
    let mut closed = vec![false; n];
    let (mut on_list, mut stack) = (vec![0u64; nw], Vec::new());
    // Per fork node, the lines that need a switch there.
    let mut needed = vec![0u64; n * lw];
    loop {
        needed.fill(0);
        for node in cfg.node_ids() {
            let refs_row = match cfg.stmt(node) {
                Stmt::LoopEntry { loop_id } | Stmt::LoopExit { loop_id } => {
                    &circ[loop_id.index() * lw..][..lw]
                }
                _ => &refs[node.index() * lw..][..lw],
            };
            if refs_row.iter().all(|&w| w == 0) {
                continue;
            }
            let closure = &mut closures[node.index() * nw..][..nw];
            if !std::mem::replace(&mut closed[node.index()], true) {
                cd_closure(cd, node, closure, &mut on_list, &mut stack);
            }
            for f in bits(and(closure, &forks)) {
                or_into(&mut needed[f * lw..][..lw], refs_row);
            }
        }

        let mut changed = false;
        for (lid, _) in meta.forest.iter() {
            for f in bits(and(&body[lid.index() * nw..][..nw], &forks)) {
                changed |= or_into(&mut circ[lid.index() * lw..][..lw], &needed[f * lw..][..lw]);
            }
        }
        // Upward closure: inner circulation implies outer.
        loop {
            let mut grew = false;
            for (lid, info) in meta.forest.iter() {
                if let Some(parent) = info.parent {
                    let inner = circ[lid.index() * lw..][..lw].to_vec();
                    grew |= or_into(&mut circ[parent.index() * lw..][..lw], &inner);
                }
            }
            changed |= grew;
            if !grew {
                break;
            }
        }
        if !changed {
            let mut sites = Vec::new();
            for f in bits(forks.iter().copied()) {
                for l in bits(needed[f * lw..][..lw].iter().copied()) {
                    sites.push(SwitchSite {
                        node: NodeId(f as u32),
                        line: LineId(l as u32),
                    });
                }
            }
            return sites;
        }
    }
}

/// `CD⁺(n)` as a node bitset written into `marked`: every node reachable
/// from `n` along control dependences (Definition 5). `on_list` and
/// `stack` are scratch.
fn cd_closure(
    cd: &ControlDeps,
    n: NodeId,
    marked: &mut [u64],
    on_list: &mut [u64],
    stack: &mut Vec<NodeId>,
) {
    on_list.fill(0);
    set_bit(on_list, n.index());
    stack.push(n);
    while let Some(v) = stack.pop() {
        for &f in cd.deps_of(v) {
            set_bit(marked, f.index());
            if !has_bit(on_list, f.index()) {
                set_bit(on_list, f.index());
                stack.push(f);
            }
        }
    }
}

fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

fn has_bit(row: &[u64], i: usize) -> bool {
    row[i / 64] >> (i % 64) & 1 != 0
}

/// `dst |= src`; returns whether `dst` grew.
fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= s & !*d != 0;
        *d |= s;
    }
    grew
}

/// The words of `a & b`.
fn and<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    a.iter().zip(b).map(|(x, y)| x & y)
}

/// Indices of the set bits of a bitset, ascending.
fn bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(i, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

/// Per-variable access-token conservation: any two memory operations with
/// intersecting access sets, at least one a store, that can fire in one
/// trace must be ordered within an activation. Returns the violations and
/// the number of pairs whose ordering was verified.
///
/// I-structure operations are exempt: write-once cells order reads after
/// the write dynamically (deferred reads), by design.
pub fn check_conservation(g: &Dfg, lines: &Lines, an: &Analysis) -> (Vec<String>, usize) {
    // Memory operations, with their access lines as one bitset row each.
    let lw = lines.n().div_ceil(64);
    let mut mem: Vec<(OpId, bool)> = Vec::new();
    let mut access: Vec<u64> = Vec::new();
    for o in g.op_ids() {
        let var = match *g.kind(o) {
            OpKind::Load { var }
            | OpKind::Store { var }
            | OpKind::LoadIdx { var }
            | OpKind::StoreIdx { var } => var,
            _ => continue,
        };
        mem.push((o, g.kind(o).is_store()));
        let at = access.len();
        access.resize(at + lw, 0);
        for l in lines.access_lines(var) {
            set_bit(&mut access[at..], l.index());
        }
    }

    let mut defects = Vec::new();
    let mut pairs = 0;
    for i in 0..mem.len() {
        for j in i + 1..mem.len() {
            let (a, sa) = mem[i];
            let (b, sb) = mem[j];
            let (la, lb) = (&access[i * lw..][..lw], &access[j * lw..][..lw]);
            if !(sa || sb) || and(la, lb).all(|w| w == 0) {
                continue;
            }
            if !an.may_cooccur(a, b) {
                continue;
            }
            pairs += 1;
            if !an.reaches(a, b) && !an.reaches(b, a) {
                defects.push(format!(
                    "{:?} ({}) and {:?} ({}) share an access line and can fire in one \
                     trace, but neither is ordered before the other",
                    a,
                    g.kind(a).mnemonic(),
                    b,
                    g.kind(b).mnemonic()
                ));
            }
        }
    }
    (defects, pairs)
}

/// Cover soundness (Fig 12/13): every variable's access set is non-empty,
/// and aliased variables' access sets intersect — otherwise operations on
/// the two names would not synchronize and a store could race a load of
/// its alias.
pub fn check_cover(vars: &VarTable, alias: &AliasStructure, lines: &Lines) -> Vec<String> {
    let mut out = Vec::new();
    let ids: Vec<_> = vars.ids().collect();
    for &u in &ids {
        if lines.access_lines(u).is_empty() {
            out.push(format!(
                "variable {} has an empty access set: its operations synchronize \
                 with nothing",
                vars.name(u)
            ));
        }
        for &v in &ids {
            if v.0 <= u.0 || !alias.aliased(u, v) {
                continue;
            }
            let la = lines.access_lines(u);
            let lb = lines.access_lines(v);
            if !la.iter().any(|l| lb.contains(l)) {
                out.push(format!(
                    "aliased variables {} and {} have disjoint access sets: their \
                     operations would not synchronize",
                    vars.name(u),
                    vars.name(v)
                ));
            }
        }
    }
    out
}
