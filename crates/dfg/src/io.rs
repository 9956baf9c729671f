//! A textual interchange format for dataflow graphs.
//!
//! The paper remarks that "there is no standard textual representation of
//! dataflow programs. Instead they are represented as graphs." This module
//! provides one anyway: a stable, line-based format that round-trips every
//! graph this workspace produces, so compiled programs can be saved,
//! diffed, and reloaded.
//!
//! ```text
//! dfg v1
//! op 0 start
//! op 1 end 2
//! op 2 load 5            # Load { var: VarId(5) }
//! op 3 binary add imm1=1 label "x line"
//! arc 0.0 -> 2.0 access
//! arc 2.0 -> 3.0 value
//! ```

use crate::graph::{ArcKind, Dfg, OpId, Port};
use crate::op::{MacroSrc, MacroStep, OpKind};
use cf2df_cfg::{BinOp, LoopId, UnOp, VarId};
use std::fmt::Write as _;

/// A parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Min => "min",
        BinOp::Max => "max",
    }
}

fn binop_from(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        _ => return None,
    })
}

fn src_word(src: MacroSrc) -> String {
    match src {
        MacroSrc::Chain => "p".into(),
        MacroSrc::In(q) => format!("i{q}"),
        MacroSrc::Imm(c) => format!("k{c}"),
    }
}

fn src_from(word: &str) -> Option<MacroSrc> {
    if word == "p" {
        return Some(MacroSrc::Chain);
    }
    if let Some(rest) = word.strip_prefix('i') {
        return Some(MacroSrc::In(rest.parse().ok()?));
    }
    if let Some(rest) = word.strip_prefix('k') {
        return Some(MacroSrc::Imm(rest.parse().ok()?));
    }
    None
}

fn step_word(step: &MacroStep) -> String {
    match step {
        MacroStep::Un(UnOp::Neg, a) => format!("un:neg:{}", src_word(*a)),
        MacroStep::Un(UnOp::Not, a) => format!("un:not:{}", src_word(*a)),
        MacroStep::Bin(op, a, b) => {
            format!("bin:{}:{}:{}", binop_name(*op), src_word(*a), src_word(*b))
        }
        MacroStep::Fwd(a) => format!("fwd:{}", src_word(*a)),
        MacroStep::Zero => "zero".into(),
    }
}

fn step_from(word: &str) -> Option<MacroStep> {
    let parts: Vec<&str> = word.split(':').collect();
    Some(match *parts.first()? {
        "un" => {
            let op = match *parts.get(1)? {
                "neg" => UnOp::Neg,
                "not" => UnOp::Not,
                _ => return None,
            };
            MacroStep::Un(op, src_from(parts.get(2)?)?)
        }
        "bin" => MacroStep::Bin(
            binop_from(parts.get(1)?)?,
            src_from(parts.get(2)?)?,
            src_from(parts.get(3)?)?,
        ),
        "fwd" => MacroStep::Fwd(src_from(parts.get(1)?)?),
        "zero" => MacroStep::Zero,
        _ => return None,
    })
}

fn kind_to_words(kind: &OpKind) -> String {
    match kind {
        OpKind::Start => "start".into(),
        OpKind::End { inputs } => format!("end {inputs}"),
        OpKind::Unary { op: UnOp::Neg } => "unary neg".into(),
        OpKind::Unary { op: UnOp::Not } => "unary not".into(),
        OpKind::Binary { op } => format!("binary {}", binop_name(*op)),
        OpKind::Switch => "switch".into(),
        OpKind::CaseSwitch { arms } => format!("caseswitch {arms}"),
        OpKind::Merge => "merge".into(),
        OpKind::Synch { inputs } => format!("synch {inputs}"),
        OpKind::Identity => "identity".into(),
        OpKind::Gate => "gate".into(),
        OpKind::Load { var } => format!("load {}", var.0),
        OpKind::Store { var } => format!("store {}", var.0),
        OpKind::LoadIdx { var } => format!("loadidx {}", var.0),
        OpKind::StoreIdx { var } => format!("storeidx {}", var.0),
        OpKind::IstLoad { var } => format!("istload {}", var.0),
        OpKind::IstStore { var } => format!("iststore {}", var.0),
        OpKind::LoopEntry { loop_id } => format!("loopentry {}", loop_id.0),
        OpKind::LoopSwitch { loop_id } => format!("loopswitch {}", loop_id.0),
        OpKind::LoopExit { loop_id } => format!("loopexit {}", loop_id.0),
        OpKind::PrevIter { loop_id } => format!("previter {}", loop_id.0),
        OpKind::IterIndex { loop_id } => format!("iterindex {}", loop_id.0),
        OpKind::Macro { inputs, steps } => {
            let mut s = format!("macro {inputs}");
            for step in steps {
                s.push(' ');
                s.push_str(&step_word(step));
            }
            s
        }
    }
}

fn kind_from_words(words: &[&str]) -> Option<OpKind> {
    let num = |i: usize| words.get(i)?.parse::<u32>().ok();
    Some(match *words.first()? {
        "start" => OpKind::Start,
        "end" => OpKind::End { inputs: num(1)? },
        "unary" => match *words.get(1)? {
            "neg" => OpKind::Unary { op: UnOp::Neg },
            "not" => OpKind::Unary { op: UnOp::Not },
            _ => return None,
        },
        "binary" => OpKind::Binary {
            op: binop_from(words.get(1)?)?,
        },
        "switch" => OpKind::Switch,
        "caseswitch" => OpKind::CaseSwitch { arms: num(1)? },
        "merge" => OpKind::Merge,
        "synch" => OpKind::Synch { inputs: num(1)? },
        "identity" => OpKind::Identity,
        "gate" => OpKind::Gate,
        "load" => OpKind::Load { var: VarId(num(1)?) },
        "store" => OpKind::Store { var: VarId(num(1)?) },
        "loadidx" => OpKind::LoadIdx { var: VarId(num(1)?) },
        "storeidx" => OpKind::StoreIdx { var: VarId(num(1)?) },
        "istload" => OpKind::IstLoad { var: VarId(num(1)?) },
        "iststore" => OpKind::IstStore { var: VarId(num(1)?) },
        "loopentry" => OpKind::LoopEntry {
            loop_id: LoopId(num(1)?),
        },
        "loopswitch" => OpKind::LoopSwitch {
            loop_id: LoopId(num(1)?),
        },
        "loopexit" => OpKind::LoopExit {
            loop_id: LoopId(num(1)?),
        },
        "previter" => OpKind::PrevIter {
            loop_id: LoopId(num(1)?),
        },
        "iterindex" => OpKind::IterIndex {
            loop_id: LoopId(num(1)?),
        },
        "macro" => {
            let steps: Option<Vec<MacroStep>> =
                words[2..].iter().map(|w| step_from(w)).collect();
            let steps = steps?;
            if steps.is_empty() {
                return None;
            }
            OpKind::Macro {
                inputs: num(1)?,
                steps,
            }
        }
        _ => return None,
    })
}

/// Serialize a graph to the textual format.
pub fn write_text(g: &Dfg) -> String {
    let mut s = String::from("dfg v1\n");
    for op in g.op_ids() {
        let kind = g.kind(op);
        let _ = write!(s, "op {} {}", op.0, kind_to_words(kind));
        for p in 0..kind.n_inputs() {
            if let Some(c) = g.imm(op, p) {
                let _ = write!(s, " imm{p}={c}");
            }
        }
        let label = g.label(op);
        if !label.is_empty() {
            let _ = write!(s, " label {:?}", label);
        }
        s.push('\n');
    }
    for a in g.arcs() {
        let kind = match a.kind {
            ArcKind::Value => "value",
            ArcKind::Access => "access",
        };
        let _ = writeln!(
            s,
            "arc {}.{} -> {}.{} {}",
            a.from.op.0, a.from.port, a.to.op.0, a.to.port, kind
        );
    }
    s
}

/// Parse a graph from the textual format. Operator ids must be dense and
/// in order (as produced by [`write_text`]).
pub fn read_text(text: &str) -> Result<Dfg, ParseError> {
    let err = |line: usize, msg: &str| ParseError {
        line,
        msg: msg.to_owned(),
    };
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(err(1, "empty input"));
    };
    if header.trim() != "dfg v1" {
        return Err(err(1, "expected header `dfg v1`"));
    }
    let mut g = Dfg::new();
    for (i, raw) in lines {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "op" => {
                let id: u32 = words
                    .get(1)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err(lineno, "bad op id"))?;
                if id as usize != g.len() {
                    return Err(err(lineno, "op ids must be dense and ordered"));
                }
                // Split off imm/label suffixes.
                let mut kind_end = words.len();
                for (j, w) in words.iter().enumerate().skip(2) {
                    if w.starts_with("imm") || *w == "label" {
                        kind_end = j;
                        break;
                    }
                }
                let kind = kind_from_words(&words[2..kind_end])
                    .ok_or_else(|| err(lineno, "unknown operator kind"))?;
                let op = g.add(kind);
                let mut j = kind_end;
                while j < words.len() {
                    let w = words[j];
                    if w == "label" {
                        // The label is the rest of the line, quoted
                        // (Debug-escaped); recover it approximately.
                        let rest = line.split_once(" label ").map(|x| x.1).unwrap_or("\"\"");
                        let unquoted = rest
                            .trim()
                            .trim_start_matches('"')
                            .trim_end_matches('"')
                            .replace("\\\"", "\"");
                        let cur = g.len() - 1;
                        let _ = cur;
                        g.set_label(op, unquoted);
                        break;
                    }
                    if let Some(rest) = w.strip_prefix("imm") {
                        let (p, v) = rest
                            .split_once('=')
                            .ok_or_else(|| err(lineno, "malformed immediate"))?;
                        let p: usize =
                            p.parse().map_err(|_| err(lineno, "bad immediate port"))?;
                        let v: i64 =
                            v.parse().map_err(|_| err(lineno, "bad immediate value"))?;
                        g.set_imm(op, p, v);
                    } else {
                        return Err(err(lineno, "unexpected token"));
                    }
                    j += 1;
                }
            }
            "arc" => {
                // arc F.P -> T.Q kind
                if words.len() != 5 || words[2] != "->" {
                    return Err(err(lineno, "malformed arc"));
                }
                let parse_port = |w: &str| -> Option<Port> {
                    let (a, b) = w.split_once('.')?;
                    Some(Port {
                        op: OpId(a.parse().ok()?),
                        port: b.parse().ok()?,
                    })
                };
                let from =
                    parse_port(words[1]).ok_or_else(|| err(lineno, "bad source port"))?;
                let to = parse_port(words[3]).ok_or_else(|| err(lineno, "bad dest port"))?;
                let kind = match words[4] {
                    "value" => ArcKind::Value,
                    "access" => ArcKind::Access,
                    _ => return Err(err(lineno, "bad arc kind")),
                };
                if from.op.index() >= g.len() || to.op.index() >= g.len() {
                    return Err(err(lineno, "arc references unknown op"));
                }
                if from.port as usize >= g.kind(from.op).n_outputs()
                    || to.port as usize >= g.kind(to.op).n_inputs()
                {
                    return Err(err(lineno, "arc references a port its op does not have"));
                }
                g.connect(from, to, kind);
            }
            _ => return Err(err(lineno, "expected `op` or `arc`")),
        }
    }
    Ok(g)
}

/// Serialize a graph together with its variable table — a self-contained
/// module that can be reloaded and executed (`var` lines precede the
/// graph).
pub fn write_module(g: &Dfg, vars: &cf2df_cfg::VarTable) -> String {
    let mut s = String::from("dfg v1\n");
    for v in vars.ids() {
        match vars.kind(v) {
            cf2df_cfg::VarKind::Scalar => {
                let _ = writeln!(s, "var {} scalar {:?}", v.0, vars.name(v));
            }
            cf2df_cfg::VarKind::Array { len } => {
                let _ = writeln!(s, "var {} array {} {:?}", v.0, len, vars.name(v));
            }
        }
    }
    s.push_str(write_text(g).trim_start_matches("dfg v1\n"));
    s
}

/// Parse a module produced by [`write_module`].
///
/// Unlike [`read_text`] (which accepts any syntactically valid graph,
/// including deliberately incomplete fragments), a module is an
/// *executable* unit: the parsed graph is structurally validated so an
/// externally loaded graph can never reach the executor unchecked.
pub fn read_module(text: &str) -> Result<(Dfg, cf2df_cfg::VarTable), ParseError> {
    let mut vars = cf2df_cfg::VarTable::new();
    let mut graph_lines = vec!["dfg v1".to_owned()];
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.first() == Some(&"var") {
            let id: u32 = words
                .get(1)
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| ParseError {
                    line: lineno,
                    msg: "bad var id".into(),
                })?;
            if id as usize != vars.len() {
                return Err(ParseError {
                    line: lineno,
                    msg: "var ids must be dense and ordered".into(),
                });
            }
            let name = line.split_once('"').map(|x| x.1)
                .map(|r| r.trim_end_matches('"').to_owned())
                .ok_or_else(|| ParseError {
                    line: lineno,
                    msg: "missing quoted var name".into(),
                })?;
            match words.get(2) {
                Some(&"scalar") => {
                    vars.scalar(&name);
                }
                Some(&"array") => {
                    let len: u32 =
                        words.get(3).and_then(|w| w.parse().ok()).ok_or_else(|| {
                            ParseError {
                                line: lineno,
                                msg: "bad array length".into(),
                            }
                        })?;
                    vars.array(&name, len);
                }
                _ => {
                    return Err(ParseError {
                        line: lineno,
                        msg: "expected `scalar` or `array`".into(),
                    })
                }
            }
        } else if !(i == 0 && line == "dfg v1") {
            graph_lines.push(raw.to_owned());
        }
    }
    let g = read_text(&graph_lines.join("\n"))?;
    if let Err(errs) = crate::validate::validate(&g) {
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(ParseError {
            line: 0,
            msg: format!(
                "module graph failed validation ({} defect{}): {}",
                errs.len(),
                if errs.len() == 1 { "" } else { "s" },
                rendered.join("; ")
            ),
        });
    }
    Ok((g, vars))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dfg {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add_labeled(OpKind::Load { var: VarId(3) }, "x line");
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, -7);
        let st = g.add(OpKind::Store { var: VarId(3) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        g
    }

    fn graphs_equal(a: &Dfg, b: &Dfg) -> bool {
        if a.len() != b.len() || a.arc_count() != b.arc_count() {
            return false;
        }
        for op in a.op_ids() {
            if a.kind(op) != b.kind(op) || a.label(op) != b.label(op) {
                return false;
            }
            for p in 0..a.kind(op).n_inputs() {
                if a.imm(op, p) != b.imm(op, p) {
                    return false;
                }
            }
        }
        let (mut aa, mut ba) = (a.arcs().to_vec(), b.arcs().to_vec());
        let key = |x: &crate::graph::Arc| (x.from.op.0, x.from.port, x.to.op.0, x.to.port);
        aa.sort_by_key(key);
        ba.sort_by_key(key);
        aa == ba
    }

    #[test]
    fn round_trip_sample() {
        let g = sample();
        let text = write_text(&g);
        let g2 = read_text(&text).unwrap();
        assert!(graphs_equal(&g, &g2), "{text}");
        assert!(text.contains("imm1=-7"));
        assert!(text.contains("label \"x line\""));
    }

    #[test]
    fn round_trip_every_operator_kind() {
        let mut g = Dfg::new();
        g.add(OpKind::Start);
        g.add(OpKind::End { inputs: 3 });
        g.add(OpKind::Unary { op: UnOp::Neg });
        g.add(OpKind::Unary { op: UnOp::Not });
        for op in [
            BinOp::Add,
            BinOp::Rem,
            BinOp::Le,
            BinOp::Or,
            BinOp::Min,
            BinOp::Max,
        ] {
            g.add(OpKind::Binary { op });
        }
        g.add(OpKind::Switch);
        g.add(OpKind::Merge);
        g.add(OpKind::Synch { inputs: 4 });
        g.add(OpKind::Identity);
        g.add(OpKind::Gate);
        g.add(OpKind::Load { var: VarId(0) });
        g.add(OpKind::Store { var: VarId(1) });
        g.add(OpKind::LoadIdx { var: VarId(2) });
        g.add(OpKind::StoreIdx { var: VarId(3) });
        g.add(OpKind::IstLoad { var: VarId(4) });
        g.add(OpKind::IstStore { var: VarId(5) });
        g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        g.add(OpKind::LoopSwitch { loop_id: LoopId(4) });
        g.add(OpKind::LoopExit { loop_id: LoopId(1) });
        g.add(OpKind::PrevIter { loop_id: LoopId(2) });
        g.add(OpKind::IterIndex { loop_id: LoopId(3) });
        g.add(OpKind::Macro {
            inputs: 2,
            steps: vec![
                MacroStep::Bin(BinOp::Add, MacroSrc::In(0), MacroSrc::Imm(-7)),
                MacroStep::Un(UnOp::Neg, MacroSrc::Chain),
                MacroStep::Fwd(MacroSrc::In(1)),
                MacroStep::Zero,
            ],
        });
        let g2 = read_text(&write_text(&g)).unwrap();
        assert!(graphs_equal(&g, &g2));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_text("").is_err());
        assert!(read_text("nope").is_err());
        assert!(read_text("dfg v1\nop 5 start").is_err(), "non-dense ids");
        assert!(read_text("dfg v1\nop 0 nonsense").is_err());
        assert!(read_text("dfg v1\nop 0 start\narc 0.0 -> 9.0 value").is_err());
        // Ports the operators do not have: start has one output, end 1
        // one input.
        assert!(read_text("dfg v1\nop 0 start\nop 1 end 1\narc 0.0 -> 1.0 value").is_ok());
        assert!(read_text("dfg v1\nop 0 start\nop 1 end 1\narc 0.1 -> 1.0 value").is_err());
        assert!(read_text("dfg v1\nop 0 start\nop 1 end 1\narc 0.0 -> 1.1 value").is_err());
        assert!(read_text("dfg v1\nop 0 start\narc 0.0 2.0 value").is_err());
        let e = read_text("dfg v1\nop 0 start\nbogus line").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn module_round_trip_carries_vars() {
        let mut vars = cf2df_cfg::VarTable::new();
        vars.scalar("x");
        vars.array("buf", 16);
        let g = sample();
        let text = write_module(&g, &vars);
        let (g2, vars2) = read_module(&text).unwrap();
        assert!(graphs_equal(&g, &g2));
        assert_eq!(vars2.len(), 2);
        assert_eq!(vars2.name(cf2df_cfg::VarId(0)), "x");
        assert_eq!(
            vars2.kind(cf2df_cfg::VarId(1)),
            cf2df_cfg::VarKind::Array { len: 16 }
        );
    }

    #[test]
    fn module_rejects_structurally_invalid_graphs() {
        // An unfed load: fine for `read_text` (a fragment), rejected by
        // `read_module` (an executable unit).
        let text = "dfg v1\nop 0 start\nop 1 load 0\nop 2 end 1\narc 0.0 -> 2.0 access\n";
        assert!(read_text(text).is_ok());
        let e = read_module(text).unwrap_err();
        assert!(e.msg.contains("failed validation"), "{e}");
        assert!(e.msg.contains("unfed"), "{e}");
    }

    #[test]
    fn module_rejects_bad_vars() {
        assert!(read_module("dfg v1\nvar 1 scalar \"x\"").is_err());
        assert!(read_module("dfg v1\nvar 0 blob \"x\"").is_err());
        assert!(read_module("dfg v1\nvar 0 scalar x").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "dfg v1\n# a comment\n\nop 0 start  # trailing\nop 1 end 1\narc 0.0 -> 1.0 access\n";
        let g = read_text(text).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.arc_count(), 1);
    }
}
