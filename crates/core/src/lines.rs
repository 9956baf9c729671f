//! Token lines.
//!
//! A *line* is one circulating token: Schema 2 has one per variable,
//! Schema 3 one per cover element, Schema 1 a single line for the whole
//! store. A memory operation on variable `x` collects the tokens of every
//! line in `x`'s *access set* — the cover elements intersecting `[x]`
//! (Fig 12/13).
//!
//! Under the §6.1 memory-elimination transform, a line whose element is a
//! single unaliased scalar switches to *value mode*: the token carries the
//! variable's current value, loads become taps, and stores become gated
//! value replacements.

use cf2df_cfg::{AliasStructure, Cover, VarId, VarKind, VarTable};

/// Index of a token line (= cover element).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u32);

impl LineId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for LineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ln{}", self.0)
    }
}

/// What a line's token carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineMode {
    /// A dummy access token (ordering only).
    Access,
    /// The current value of the given scalar variable (§6.1).
    Value(VarId),
}

/// The token-line structure of a translation.
#[derive(Clone, Debug)]
pub struct Lines {
    modes: Vec<LineMode>,
    /// Per variable: the lines a memory operation on it must collect.
    access: Vec<Vec<LineId>>,
    names: Vec<String>,
    /// Gather access tokens with one flat n-ary synch instead of a binary
    /// synch tree (an ablation of Fig 2's "synch tree" realization).
    flat_synch: bool,
}

impl Lines {
    /// Build the line structure for a cover of an alias structure.
    /// `eliminate_memory` enables value mode for eligible lines.
    pub fn new(
        vars: &VarTable,
        alias: &AliasStructure,
        cover: &Cover,
        eliminate_memory: bool,
    ) -> Lines {
        let n = cover.len();
        let mut access: Vec<Vec<LineId>> = Vec::with_capacity(vars.len());
        for v in vars.ids() {
            access.push(
                cover
                    .access_set(v, alias)
                    .into_iter()
                    .map(|i| LineId(i as u32))
                    .collect(),
            );
        }
        let mut modes = vec![LineMode::Access; n];
        let mut names: Vec<String> = cover
            .elements()
            .iter()
            .map(|el| {
                el.iter()
                    .map(|&v| vars.name(v).to_owned())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        if eliminate_memory {
            for (i, el) in cover.elements().iter().enumerate() {
                if let [v] = el[..] {
                    let eligible = alias.unaliased(v)
                        && matches!(vars.kind(v), VarKind::Scalar)
                        && access[v.index()] == [LineId(i as u32)];
                    if eligible {
                        modes[i] = LineMode::Value(v);
                        names[i] = format!("{}=val", vars.name(v));
                    }
                }
            }
        }
        Lines {
            modes,
            access,
            names,
            flat_synch: false,
        }
    }

    /// Gather multi-token access sets with a single flat synch operator
    /// instead of a binary tree.
    pub fn with_flat_synch(mut self, on: bool) -> Self {
        self.flat_synch = on;
        self
    }

    /// Whether flat gathering is enabled.
    pub fn flat_synch(&self) -> bool {
        self.flat_synch
    }

    /// Number of lines.
    pub fn n(&self) -> usize {
        self.modes.len()
    }

    /// Iterate over all line ids.
    pub fn ids(&self) -> impl Iterator<Item = LineId> {
        (0..self.modes.len() as u32).map(LineId)
    }

    /// The mode of a line.
    pub fn mode(&self, l: LineId) -> LineMode {
        self.modes[l.index()]
    }

    /// Is the line in value mode?
    pub fn is_value(&self, l: LineId) -> bool {
        matches!(self.modes[l.index()], LineMode::Value(_))
    }

    /// The access set of a variable, as line ids.
    pub fn access_lines(&self, v: VarId) -> &[LineId] {
        &self.access[v.index()]
    }

    /// Human-readable name of a line.
    pub fn name(&self, l: LineId) -> &str {
        &self.names[l.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::CoverStrategy;

    fn fortran() -> (VarTable, AliasStructure) {
        let mut t = VarTable::new();
        let x = t.scalar("X");
        let _y = t.scalar("Y");
        let z = t.scalar("Z");
        let mut a = AliasStructure::for_table(&t);
        a.relate(x, z);
        a.relate(VarId(1), z);
        (t, a)
    }

    #[test]
    fn schema2_lines_are_per_var() {
        let mut t = VarTable::new();
        let x = t.scalar("x");
        let y = t.scalar("y");
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        assert_eq!(lines.n(), 2);
        assert_eq!(lines.access_lines(x), &[LineId(0)]);
        assert_eq!(lines.access_lines(y), &[LineId(1)]);
        assert_eq!(lines.mode(LineId(0)), LineMode::Access);
    }

    #[test]
    fn schema1_single_line_collects_everything() {
        let mut t = VarTable::new();
        let x = t.scalar("x");
        t.scalar("y");
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::SingleToken, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        assert_eq!(lines.n(), 1);
        assert_eq!(lines.access_lines(x), &[LineId(0)]);
    }

    #[test]
    fn fortran_access_sets_match_paper() {
        let (t, a) = fortran();
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        assert_eq!(lines.access_lines(VarId(0)).len(), 2); // X: {X, Z}
        assert_eq!(lines.access_lines(VarId(1)).len(), 2); // Y: {Y, Z}
        assert_eq!(lines.access_lines(VarId(2)).len(), 3); // Z: all
    }

    #[test]
    fn value_mode_only_for_unaliased_scalars() {
        let (t, a) = fortran();
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, true);
        // X, Y, Z are all aliased: none eligible.
        assert!(lines.ids().all(|l| !lines.is_value(l)));

        let mut t2 = VarTable::new();
        let v = t2.scalar("v");
        let arr = t2.array("arr", 4);
        let a2 = AliasStructure::for_table(&t2);
        let c2 = Cover::build(&CoverStrategy::Singletons, &a2);
        let lines2 = Lines::new(&t2, &a2, &c2, true);
        assert_eq!(lines2.mode(lines2.access_lines(v)[0]), LineMode::Value(v));
        // Arrays stay in access mode.
        assert_eq!(lines2.mode(lines2.access_lines(arr)[0]), LineMode::Access);
    }

    #[test]
    fn line_names_render() {
        let (t, a) = fortran();
        let cover = Cover::build(&CoverStrategy::SingleToken, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        assert_eq!(lines.name(LineId(0)), "X,Y,Z");
        let _ = t;
    }
}
