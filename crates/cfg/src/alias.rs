//! Alias structures and covers (§5).
//!
//! Definition 6: an *alias structure* over a set of variables `V` is a pair
//! `⟨V, ∼⟩` where `∼` is a reflexive, symmetric binary relation. Note that
//! `∼` is *not* transitive: in the paper's FORTRAN example `X ∼ Z` and
//! `Y ∼ Z` but `X ≁ Y`.
//!
//! Definition 7: a *cover* is a collection of subsets of `V` whose union is
//! `V`. Schema 3 circulates one access token per cover element; a memory
//! operation on `x` collects every token whose element intersects the alias
//! class `[x]`. The choice of cover trades parallelism against
//! synchronization.

use crate::var::{VarId, VarTable};

/// A reflexive, symmetric (not necessarily transitive) may-alias relation.
#[derive(Clone, Debug)]
pub struct AliasStructure {
    n: usize,
    /// Row-major symmetric boolean matrix; diagonal always true.
    rel: Vec<bool>,
}

impl AliasStructure {
    /// The identity alias structure (no aliasing) over `n` variables.
    pub fn identity(n: usize) -> Self {
        let mut s = AliasStructure {
            n,
            rel: vec![false; n * n],
        };
        for i in 0..n {
            s.rel[i * n + i] = true;
        }
        s
    }

    /// The identity structure sized for a variable table.
    pub fn for_table(vars: &VarTable) -> Self {
        Self::identity(vars.len())
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if there are no variables.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Declare `x ∼ y` (and symmetrically `y ∼ x`).
    pub fn relate(&mut self, x: VarId, y: VarId) {
        self.rel[x.index() * self.n + y.index()] = true;
        self.rel[y.index() * self.n + x.index()] = true;
    }

    /// Does `x ∼ y` hold?
    #[inline]
    pub fn aliased(&self, x: VarId, y: VarId) -> bool {
        self.rel[x.index() * self.n + y.index()]
    }

    /// The alias class `[x] = { y : x ∼ y }`, in id order (contains `x`).
    pub fn class(&self, x: VarId) -> Vec<VarId> {
        (0..self.n as u32)
            .map(VarId)
            .filter(|&y| self.aliased(x, y))
            .collect()
    }

    /// True if nothing is aliased to anything but itself.
    pub fn is_identity(&self) -> bool {
        for i in 0..self.n {
            for j in 0..self.n {
                if (i == j) != self.rel[i * self.n + j] {
                    return false;
                }
            }
        }
        true
    }

    /// True if `x` is aliased only to itself.
    pub fn unaliased(&self, x: VarId) -> bool {
        (0..self.n as u32)
            .map(VarId)
            .all(|y| y == x || !self.aliased(x, y))
    }

    /// Enumerate the maximal partitions of `V` into blocks that are cliques
    /// of `∼` — the *consistent bindings*: concrete assignments of names to
    /// locations in which only declared aliases may share a location.
    /// Exponential; intended for testing on small variable sets.
    pub fn consistent_bindings(&self) -> Vec<Vec<Vec<VarId>>> {
        let mut out = Vec::new();
        let mut blocks: Vec<Vec<VarId>> = Vec::new();
        self.enumerate(0, &mut blocks, &mut out);
        out
    }

    fn enumerate(&self, next: usize, blocks: &mut Vec<Vec<VarId>>, out: &mut Vec<Vec<Vec<VarId>>>) {
        if next == self.n {
            out.push(blocks.clone());
            return;
        }
        let v = VarId(next as u32);
        // Place v in any existing block it is pairwise aliased with…
        for i in 0..blocks.len() {
            if blocks[i].iter().all(|&w| self.aliased(v, w)) {
                blocks[i].push(v);
                self.enumerate(next + 1, blocks, out);
                blocks[i].pop();
            }
        }
        // …or in a fresh block.
        blocks.push(vec![v]);
        self.enumerate(next + 1, blocks, out);
        blocks.pop();
    }
}

/// Strategies for choosing a Schema 3 cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverStrategy {
    /// One element per variable: `{{x} : x ∈ V}`. Maximizes parallelism;
    /// a memory operation on `x` collects `|[x]|` tokens.
    Singletons,
    /// One element per *distinct* alias class: `{[x] : x ∈ V}`. Reduces the
    /// token count when aliasing is heavy, at the cost of serializing
    /// operations on unaliased members of a shared class.
    AliasClasses,
    /// A single element equal to `V`: one token total, minimal
    /// synchronization, no memory parallelism (Schema 1's ordering).
    SingleToken,
    /// An explicit, user-chosen cover.
    Custom(Vec<Vec<VarId>>),
}

/// A cover of an alias structure (Definition 7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cover {
    elements: Vec<Vec<VarId>>,
}

impl Cover {
    /// Build a cover with the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if a custom cover's union is not `V` (it would not be a cover).
    pub fn build(strategy: &CoverStrategy, alias: &AliasStructure) -> Cover {
        let n = alias.len();
        let elements = match strategy {
            CoverStrategy::Singletons => (0..n as u32).map(|i| vec![VarId(i)]).collect(),
            CoverStrategy::AliasClasses => {
                let mut classes: Vec<Vec<VarId>> = Vec::new();
                for i in 0..n as u32 {
                    let c = alias.class(VarId(i));
                    if !classes.contains(&c) {
                        classes.push(c);
                    }
                }
                classes
            }
            CoverStrategy::SingleToken => {
                vec![(0..n as u32).map(VarId).collect()]
            }
            CoverStrategy::Custom(els) => {
                let mut covered = vec![false; n];
                for el in els {
                    for v in el {
                        covered[v.index()] = true;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "custom cover does not cover every variable"
                );
                els.clone()
            }
        };
        Cover { elements }
    }

    /// The cover elements.
    pub fn elements(&self) -> &[Vec<VarId>] {
        &self.elements
    }

    /// Number of cover elements — the number of access tokens Schema 3
    /// circulates.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the cover has no elements (only possible when `V` is empty).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The *access set* `C[x]` of a variable: the indices of cover elements
    /// that intersect the alias class `[x]`. A memory operation on `x`
    /// collects exactly these tokens (Fig 12/13).
    pub fn access_set(&self, x: VarId, alias: &AliasStructure) -> Vec<usize> {
        let class = alias.class(x);
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, el)| el.iter().any(|v| class.contains(v)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total synchronization cost proxy: the sum over variables of the
    /// access-set size (tokens collected per operation on each variable).
    pub fn synchronization_cost(&self, alias: &AliasStructure) -> usize {
        (0..alias.len() as u32)
            .map(|i| self.access_set(VarId(i), alias).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's FORTRAN example: SUBROUTINE F(X, Y, Z) called as
    /// F(A, B, A) and F(C, D, D): [X]={X,Z}, [Y]={Y,Z}, [Z]={X,Y,Z}.
    fn fortran_example() -> (AliasStructure, VarId, VarId, VarId) {
        let x = VarId(0);
        let y = VarId(1);
        let z = VarId(2);
        let mut a = AliasStructure::identity(3);
        a.relate(x, z);
        a.relate(y, z);
        (a, x, y, z)
    }

    #[test]
    fn fortran_alias_classes() {
        let (a, x, y, z) = fortran_example();
        assert_eq!(a.class(x), vec![x, z]);
        assert_eq!(a.class(y), vec![y, z]);
        assert_eq!(a.class(z), vec![x, y, z]);
        assert!(a.aliased(x, z) && a.aliased(z, x));
        assert!(!a.aliased(x, y), "∼ is not transitive");
        assert!(!a.is_identity());
        assert!(!a.unaliased(x));
    }

    #[test]
    fn identity_structure() {
        let a = AliasStructure::identity(3);
        assert!(a.is_identity());
        assert!(a.unaliased(VarId(1)));
        assert_eq!(a.class(VarId(1)), vec![VarId(1)]);
    }

    #[test]
    fn singleton_cover_access_sets_match_paper() {
        // "In our example there would be three access tokens representing
        // X, Y, and Z. Memory operations on X or Y would collect two access
        // tokens … operations on Z would collect all three."
        let (a, x, y, z) = fortran_example();
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        assert_eq!(cover.len(), 3);
        assert_eq!(cover.access_set(x, &a).len(), 2);
        assert_eq!(cover.access_set(y, &a).len(), 2);
        assert_eq!(cover.access_set(z, &a).len(), 3);
    }

    #[test]
    fn single_token_cover_minimizes_synchronization() {
        let (a, x, ..) = fortran_example();
        let cover = Cover::build(&CoverStrategy::SingleToken, &a);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.access_set(x, &a), vec![0]);
        assert_eq!(cover.synchronization_cost(&a), 3); // one token per var op
    }

    #[test]
    fn alias_class_cover_dedups_classes() {
        let (a, ..) = fortran_example();
        let cover = Cover::build(&CoverStrategy::AliasClasses, &a);
        // Classes {X,Z}, {Y,Z}, {X,Y,Z} are all distinct here.
        assert_eq!(cover.len(), 3);
        // With no aliasing, class cover degenerates to singletons.
        let id = AliasStructure::identity(4);
        let c2 = Cover::build(&CoverStrategy::AliasClasses, &id);
        assert_eq!(c2.len(), 4);
        assert_eq!(c2.synchronization_cost(&id), 4);
    }

    #[test]
    fn custom_cover_validated() {
        let (a, x, y, z) = fortran_example();
        let c = Cover::build(&CoverStrategy::Custom(vec![vec![x, y], vec![z]]), &a);
        assert_eq!(c.len(), 2);
        // Access set of x: {x,y} ∩ [x]={x,z} ≠ ∅ and {z} ∩ [x] ≠ ∅ → both.
        assert_eq!(c.access_set(x, &a), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn incomplete_custom_cover_panics() {
        let (a, x, ..) = fortran_example();
        Cover::build(&CoverStrategy::Custom(vec![vec![x]]), &a);
    }

    #[test]
    fn consistent_bindings_of_fortran_example() {
        let (a, x, y, z) = fortran_example();
        let bindings = a.consistent_bindings();
        // Allowed partitions: {X}{Y}{Z}, {X,Z}{Y}, {Y,Z}{X}. Not {X,Y,Z}
        // (X≁Y) and not {X,Y}{Z}.
        assert_eq!(bindings.len(), 3);
        for b in &bindings {
            for block in b {
                for &u in block {
                    for &v in block {
                        assert!(a.aliased(u, v), "binding block must be a ∼-clique");
                    }
                }
            }
        }
        assert!(bindings.iter().any(|b| b.len() == 3));
        assert!(bindings
            .iter()
            .any(|b| b.contains(&vec![x, z]) && b.contains(&vec![y])));
        assert!(bindings
            .iter()
            .any(|b| b.contains(&vec![y, z]) && b.contains(&vec![x])));
    }

    #[test]
    fn synchronization_cost_orders_covers() {
        let (a, ..) = fortran_example();
        let singles = Cover::build(&CoverStrategy::Singletons, &a);
        let one = Cover::build(&CoverStrategy::SingleToken, &a);
        assert!(singles.synchronization_cost(&a) > one.synchronization_cost(&a));
    }
}
