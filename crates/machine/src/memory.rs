//! The machine's data memory.
//!
//! Ordinary cells are a *multiply-written* store (the paper's §2.2
//! extension of the dataflow memory model): locations may be written any
//! number of times, and the dataflow graph's access tokens are responsible
//! for ordering. I-structure cells (§6.3) are write-once with deferred
//! reads.

use cf2df_cfg::{MemLayout, VarId};

/// A pending I-structure read, recorded while the cell is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeferredRead<T> {
    /// Caller-supplied continuation data (e.g. which operator to resume).
    pub ctx: T,
}

/// One I-structure cell.
#[derive(Clone, Debug, Default)]
enum IstCell<T> {
    #[default]
    Empty,
    Full(i64),
    /// Empty with readers waiting.
    Deferred(Vec<DeferredRead<T>>),
}

/// Machine memory: ordinary cells plus an I-structure overlay.
///
/// The type parameter `T` is the continuation payload stored with deferred
/// I-structure reads (the simulator uses `(OpId, TagId)`).
#[derive(Clone, Debug)]
pub struct Memory<T> {
    cells: Vec<i64>,
    ist: Vec<IstCell<T>>,
    reads: u64,
    writes: u64,
}

/// Failure modes of memory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Array index outside the variable's extent.
    OutOfBounds {
        /// The variable accessed.
        var: VarId,
        /// The offending index.
        index: i64,
    },
    /// An I-structure cell written twice.
    IStructureRewrite {
        /// The absolute cell address.
        addr: u32,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { var, index } => {
                write!(f, "index {index} out of bounds for {var:?}")
            }
            MemError::IStructureRewrite { addr } => {
                write!(f, "I-structure cell {addr} written twice")
            }
        }
    }
}

impl std::error::Error for MemError {}

impl<T> Memory<T> {
    /// Zero-initialized memory sized for a layout.
    pub fn new(layout: &MemLayout) -> Memory<T> {
        let n = layout.total_cells() as usize;
        Memory {
            cells: vec![0; n],
            ist: std::iter::repeat_with(IstCell::default).take(n).collect(),
            reads: 0,
            writes: 0,
        }
    }

    /// Read a scalar variable.
    pub fn read_scalar(&mut self, layout: &MemLayout, var: VarId) -> i64 {
        self.reads += 1;
        self.cells[layout.base(var) as usize]
    }

    /// Write a scalar variable.
    pub fn write_scalar(&mut self, layout: &MemLayout, var: VarId, value: i64) {
        self.writes += 1;
        self.cells[layout.base(var) as usize] = value;
    }

    /// Read an array element (bounds-checked against the variable's extent).
    pub fn read_element(
        &mut self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
    ) -> Result<i64, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })?;
        self.reads += 1;
        Ok(self.cells[addr as usize])
    }

    /// Write an array element.
    pub fn write_element(
        &mut self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<(), MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })?;
        self.writes += 1;
        self.cells[addr as usize] = value;
        Ok(())
    }

    /// I-structure read: returns the value if the cell is full, otherwise
    /// records the continuation and returns `None` (the read is deferred
    /// until the matching write).
    pub fn ist_read(
        &mut self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        ctx: T,
    ) -> Result<Option<i64>, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })? as usize;
        self.reads += 1;
        match &mut self.ist[addr] {
            IstCell::Full(v) => Ok(Some(*v)),
            IstCell::Empty => {
                self.ist[addr] = IstCell::Deferred(vec![DeferredRead { ctx }]);
                Ok(None)
            }
            IstCell::Deferred(q) => {
                q.push(DeferredRead { ctx });
                Ok(None)
            }
        }
    }

    /// I-structure write: fills the cell and returns any deferred readers
    /// (with the stored value). Writing a full cell is an error.
    pub fn ist_write(
        &mut self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<T>>, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })? as usize;
        self.writes += 1;
        match std::mem::take(&mut self.ist[addr]) {
            IstCell::Full(_) => Err(MemError::IStructureRewrite { addr: addr as u32 }),
            IstCell::Empty => {
                self.ist[addr] = IstCell::Full(value);
                Ok(Vec::new())
            }
            IstCell::Deferred(q) => {
                self.ist[addr] = IstCell::Full(value);
                Ok(q)
            }
        }
    }

    /// Count of I-structure cells still empty or deferred.
    pub fn ist_unfilled(&self) -> usize {
        self.ist
            .iter()
            .filter(|c| !matches!(c, IstCell::Full(_)))
            .count()
    }

    /// Snapshot of ordinary memory.
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }

    /// Snapshot of I-structure memory (empty cells read as 0).
    pub fn ist_cells(&self) -> Vec<i64> {
        self.ist
            .iter()
            .map(|c| match c {
                IstCell::Full(v) => *v,
                _ => 0,
            })
            .collect()
    }

    /// Total reads issued (ordinary + I-structure).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::VarTable;

    fn setup() -> (MemLayout, VarId, VarId) {
        let mut t = VarTable::new();
        let x = t.scalar("x");
        let a = t.array("a", 4);
        (MemLayout::distinct(&t), x, a)
    }

    #[test]
    fn scalar_read_write() {
        let (l, x, _) = setup();
        let mut m: Memory<()> = Memory::new(&l);
        assert_eq!(m.read_scalar(&l, x), 0);
        m.write_scalar(&l, x, 7);
        assert_eq!(m.read_scalar(&l, x), 7);
        assert_eq!(m.reads(), 2);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn element_bounds_checked() {
        let (l, _, a) = setup();
        let mut m: Memory<()> = Memory::new(&l);
        m.write_element(&l, a, 3, 9).unwrap();
        assert_eq!(m.read_element(&l, a, 3).unwrap(), 9);
        assert_eq!(
            m.read_element(&l, a, 4),
            Err(MemError::OutOfBounds { var: a, index: 4 })
        );
        assert!(m.write_element(&l, a, -1, 0).is_err());
    }

    #[test]
    fn istructure_defers_early_reads() {
        let (l, _, a) = setup();
        let mut m: Memory<u32> = Memory::new(&l);
        // Read before write: deferred.
        assert_eq!(m.ist_read(&l, a, 2, 11).unwrap(), None);
        assert_eq!(m.ist_read(&l, a, 2, 22).unwrap(), None);
        assert_eq!(m.ist_unfilled(), l.total_cells() as usize);
        // Write releases both deferred readers.
        let released = m.ist_write(&l, a, 2, 5).unwrap();
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].ctx, 11);
        assert_eq!(released[1].ctx, 22);
        // Subsequent reads see the value immediately.
        assert_eq!(m.ist_read(&l, a, 2, 33).unwrap(), Some(5));
        // Rewrite is an error.
        assert!(matches!(
            m.ist_write(&l, a, 2, 6),
            Err(MemError::IStructureRewrite { .. })
        ));
    }

    #[test]
    fn ist_snapshot_reads_empty_as_zero() {
        let (l, _, a) = setup();
        let mut m: Memory<()> = Memory::new(&l);
        m.ist_write(&l, a, 1, 42).unwrap();
        let snap = m.ist_cells();
        assert_eq!(snap[l.element(a, 1).unwrap() as usize], 42);
        assert_eq!(snap[l.element(a, 0).unwrap() as usize], 0);
    }
}
