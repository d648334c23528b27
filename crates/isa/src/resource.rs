//! Dependence resources.
//!
//! The Scheduler Unit tests candidate instructions for true, output and
//! anti dependencies against the instructions already placed in the
//! scheduling list (paper §3.2). Because instructions arrive *after*
//! executing in the Primary Processor, the tests operate on resolved
//! storage locations: physical integer registers (register-window mapping
//! already applied), FP registers, the condition-code registers, `%y`,
//! the window pointer, and *observed* memory byte ranges (§3.9).
//!
//! Renamed outputs (from instruction splitting) occupy the `*Ren`
//! variants; their ids are allocated per scheduling block.

/// One architectural or renamed storage location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Physical integer register (1..NUM_PHYS_INT; `%g0` is never a
    /// resource).
    Int(u16),
    /// Renaming integer register.
    IntRen(u32),
    /// FP register.
    Fp(u8),
    /// Renaming FP register.
    FpRen(u32),
    /// The integer condition codes.
    Icc,
    /// Renaming condition-code register.
    IccRen(u32),
    /// The FP condition code.
    Fcc,
    /// Renaming FP condition-code register.
    FccRen(u32),
    /// The `%y` register.
    Y,
    /// The current-window pointer (written by save/restore only).
    Cwp,
    /// A memory byte range observed at schedule time.
    Mem {
        /// Effective byte address.
        addr: u32,
        /// Access size in bytes (1, 2 or 4).
        size: u8,
    },
    /// Memory renaming buffer entry (a split store's staging slot).
    MemRen(u32),
}

impl Resource {
    /// Do two resources conflict (same location / overlapping bytes)?
    #[inline]
    pub fn conflicts(&self, other: &Resource) -> bool {
        match (self, other) {
            (Resource::Mem { addr: a, size: s }, Resource::Mem { addr: b, size: t }) => {
                // byte-range overlap
                let (a, b) = (*a as u64, *b as u64);
                a < b + *t as u64 && b < a + *s as u64
            }
            _ => self == other,
        }
    }

    /// Can this resource be renamed by instruction splitting?
    ///
    /// The paper renames integer, FP, flag and memory outputs (§3.8,
    /// §3.9, Table 3). `%y` and the window pointer have no rename pools;
    /// candidates writing them install instead of splitting.
    pub fn renameable(&self) -> bool {
        matches!(
            self,
            Resource::Int(_)
                | Resource::Fp(_)
                | Resource::Icc
                | Resource::Fcc
                | Resource::Mem { .. }
        )
    }

    /// The rename pool this resource belongs to, if any.
    pub fn rename_kind(&self) -> Option<RenameKind> {
        match self {
            Resource::Int(_) | Resource::IntRen(_) => Some(RenameKind::Int),
            Resource::Fp(_) | Resource::FpRen(_) => Some(RenameKind::Fp),
            Resource::Icc | Resource::IccRen(_) => Some(RenameKind::Icc),
            Resource::Fcc | Resource::FccRen(_) => Some(RenameKind::Fcc),
            Resource::Mem { .. } | Resource::MemRen(_) => Some(RenameKind::Mem),
            _ => None,
        }
    }
}

/// Rename register pools; Table 3 of the paper reports per-pool
/// high-water marks ("Integer / F.P. / Flag / Memory Renaming
/// Registers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenameKind {
    /// Integer renaming registers.
    Int,
    /// FP renaming registers.
    Fp,
    /// Integer condition-code ("flag") renaming registers.
    Icc,
    /// FP condition-code renaming registers (counted with flags).
    Fcc,
    /// Memory renaming registers.
    Mem,
}

/// A small fixed-capacity list of resources; no instruction in the subset
/// reads or writes more than four locations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResList {
    len: u8,
    items: [Option<Resource>; 4],
}

impl ResList {
    /// Empty list.
    #[inline]
    pub const fn new() -> Self {
        ResList {
            len: 0,
            items: [None; 4],
        }
    }

    /// Append a resource; panics beyond capacity 4 (an ISA invariant).
    #[inline]
    pub fn push(&mut self, r: Resource) {
        self.items[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Append if `Some`.
    #[inline]
    pub fn push_opt(&mut self, r: Option<Resource>) {
        if let Some(r) = r {
            self.push(r);
        }
    }

    /// Number of resources held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the resources.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Resource> + '_ {
        self.items[..self.len as usize].iter().flatten()
    }

    /// Does any resource here conflict with any in `other`?
    #[inline]
    pub fn intersects(&self, other: &ResList) -> bool {
        self.iter().any(|a| other.iter().any(|b| a.conflicts(b)))
    }

    /// Does any resource here conflict with `r`?
    pub fn contains_conflict(&self, r: &Resource) -> bool {
        self.iter().any(|a| a.conflicts(r))
    }

    /// Replace every resource conflicting with `from` by `to`; returns
    /// how many replacements occurred.
    #[inline]
    pub fn replace(&mut self, from: &Resource, to: Resource) -> usize {
        let mut n = 0;
        for slot in self.items[..self.len as usize].iter_mut() {
            if slot.as_ref().is_some_and(|r| r.conflicts(from)) {
                *slot = Some(to);
                n += 1;
            }
        }
        n
    }
}

impl FromIterator<Resource> for ResList {
    fn from_iter<T: IntoIterator<Item = Resource>>(iter: T) -> Self {
        let mut l = ResList::new();
        for r in iter {
            l.push(r);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_overlap() {
        let w = |addr, size| Resource::Mem { addr, size };
        assert!(w(100, 4).conflicts(&w(100, 4)));
        assert!(w(100, 4).conflicts(&w(103, 1)));
        assert!(!w(100, 4).conflicts(&w(104, 4)));
        assert!(w(102, 2).conflicts(&w(100, 4)));
        assert!(!w(98, 2).conflicts(&w(100, 1)));
    }

    #[test]
    fn reg_identity() {
        assert!(Resource::Int(5).conflicts(&Resource::Int(5)));
        assert!(!Resource::Int(5).conflicts(&Resource::Int(6)));
        assert!(!Resource::Int(5).conflicts(&Resource::IntRen(5)));
        assert!(Resource::Icc.conflicts(&Resource::Icc));
        assert!(!Resource::Icc.conflicts(&Resource::Fcc));
    }

    #[test]
    fn renameability() {
        assert!(Resource::Int(3).renameable());
        assert!(Resource::Icc.renameable());
        assert!(Resource::Mem { addr: 0, size: 4 }.renameable());
        assert!(!Resource::Y.renameable());
        assert!(!Resource::Cwp.renameable());
        assert!(!Resource::IntRen(0).renameable());
    }

    #[test]
    fn reslist_ops() {
        let mut a = ResList::new();
        a.push(Resource::Int(1));
        a.push(Resource::Mem { addr: 64, size: 4 });
        let mut b = ResList::new();
        b.push(Resource::Mem { addr: 66, size: 2 });
        assert!(a.intersects(&b));
        assert!(!b.intersects(&ResList::new()));
        assert_eq!(a.replace(&Resource::Int(1), Resource::IntRen(7)), 1);
        assert!(a.contains_conflict(&Resource::IntRen(7)));
        assert!(!a.contains_conflict(&Resource::Int(1)));
    }
}
