//! Memory layout: named shared and private NVM regions with space accounting.
//!
//! Objects allocate their NVM cells through a [`LayoutBuilder`] at
//! construction time. The frozen [`Layout`] then provides
//!
//! * the total word count for backing stores,
//! * **logical bit accounting** — each region declares how many bits of each
//!   word are logically used, so the space tables of the evaluation (paper
//!   Sections 3–4 claim Θ(N)-bit bounds) report true algorithmic space rather
//!   than the 64-bit simulation cells, and
//! * the shared/private split needed for Theorem 1's notion of
//!   *memory-equivalence*, which quantifies only over **shared** variables.

use std::fmt;

use crate::word::{Pid, Word};

/// The address of one NVM word.
///
/// Locations are produced by [`LayoutBuilder`] and are plain indices into the
/// flat word array; [`Loc::at`] derives element addresses inside a region.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Loc(pub(crate) u32);

impl Loc {
    /// The location `i` words after `self` (array indexing within a region).
    pub fn at(self, i: usize) -> Loc {
        Loc(self.0 + i as u32)
    }

    /// The raw word index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Whether a region lives in shared memory or is private to one process.
///
/// Private regions model the paper's "non-volatile private variables that
/// reside in the NVM but are accessed only by p" (Section 2). The simulated
/// memory enforces the access discipline with a runtime check.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Space {
    /// Accessible by every process; counted by Theorem 1's memory-equivalence.
    Shared,
    /// Accessible only by the owning process.
    Private(Pid),
}

/// A named, contiguous run of NVM words with declared logical width.
#[derive(Clone, Debug)]
pub struct Region {
    name: String,
    space: Space,
    base: Loc,
    words: u32,
    bits_per_word: u32,
}

impl Region {
    /// The region's name (for space tables and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared or private.
    pub fn space(&self) -> Space {
        self.space
    }

    /// First word of the region.
    pub fn base(&self) -> Loc {
        self.base
    }

    /// Number of words.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Declared logical bits per word (≤ 64).
    pub fn bits_per_word(&self) -> u32 {
        self.bits_per_word
    }

    /// Total logical bits in the region.
    pub fn logical_bits(&self) -> u64 {
        u64::from(self.words) * u64::from(self.bits_per_word)
    }

    fn contains(&self, loc: Loc) -> bool {
        loc.0 >= self.base.0 && loc.0 < self.base.0 + self.words
    }
}

/// Incrementally allocates NVM regions; frozen into a [`Layout`].
///
/// # Example
///
/// ```
/// use nvm::{LayoutBuilder, Pid};
/// let mut b = LayoutBuilder::new();
/// let r = b.shared("R", 1, 41);               // one 41-bit register
/// let a = b.shared("A", 4 * 4 * 2, 1);        // N×N×2 toggle bits, N = 4
/// let rd = b.private_array("RD", 4, 1, 42);   // one word per process
/// let layout = b.finish();
/// assert_eq!(layout.shared_bits(), 41 + 32);
/// assert_eq!(layout.private_bits(), 4 * 42);
/// # let _ = (r, a, rd);
/// ```
#[derive(Debug, Default)]
pub struct LayoutBuilder {
    regions: Vec<Region>,
    next: u32,
}

impl LayoutBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, name: String, space: Space, words: u32, bits_per_word: u32) -> Loc {
        assert!(words > 0, "empty region {name}");
        assert!(
            (1..=64).contains(&bits_per_word),
            "region {name}: bits_per_word must be in 1..=64"
        );
        let base = Loc(self.next);
        self.next = self
            .next
            .checked_add(words)
            .expect("layout exceeds u32 address space");
        self.regions.push(Region {
            name,
            space,
            base,
            words,
            bits_per_word,
        });
        base
    }

    /// Allocates a shared region of `words` cells, `bits_per_word` logical
    /// bits each, returning its base location.
    pub fn shared(&mut self, name: &str, words: u32, bits_per_word: u32) -> Loc {
        self.alloc(name.to_owned(), Space::Shared, words, bits_per_word)
    }

    /// Allocates a private region owned by `pid`.
    pub fn private(&mut self, pid: Pid, name: &str, words: u32, bits_per_word: u32) -> Loc {
        self.alloc(
            format!("{name}[{pid}]"),
            Space::Private(pid),
            words,
            bits_per_word,
        )
    }

    /// Allocates one private region of `words_per` cells for each of `n`
    /// processes, contiguously. Process `p`'s slice starts at
    /// `base.at(p.idx() * words_per)`.
    pub fn private_array(&mut self, name: &str, n: u32, words_per: u32, bits_per_word: u32) -> Loc {
        let base = self.next;
        for pid in Pid::all(n) {
            self.private(pid, name, words_per, bits_per_word);
        }
        Loc(base)
    }

    /// Freezes the layout.
    pub fn finish(self) -> Layout {
        let mut shared = vec![false; self.next as usize];
        for r in &self.regions {
            if r.space == Space::Shared {
                for i in 0..r.words {
                    shared[(r.base.0 + i) as usize] = true;
                }
            }
        }
        let private_slots = Self::private_slots(&self.regions);
        // Region lookup table: regions are allocated contiguously in address
        // order, so a sorted Vec supports binary search by base address.
        Layout {
            regions: self.regions,
            total_words: self.next,
            shared_mask: shared,
            private_slots,
        }
    }

    /// Computes the per-process private-cell correspondence used by
    /// process-symmetry canonicalization (see [`Layout::private_slots`]).
    ///
    /// Private regions must come in *uniform groups* — maximal runs of
    /// consecutive regions owned by processes `0, 1, …, N−1` in order, all
    /// with the same word count and width, exactly the pattern
    /// [`LayoutBuilder::private_array`] emits — and every group must agree
    /// on `N`. Anything else (a bare [`LayoutBuilder::private`] region, or
    /// objects built for different process counts in one world) yields
    /// `None`: the correspondence would be guesswork, so permutation-based
    /// reductions are simply unavailable for that layout.
    fn private_slots(regions: &[Region]) -> Option<Vec<Vec<u32>>> {
        let mut slots: Option<Vec<Vec<u32>>> = None;
        let mut i = 0;
        while i < regions.len() {
            let Space::Private(first) = regions[i].space else {
                i += 1;
                continue;
            };
            if first != Pid::new(0) {
                return None;
            }
            let (words, bits) = (regions[i].words, regions[i].bits_per_word);
            let mut m = 0;
            while let Some(r) = regions.get(i + m) {
                if r.space == Space::Private(Pid::new(m as u32))
                    && r.words == words
                    && r.bits_per_word == bits
                {
                    m += 1;
                } else {
                    break;
                }
            }
            let slots = slots.get_or_insert_with(|| vec![Vec::new(); m]);
            if slots.len() != m {
                return None;
            }
            for (pid_slots, r) in slots.iter_mut().zip(&regions[i..i + m]) {
                pid_slots.extend(r.base.0..r.base.0 + r.words);
            }
            i += m;
        }
        slots
    }
}

/// A frozen memory layout shared by all memory back-ends.
#[derive(Clone, Debug)]
pub struct Layout {
    regions: Vec<Region>,
    total_words: u32,
    shared_mask: Vec<bool>,
    private_slots: Option<Vec<Vec<u32>>>,
}

impl Layout {
    /// Total number of words that a backing store must provide.
    pub fn total_words(&self) -> usize {
        self.total_words as usize
    }

    /// All regions, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `loc`, if any.
    pub fn region_of(&self, loc: Loc) -> Option<&Region> {
        // Regions are contiguous and sorted by base address.
        let idx = self
            .regions
            .partition_point(|r| r.base.0 + r.words <= loc.0);
        self.regions.get(idx).filter(|r| r.contains(loc))
    }

    /// Whether `loc` belongs to a shared region.
    pub fn is_shared(&self, loc: Loc) -> bool {
        self.shared_mask.get(loc.index()).copied().unwrap_or(false)
    }

    /// The owner of `loc`'s region, if it is private.
    pub fn owner_of(&self, loc: Loc) -> Option<Pid> {
        match self.region_of(loc).map(Region::space) {
            Some(Space::Private(p)) => Some(p),
            _ => None,
        }
    }

    /// Total logical bits of shared NVM — the quantity bounded by the paper's
    /// Theorem 1.
    pub fn shared_bits(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.space() == Space::Shared)
            .map(Region::logical_bits)
            .sum()
    }

    /// Total logical bits of private NVM across all processes.
    pub fn private_bits(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| matches!(r.space(), Space::Private(_)))
            .map(Region::logical_bits)
            .sum()
    }

    /// The per-process private-cell correspondence, when the layout supports
    /// process-id permutation: `private_slots()[p]` lists the word indices
    /// owned by process `p` in allocation order, and for every slot `k` the
    /// cells `private_slots()[·][k]` play the same structural role for their
    /// respective owners (they come from the same
    /// [`private_array`](LayoutBuilder::private_array) group at the same
    /// offset). Renaming process `p` to `q` therefore moves the contents of
    /// slot list `p` onto slot list `q` wholesale.
    ///
    /// `None` when the layout's private allocation is not process-uniform
    /// (bare [`private`](LayoutBuilder::private) regions, or groups built
    /// for differing process counts) — symmetry reductions must then treat
    /// the layout as opaque.
    pub fn private_slots(&self) -> Option<&[Vec<u32>]> {
        self.private_slots.as_deref()
    }

    /// Fills `out` (cleared first) with the shared-region contents of
    /// `words`: the exact census key of Theorem 1's memory-equivalence,
    /// into a reusable buffer.
    pub fn shared_words_into(&self, words: &[Word], out: &mut Vec<Word>) {
        out.clear();
        out.extend(
            words
                .iter()
                .zip(&self.shared_mask)
                .filter(|(_, &shared)| shared)
                .map(|(&w, _)| w),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Layout, Loc, Loc, Loc) {
        let mut b = LayoutBuilder::new();
        let r = b.shared("R", 1, 41);
        let a = b.shared("A", 8, 1);
        let rd = b.private_array("RD", 2, 3, 42);
        (b.finish(), r, a, rd)
    }

    #[test]
    fn allocation_is_contiguous() {
        let (l, r, a, rd) = sample();
        assert_eq!(r.index(), 0);
        assert_eq!(a.index(), 1);
        assert_eq!(rd.index(), 9);
        assert_eq!(l.total_words(), 9 + 2 * 3);
    }

    #[test]
    fn loc_at_offsets() {
        let (_, _, a, _) = sample();
        assert_eq!(a.at(3).index(), a.index() + 3);
    }

    #[test]
    fn shared_and_private_bits() {
        let (l, ..) = sample();
        assert_eq!(l.shared_bits(), 41 + 8);
        assert_eq!(l.private_bits(), 2 * 3 * 42);
    }

    #[test]
    fn region_lookup() {
        let (l, r, a, rd) = sample();
        assert_eq!(l.region_of(r).unwrap().name(), "R");
        assert_eq!(l.region_of(a.at(7)).unwrap().name(), "A");
        assert_eq!(l.region_of(rd).unwrap().name(), "RD[p0]");
        assert_eq!(l.region_of(rd.at(3)).unwrap().name(), "RD[p1]");
        assert!(l.region_of(Loc(1000)).is_none());
    }

    #[test]
    fn ownership() {
        let (l, r, _, rd) = sample();
        assert_eq!(l.owner_of(r), None);
        assert_eq!(l.owner_of(rd), Some(Pid::new(0)));
        assert_eq!(l.owner_of(rd.at(5)), Some(Pid::new(1)));
    }

    #[test]
    fn shared_mask() {
        let (l, r, a, rd) = sample();
        assert!(l.is_shared(r));
        assert!(l.is_shared(a.at(7)));
        assert!(!l.is_shared(rd));
        assert!(!l.is_shared(Loc(999)));
    }

    #[test]
    fn fingerprint_depends_only_on_shared_words() {
        let (l, _r, _a, rd) = sample();
        let key = |w: &[Word]| {
            let mut out = Vec::new();
            l.shared_words_into(w, &mut out);
            out
        };
        let mut w1 = vec![0u64; l.total_words()];
        let mut w2 = w1.clone();
        w1[rd.index()] = 7; // private difference only
        assert_eq!(key(&w1), key(&w2));
        w2[0] = 1; // shared difference
        assert_ne!(key(&w1), key(&w2));
    }

    #[test]
    fn shared_words_extraction() {
        let (l, r, a, _) = sample();
        let mut w = vec![0u64; l.total_words()];
        w[r.index()] = 5;
        w[a.at(2).index()] = 9;
        let mut sw = vec![99]; // stale contents are cleared
        l.shared_words_into(&w, &mut sw);
        assert_eq!(sw.len(), 9);
        assert_eq!(sw[0], 5);
        assert_eq!(sw[3], 9);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_panics() {
        let mut b = LayoutBuilder::new();
        let _ = b.shared("bad", 0, 1);
    }

    #[test]
    fn private_slots_follow_private_array_groups() {
        let (l, _, _, rd) = sample(); // one group: RD, 2 pids × 3 words
        let slots = l.private_slots().expect("uniform layout");
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0], vec![rd.index() as u32, 10, 11]);
        assert_eq!(slots[1], vec![12, 13, 14]);

        // Two groups concatenate per pid, in region order.
        let mut b = LayoutBuilder::new();
        let _x = b.shared("X", 1, 64);
        let a = b.private_array("A", 3, 2, 64);
        let c = b.private_array("C", 3, 1, 8);
        let l = b.finish();
        let slots = l.private_slots().expect("uniform layout");
        assert_eq!(slots.len(), 3);
        assert_eq!(
            slots[1],
            vec![
                a.at(2).index() as u32,
                a.at(3).index() as u32,
                c.at(1).index() as u32
            ]
        );
    }

    #[test]
    fn private_slots_reject_nonuniform_layouts() {
        // A bare private region (no full 0..n group).
        let mut b = LayoutBuilder::new();
        let _ = b.private(Pid::new(1), "lone", 1, 8);
        assert!(b.finish().private_slots().is_none());

        // Groups with disagreeing process counts.
        let mut b = LayoutBuilder::new();
        let _ = b.private_array("A", 2, 1, 8);
        let _ = b.private_array("B", 3, 1, 8);
        assert!(b.finish().private_slots().is_none());

        // All-shared layouts trivially have no correspondence.
        let mut b = LayoutBuilder::new();
        let _ = b.shared("X", 4, 64);
        assert!(b.finish().private_slots().is_none());
    }
}
