//! HPF data distributions and per-dimension index maps.
//!
//! Fx (like HPF) distributes each array dimension independently over one
//! dimension of a processor grid. The supported per-dimension
//! distributions are the HPF set the Fx compiler implements: `BLOCK`,
//! `CYCLIC`, `CYCLIC(b)` (block-cyclic) — plus `*` (a dimension that is
//! not distributed) and full replication for whole arrays.
//!
//! [`DimMap`] is the pure arithmetic core: a bijection between global
//! indices `0..n` and `(processor coordinate, local index)` pairs. All
//! communication-set generation in this crate is built from it, which is
//! why it is tested to death (including property tests under `tests/`).

/// Distribution of one array dimension over `q` processor-grid positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Contiguous blocks of `ceil(n/q)` elements (HPF `BLOCK`).
    Block,
    /// Element `i` on processor `i mod q` (HPF `CYCLIC`).
    Cyclic,
    /// Blocks of `b` dealt round-robin (HPF `CYCLIC(b)`).
    BlockCyclic(usize),
    /// Dimension not distributed: every processor-grid position along this
    /// axis holds the whole extent (HPF `*`).
    Star,
}

/// The index map of one dimension: extent `n` distributed as `dist` over
/// `q` grid positions.
///
/// `Hash`/`Eq` make the map usable inside communication-plan cache keys
/// (see the `plan` module): two equal maps generate identical index sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimMap {
    /// Extent of the dimension.
    pub n: usize,
    /// Grid positions the dimension is spread over.
    pub q: usize,
    /// The distribution rule.
    pub dist: Dist,
}

impl DimMap {
    /// Create a map; validates the distribution parameters.
    pub fn new(n: usize, q: usize, dist: Dist) -> Self {
        assert!(q >= 1, "need at least one grid position");
        if let Dist::BlockCyclic(b) = dist {
            assert!(b >= 1, "block-cyclic block size must be at least 1");
        }
        if dist == Dist::Star {
            assert_eq!(q, 1, "a '*' dimension cannot be spread over {q} grid positions");
        }
        DimMap { n, q, dist }
    }

    /// HPF block size for `Block` (`ceil(n/q)`), or the parameter for
    /// `BlockCyclic`.
    pub(crate) fn block(&self) -> usize {
        match self.dist {
            Dist::Block => self.n.div_ceil(self.q).max(1),
            Dist::BlockCyclic(b) => b,
            Dist::Cyclic => 1,
            Dist::Star => self.n.max(1),
        }
    }

    /// Grid coordinate that owns global index `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds for extent {}", self.n);
        match self.dist {
            Dist::Star => 0,
            Dist::Block => (i / self.block()).min(self.q - 1),
            Dist::Cyclic => i % self.q,
            Dist::BlockCyclic(b) => (i / b) % self.q,
        }
    }

    /// Local index of global index `i` on its owner.
    #[inline]
    pub fn local_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        match self.dist {
            Dist::Star => i,
            Dist::Block => i - self.owner(i) * self.block(),
            Dist::Cyclic => i / self.q,
            Dist::BlockCyclic(b) => (i / (b * self.q)) * b + i % b,
        }
    }

    /// Global index of local index `li` on grid coordinate `c`.
    #[inline]
    pub fn global_of(&self, c: usize, li: usize) -> usize {
        debug_assert!(c < self.q);
        match self.dist {
            Dist::Star => li,
            Dist::Block => c * self.block() + li,
            Dist::Cyclic => li * self.q + c,
            Dist::BlockCyclic(b) => (li / b) * b * self.q + c * b + li % b,
        }
    }

    /// One past the last global index of the ownership block containing
    /// `i`: the indices `i..block_end(i)` share `i`'s owner and are
    /// contiguous in its local storage.
    #[inline]
    pub fn block_end(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        if self.q == 1 {
            return self.n;
        }
        let b = self.block();
        ((i / b + 1) * b).min(self.n)
    }

    /// Number of elements grid coordinate `c` owns.
    pub fn local_len(&self, c: usize) -> usize {
        debug_assert!(c < self.q);
        match self.dist {
            Dist::Star => self.n,
            Dist::Block => {
                let b = self.block();
                self.n.saturating_sub(c * b).min(b)
            }
            Dist::Cyclic => {
                let (d, r) = (self.n / self.q, self.n % self.q);
                d + usize::from(c < r)
            }
            Dist::BlockCyclic(b) => {
                // Count indices i in 0..n with (i/b) % q == c. Blocks are
                // size b except the last, which may be partial.
                if self.n == 0 {
                    return 0;
                }
                let nblocks = self.n.div_ceil(b);
                if c >= nblocks {
                    return 0;
                }
                let my_blocks = (nblocks - 1 - c) / self.q + 1;
                let mut len = my_blocks * b;
                if (nblocks - 1) % self.q == c {
                    // I own the (possibly partial) last block.
                    let last_size = self.n - (nblocks - 1) * b;
                    len -= b - last_size;
                }
                len
            }
        }
    }

    /// How many of the indices below `g` (at most `n`) coordinate `c`
    /// owns: the local index of the first one it owns from `g` on.
    pub(crate) fn owned_before(&self, c: usize, g: usize) -> usize {
        debug_assert!(c < self.q && g <= self.n);
        match self.dist {
            _ if self.q == 1 => g,
            Dist::Block => g.saturating_sub(c * self.block()).min(self.local_len(c)),
            Dist::Star => unreachable!("a '*' dimension has one position"),
            Dist::Cyclic => g.saturating_sub(c).div_ceil(self.q),
            Dist::BlockCyclic(b) => g / (b * self.q) * b + (g % (b * self.q)).saturating_sub(c * b).min(b),
        }
    }

    /// Iterate the global indices owned by coordinate `c`, ascending.
    pub fn owned_globals(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        let len = self.local_len(c);
        (0..len).map(move |li| self.global_of(c, li))
    }
}

/// Call `f` with every index vector of a box of extents `lens`, in
/// row-major order (last dimension fastest) — the one N-d loop nest the
/// rank-generic arrays and plans are written over.
pub(crate) fn for_each_index<const N: usize>(lens: [usize; N], mut f: impl FnMut([usize; N])) {
    if lens.contains(&0) {
        return;
    }
    let mut idx = [0; N];
    loop {
        f(idx);
        // Odometer step: bump the last dimension, carrying leftwards.
        let mut k = N;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < lens[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Row-major position of index vector `idx` in a box of extents `lens`.
pub(crate) fn ravel<const N: usize>(idx: [usize; N], lens: [usize; N]) -> usize {
    (0..N).fold(0, |v, k| v * lens[k] + idx[k])
}

/// Index vector at row-major position `v` of a box of extents `lens`.
pub(crate) fn unravel<const N: usize>(mut v: usize, lens: [usize; N]) -> [usize; N] {
    let mut idx = [0; N];
    for k in (0..N).rev() {
        idx[k] = v % lens[k];
        v /= lens[k];
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(m: DimMap) {
        // Every global index maps to (owner, local) and back.
        for i in 0..m.n {
            let c = m.owner(i);
            assert!(c < m.q, "owner({i}) = {c} out of range");
            let li = m.local_of(i);
            assert!(li < m.local_len(c), "local {li} >= len {} (i={i})", m.local_len(c));
            assert_eq!(m.global_of(c, li), i, "roundtrip failed for i={i}");
            // The rest of i's ownership block is contiguous on the owner.
            let e = m.block_end(i);
            assert!(i < e && e <= m.n, "block_end({i}) = {e}");
            for j in i..e {
                assert_eq!((m.owner(j), m.local_of(j)), (c, li + j - i), "block of {i} at {j}");
            }
        }
        // Lengths sum to n.
        let total: usize = (0..m.q).map(|c| m.local_len(c)).sum();
        assert_eq!(total, m.n);
        // owned_before counts what owner() says.
        for c in 0..m.q {
            for g in 0..=m.n {
                assert_eq!(m.owned_before(c, g), (0..g).filter(|&i| m.owner(i) == c).count(), "c={c} g={g}");
            }
        }
        // owned_globals is consistent with owner().
        for c in 0..m.q {
            for g in m.owned_globals(c) {
                assert_eq!(m.owner(g), c);
            }
        }
    }

    #[test]
    fn index_walk_is_row_major_and_ravel_inverts_unravel() {
        let lens = [2, 1, 3];
        let mut seen = Vec::new();
        for_each_index(lens, |i| seen.push(i));
        assert_eq!(seen, [[0, 0, 0], [0, 0, 1], [0, 0, 2], [1, 0, 0], [1, 0, 1], [1, 0, 2]]);
        for (v, &i) in seen.iter().enumerate() {
            assert_eq!((ravel(i, lens), unravel(v, lens)), (v, i));
        }
        for_each_index([4, 0, 2], |_| panic!("an empty box has no index"));
    }

    #[test]
    fn block_bijection_various_sizes() {
        for n in [0, 1, 5, 16, 17, 100] {
            for q in [1, 2, 3, 7, 16] {
                check_bijection(DimMap::new(n, q, Dist::Block));
            }
        }
    }

    #[test]
    fn cyclic_bijection_various_sizes() {
        for n in [0, 1, 5, 16, 17, 100] {
            for q in [1, 2, 3, 7, 16] {
                check_bijection(DimMap::new(n, q, Dist::Cyclic));
            }
        }
    }

    #[test]
    fn block_cyclic_bijection_various_sizes() {
        for n in [0, 1, 5, 16, 17, 100] {
            for q in [1, 2, 3, 7] {
                for b in [1, 2, 3, 5] {
                    check_bijection(DimMap::new(n, q, Dist::BlockCyclic(b)));
                }
            }
        }
    }

    #[test]
    fn star_owns_everything_on_single_coord() {
        let m = DimMap::new(10, 1, Dist::Star);
        check_bijection(m);
        assert_eq!(m.local_len(0), 10);
        assert_eq!(m.owner(7), 0);
        assert_eq!(m.local_of(7), 7);
    }

    #[test]
    fn block_layout_matches_hpf() {
        // n=10, q=4: HPF block = ceil(10/4) = 3 → owners 0001112223? no:
        // blocks [0..3) [3..6) [6..9) [9..10).
        let m = DimMap::new(10, 4, Dist::Block);
        let owners: Vec<usize> = (0..10).map(|i| m.owner(i)).collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(m.local_len(3), 1);
    }

    #[test]
    fn cyclic_layout_matches_hpf() {
        let m = DimMap::new(7, 3, Dist::Cyclic);
        let owners: Vec<usize> = (0..7).map(|i| m.owner(i)).collect();
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(m.local_len(0), 3);
        assert_eq!(m.local_len(2), 2);
    }

    #[test]
    fn block_cyclic_layout_matches_hpf() {
        // CYCLIC(2) over q=2, n=8: blocks [01][23][45][67] → 0,0,1,1,0,0,1,1.
        let m = DimMap::new(8, 2, Dist::BlockCyclic(2));
        let owners: Vec<usize> = (0..8).map(|i| m.owner(i)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 0, 0, 1, 1]);
        assert_eq!(m.local_of(4), 2);
        assert_eq!(m.local_of(5), 3);
    }

    #[test]
    #[should_panic(expected = "'*' dimension")]
    fn star_over_many_coords_rejected() {
        DimMap::new(10, 2, Dist::Star);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_block_cyclic_rejected() {
        DimMap::new(10, 2, Dist::BlockCyclic(0));
    }
}
