//! Hamming-ball enumeration ("signature generation").
//!
//! Every filter-and-refine method in the paper enumerates, for a partition
//! of the query, all values within the partition's allocated threshold —
//! the *signatures* — and probes an inverted index with each. This module
//! provides that enumeration for single-word (≤ 64 dimensions, the common
//! case) and multi-word partitions.
//!
//! When the keys to probe are themselves sorted, enumeration and probing
//! fuse: [`for_each_key_in_ball`] walks the sorted keys as a binary trie
//! and yields the positions of the keys inside the ball, touching only
//! populated subtrees near the query instead of every ball member.

/// Calls `f(s)` for every single-word value `s` with `width` significant
/// bits such that `H(s, value) <= radius`.
///
/// Enumeration order is by increasing distance (radius 0 first), matching
/// the description in §II-C. `value` must have no bits set at or above
/// `width`. The number of calls is `Σ_{k<=radius} C(width, k)`.
pub fn for_each_in_ball_u64<F: FnMut(u64)>(value: u64, width: usize, radius: usize, mut f: F) {
    debug_assert!(width <= 64);
    debug_assert!(width == 64 || value >> width == 0, "value has bits above width");
    f(value);
    let radius = radius.min(width);
    // positions[0..k] hold the currently flipped bit indices.
    let mut positions = [0usize; 64];
    for k in 1..=radius {
        combos(value, width, k, 0, 0, &mut positions, &mut f);
    }
}

/// Recursive combination enumeration for the single-word ball: chooses
/// `remaining = k - depth` more flip positions starting at `start`.
fn combos<F: FnMut(u64)>(
    base: u64,
    width: usize,
    k: usize,
    depth: usize,
    start: usize,
    positions: &mut [usize; 64],
    f: &mut F,
) {
    if depth == k {
        let mut v = base;
        for &p in positions.iter().take(k) {
            v ^= 1u64 << p;
        }
        f(v);
        return;
    }
    // Leave room for the remaining (k - depth - 1) positions.
    let last = width - (k - depth - 1);
    for p in start..last {
        positions[depth] = p;
        combos(base, width, k, depth + 1, p + 1, positions, f);
    }
}

/// Calls `f(words)` for every multi-word value with `width` significant
/// bits within `radius` of `value`. `value.len()` must equal
/// `crate::words_for(width)`.
///
/// The buffer passed to `f` is reused between calls; callers must copy it
/// if they need to retain it (index probing hashes it immediately, so the
/// hot path never copies).
pub fn for_each_in_ball_words<F: FnMut(&[u64])>(
    value: &[u64],
    width: usize,
    radius: usize,
    mut f: F,
) {
    debug_assert_eq!(value.len(), crate::words_for(width));
    let mut buf = value.to_vec();
    f(&buf);
    let radius = radius.min(width);
    let mut positions = vec![0usize; radius];
    for k in 1..=radius {
        combos_words(width, k, 0, 0, &mut positions, &mut buf, &mut f);
    }
}

fn combos_words<F: FnMut(&[u64])>(
    width: usize,
    k: usize,
    depth: usize,
    start: usize,
    positions: &mut [usize],
    buf: &mut [u64],
    f: &mut F,
) {
    if depth == k {
        f(buf);
        return;
    }
    let last = width - (k - depth - 1);
    for p in start..last {
        positions[depth] = p;
        buf[p / 64] ^= 1u64 << (p % 64);
        combos_words(width, k, depth + 1, p + 1, positions, buf, f);
        buf[p / 64] ^= 1u64 << (p % 64);
    }
}

/// First position in `lo..hi` whose key is at least `target` (`hi` if
/// none).
fn lower_bound(keys: &[u64], mut lo: usize, mut hi: usize, target: u64) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if keys[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Key ranges at most this long are filtered key by key (a masked
/// popcount each) instead of being split further.
const LEAF_KEYS: usize = 8;

/// Calls `f(pos)` for every position of `keys` whose key lies within
/// `radius` of `center`, in ascending position order, each exactly once:
/// the intersection of the Hamming ball with the keys, without
/// enumerating the ball.
///
/// `keys` must be ascending and distinct, and every key and `center`
/// must have no bits set at or above `width ≤ 64`. The keys are walked
/// as a binary trie from the top bit: an ascending range whose keys
/// share a prefix splits at the first key with the next bit set, and a
/// subtree is dropped as soon as it is empty or its prefix is already
/// more than `radius` from `center`'s. Out-of-order keys cannot make
/// the walk panic or emit a position twice, only give a wrong set of
/// positions.
///
/// The work is bounded by the populated trie nodes within `radius`, not
/// by [`ball_size`]`(width, radius)`, which is what makes it cheaper
/// than enumerate-then-probe when the ball outnumbers the keys it hits.
pub fn for_each_key_in_ball<F>(keys: &[u64], center: u64, width: usize, radius: usize, mut f: F)
where
    F: FnMut(usize),
{
    debug_assert!(width <= 64);
    debug_assert!(width == 64 || center >> width == 0, "center has bits above width");
    TrieWalk { keys, center, radius, f: &mut f }.node(0, keys.len(), width, 0, 0);
}

/// The state shared by every node of one [`for_each_key_in_ball`] walk.
struct TrieWalk<'a, F> {
    keys: &'a [u64],
    center: u64,
    radius: usize,
    f: &'a mut F,
}

impl<F: FnMut(usize)> TrieWalk<'_, F> {
    /// One trie node: `keys[lo..hi]` all carry `prefix` on the bits at
    /// or above `level` (the `level` low bits are still free), and
    /// `prefix` is `dist ≤ radius` from `center` on those bits.
    fn node(&mut self, lo: usize, hi: usize, level: usize, dist: usize, prefix: u64) {
        if lo >= hi {
            return;
        }
        if dist + level <= self.radius {
            // Even flipping every free bit stays inside the ball.
            (lo..hi).for_each(&mut *self.f);
            return;
        }
        let free = if level >= 64 { u64::MAX } else { (1u64 << level) - 1 };
        if hi - lo <= LEAF_KEYS {
            for (pos, &k) in (lo..hi).zip(&self.keys[lo..hi]) {
                if dist + ((k ^ self.center) & free).count_ones() as usize <= self.radius {
                    (self.f)(pos);
                }
            }
            return;
        }
        if dist == self.radius {
            // No free bit may differ: only the center's own completion
            // of the prefix can match.
            let target = prefix | (self.center & free);
            let s = lower_bound(self.keys, lo, hi, target);
            if s < hi && self.keys[s] == target {
                (self.f)(s);
            }
            return;
        }
        // `dist < radius < dist + level`: `level ≥ 1`, and both children
        // stay within `radius`. Split at the first key with the next bit
        // set.
        let bit = 1u64 << (level - 1);
        let split = lower_bound(self.keys, lo, hi, prefix | bit);
        let (d0, d1) = if self.center & bit == 0 { (dist, dist + 1) } else { (dist + 1, dist) };
        self.node(lo, split, level - 1, d0, prefix);
        self.node(split, hi, level - 1, d1, prefix | bit);
    }
}

/// Number of signatures enumerated for a `(width, radius)` pair:
/// `Σ_{k=0}^{radius} C(width, k)`, saturating at `u64::MAX`.
///
/// Accumulation is done in `u128` so the result is *exact* for every sum
/// that fits in a `u64` — the previous u64 evaluation wrapped its
/// intermediate product near `width = 64` (e.g. `C(64, 31) * 34`
/// overflows even though `ball_size(64, 32)` is representable) and the
/// full-width ball `Σ C(64, k) = 2^64` must saturate, not wrap, or the
/// scan-vs-enumerate crossover in `Gph::search_with_stats` would pick
/// enumeration for the most expensive balls.
pub fn ball_size(width: usize, radius: usize) -> u64 {
    let mut total: u128 = 1; // k = 0
    let mut c: u128 = 1;
    for k in 1..=radius.min(width) {
        // c = C(width, k) built incrementally; the product is always
        // divisible by k, so the division is exact. `c <= total` held at
        // the previous check, so `c * width` stays far below u128::MAX.
        c = c * (width - k + 1) as u128 / k as u128;
        total += c;
        if total > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    total as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect_u64(value: u64, width: usize, radius: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for_each_in_ball_u64(value, width, radius, |v| out.push(v));
        out
    }

    #[test]
    fn radius_zero_is_identity() {
        assert_eq!(collect_u64(0b101, 3, 0), vec![0b101]);
    }

    #[test]
    fn counts_match_ball_size() {
        for width in [1usize, 3, 8, 12] {
            for radius in 0..=width {
                let got = collect_u64(0, width, radius);
                assert_eq!(got.len() as u64, ball_size(width, radius), "w={width} r={radius}");
                // All distinct, all within radius, all within width.
                let set: HashSet<u64> = got.iter().copied().collect();
                assert_eq!(set.len(), got.len());
                for v in got {
                    assert!(v.count_ones() as usize <= radius);
                    assert!(width == 64 || v >> width == 0);
                }
            }
        }
    }

    #[test]
    fn ball_is_centered_on_value() {
        let center = 0b0110_1001u64;
        for v in collect_u64(center, 8, 2) {
            assert!((v ^ center).count_ones() <= 2);
        }
        assert_eq!(collect_u64(center, 8, 8).len(), 256);
    }

    #[test]
    fn multiword_matches_singleword_when_narrow() {
        let center = 0x0F0Fu64;
        let mut multi = Vec::new();
        for_each_in_ball_words(&[center], 16, 2, |w| multi.push(w[0]));
        let single = collect_u64(center, 16, 2);
        assert_eq!(multi, single);
    }

    #[test]
    fn multiword_wide_partition() {
        // 70-bit value: ball of radius 1 has 71 members.
        let value = vec![u64::MAX, 0x3F]; // all 70 bits set
        let mut seen = HashSet::new();
        for_each_in_ball_words(&value, 70, 1, |w| {
            assert!(seen.insert(w.to_vec()));
        });
        assert_eq!(seen.len(), 71);
        // Flipping bit 69 must appear.
        assert!(seen.contains(&vec![u64::MAX, 0x3F ^ (1 << 5)]));
    }

    #[test]
    fn ball_size_saturates() {
        assert_eq!(ball_size(500, 250), u64::MAX);
        assert_eq!(ball_size(8, 100), 256);
        assert_eq!(ball_size(0, 0), 1);
    }

    #[test]
    fn ball_size_width_64_near_full_radius() {
        // Σ_{k=0}^{64} C(64, k) = 2^64: one past u64::MAX, must saturate.
        assert_eq!(ball_size(64, 64), u64::MAX);
        // Σ_{k=0}^{63} C(64, k) = 2^64 − 1 = u64::MAX exactly (no wrap).
        assert_eq!(ball_size(64, 63), u64::MAX);
        // Representable mid-radius values are exact, not prematurely
        // saturated: Σ_{k=0}^{32} C(64, k) = 2^63 + C(64, 32)/2.
        let c64_32: u128 = 1_832_624_140_942_590_534;
        assert_eq!(ball_size(64, 32) as u128, (1u128 << 63) + c64_32 / 2);
        // Saturation is monotone in the radius: once saturated, larger
        // radii stay saturated, and below it the count strictly grows.
        let mut prev = 0u64;
        for r in 0..=64 {
            let b = ball_size(64, r);
            assert!(b > prev || (b == u64::MAX && prev == u64::MAX), "r={r}");
            prev = b;
        }
    }

    #[test]
    fn enumeration_is_distance_ordered() {
        let got = collect_u64(0, 6, 3);
        let mut last = 0;
        for v in got {
            let d = v.count_ones();
            assert!(d >= last.min(d)); // non-decreasing by construction
            if d > last {
                last = d;
            }
        }
        assert_eq!(last, 3);
    }
}
