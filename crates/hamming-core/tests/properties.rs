//! Property-based tests for the hamming-core substrate.

use hamming_core::bitvec::BitVector;
use hamming_core::dataset::Dataset;
use hamming_core::distance::{hamming, hamming_within};
use hamming_core::enumerate::{
    ball_size, for_each_in_ball_u64, for_each_in_ball_words, for_each_key_in_ball,
};
use hamming_core::io::{decode_dataset, encode_dataset};
use hamming_core::partition::Partitioning;
use hamming_core::project::{ProjectedDataset, Projector};
use proptest::prelude::*;

/// Strategy: a bit vector of the given dimensionality as a Vec<bool>.
fn bits(dim: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), dim)
}

fn bv(b: &[bool]) -> BitVector {
    BitVector::from_bits(b.iter().copied())
}

proptest! {
    #[test]
    fn distance_equals_naive_count(a in bits(130), b in bits(130)) {
        let (va, vb) = (bv(&a), bv(&b));
        let naive = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u32;
        prop_assert_eq!(va.distance(&vb), naive);
    }

    #[test]
    fn distance_is_a_metric(a in bits(96), b in bits(96), c in bits(96)) {
        let (va, vb, vc) = (bv(&a), bv(&b), bv(&c));
        // symmetry
        prop_assert_eq!(va.distance(&vb), vb.distance(&va));
        // identity
        prop_assert_eq!(va.distance(&va), 0);
        // triangle inequality
        prop_assert!(va.distance(&vc) <= va.distance(&vb) + vb.distance(&vc));
    }

    #[test]
    fn within_agrees_with_full(a in bits(200), b in bits(200), tau in 0u32..200) {
        let (va, vb) = (bv(&a), bv(&b));
        let d = hamming(va.words(), vb.words());
        let w = hamming_within(va.words(), vb.words(), tau);
        if d <= tau {
            prop_assert_eq!(w, Some(d));
        } else {
            prop_assert_eq!(w, None);
        }
    }

    #[test]
    fn ball_enumeration_matches_bruteforce(center in 0u64..256, radius in 0usize..=8) {
        let width = 8usize;
        let mut got = Vec::new();
        for_each_in_ball_u64(center, width, radius, |v| got.push(v));
        let mut expect: Vec<u64> = (0..(1u64 << width))
            .filter(|v| (v ^ center).count_ones() as usize <= radius)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got_sorted, expect);
        prop_assert_eq!(got.len() as u64, ball_size(width, radius));
    }

    #[test]
    fn key_ball_walk_matches_bruteforce(
        width in 1usize..=64,
        raw in prop::collection::vec(any::<u64>(), 0..120),
        near in prop::collection::vec(any::<u64>(), 0..120),
        raw_center in any::<u64>(),
        radius_pick in any::<usize>(),
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let center = raw_center & mask;
        // Uniform keys (at width 64 about half have bit 63 set) plus a
        // cluster a few bits from the center, so both pruning and the
        // all-inside shortcut are exercised.
        let mut keys: Vec<u64> = raw
            .iter()
            .map(|k| k & mask)
            .chain(near.iter().map(|r| (center ^ (r & (r >> 17) & (r >> 29))) & mask))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let radius = radius_pick % (width + 1);
        let mut got = Vec::new();
        for_each_key_in_ball(keys.as_slice(), center, width, radius, |s| got.push(s));
        let expect: Vec<usize> = (0..keys.len())
            .filter(|&s| (keys[s] ^ center).count_ones() as usize <= radius)
            .collect();
        // Ascending and exactly once each: equal to the filtered positions.
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn key_ball_walk_edge_sets(width in 1usize..=64, raw_center in any::<u64>()) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let center = raw_center & mask;
        for radius in 0..=width {
            // Empty key set: nothing, whatever the ball.
            let mut got = Vec::new();
            for_each_key_in_ball(&[] as &[u64], center, width, radius, |s| got.push(s));
            prop_assert!(got.is_empty());
            // A single key: found iff within radius.
            for key in [center, center ^ 1, !center & mask, mask, 0] {
                let mut got = Vec::new();
                for_each_key_in_ball(&[key][..], center, width, radius, |s| got.push(s));
                let hit = (key ^ center).count_ones() as usize <= radius;
                prop_assert_eq!(got, if hit { vec![0] } else { vec![] });
            }
        }
    }

    #[test]
    fn multiword_ball_count(radius in 0usize..=2) {
        let width = 70usize;
        let mut count = 0u64;
        for_each_in_ball_words(&[0, 0], width, radius, |_| count += 1);
        prop_assert_eq!(count, ball_size(width, radius));
    }

    #[test]
    fn projection_preserves_distance_sum(
        rows in prop::collection::vec(bits(40), 2..6),
        m in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Sum of per-partition Hamming distances equals the full distance
        // (partitions are disjoint and cover all dims) — the fact all
        // pigeonhole arguments in the paper rest on.
        let ds = Dataset::from_vectors(40, rows.iter().map(|r| bv(r))).unwrap();
        let p = Partitioning::random_shuffle(40, m, seed).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let full = hamming(ds.row(0), ds.row(1));
        let sum: u32 = (0..p.num_parts())
            .map(|i| hamming(pd.column(i).value(0), pd.column(i).value(1)))
            .sum();
        prop_assert_eq!(full, sum);
    }

    #[test]
    fn linear_scan_is_sound_and_complete(
        rows in prop::collection::vec(bits(64), 1..20),
        q in bits(64),
        tau in 0u32..64,
    ) {
        let ds = Dataset::from_vectors(64, rows.iter().map(|r| bv(r))).unwrap();
        let qv = bv(&q);
        let res = ds.linear_scan(qv.words(), tau);
        for id in 0..ds.len() {
            let d = hamming(ds.row(id), qv.words());
            prop_assert_eq!(res.contains(&(id as u32)), d <= tau, "id={} d={} tau={}", id, d, tau);
        }
    }

    #[test]
    fn io_roundtrip(rows in prop::collection::vec(bits(77), 0..12)) {
        let ds = Dataset::from_vectors(77, rows.iter().map(|r| bv(r))).unwrap();
        let decoded = decode_dataset(&encode_dataset(&ds)).unwrap();
        prop_assert_eq!(decoded.len(), ds.len());
        for i in 0..ds.len() {
            prop_assert_eq!(decoded.row(i), ds.row(i));
        }
    }

    #[test]
    fn select_dims_then_distance_matches_projection(
        rows in prop::collection::vec(bits(30), 2..5),
        mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        prop_assume!(mask.iter().any(|&b| b));
        let dims: Vec<usize> = mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let ds = Dataset::from_vectors(30, rows.iter().map(|r| bv(r))).unwrap();
        let sub = ds.select_dims(&dims).unwrap();
        let naive: u32 = dims
            .iter()
            .filter(|&&d| rows[0][d] != rows[1][d])
            .count() as u32;
        prop_assert_eq!(hamming(sub.row(0), sub.row(1)), naive);
    }
}
