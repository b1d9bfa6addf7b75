//! Percentiles, medians, the input generator and the output digest.

/// Nearest-rank percentile of ascending `sorted`: the value and how
/// many samples lie beyond it. `None` when there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    let r = rank(n, p)?;
    sorted.get(r - 1).map(|v| (*v, n - r))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples for which the `p`-th percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_for(p: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| rank(n, p).is_some_and(|r| n - r >= MIN_BEYOND))
        .unwrap_or(usize::MAX)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v.get(n / 2 - 1)? + v.get(n / 2)?) / 2.0),
    }
}

/// SplitMix64: the harness's own input generator, so workload inputs do
/// not change when the stack's internal generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a domain-separation `tag`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`; modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill(&mut out);
        out
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a digest of a run's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a word in.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds the last 16 bytes of `bytes` (an AEAD tag) and its length.
    pub fn tail(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        self.bytes(&bytes[bytes.len().saturating_sub(16)..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some((50, 50)));
        assert_eq!(percentile(&v, 99.0), Some((99, 1)));
        assert_eq!(percentile(&v, 100.0), Some((100, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn sample_counts_support_their_percentile() {
        assert_eq!(samples_for(50.0), 20);
        assert_eq!(samples_for(95.0), 200);
        assert_eq!(samples_for(99.0), 1000);
        for p in [50.0, 95.0, 99.0] {
            let v: Vec<u64> = (0..samples_for(p) as u64).collect();
            assert!(percentile(&v, p).is_some_and(|(_, beyond)| beyond >= MIN_BEYOND));
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rng_streams_are_reproducible_and_separated() {
        let (mut r1, mut r2) = (Rng::new(1, 2), Rng::new(1, 2));
        let a: Vec<u64> = (0..4).map(|_| r1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(1, 3).next_u64(), a[0]);
        assert_eq!(Rng::new(5, 0).bytes(13).len(), 13);
    }
}
