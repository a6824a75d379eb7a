//! Sample statistics, digests and process memory.

use hipe_sim::Samples;

/// Fewest samples a reported percentile must leave above it.
pub const MIN_BEYOND: u64 = 10;

/// Ops a run needs before [`qualified_percentile`] accepts p90.
pub const MIN_OPS_FOR_P90: u64 = 100;

/// The nearest-rank `p`-th percentile of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above that rank (the tail is
/// too thin to call it a percentile).
pub fn qualified_percentile(samples: &mut Samples, p: f64) -> Option<u64> {
    let n = samples.count();
    if n == 0 {
        return None;
    }
    // Same rank rule as `Samples::percentile` (nearest rank, clamped).
    let rank = ((p * n as f64 / 100.0).ceil() as u64).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    samples.percentile(p)
}

/// A [`Samples`] set holding `values`.
pub fn samples_of(values: impl IntoIterator<Item = u64>) -> Samples {
    let mut s = Samples::new();
    for v in values {
        s.push(v);
    }
    s
}

/// FNV-1a over a byte stream, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a value's full `Debug` rendering — every field of a
/// `RunReport` or `ServiceReport`, counters, masks and energy included.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv(FNV_OFFSET, format!("{value:?}").as_bytes())
}

/// The process's resident-set high-water mark in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file or line does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let mut s = samples_of(1..=99);
        assert_eq!(qualified_percentile(&mut s, 90.0), None);
        let mut s = samples_of(1..=MIN_OPS_FOR_P90);
        assert_eq!(qualified_percentile(&mut s, 90.0), Some(90));
        assert_eq!(qualified_percentile(&mut s, 95.0), None);
        assert_eq!(qualified_percentile(&mut samples_of([]), 50.0), None);
    }

    #[test]
    fn digest_sees_every_field() {
        assert_ne!(debug_digest(&(1, 2)), debug_digest(&(1, 3)));
        assert_eq!(debug_digest(&"x"), debug_digest(&"x"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().expect("VmHWM is present on Linux") > 0.0);
        }
    }
}
