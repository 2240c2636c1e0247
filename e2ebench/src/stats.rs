//! Small measurement helpers: order statistics, the tail-percentile rule,
//! `/proc` parsing and the output digest.

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile every workload reports: the highest that leaves at
/// least [`TAIL_BEYOND`] samples beyond it in a run of the shortest
/// workload's sample count (about a hundred update intervals). One fixed
/// percentile keeps the value comparable between runs whose sample counts
/// differ with speed.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// A tail value together with the percentile it sits at and the number of
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// `values` at `percentile` (nearest rank) when at least [`TAIL_BEYOND`]
/// samples lie beyond that rank. Otherwise the highest percentile that has
/// them: the `TAIL_BEYOND + 1`-th largest sample, at percentile
/// `100 · (n − TAIL_BEYOND) / n`, or the median when even that would fall
/// below it.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn tail(values: &[f64], percentile: f64) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank >= TAIL_BEYOND {
        return Tail {
            value: sorted[rank - 1],
            percentile,
            samples: n,
        };
    }
    if n <= TAIL_BEYOND * 2 {
        return Tail {
            value: median(values),
            percentile: 50.0,
            samples: n,
        };
    }
    Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 per
/// second by the kernel ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name come field 3 (state) onwards; utime and stime
    // are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// The peak resident set size (`VmHWM`) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib as f64 / 1024.0)
}

/// This process's user plus system CPU seconds so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// This process's peak resident set size in MiB.
pub fn process_peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_peak_rss_mib(&status).expect("/proc/self/status has VmHWM")
}

/// A 64-bit FNV-1a digest over a canonical byte stream. Floats enter by
/// their bit patterns, so any change to a simulated value shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// A length-prefixed string, so that `["ab", "c"]` and `["a", "bc"]`
    /// digest differently.
    pub fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_at_the_requested_percentile() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values, 90.0);
        assert_eq!(
            t,
            Tail {
                value: 180.0,
                percentile: 90.0,
                samples: 200
            }
        );
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), 20);
        // Exactly ten beyond is enough.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 90.0).value, 90.0);
        assert_eq!(tail(&values, 90.0).percentile, 90.0);
    }

    #[test]
    fn tail_falls_back_to_ten_samples_beyond() {
        // p99 of 100 samples would leave one beyond: report the 11th
        // largest at the percentile it sits at instead.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 99.0);
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), TAIL_BEYOND);

        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&values, 90.0);
        assert_eq!(t.value, 40.0);
        assert!((t.percentile - 80.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&values, 90.0),
            Tail {
                value: 10.5,
                percentile: 50.0,
                samples: 20
            }
        );
        let t = tail(&(1..=21).map(f64::from).collect::<Vec<_>>(), 90.0);
        assert_eq!(t.value, 11.0);
        assert_eq!(t.samples, 21);
    }

    #[test]
    fn cpu_seconds_from_stat() {
        // A command name with spaces and a parenthesis must not shift the
        // fields; utime = 250 and stime = 50 ticks.
        let stat = "4242 (odd) name) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 3 0 \
                    1000 123456 789 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("4242 (truncated) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_from_status() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t   36864 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(36.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t 1024 MB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(process_peak_rss_mib() > 0.0);
    }

    #[test]
    fn digest_matches_fnv1a_and_separates_fields() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);

        let digest = |parts: &[&str]| {
            let mut d = Digest::default();
            parts.iter().for_each(|p| d.str(p));
            d.value()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));

        let mut a = Digest::default();
        a.f64(0.0);
        let mut b = Digest::default();
        b.f64(-0.0);
        assert_ne!(a, b, "floats digest by bit pattern");
    }
}
