//! Process-level readings and sample statistics.

use std::fs;

/// Linear-interpolated percentile `q ∈ [0, 1]` of unsorted samples;
/// `0.0` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median, over groups of consecutive samples, of each group's
/// percentile `q`; `0.0` if every group is empty. A slow spell of the
/// host that fills a minority of the groups cannot move it, where it
/// would fill the pooled tail.
pub fn median_of_percentiles(groups: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, q))
        .collect();
    median(&per)
}

/// On-CPU time of the whole process so far — every thread, live or
/// exited — in ms, from `utime + stime` of `/proc/self/stat` (clock ticks
/// of 10 ms, the Linux `USER_HZ`).
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_spell_in_one_group_does_not_move_the_median_of_percentiles() {
        let quiet: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = quiet.iter().map(|x| x * 3.0).collect();
        let groups = vec![quiet.clone(), slow, quiet.clone(), Vec::new()];
        assert_eq!(median_of_percentiles(&groups, 0.9), percentile(&quiet, 0.9));
        assert_eq!(median_of_percentiles(&[], 0.9), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
