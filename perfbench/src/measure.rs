//! Measurement plumbing shared by every workload: the metric record and
//! the result line, order statistics, `/proc` readers and the
//! environment stamp.

use std::fmt::Write as _;
use std::time::Instant;

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation reports: the correctness verdict, the
/// operation accounting and the metrics of the requested mode.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line per failed check.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn new() -> Self {
        RunResult { correct: true, ..RunResult::default() }
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Pushes an end-to-end metric with the unit the vocabulary gives it.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.push(name, crate::layers::unit(name), value);
    }

    /// Records a correctness check; a failed one marks the run failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// The result as the single JSON object the last output line holds.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip rendering keeps; non-finite values become `null`, which
/// the self-check rejects.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Durations pooled over a whole run in fixed-width buckets, so the
/// memory it takes (and so the process's peak) does not grow with the
/// number of samples. Durations past the last bucket count in it.
pub struct Histogram {
    bucket_ns: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new(bucket_ns: u64, buckets: usize) -> Self {
        Histogram { bucket_ns, counts: vec![0; buckets], total: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        self.counts[((ns / self.bucket_ns) as usize).min(last)] += 1;
        self.total += 1;
    }

    /// Median in nanoseconds: the middle of the bucket holding the
    /// middle sample (NaN when empty).
    pub fn median_ns(&self) -> f64 {
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if 2 * seen > self.total {
                return (k as f64 + 0.5) * self.bucket_ns as f64;
            }
        }
        f64::NAN
    }
}

/// Nearest-rank quantile of an already sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Ratio that reads 0 instead of NaN or infinity on an empty base.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Linux reports `/proc/*/stat` CPU times in USER_HZ ticks, fixed at 100
/// per second by the kernel ABI.
const USER_HZ: f64 = 100.0;

fn stat_fields(path: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may contain spaces; everything after
    // its closing parenthesis is space-separated numbers from field 3.
    let tail = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    tail.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect()
}

/// CPU seconds from a `stat` file: fields 14+15 (utime, stime) and,
/// with `children`, 16+17 (cutime, cstime of reaped children).
fn cpu_secs(path: &str, children: bool) -> f64 {
    let f = stat_fields(path);
    // `f[0]` is field 3 of the stat line.
    let (a, b) = if children { (13, 14) } else { (11, 12) };
    (f.get(a).copied().unwrap_or(0) + f.get(b).copied().unwrap_or(0)) as f64 / USER_HZ
}

/// CPU seconds this process has used, all threads.
pub fn process_cpu_secs() -> f64 {
    cpu_secs("/proc/self/stat", false)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    cpu_secs("/proc/thread-self/stat", false)
}

/// CPU seconds of this process's reaped children.
pub fn children_cpu_secs() -> f64 {
    cpu_secs("/proc/self/stat", true)
}

/// Where the host stood when the run started, so results from different
/// or busy hosts are never compared blind.
pub fn environment_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".to_owned(), |(_, m)| m.trim().to_owned());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".to_owned(), |s| s.trim().to_owned());
    let loadavg = std::fs::read_to_string("/proc/loadavg").map_or("unknown".to_owned(), |s| {
        s.split_whitespace().take(3).collect::<Vec<_>>().join(" ")
    });
    let rustc = command_line("rustc", &["--version"]);
    // Only the run directory's own `.git`: never a repository above it.
    let commit = command_line("git", &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"]);
    format!(
        "{{\"env\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"l3\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"loadavg\": \"{}\"}}}}",
        escape(&cpu),
        escape(&l3),
        escape(&rustc),
        escape(&commit),
        escape(&loadavg)
    )
}

/// First output line of a helper command, or `unknown` when it is
/// missing or fails (a source checkout without `.git` has no commit).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}
