//! The result envelope: metrics with units and sample counts, the host
//! and run block, and the final one-line JSON result.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Raw samples the value summarizes.
    pub samples: usize,
    /// Samples strictly beyond the value, for percentiles (`None` for
    /// medians, means and counts).
    pub beyond: Option<usize>,
    /// What the value is, in a few words (statistic and input).
    pub note: String,
}

/// Collected output of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Reported metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (non-200, refused, connection error,
    /// timeout, or a pipeline error).
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Extra run facts for the host/run block (`key`, JSON value).
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        beyond: Option<usize>,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            beyond,
            note: note.into(),
        });
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Checks `ok`, recording `what` as a failure when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds a fact to the run block (`value` is already JSON).
    pub fn fact(&mut self, key: impl Into<String>, value: String) {
        self.facts.push((key.into(), value));
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The detail line: host and run block plus every metric with its
    /// sample count and note.
    pub fn detail_json(&self, run: &RunInfo) -> String {
        let mut out = String::from("{\"host\":");
        out.push_str(&host_json());
        let _ = write!(
            out,
            ",\"run\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"daemon\":{}",
            json_str(&run.workload),
            run.seed,
            run.seconds,
            run.trace,
            json_str(&run.daemon_flags),
        );
        for (k, v) in &self.facts {
            let _ = write!(out, ",{}:{}", json_str(k), v);
        }
        out.push_str("},\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"beyond\":{},\"note\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples,
                m.beyond.map_or("null".to_string(), |b| b.to_string()),
                json_str(&m.note),
            );
        }
        out.push_str("},\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(e));
        }
        out.push_str("]}");
        out
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit per metric).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The run parameters echoed into the run block.
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: u64,
    /// Traced run?
    pub trace: bool,
    /// The daemon's command-line flags (empty without a daemon).
    pub daemon_flags: String,
}

/// Host block: CPU count, CPU model, toolchain, source revision. A
/// comparison between results whose host blocks differ compares unlike
/// hosts.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"os\":{}}}",
        nproc,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(std::env::consts::OS),
    )
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (which no check lets through) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.metric("setup_s", "s", 0.8127, 3, None, "median of 3 set-ups");
        r.attempted = 10;
        let line = r.result_json();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        r.fail("wrong body");
        assert!(r.result_json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_str("a\"b\\\n\u{1}"), "\"a\\\"b\\\\\\n\\u0001\"");
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
