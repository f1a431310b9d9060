//! What one exploration process measures, and the line format it
//! reports it in to the process that started it.

/// The measurements and checks of one exploration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    pub traced: bool,
    pub explore_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// One value per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Completed paths, each of which should yield a replayable test.
    pub attempted: u64,
    /// Paths dropped on solver `Unknown`, quarantined states, and tests
    /// whose replay disagreed.
    pub failed: u64,
    /// Work counters for the exact-repeat check.
    pub counters: Vec<(String, u64)>,
    /// Per-layer metrics (traced explorations only).
    pub layers: Vec<(String, f64)>,
    /// Human-readable detail passed through to the report.
    pub notes: Vec<String>,
    /// Correctness-gate failures; any makes the benchmark fail.
    pub violations: Vec<String>,
}

impl Sample {
    /// Encodes the sample as one `<kind> <name> <value>` line per field.
    /// Floats print in Rust's shortest round-trip form, so parsing
    /// recovers them exactly.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let mut line = |kind: &str, rest: &str| {
            out.push_str(kind);
            out.push(' ');
            out.push_str(rest);
            out.push('\n');
        };
        line("traced", if self.traced { "1" } else { "0" });
        line("explore_s", &self.explore_s.to_string());
        line("cpu_s", &self.cpu_s.to_string());
        line("peak_rss_mb", &self.peak_rss_mb.to_string());
        for v in &self.setup_s {
            line("setup_s", &v.to_string());
        }
        line("attempted", &self.attempted.to_string());
        line("failed", &self.failed.to_string());
        for (name, v) in &self.counters {
            line("counter", &format!("{name} {v}"));
        }
        for (name, v) in &self.layers {
            line("layer", &format!("{name} {v}"));
        }
        for note in &self.notes {
            line("note", &note.replace('\n', " "));
        }
        for v in &self.violations {
            line("violation", &v.replace('\n', " "));
        }
        out
    }

    /// Decodes [`Sample::to_lines`] output.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let float = |v: &str| v.parse::<f64>().map_err(|e| format!("`{line}`: {e}"));
            let int = |v: &str| v.parse::<u64>().map_err(|e| format!("`{line}`: {e}"));
            let named = || rest.split_once(' ').ok_or_else(|| format!("`{line}`: no value"));
            match kind {
                "traced" => s.traced = rest == "1",
                "explore_s" => s.explore_s = float(rest)?,
                "cpu_s" => s.cpu_s = float(rest)?,
                "peak_rss_mb" => s.peak_rss_mb = float(rest)?,
                "setup_s" => s.setup_s.push(float(rest)?),
                "attempted" => s.attempted = int(rest)?,
                "failed" => s.failed = int(rest)?,
                "counter" => {
                    let (n, v) = named()?;
                    s.counters.push((n.to_owned(), int(v)?));
                }
                "layer" => {
                    let (n, v) = named()?;
                    s.layers.push((n.to_owned(), float(v)?));
                }
                "note" => s.notes.push(rest.to_owned()),
                "violation" => s.violations.push(rest.to_owned()),
                _ => return Err(format!("unexpected line `{line}`")),
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_exactly() {
        let s = Sample {
            traced: true,
            explore_s: 3.593_950_795_999_999_7,
            cpu_s: 0.1 + 0.2,
            peak_rss_mb: 497.33203125,
            setup_s: vec![0.001_234_5, 0.001_111],
            attempted: 5_461,
            failed: 2,
            counters: vec![("steps".to_owned(), 181_332), ("solver.conflicts".to_owned(), 26)],
            layers: vec![("solver.route_s".to_owned(), 1.5e-3)],
            notes: vec!["span explore: 1 calls".to_owned()],
            violations: vec!["covered 27 blocks, expected 28".to_owned()],
        };
        assert_eq!(Sample::parse(&s.to_lines()), Ok(s));
        assert!(Sample::parse("layer solver.route_s").is_err());
        assert!(Sample::parse("explore_s x").is_err());
        assert!(Sample::parse("bogus 1").is_err());
    }
}
