//! Output checks: every program output is compared against a report
//! built in-process, outside the timed window.

/// The `Build:` line of a report: `threads`, solve-cache `hits`,
/// `misses` and `evictions` of that build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildLine {
    pub threads: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

const BUILD_PREFIX: &str = "  Build: ";

/// Parses `  Build: T thread(s), solve cache H hit(s) / M miss(es) / E eviction(s)`.
pub fn parse_build_line(line: &str) -> Option<BuildLine> {
    let rest = line.strip_prefix(BUILD_PREFIX)?;
    let (threads, rest) = rest.split_once(" thread(s), solve cache ")?;
    let (hits, rest) = rest.split_once(" hit(s) / ")?;
    let (misses, rest) = rest.split_once(" miss(es) / ")?;
    let evictions = rest.strip_suffix(" eviction(s)")?;
    Some(BuildLine {
        threads: threads.parse().ok()?,
        hits: hits.parse().ok()?,
        misses: misses.parse().ok()?,
        evictions: evictions.parse().ok()?,
    })
}

/// Die area (mm²) and peak power (W) as printed in a report.
pub fn parse_area_power(report: &str) -> Option<(f64, f64)> {
    let field = |prefix: &str, suffix: &str| {
        report.lines().find_map(|l| {
            l.strip_prefix(prefix)
                .and_then(|v| v.strip_suffix(suffix))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
    };
    Some((field("  Die area:", "mm^2")?, field("  Peak power:", "W")?))
}

/// `s` as the body of a JSON string literal, escaped the way the
/// daemon's wire encoder escapes (RFC 8259 minimal escaping).
fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 64);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What a daemon's `report` must be for one config. The report embeds
/// the solve-cache hit/miss/eviction split of its build, which depends on
/// what the daemon evaluated before; everything else is compared byte for
/// byte, and of the `Build:` line the thread count and the number of
/// lookups (hits + misses) must match the reference build.
#[derive(Debug, Clone)]
pub struct WireExpect {
    before: String,
    after: String,
    build: BuildLine,
}

impl WireExpect {
    /// From the in-process reference report.
    pub fn new(report: &str) -> Option<WireExpect> {
        let start = report.find(BUILD_PREFIX)?;
        let len = report[start..].find('\n')?;
        let build = parse_build_line(&report[start..start + len])?;
        Some(WireExpect {
            before: escaped(&report[..start]),
            after: escaped(&report[start + len + 1..]),
            build,
        })
    }

    /// Whether the escaped wire report `wire` matches.
    pub fn matches_escaped(&self, wire: &str) -> bool {
        let Some(mid) = wire
            .strip_prefix(self.before.as_str())
            .and_then(|w| w.strip_suffix(self.after.as_str()))
            .and_then(|w| w.strip_suffix("\\n"))
        else {
            return false;
        };
        parse_build_line(mid).is_some_and(|b| {
            b.threads == self.build.threads
                && b.hits + b.misses == self.build.hits + self.build.misses
        })
    }
}

/// The fields of one `evaluate` response line the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireResponse<'a> {
    /// The report, still JSON-escaped.
    pub report: &'a str,
    /// Server-side time of the request (`perf.wall_ms`).
    pub wall_ms: f64,
}

/// Splits a successful `evaluate` response for request `id`. Any other
/// envelope (an error, another id, a malformed line) yields `None`.
pub fn split_evaluate_response(line: &str, id: u64) -> Option<WireResponse<'_>> {
    let rest = line.trim_end().strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if rest[..digits].parse::<u64>().ok()? != id {
        return None;
    }
    let rest =
        rest[digits..].strip_prefix(",\"status\":\"ok\",\"type\":\"evaluate\",\"report\":\"")?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b'"' {
        i += if bytes[i] == b'\\' { 2 } else { 1 };
    }
    let report = rest.get(..i)?;
    let perf = rest.get(i..)?.strip_prefix("\",\"perf\":{\"wall_ms\":")?;
    let end = perf.find(',')?;
    let wall_ms = perf[..end].parse().ok()?;
    perf.ends_with("}}")
        .then_some(WireResponse { report, wall_ms })
}

/// Relative error of `modelled` against `published`, in percent.
pub fn error_pct(modelled: f64, published: f64) -> f64 {
    (modelled - published).abs() / published * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpat::Processor;

    fn report_of(name: &str) -> String {
        Processor::build(&crate::gen::preset(name))
            .expect("presets build")
            .report()
    }

    #[test]
    fn reads_area_and_power_out_of_report_text() {
        let text = "McPAT-rs report: x\n  Die area: 294.6 mm^2\n    cores 1.0 mm^2\n  Peak power: 56.0 W\n    dynamic 48.3 W\n";
        assert_eq!(parse_area_power(text), Some((294.6, 56.0)));
        assert_eq!(parse_area_power("  Die area: 1.0 mm^2\n"), None);

        let chip = Processor::build(&crate::gen::preset("niagara")).expect("builds");
        let (area, power) = parse_area_power(&chip.report()).expect("report has both fields");
        assert!((area - chip.die_area_mm2()).abs() <= 0.05 + 1e-9, "{area}");
        assert!(
            (power - chip.peak_power().total()).abs() <= 0.05 + 1e-9,
            "{power}"
        );
    }

    #[test]
    fn build_line_round_trips() {
        let b = parse_build_line(
            "  Build: 2 thread(s), solve cache 4 hit(s) / 16 miss(es) / 0 eviction(s)",
        );
        assert_eq!(
            b,
            Some(BuildLine {
                threads: 2,
                hits: 4,
                misses: 16,
                evictions: 0
            })
        );
        assert_eq!(parse_build_line("  Build: two thread(s)"), None);
    }

    fn wire_line(id: u64, report: &str) -> String {
        mcpat_serve::proto::evaluate_response(
            Some(id),
            report,
            &mcpat_serve::RequestPerf {
                wall_ms: 0.25,
                ..Default::default()
            },
        )
    }

    #[test]
    fn wire_report_matches_modulo_cache_split() {
        let report = report_of("tulsa");
        let expect = WireExpect::new(&report).expect("report has a Build line");
        let line = wire_line(7, &report);
        let resp = split_evaluate_response(&line, 7).expect("ok envelope");
        assert_eq!(resp.wall_ms, 0.25);
        assert!(expect.matches_escaped(resp.report));

        // A warm rebuild moves misses to hits: same lookups, still a match.
        let b = parse_build_line(
            report
                .lines()
                .find(|l| l.starts_with(BUILD_PREFIX))
                .unwrap(),
        )
        .unwrap();
        let warm = report.replace(
            &format!("{} hit(s) / {} miss(es)", b.hits, b.misses),
            &format!("{} hit(s) / 0 miss(es)", b.hits + b.misses),
        );
        assert!(expect.matches_escaped(
            split_evaluate_response(&wire_line(7, &warm), 7)
                .unwrap()
                .report
        ));
    }

    #[test]
    fn forced_mismatches_are_rejected() {
        let report = report_of("niagara2");
        let expect = WireExpect::new(&report).expect("Build line");
        let wrong_power = report.replacen("Peak power: ", "Peak power: 1", 1);
        let line = wire_line(1, &wrong_power);
        assert!(!expect.matches_escaped(split_evaluate_response(&line, 1).unwrap().report));
        let b = parse_build_line(
            report
                .lines()
                .find(|l| l.starts_with(BUILD_PREFIX))
                .unwrap(),
        )
        .unwrap();
        let extra_lookup = report.replace(
            &format!("{} miss(es)", b.misses),
            &format!("{} miss(es)", b.misses + 1),
        );
        let line = wire_line(1, &extra_lookup);
        assert!(!expect.matches_escaped(split_evaluate_response(&line, 1).unwrap().report));
        // Wrong id and error envelopes never count as answers.
        assert!(split_evaluate_response(&wire_line(2, &report), 1).is_none());
        let err = mcpat_serve::proto::error_response(Some(1), "Overloaded", "cap", None);
        assert!(split_evaluate_response(&err, 1).is_none());
    }
}
