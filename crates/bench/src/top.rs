//! `mmaes top` — a live dashboard over a running campaign's status.
//!
//! Tails a `--status-file status.json` (re-read every interval; the
//! producer rewrites it atomically, so a read never sees a torn
//! document) or polls a `--metrics-addr` server's `/status` endpoint.
//! On a TTY the dashboard redraws in place; with `--once`, or when
//! stdout is not a terminal, it degrades to a single plain dump. The
//! watch loop exits on its own once the status reports `finished`.

use std::io::{IsTerminal, Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

use mmaes_telemetry::json::{self, JsonValue};

use crate::exit_code;

/// Where the status document comes from.
enum Source {
    File(String),
    /// `HOST:PORT` of a `--metrics-addr` server; fetches `/status`.
    Http(String),
}

/// Entry point for the `top` verb: parses its arguments, then watches
/// (or dumps once) and exits with 0 on success, 2 on an unreadable or
/// unparsable status source.
pub fn run(arguments: &[String]) -> ! {
    let mut source: Option<Source> = None;
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut rest = arguments.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {flag} needs a value");
                exit(exit_code::INVALID_INPUT);
            })
        };
        match flag.as_str() {
            "--addr" => source = Some(Source::Http(value())),
            "--interval" => {
                let seconds: u64 = value().parse().unwrap_or_else(|error| {
                    eprintln!("flag --interval: {error}");
                    exit(exit_code::INVALID_INPUT);
                });
                interval = Duration::from_secs(seconds.max(1));
            }
            "--once" => once = true,
            other if !other.starts_with('-') && source.is_none() => {
                source = Some(Source::File(other.to_owned()));
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(exit_code::INVALID_INPUT);
            }
        }
    }
    let Some(source) = source else {
        eprintln!("top needs a status file or --addr HOST:PORT");
        exit(exit_code::INVALID_INPUT);
    };
    // A pipe gets one parsable dump, not a redraw loop.
    let live = !once && std::io::stdout().is_terminal();
    loop {
        let document = fetch(&source).unwrap_or_else(|error| {
            eprintln!("{error}");
            exit(exit_code::INVALID_INPUT);
        });
        let status = json::parse(document.trim()).unwrap_or_else(|error| {
            eprintln!("status document is not valid JSON: {error}");
            exit(exit_code::INVALID_INPUT);
        });
        let rendered = render(&status);
        if live {
            // Clear screen + home, then the frame in one write.
            let mut stdout = std::io::stdout().lock();
            let _ = write!(stdout, "\x1b[2J\x1b[H{rendered}");
            let _ = stdout.flush();
        } else {
            // The frame ends in a newline; `outln!` adds it back.
            crate::outln!("{}", rendered.strip_suffix('\n').unwrap_or(&rendered));
        }
        let finished = status
            .get("finished")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        if !live || finished {
            exit(exit_code::CLEAN);
        }
        std::thread::sleep(interval);
    }
}

fn fetch(source: &Source) -> Result<String, String> {
    match source {
        Source::File(path) => std::fs::read_to_string(path)
            .map_err(|error| format!("cannot read status file {path}: {error}")),
        Source::Http(addr) => http_get_status(addr),
    }
}

/// A one-shot `GET /status` against the campaign's `--metrics-addr`
/// server. Hand-rolled on `TcpStream` for the same reason the server
/// is: no HTTP dependency.
fn http_get_status(addr: &str) -> Result<String, String> {
    let describe = |error: std::io::Error| format!("cannot fetch /status from {addr}: {error}");
    let mut stream = TcpStream::connect(addr).map_err(describe)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(describe)?;
    stream
        .write_all(
            format!("GET /status HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(describe)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(describe)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") {
        return Err(format!("{addr} answered: {status_line}"));
    }
    Ok(body.to_owned())
}

/// Renders one dashboard frame from a parsed status document. Pure and
/// total: missing fields render as blanks/zeros rather than failing,
/// so a status file from a newer or older producer still displays.
fn render(status: &JsonValue) -> String {
    let text = |key: &str| {
        status
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let unsigned = |key: &str| status.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let boolean = |key: &str| {
        status
            .get(key)
            .and_then(JsonValue::as_bool)
            .unwrap_or(false)
    };
    let mut frame = String::new();
    let design = text("design");
    let model = text("model");
    let order = unsigned("order");
    frame.push_str(&format!(
        "mmaes top — {} ({} model, order {})\n",
        if design.is_empty() {
            "<campaign starting>"
        } else {
            &design
        },
        if model.is_empty() { "?" } else { &model },
        order,
    ));

    let traces = unsigned("traces");
    let target = unsigned("traces_target");
    let fraction = if target > 0 {
        traces as f64 / target as f64
    } else {
        0.0
    };
    frame.push_str(&format!(
        "progress   {:>12} / {} traces ({:.1}%)  {}\n",
        traces,
        target,
        100.0 * fraction,
        progress_bar(fraction, 30),
    ));

    if let Some(runtime) = status.get("runtime") {
        let rate = runtime
            .get("traces_per_sec")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let eta = runtime.get("eta_seconds").and_then(JsonValue::as_f64);
        let threads = runtime
            .get("threads")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        frame.push_str(&format!(
            "rate       {rate:.0} traces/s on {threads} thread(s){}\n",
            match eta {
                Some(seconds) if seconds.is_finite() => format!(", eta {}", human_seconds(seconds)),
                _ => String::new(),
            }
        ));
    }

    let leaking = unsigned("leaking");
    let worst = text("worst_label");
    let max_p = status
        .get("max_minus_log10_p")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let verdict = if boolean("interrupted") {
        "INTERRUPTED (partial statistics; resumable)".to_owned()
    } else if boolean("finished") {
        let early = if boolean("early_stopped") {
            ", stopped early"
        } else {
            ""
        };
        if boolean("passed") {
            format!("PASS — no leakage detected{early}")
        } else {
            format!("FAIL — {leaking} set(s) leaking, worst {worst}{early}")
        }
    } else if max_p > 0.0 && !worst.is_empty() {
        format!("running — worst so far {worst} at -log10(p) = {max_p:.2}")
    } else {
        "running".to_owned()
    };
    frame.push_str(&format!("verdict    {verdict}\n"));

    if let Some(health) = status.get("health") {
        let count = |key: &str| health.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        frame.push_str(&format!(
            "health     {}/{} sets testable, {} undersampled, {} leaking; {} fresh bits/trace\n",
            count("testable_sets"),
            count("probe_sets"),
            count("undersampled_sets"),
            count("leaking_sets"),
            count("fresh_bits_per_trace"),
        ));
        if let Some(probes) = health.get("probes").and_then(JsonValue::as_array) {
            frame.push_str(&format!(
                "\n{:<44} {:>10} {:>13} {:>12}\n",
                "top probing sets", "-log10(p)", "slope/Mtrace", "detect@"
            ));
            for probe in probes.iter().take(12) {
                let label = probe
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                let value = probe
                    .get("minus_log10_p")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                let slope = probe
                    .get("slope_per_mtrace")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                // Infinity renders as JSON null: never detecting.
                let detect = probe
                    .get("traces_to_detection")
                    .and_then(JsonValue::as_f64)
                    .map(|traces| format!("{traces:.0}"))
                    .unwrap_or_else(|| "never".to_owned());
                let marks = match (
                    probe.get("leaking").and_then(JsonValue::as_bool),
                    probe.get("undersampled").and_then(JsonValue::as_bool),
                ) {
                    (Some(true), _) => "  ← LEAK",
                    (_, Some(true)) => "  (undersampled)",
                    _ => "",
                };
                frame.push_str(&format!(
                    "{:<44} {:>10.2} {:>13.1} {:>12}{}\n",
                    truncate_label(label, 44),
                    value,
                    slope,
                    detect,
                    marks,
                ));
            }
        }
    }
    frame
}

fn progress_bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0) * width as f64) as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

fn human_seconds(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.1}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}

fn truncate_label(label: &str, width: usize) -> String {
    if label.chars().count() <= width {
        label.to_owned()
    } else {
        let prefix: String = label.chars().take(width - 1).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_status() -> JsonValue {
        let document = r#"{
            "type":"status","status_schema":1,"event_schema":6,
            "design":"kronecker_eq6","model":"glitch","order":1,
            "probe_sets":17,"traces":6400,"traces_target":12800,
            "finished":false,"passed":false,"early_stopped":false,
            "interrupted":false,"leaking":0,
            "max_minus_log10_p":7.25,"worst_label":"g/v1",
            "top":[{"label":"g/v1","minus_log10_p":7.25,"leaking":true,
                    "trajectory":[[3200,3.0],[6400,7.25]]}],
            "health":{"traces":6400,"traces_target":12800,"threshold":5.0,
                      "probe_sets":17,"testable_sets":15,
                      "undersampled_sets":2,"leaking_sets":1,
                      "fresh_bits_per_trace":24,"fresh_bits_total":153600,
                      "probes":[{"label":"g/v1","minus_log10_p":7.25,
                                 "leaking":true,"tested_columns":4,
                                 "pooled_columns":0,"pooled_fraction":0.0,
                                 "min_expected":50.0,"undersampled":false,
                                 "slope_per_mtrace":1328.1,
                                 "traces_to_detection":6400.0},
                                {"label":"g/v9","minus_log10_p":0.4,
                                 "leaking":false,"tested_columns":2,
                                 "pooled_columns":5,"pooled_fraction":0.4,
                                 "min_expected":3.0,"undersampled":true,
                                 "slope_per_mtrace":0.0,
                                 "traces_to_detection":null}]},
            "runtime":{"threads":2,"elapsed_ms":1234,
                       "traces_per_sec":5187.0,"eta_seconds":1.23}
        }"#;
        json::parse(document).expect("sample parses")
    }

    #[test]
    fn dashboard_renders_every_section() {
        let frame = render(&sample_status());
        assert!(frame.contains("kronecker_eq6"), "{frame}");
        assert!(frame.contains("6400 / 12800"), "{frame}");
        assert!(frame.contains("50.0%"), "{frame}");
        assert!(
            frame.contains("5187 traces/s on 2 thread(s), eta 1s"),
            "{frame}"
        );
        assert!(frame.contains("15/17 sets testable"), "{frame}");
        assert!(frame.contains("24 fresh bits/trace"), "{frame}");
        assert!(frame.contains("← LEAK"), "{frame}");
        assert!(frame.contains("(undersampled)"), "{frame}");
        // Null traces-to-detection (infinity) renders as "never".
        assert!(frame.contains("never"), "{frame}");
        assert!(frame.contains("worst so far g/v1"), "{frame}");
    }

    #[test]
    fn finished_status_renders_a_final_verdict() {
        let mut document = sample_status();
        // Re-parse a finished variant rather than mutating internals.
        let _ = &mut document;
        let finished = r#"{"design":"kronecker_eq6","model":"glitch","order":1,
            "traces":12800,"traces_target":12800,"finished":true,"passed":false,
            "leaking":3,"worst_label":"g/v1","max_minus_log10_p":60.1,
            "interrupted":false,"early_stopped":true}"#;
        let frame = render(&json::parse(finished).expect("parses"));
        assert!(frame.contains("FAIL — 3 set(s) leaking"), "{frame}");
        assert!(frame.contains("stopped early"), "{frame}");
    }

    #[test]
    fn empty_status_still_renders() {
        let frame = render(&json::parse("{}").expect("parses"));
        assert!(frame.contains("<campaign starting>"), "{frame}");
        assert!(frame.contains("running"), "{frame}");
    }

    #[test]
    fn progress_bar_clamps() {
        assert_eq!(progress_bar(0.0, 4), "[....]");
        assert_eq!(progress_bar(0.5, 4), "[##..]");
        assert_eq!(progress_bar(7.0, 4), "[####]");
    }
}
