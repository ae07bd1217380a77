//! Monitor a campaign in-process with the metrics registry.
//!
//! What `--status-file` and `--metrics-addr` do for the CLI, a library
//! embedder does by attaching sinks: this drives the paper's leaky
//! Eq. 6 Kronecker gadget through a fixed-vs-random campaign with a
//! `MetricsSink` feeding a `MetricsRegistry`, then reads the final
//! health digest back out of the registry's status document and prints
//! a Prometheus excerpt — exactly what a scraper would see on
//! `/metrics` mid-run.
//!
//! Run with: `cargo run --release --example live_monitoring`

use mult_masked_aes::circuits::build_kronecker;
use mult_masked_aes::leakage::{EvaluationConfig, FixedVsRandom};
use mult_masked_aes::masking::KroneckerRandomness;
use mult_masked_aes::telemetry::{json, Faults, MetricsRegistry, MetricsSink, Observer, Sink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schedule = KroneckerRandomness::de_meyer_eq6();
    println!("schedule under test: {schedule}\n");
    let circuit = build_kronecker(&schedule)?;

    // The registry is the live side-channel: cloneable, lock-cheap,
    // and readable at any time from another thread (the CLI's
    // `--metrics-addr` server does exactly this).
    let registry = MetricsRegistry::new();
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(MetricsSink::new(
        registry.clone(),
        1,
        Faults::default(),
    ))];
    let observer = Observer::from_sinks(sinks);

    let report = FixedVsRandom::new(
        &circuit.netlist,
        EvaluationConfig {
            traces: 60_000,
            warmup_cycles: 6,
            checkpoints: 8,
            ..EvaluationConfig::default()
        },
    )
    .with_observer(observer)
    .try_run()?;
    println!("{}\n", report.verdict());

    // The registry's status document is the same JSON `/status` serves
    // and `--status-file` writes; the health block is the digest.
    let status = json::parse(&registry.status()).expect("status is valid JSON");
    let health = status.get("health").expect("campaign emitted health");
    let count = |key: &str| health.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    println!("--- final health digest ---");
    println!(
        "{}/{} probing sets testable, {} undersampled, {} leaking",
        count("testable_sets"),
        count("probe_sets"),
        count("undersampled_sets"),
        count("leaking_sets"),
    );
    println!(
        "randomness: {} fresh bits/trace, {} total",
        count("fresh_bits_per_trace"),
        count("fresh_bits_total"),
    );
    if let Some(probes) = health.get("probes").and_then(|v| v.as_array()) {
        for probe in probes
            .iter()
            .filter(|p| p.get("leaking").and_then(|v| v.as_bool()).unwrap_or(false))
        {
            println!(
                "  LEAK {} at -log10(p) = {:.1}, detected by {} traces",
                probe.get("label").and_then(|v| v.as_str()).unwrap_or("?"),
                probe
                    .get("minus_log10_p")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0),
                probe
                    .get("traces_to_detection")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN),
            );
        }
    }

    println!("\n--- /metrics excerpt (Prometheus text exposition) ---");
    for line in registry
        .render_prometheus()
        .lines()
        .filter(|line| line.contains("health") || line.contains("traces"))
    {
        println!("{line}");
    }

    assert!(!report.passed(), "Eq. 6 must be flagged");
    Ok(())
}
