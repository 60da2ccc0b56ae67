//! Log forensics: from raw support-log text to classified failures.
//!
//! This example walks the paper's own methodology (§2.5, Figure 3) end to
//! end on a tiny fleet: render the full multi-line event cascades, show a
//! real excerpt, then parse the *text* back and let the classifier
//! re-derive topology, disk lifetimes, and typed failure records — exactly
//! what the study's authors did with NetApp's AutoSupport corpus.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example log_forensics
//! ```

use ssfa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tiny fleet with full Figure-3-style cascades.
    let pipeline = ssfa::Pipeline::new()
        .scale(0.001)
        .seed(23)
        .cascade_style(CascadeStyle::Full);
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);
    let book = pipeline.render(&fleet, &output);
    let text = book.to_text();

    println!(
        "rendered support log: {} lines, {:.1} MiB of text\n",
        book.len(),
        text.len() as f64 / (1024.0 * 1024.0)
    );

    // Show one physical-interconnect cascade, like the paper's Figure 3.
    let missing_line = text
        .lines()
        .position(|l| l.contains("raid.config.filesystem.disk.missing"))
        .expect("some interconnect failure occurred");
    println!("--- excerpt: a physical interconnect failure cascade ---");
    for line in text.lines().skip(missing_line.saturating_sub(5)).take(6) {
        println!("  {line}");
    }
    println!("---------------------------------------------------------\n");

    // The analysis pipeline starts from text, not from simulator state.
    let reparsed = LogBook::from_text(&text)?;
    let input = classify(&reparsed)?;
    println!(
        "classifier recovered: {} systems, {} disk lifetimes, {} failures",
        input.topology.systems.len(),
        input.lifetimes.len(),
        input.failures.len()
    );

    // Verify against ground truth — the classifier must match exactly.
    let truth = output.exposed_records().len();
    assert_eq!(
        input.failures.len(),
        truth,
        "classifier diverged from ground truth"
    );
    println!("ground-truth exposed failures: {truth} -> exact match\n");

    // Tag distribution of the corpus.
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for line in reparsed.iter() {
        *counts.entry(line.event.tag()).or_default() += 1;
    }
    println!("corpus composition by event tag:");
    for (tag, n) in counts {
        println!("  {n:>6}  {tag}");
    }

    // Finally, the per-type failure breakdown from logs alone.
    let study = Study::new(input);
    let mut merged = AfrBreakdown::empty();
    for b in study.afr_by_class(true).values() {
        merged.merge(b);
    }
    println!("\nfailure-type shares re-derived purely from log text:");
    for ty in FailureType::ALL {
        println!(
            "  {:<32} {:>5.1}%",
            ty.label(),
            merged.share(ty).unwrap_or(0.0) * 100.0
        );
    }

    // Real AutoSupport archives are not this clean. Re-run the same fleet
    // through the degraded-mode pipeline with deliberate corruption — bit
    // flips, truncated and duplicated lines, non-UTF-8 garbage, orphaned
    // device references, dropped shards — and let lenient mode skip, count,
    // and audit instead of dying.
    println!("\n=== degraded mode: same fleet, 0.5% fault injection ===");
    let (degraded, _, health) = ssfa::Pipeline::new()
        .scale(0.001)
        .seed(23)
        .cascade_style(CascadeStyle::Full)
        .lenient()
        .faults(FaultSpec::uniform(0.005))
        .run()?;
    println!("{health}");
    println!(
        "injector ledger: {} faults landed ({} bit flips, {} truncations, \
         {} duplicates, {} garbage lines, {} orphaned refs, {} reorders)",
        health.ledger.faults_landed(),
        health.ledger.bit_flips,
        health.ledger.line_truncations,
        health.ledger.lines_duplicated,
        health.ledger.garbage_lines,
        health.ledger.orphaned_refs,
        health.ledger.lines_reordered,
    );
    println!(
        "study still stands: {} failures recovered (clean run had {}), \
         {:.1}% shard coverage",
        degraded.input().failures.len(),
        study.input().failures.len(),
        health.coverage() * 100.0,
    );

    // The audit trail is exact: every line the pipeline saw is either
    // ingested or counted in a skip bucket.
    assert_eq!(
        health.lines_skipped_malformed,
        health.ledger.expect_malformed
    );
    assert_eq!(
        health.lines_skipped_missing_topology,
        health.ledger.expect_missing_topology
    );
    println!("skip counters match the injector's ledger exactly");
    Ok(())
}
