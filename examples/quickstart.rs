//! Quickstart: simulate a small fleet, analyze it, print the headline
//! results of the study.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ssfa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2% replica of the paper's fleet: ~780 systems, ~36,000 disks,
    // 44 months of operation. Fully deterministic for a given seed —
    // including the thread count: the streaming pipeline classifies
    // per-system log shards on 8 workers and merges bit-identically.
    let pipeline = ssfa::Pipeline::new().scale(0.02).seed(42).threads(8);
    let (study, _, _) = pipeline.run()?;

    println!(
        "fleet: {} systems, {} disks ever installed, {:.0} disk-years, {} subsystem failures\n",
        study.input().topology.systems.len(),
        study.input().lifetimes.len(),
        study.input().total_disk_years(),
        study.input().failures.len(),
    );

    // The paper's headline: disks are NOT the dominant contributor.
    println!("AFR by system class and failure type (Figure 4(b), excluding Disk H):\n");
    println!(
        "{:<11} {:>7} {:>13} {:>9} {:>12} {:>7}",
        "class", "disk", "interconnect", "protocol", "performance", "total"
    );
    let by_class = study.afr_by_class(false);
    for class in SystemClass::ALL {
        let b = &by_class[&class];
        println!(
            "{:<11} {:>6.2}% {:>12.2}% {:>8.2}% {:>11.2}% {:>6.2}%",
            class.label(),
            b.afr(FailureType::Disk) * 100.0,
            b.afr(FailureType::PhysicalInterconnect) * 100.0,
            b.afr(FailureType::Protocol) * 100.0,
            b.afr(FailureType::Performance) * 100.0,
            b.total_afr() * 100.0,
        );
    }

    let le = &by_class[&SystemClass::LowEnd];
    let share = le.share(FailureType::Disk).unwrap_or(0.0);
    println!(
        "\nIn low-end systems, disk failures are only {:.0}% of subsystem failures —",
        share * 100.0
    );
    println!("physical interconnects dominate, exactly as the paper found.\n");

    // Re-check all eleven findings against this synthetic dataset.
    let report = FindingsReport::evaluate(&study);
    for finding in &report.findings {
        println!(
            "[{}] Finding {:>2}: {}",
            if finding.pass { "PASS" } else { "FAIL" },
            finding.id,
            finding.title
        );
    }
    println!(
        "\n{}/11 of the paper's findings reproduced at this scale",
        report.findings.iter().filter(|f| f.pass).count()
    );
    Ok(())
}
