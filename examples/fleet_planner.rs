//! Fleet planner: pick components for a new deployment using the study's
//! failure model.
//!
//! The paper's practical upshot (Findings 3, 6, 7) is that component
//! *selection* and *pairing* matter: a disk model that looks fine on its
//! datasheet can pair badly with a shelf enclosure, and skipping the
//! redundant interconnect costs more reliability than a slightly better
//! disk buys. This example evaluates candidate mid-range configurations —
//! disk model × shelf model × path config — on identical simulated demand
//! and ranks them by expected subsystem failures.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fleet_planner
//! ```

use ssfa::prelude::*;
use ssfa_model::config::ClassConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let candidates = [
        ("C-2", ShelfModel::B, 0.0),
        ("C-2", ShelfModel::C, 0.0),
        ("D-2", ShelfModel::B, 0.0),
        ("D-2", ShelfModel::C, 0.0),
        ("D-2", ShelfModel::C, 1.0),
        ("H-1", ShelfModel::C, 1.0),
    ];

    println!("Evaluating mid-range deployment options (400 systems, ~35k disks each):\n");
    println!(
        "{:>6} {:>7} {:>7} | {:>9} {:>13} {:>9} | {:>22}",
        "disk", "shelf", "paths", "disk AFR", "interconnect", "total", "failures per year"
    );
    println!(
        "{:>6} {:>7} {:>7} | {:>9} {:>13} {:>9} | {:>22}",
        "", "", "", "", "AFR", "AFR", "per 10,000 disks"
    );

    let mut results = Vec::new();
    for (disk, shelf, dual_fraction) in candidates {
        let model = DiskModelId::parse(disk).expect("catalog model");
        let base = FleetConfig::paper();
        let template = base
            .class(SystemClass::MidRange)
            .expect("mid-range in paper config");
        let class_config = ClassConfig {
            n_systems: 400,
            dual_path_fraction: dual_fraction,
            mix: vec![(shelf, model, 1.0)],
            ..template.clone()
        };
        let config = FleetConfig {
            classes: vec![class_config],
            ..base
        };
        let (study, _, _) = ssfa::Pipeline::new().config(config).seed(3).run()?;

        let by_class = study.afr_by_class(true);
        let b = &by_class[&SystemClass::MidRange];
        let per_10k = b.total_afr() * 10_000.0;
        println!(
            "{:>6} {:>7} {:>7} | {:>8.2}% {:>12.2}% {:>8.2}% | {:>22.0}",
            disk,
            shelf.letter(),
            if dual_fraction > 0.0 {
                "dual"
            } else {
                "single"
            },
            b.afr(FailureType::Disk) * 100.0,
            b.afr(FailureType::PhysicalInterconnect) * 100.0,
            b.total_afr() * 100.0,
            per_10k,
        );
        results.push((disk, shelf, dual_fraction, per_10k));
    }

    results.sort_by(|a, b| f64::total_cmp(&a.3, &b.3));
    let best = &results[0];
    let worst = results.last().expect("non-empty");
    println!(
        "\nbest option: Disk {} + Shelf {} + {} paths ({:.0} failures/yr per 10k disks)",
        best.0,
        best.1.letter(),
        if best.2 > 0.0 { "dual" } else { "single" },
        best.3
    );
    println!(
        "worst option: Disk {} + Shelf {} ({:.0} failures/yr per 10k disks, {:.1}x the best)",
        worst.0,
        worst.1.letter(),
        worst.3,
        worst.3 / best.3
    );
    println!("\nNote how the dual-path D-2 config beats every single-path option even");
    println!("though its disks are identical — the study's central message.");
    Ok(())
}
