//! Multipath trade-off explorer: how much reliability does a redundant FC
//! network actually buy?
//!
//! The paper (§4.3, Figure 7) finds that subsystems configured with two
//! independent interconnects see 50–60% fewer exposed physical-interconnect
//! failures and 30–40% lower overall subsystem AFR. This example sweeps the
//! *fraction of the fleet* configured with dual paths and reports the
//! fleet-wide effect — the view a capacity planner deciding on cabling
//! budgets actually needs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multipath_tradeoff
//! ```

use ssfa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Sweeping dual-path adoption across the mid-range + high-end fleet...\n");
    println!(
        "{:>10} {:>14} {:>14} {:>16}",
        "dual-path", "interconnect", "subsystem", "failures avoided"
    );
    println!(
        "{:>10} {:>14} {:>14} {:>16}",
        "fraction", "AFR", "AFR", "per 10k disk-yrs"
    );

    let mut baseline_total = None;
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut config = FleetConfig::paper()
            .scaled(0.03)
            .only_classes(&[SystemClass::MidRange, SystemClass::HighEnd]);
        for class in &mut config.classes {
            class.dual_path_fraction = adoption;
        }
        let (study, _, _) = ssfa::Pipeline::new().config(config).seed(7).run()?;

        let by_class = study.afr_by_class(true);
        let mut merged = AfrBreakdown::empty();
        for b in by_class.values() {
            merged.merge(b);
        }
        let total = merged.total_afr();
        let baseline = *baseline_total.get_or_insert(total);
        println!(
            "{:>9.0}% {:>13.2}% {:>13.2}% {:>16.1}",
            adoption * 100.0,
            merged.afr(FailureType::PhysicalInterconnect) * 100.0,
            total * 100.0,
            (baseline - total) * 10_000.0,
        );
    }

    println!();
    println!("The paper's fleets sat at ~1/3 adoption. Full adoption removes roughly");
    println!("half of all interconnect failures from the RAID layer's workload —");
    println!("failures RAID was never designed to tolerate in the first place.");
    Ok(())
}
