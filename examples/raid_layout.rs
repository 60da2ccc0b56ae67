//! RAID layout study: should a RAID group span shelves?
//!
//! The paper (§5.1, Findings 9–10) argues that building RAID groups from
//! disks spanning multiple shelf enclosures reduces how bursty the failures
//! hitting one group are — which matters because a RAID4 group dies on the
//! second concurrent failure and a RAID6 group on the third. This example
//! compares the two layout policies on the same fleet and reports
//! burst behaviour *and* the probability of a group seeing 2+ failures in
//! one year (the precursor of data loss).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example raid_layout
//! ```

use ssfa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Comparing RAID group layouts on an identical fleet (3% scale)...\n");
    println!(
        "{:>13} {:>14} {:>16} {:>18} {:>14}",
        "layout", "RG gaps", "P(gap < 10^4 s)", "P(2+ fails/RG-yr)", "P(2)/P(1)^2/2"
    );

    for layout in [LayoutPolicy::SpanShelves, LayoutPolicy::SameShelf] {
        let (study, _, _) = ssfa::Pipeline::new()
            .scale(0.03)
            .seed(11)
            .layout(layout)
            .run()?;

        let tbf = study.tbf(Scope::RaidGroup);
        let corr = study.correlation(Scope::RaidGroup, SimDuration::from_years(1.0));
        // Aggregate 2+-failure probability across types via the overall
        // interconnect row (the type RAID is most exposed to).
        let ic = corr[FailureType::PhysicalInterconnect.index()];
        println!(
            "{:>13} {:>14} {:>15.1}% {:>17.2}% {:>13}",
            layout.label(),
            tbf.overall().len(),
            tbf.overall().fraction_within(1e4) * 100.0,
            ic.empirical_p2 * 100.0,
            ic.inflation
                .map(|x| format!("x{x:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    println!();
    println!("Spanning shelves dilutes every shared failure domain (cooling, backplane,");
    println!("driver version) across many RAID groups, so no single group absorbs a");
    println!("whole burst. The paper observed the same: 30% of same-RAID-group failure");
    println!("gaps under 10^4 s for spanning layouts vs 48% at shelf scope.");
    Ok(())
}
