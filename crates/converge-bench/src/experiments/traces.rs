//! Figs. 20–22 — the bandwidth dynamics of the three scenarios
//! (stationary, walking, driving) as synthesized by the trace generator.

use converge_net::{trace, Carrier, Scenario, SimDuration, SimTime};

use crate::runner::Scale;
use crate::sweep::ExperimentSpec;

/// Declares the trace regeneration as a zero-job experiment: synthesis is
/// cheap and deterministic, so there is nothing to farm out to the pool —
/// the fold does all the work.
pub fn spec(scale: Scale) -> ExperimentSpec {
    ExperimentSpec {
        jobs: Vec::new(),
        fold: Box::new(move |_reports| render_traces(scale)),
    }
}

fn render_traces(scale: Scale) -> String {
    let duration = scale.duration();
    let mut out = String::new();
    out.push_str("# Figs. 20-22 — scenario bandwidth dynamics\n");
    for (fig, scenario) in [
        ("fig20-stationary", Scenario::Stationary),
        ("fig21-walking", Scenario::Walking),
        ("fig22-driving", Scenario::Driving),
    ] {
        out.push_str(&format!("## {fig}\n"));
        out.push_str("# columns: t_s wifi_mbps cellA_mbps cellB_mbps combined_cell_mbps\n");
        // Rates only: the delay the traces carry is not plotted.
        let synthesize =
            |carrier| trace::synthesize(scenario, carrier, SimDuration::ZERO, duration, 42);
        let wifi = synthesize(Carrier::Wifi);
        let cell_a = synthesize(Carrier::CellularA);
        let cell_b = synthesize(Carrier::CellularB);
        let secs = duration.as_secs_f64() as u64;
        let mut combined_below_10 = 0u64;
        for t in 0..secs {
            let at = SimTime::from_secs(t);
            let w = wifi.rate_at(at) as f64 / 1e6;
            let a = cell_a.rate_at(at) as f64 / 1e6;
            let b = cell_b.rate_at(at) as f64 / 1e6;
            if a + b < 10.0 {
                combined_below_10 += 1;
            }
            out.push_str(&format!("{t} {w:.2} {a:.2} {b:.2} {:.2}\n", a + b));
        }
        out.push_str(&format!(
            "# {fig} summary: wifi mean {:.1} Mbps, cellA mean {:.1} Mbps, cellB mean {:.1} Mbps, combined-cell < 10 Mbps for {combined_below_10}/{secs} s\n",
            wifi.mean_rate() as f64 / 1e6,
            cell_a.mean_rate() as f64 / 1e6,
            cell_b.mean_rate() as f64 / 1e6,
        ));
    }
    out.push_str("# paper shape: stationary traces rarely dip below the required rate;\n");
    out.push_str("# walking dips occasionally; driving varies violently and even the\n");
    out.push_str("# combined cellular rate briefly falls below the demand.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driving_combined_sometimes_insufficient() {
        let out = crate::sweep::render(spec(Scale::Quick), crate::sweep::CellCache::global());
        assert!(out.contains("fig22-driving"));
        // The driving summary line reports the insufficient seconds; at
        // minimum the stationary trace must have fewer such seconds than
        // driving (shape check).
        let grab = |tag: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(&format!("# {tag} summary")))
                .and_then(|l| l.split("combined-cell < 10 Mbps for ").nth(1))
                .and_then(|s| s.split('/').next())
                .and_then(|s| s.parse().ok())
                .expect("summary line")
        };
        assert!(grab("fig20-stationary") <= grab("fig22-driving"));
    }
}
