//! Figure 13: comparison with the TensorFlow-based approaches on the
//! V100 16 GB.
//!
//! vDNN, AutoTM, SwapAdvisor, Capuchin, Sentinel, DeepUM, and Ideal run
//! on the Section 6.4 workloads (ResNet-200/CIFAR-10, BERT-Large/CoLA,
//! DCGAN/celebA, MobileNet/CIFAR-100), and speedups over naive UM are
//! reported.

use deepum_baselines::suite::System;

use super::{report, section, Grid, Reports, Verdict};
use crate::grids::FIG13_GRID;
use crate::table::num;

/// The TensorFlow-based systems (Fig. 13 and Table 7), in presentation
/// order.
pub fn tf_systems() -> Vec<System> {
    vec![
        System::Vdnn,
        System::AutoTm,
        System::SwapAdvisor,
        System::Capuchin,
        System::Sentinel,
    ]
}

/// The Fig. 13 systems: the TF-based ones, DeepUM, and Ideal.
pub fn systems() -> Vec<System> {
    let mut systems = tf_systems();
    systems.extend([System::deepum(), System::Ideal]);
    systems
}

/// Paper, Fig. 13.
pub const PAPER: &str = "DeepUM beats vDNN/AutoTM/SwapAdvisor/Capuchin and is comparable to \
Sentinel, while being the only fully transparent system; vDNN cannot run BERT.";

/// The systems the paper shows DeepUM beating.
pub const BEATEN: [&str; 4] = ["vdnn", "autotm", "swapadvisor", "capuchin"];

/// Fig. 13: speedup over naive UM.
pub fn render(reports: &Reports) -> String {
    let systems = systems();
    let mut g = Grid::new(systems.iter().map(System::label));
    for &(model, batch) in FIG13_GRID {
        let run = |tag| report(reports, "16g-", model, batch, tag);
        let values = systems
            .iter()
            .map(|s| Some(run(s.label())?.speedup_over(run("um")?)))
            .collect();
        g.push(model.label(), Some(batch), values);
    }
    section(
        "Fig. 13 — TF-based comparison, V100 16 GB",
        PAPER,
        &[g.table(
            "Fig 13: speedup over naive UM (V100 16GB, TF-based comparison)",
            |_, v| format!("{v:.2}"),
        )],
        &[deepum_at_least_beaten_systems(&g)],
    )
}

/// DeepUM is at least as fast as each of [`BEATEN`] wherever both ran.
pub fn deepum_at_least_beaten_systems(speedup: &Grid) -> Verdict {
    Verdict::all(
        "deepum_at_least_beaten_systems",
        speedup.rows.iter().map(|row| {
            let d = speedup.get(row, "deepum");
            let others = BEATEN.map(|s| (s, speedup.get(row, s)));
            let ahead = others
                .iter()
                .all(|&(_, s)| !matches!((d, s), (Some(d), Some(s)) if d < s));
            let shown: Vec<String> = others
                .iter()
                .map(|(s, v)| format!("{s} {}", num(*v, 2)))
                .collect();
            (
                ahead,
                format!("{} DeepUM {} vs {}", row.model, num(d, 2), shown.join(", ")),
            )
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(vdnn: Option<f64>, deepum: f64) -> Grid {
        let mut g = Grid::new([
            "vdnn",
            "autotm",
            "swapadvisor",
            "capuchin",
            "sentinel",
            "deepum",
        ]);
        g.push(
            "dcgan",
            Some(8192),
            vec![
                vdnn,
                Some(1.2),
                Some(0.6),
                Some(2.0),
                Some(9.0),
                Some(deepum),
            ],
        );
        g
    }

    #[test]
    fn deepum_ahead_of_the_beaten_systems_holds() {
        // Sentinel is not among the beaten systems: the paper calls it
        // comparable.
        let v = deepum_at_least_beaten_systems(&grid(Some(3.0), 3.0));
        assert!(v.holds, "{}", v.detail);
        assert_eq!(
            v.detail,
            "dcgan DeepUM 3.00 vs vdnn 3.00, autotm 1.20, swapadvisor 0.60, capuchin 2.00"
        );
        // A system that did not run is not compared.
        assert!(deepum_at_least_beaten_systems(&grid(None, 2.5)).holds);
    }

    #[test]
    fn deepum_behind_one_is_a_deviation() {
        let v = deepum_at_least_beaten_systems(&grid(Some(3.41), 2.07));
        assert!(!v.holds);
        assert!(
            v.detail.starts_with("**dcgan DeepUM 2.07 vs vdnn 3.41,"),
            "{}",
            v.detail
        );
    }
}
