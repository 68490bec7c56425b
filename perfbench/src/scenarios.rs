//! The inputs of each workload, generated from the workload seed: scenario
//! scripts, catalogs, configurations, and the run sizes.

use std::sync::Arc;

use jigsaw_blackbox::models::{Capacity, Demand, UserProfile, UserSelection};
use jigsaw_blackbox::FnBlackBox;
use jigsaw_core::JigsawConfig;
use jigsaw_pdb::{Catalog, ColumnType, TableBuilder, Value};

/// Mix a seed with a stream index (one SplitMix64 step, so neighbouring
/// indices give unrelated seeds).
pub fn mix(seed: u64, stream: u64) -> u64 {
    jigsaw_prng::splitmix::mix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sizes of one run. [`Scale::full`] is what the benchmark measures;
/// [`Scale::micro`] shrinks every input so the self-tests finish quickly.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Set-ups timed per run (their median is `setup_s`).
    pub setups: usize,
    /// Last week of the Figure 1 `@current_week` range.
    pub week_hi: i64,
    /// Step of the Figure 1 purchase-date ranges.
    pub purchase_step: i64,
    /// Samples per point of the Figure 1 scenario.
    pub capacity_n: usize,
    /// Tenants in the `users` table.
    pub tenants: usize,
    /// Samples per point of the tenant roll-up.
    pub tenant_n: usize,
    /// Offered `ESTIMATE` rate of the reader connection.
    pub read_rps: f64,
    /// Period of the writer sessions, in seconds.
    pub write_period_s: f64,
    /// Distinct (point, column) keys the reader draws from.
    pub read_keys: usize,
    /// Cold estimates per writer session.
    pub write_estimates: usize,
    /// Seconds of served traffic in a traced run of a batch workload.
    pub probe_seconds: f64,
    /// Queries of the batch probe in a traced run of `dashboard_mix`.
    pub probe_queries: usize,
    /// Seconds per rate step when searching `read_max_rps`.
    pub ladder_step_s: f64,
    /// Repetitions of each micro-benchmark in the layer probes.
    pub reps: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            // A set-up is short (about one query), so a brief slow moment
            // at start-up can move a few of them; the median of 11 rides
            // it out.
            setups: 11,
            week_hi: 51,
            purchase_step: 8,
            capacity_n: 1000,
            tenants: 500,
            tenant_n: 200,
            // About 1/8 of one connection's closed-loop capacity (~120 µs
            // per warm ESTIMATE), so reads queue little; 50 000 reads in
            // 50 s leave 50 beyond the p99.9 tail.
            read_rps: 1000.0,
            // A writer session alone takes ~0.2 s, so one a second never
            // waits for the one before it.
            write_period_s: 1.0,
            // Bounds the reference replies set-up records (README.md:
            // "Traffic values").
            read_keys: 512,
            write_estimates: 8,
            probe_seconds: 4.0,
            probe_queries: 5,
            ladder_step_s: 0.5,
            reps: 200,
        }
    }

    /// Tiny sizes for the self-tests.
    pub fn micro() -> Scale {
        Scale {
            setups: 1,
            week_hi: 7,
            purchase_step: 24,
            capacity_n: 60,
            tenants: 8,
            tenant_n: 30,
            read_rps: 300.0,
            write_period_s: 0.25,
            read_keys: 16,
            write_estimates: 2,
            probe_seconds: 0.6,
            probe_queries: 2,
            ladder_step_s: 0.1,
            reps: 5,
        }
    }
}

/// A what-if scenario: catalog, script, and the configuration it runs at.
#[derive(Clone)]
pub struct Spec {
    /// Which scenario (for notes).
    pub label: &'static str,
    /// Models and tables the script compiles against.
    pub catalog: Arc<Catalog>,
    /// The shared scenario script.
    pub sql: String,
    /// Scenario scripts for writer sessions: variant `k` is a fresh store.
    pub variant: Arc<dyn Fn(u64) -> String + Send + Sync>,
    /// Sweep configuration (thread budget 2).
    pub cfg: JigsawConfig,
    /// Black-box functions the scenario calls, with an argument row each.
    pub calls: Vec<(&'static str, Vec<f64>)>,
    /// The random draws the scenario's models make.
    pub draws: Draws,
    /// Per output column, the tolerance a reuse sweep must meet against
    /// the naive sweep (experiment E2's rule: up to `1e-3` per point,
    /// above that on the mean absolute deviation).
    pub tolerances: Vec<f64>,
}

/// The distribution mix of a scenario's models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draws {
    /// Demand's normals and Capacity's exponential delays.
    NormalExponential,
    /// The tenant model's gamma requirements.
    Gamma,
}

/// Threads every sweep runs with (the machine has two cores).
pub const THREADS: usize = 2;

fn figure1_sql(week_hi: i64, step: i64, threshold: &str) -> String {
    format!(
        "DECLARE PARAMETER @current_week AS RANGE 0 TO {week_hi} STEP BY 1;
         DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY {step};
         DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY {step};
         DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
         SELECT DemandModel(@current_week, @feature_release) AS demand,
                CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
                CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
         INTO results;
         OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
         FROM results
         WHERE MAX(EXPECT overload) < {threshold}
         GROUP BY feature_release, purchase1, purchase2
         FOR MAX @purchase1, MAX @purchase2"
    )
}

/// The paper's Figure 1 capacity-planning scenario (`examples/
/// capacity_planning.rs`) on the enterprise Demand/Capacity models.
pub fn capacity(seed: u64, scale: &Scale) -> Spec {
    let mut catalog = Catalog::new();
    catalog.add_function_as("DemandModel", Arc::new(Demand::enterprise()));
    catalog.add_function_as("CapacityModel", Arc::new(Capacity::enterprise()));
    let (hi, step) = (scale.week_hi, scale.purchase_step);
    // Writer variants: a seed-chosen horizon and a threshold unique to the
    // variant index, so each one compiles to a store nobody has built yet.
    let variant = Arc::new(move |k: u64| {
        let h = mix(seed, 0x7A21 + k);
        let week_hi = hi - (h % 6) as i64;
        figure1_sql(week_hi.max(1), step, &format!("{:.6}", 0.005 + (k % 100_000) as f64 * 1e-6))
    });
    Spec {
        label: "figure1",
        catalog: Arc::new(catalog),
        sql: figure1_sql(hi, step, "0.01"),
        variant,
        cfg: JigsawConfig::paper().with_n_samples(scale.capacity_n).with_threads(THREADS),
        calls: vec![("DemandModel", vec![26.0, 36.0]), ("CapacityModel", vec![26.0, 16.0, 32.0])],
        draws: Draws::NormalExponential,
        // Demand is affine-exact; capacity and overload have discrete
        // outputs whose fingerprints merge near regime crossings.
        tolerances: vec![1e-6, 0.02, 0.02],
    }
}

fn tenant_sql(threshold: f64) -> String {
    format!(
        "DECLARE PARAMETER @week AS RANGE 0 TO 51 STEP BY 1;
         SELECT SUM(UserReq(id, base, growth, shape, @week)) AS total FROM users INTO results;
         OPTIMIZE SELECT @week FROM results
         WHERE MAX(EXPECT total) < {threshold:.6}
         GROUP BY week
         FOR MAX @week"
    )
}

/// The tenant roll-up: a seed-generated `users` table summed over 52 weeks.
/// Every week is its own basis (zero reuse), so world evaluation does the
/// work.
pub fn tenant(seed: u64, scale: &Scale) -> Spec {
    let population = UserSelection::synthetic(scale.tenants, seed);
    let mut table = TableBuilder::new()
        .column("id", ColumnType::Int)
        .column("base", ColumnType::Float)
        .column("growth", ColumnType::Float)
        .column("shape", ColumnType::Float);
    for (i, u) in population.users().iter().enumerate() {
        table = table.row(vec![
            Value::Int(i as i64),
            Value::Float(u.base),
            Value::Float(u.growth),
            Value::Float(u.shape),
        ]);
    }
    let mut catalog = Catalog::new();
    catalog.add_table("users", table.build());
    // `id` folds into the seed so every tenant draws its own stream.
    catalog.add_function(Arc::new(FnBlackBox::new("UserReq", 5, |p: &[f64], seed| {
        let profile = UserProfile { base: p[1], growth: p[2], shape: p[3] };
        UserSelection::user_requirement(&profile, p[4], seed.derive(p[0] as u64))
    })));
    // Expected total at week w is Σ base·(1 + growth·w); a threshold at
    // week 30.5 keeps the goal feasible with an interior answer.
    let expected =
        |w: f64| population.users().iter().map(|u| u.base * (1.0 + u.growth * w)).sum::<f64>();
    let threshold = expected(30.5);
    let step = expected(1.0) - expected(0.0);
    let variant =
        Arc::new(move |k: u64| tenant_sql(threshold + step * (0.1 + (k % 1000) as f64 * 1e-3)));
    let first = population.users()[0];
    Spec {
        label: "tenant",
        catalog: Arc::new(catalog),
        sql: tenant_sql(threshold),
        variant,
        cfg: JigsawConfig::paper().with_n_samples(scale.tenant_n).with_threads(THREADS),
        calls: vec![("UserReq", vec![0.0, first.base, first.growth, first.shape, 26.0])],
        draws: Draws::Gamma,
        tolerances: vec![1e-6],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_compile_and_variants_are_fresh() {
        let s = Scale::micro();
        for spec in [capacity(3, &s), tenant(3, &s)] {
            let sc = jigsaw_sql::compile(&spec.sql, &spec.catalog).expect("shared compiles");
            assert!(sc.goal.is_some());
            let (a, b) = ((spec.variant)(0), (spec.variant)(1));
            assert_ne!(a, b);
            jigsaw_sql::compile(&a, &spec.catalog).expect("variant compiles");
        }
        assert_eq!(tenant(3, &s).sql, tenant(3, &s).sql, "inputs come from the seed");
        assert_ne!(tenant(3, &s).sql, tenant(4, &s).sql);
    }
}
