//! Statistical timing with systematic-variation aware gate-length
//! distributions — the paper's §6 future work ("statistical timing
//! methodology with more realistic gate length distribution based on
//! iso-dense attributes and proximity spatial information, as opposed to
//! the simplistic Gaussian distribution").
//!
//! Two Monte-Carlo models are provided:
//!
//! * [`GateLengthModel::SimplisticGaussian`] — every device draws
//!   independently from the same `N(L_nom, σ)`, the strawman the paper
//!   criticizes;
//! * [`GateLengthModel::SystematicAware`] — each device starts from its
//!   in-context printed CD, shares a die-level defocus draw whose CD
//!   effect is *quadratic* with the smile/frown sign of the device's
//!   class (Bossung behaviour), shares a die-level dose draw, and adds
//!   only the residual random component.
//!
//! The two models bracket reality from opposite sides. The independent
//! Gaussian is *optimistic*: uncorrelated per-device draws average out
//! along a timing path, so it under-predicts the delay spread. The aware
//! model carries the die-shared focus and dose draws as perfectly
//! correlated components (they do not average) yet still lands far inside
//! the corner spread, because corners assume every device sits at the full
//! ±Δ excursion simultaneously.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use svt_netlist::MappedNetlist;
use svt_place::Placement;
use svt_sta::{analyze, AnalysisInputs, CellBinding, TimingOptions};
use svt_stdcell::{characterize, CellContext, CharacterizeOptions, ExpandedLibrary, Library};

use crate::flow::FlowError;
use crate::{classify_device, DeviceClass, VariationBudget};

/// The per-device gate-length sampling model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateLengthModel {
    /// Independent identical Gaussians around the drawn length.
    SimplisticGaussian,
    /// In-context nominal + signed shared focus + shared dose + residual.
    SystematicAware,
}

/// Monte-Carlo options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOptions {
    /// Sample count.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Variation budget shared with the corner flows.
    pub budget: VariationBudget,
    /// STA boundary conditions.
    pub timing: TimingOptions,
    /// Characterization options.
    pub characterize: CharacterizeOptions,
    /// Contacted pitch for device classification.
    pub contacted_pitch_nm: f64,
}

impl Default for MonteCarloOptions {
    fn default() -> MonteCarloOptions {
        MonteCarloOptions {
            samples: 200,
            seed: 7,
            budget: VariationBudget::default(),
            timing: TimingOptions::default(),
            characterize: CharacterizeOptions::default(),
            contacted_pitch_nm: 300.0,
        }
    }
}

/// The sampled circuit-delay distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayDistribution {
    /// Which model produced it.
    pub model: GateLengthModel,
    /// All sampled circuit delays (ns), sorted ascending.
    pub delays_ns: Vec<f64>,
}

impl DelayDistribution {
    /// Sample mean.
    ///
    /// # Panics
    ///
    /// Panics on an empty distribution (the sampler never produces one).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        assert!(!self.delays_ns.is_empty(), "empty distribution");
        self.delays_ns.iter().sum::<f64>() / self.delays_ns.len() as f64
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_ns(&self) -> f64 {
        let m = self.mean_ns();
        let var = self
            .delays_ns
            .iter()
            .map(|d| (d - m) * (d - m))
            .sum::<f64>()
            / self.delays_ns.len() as f64;
        var.sqrt()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.delays_ns.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.delays_ns[idx]
    }

    /// The 0.1 %→99.9 % spread — the statistical analogue of the BC→WC
    /// corner spread.
    #[must_use]
    pub fn spread_ns(&self) -> f64 {
        self.quantile_ns(0.999) - self.quantile_ns(0.001)
    }

    /// Parametric timing yield at a clock period: the fraction of sampled
    /// dies whose circuit delay meets the period.
    ///
    /// # Panics
    ///
    /// Panics on an empty distribution.
    #[must_use]
    pub fn yield_at(&self, clock_period_ns: f64) -> f64 {
        assert!(!self.delays_ns.is_empty(), "empty distribution");
        let meeting = self.delays_ns.partition_point(|&d| d <= clock_period_ns);
        meeting as f64 / self.delays_ns.len() as f64
    }
}

/// Monte-Carlo statistical timing over a placed design.
#[derive(Debug, Clone)]
pub struct MonteCarloSta<'a> {
    library: &'a Library,
    expanded: &'a ExpandedLibrary,
    options: MonteCarloOptions,
}

impl<'a> MonteCarloSta<'a> {
    /// Creates the sampler.
    #[must_use]
    pub fn new(
        library: &'a Library,
        expanded: &'a ExpandedLibrary,
        options: MonteCarloOptions,
    ) -> MonteCarloSta<'a> {
        MonteCarloSta {
            library,
            expanded,
            options,
        }
    }

    /// Samples the circuit-delay distribution under a gate-length model.
    ///
    /// # Errors
    ///
    /// Propagates placement-query, characterization, and STA failures.
    pub fn sample(
        &self,
        netlist: &MappedNetlist,
        placement: &Placement,
        model: GateLengthModel,
    ) -> Result<DelayDistribution, FlowError> {
        let opts = &self.options;
        let l_nom = opts.characterize.nominal_length_nm;
        let delta = opts.budget.delta_nm(l_nom);
        let lvar_pitch = opts.budget.lvar_pitch_nm(l_nom);
        let lvar_focus = opts.budget.lvar_focus_nm(l_nom);
        // 3σ conventions: the corner excursion is a 3σ event.
        let sigma_total = delta / 3.0;
        let residual = (delta - lvar_pitch - lvar_focus).max(0.0);
        let sigma_residual = residual / 3.0;

        // Per-instance context variants and device classes.
        let contexts = placement.instance_contexts(netlist, self.library)?;
        let sites = placement.device_sites(netlist, self.library)?;
        let mut classes: Vec<Vec<DeviceClass>> = netlist
            .instances()
            .iter()
            .map(|inst| {
                let n = self
                    .library
                    .cell(&inst.cell)
                    .map(|c| c.layout().devices().len())
                    .unwrap_or(0);
                vec![DeviceClass::Isolated; n]
            })
            .collect();
        for s in &sites {
            classes[s.instance][s.device.0] = classify_device(
                s.left_space,
                s.right_space,
                opts.contacted_pitch_nm,
                s.span_abs.1 - s.span_abs.0,
            );
        }

        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let mut delays = Vec::with_capacity(opts.samples);
        for _ in 0..opts.samples {
            // Die-shared draws for the aware model.
            let z = normal(&mut rng); // defocus in σ units, z_corner = 3σ
            let focus_frac = (z / 3.0).clamp(-1.0, 1.0);
            // Bossung: CD shift grows quadratically with defocus and is
            // capped at lvar_focus at the corner.
            let focus_shift = lvar_focus * focus_frac * focus_frac;
            let dose = normal(&mut rng) / 3.0; // shared dose in corner units
            let dose_shift = 0.25 * lvar_pitch * dose.clamp(-1.0, 1.0);

            let mut cells = Vec::with_capacity(netlist.instances().len());
            for (idx, inst) in netlist.instances().iter().enumerate() {
                let cell =
                    self.library
                        .cell(&inst.cell)
                        .ok_or_else(|| FlowError::Inconsistent {
                            reason: format!("unknown cell `{}`", inst.cell),
                        })?;
                let n = cell.layout().devices().len();
                let lengths: Vec<f64> = match model {
                    GateLengthModel::SimplisticGaussian => (0..n)
                        .map(|_| l_nom + sigma_total * normal(&mut rng))
                        .collect(),
                    GateLengthModel::SystematicAware => {
                        let variant = self
                            .expanded
                            .variant(&inst.cell, contexts[idx])
                            .or_else(|| self.expanded.variant(&inst.cell, CellContext::default()))
                            .ok_or_else(|| FlowError::Inconsistent {
                                reason: format!("no variant for `{}`", inst.cell),
                            })?;
                        (0..n)
                            .map(|d| {
                                let base = variant.device_lengths_nm[d];
                                let signed_focus = match classes[idx][d] {
                                    DeviceClass::Dense => focus_shift,
                                    DeviceClass::Isolated => -focus_shift,
                                    DeviceClass::SelfCompensated => 0.0,
                                };
                                base + signed_focus + dose_shift + sigma_residual * normal(&mut rng)
                            })
                            .collect()
                    }
                };
                let lengths: Vec<f64> = lengths.into_iter().map(|l| l.max(10.0)).collect();
                cells.push(characterize(cell, &lengths, "mc", opts.characterize)?);
            }
            let binding = CellBinding::new(netlist, cells)?;
            let state = analyze(netlist, &binding, &opts.timing, &AnalysisInputs::default())?;
            delays.push(state.report().circuit_delay_ns());
        }
        delays.sort_by(f64::total_cmp);
        Ok(DelayDistribution {
            model,
            delays_ns: delays,
        })
    }
}

/// A standard-normal draw via Box–Muller.
fn normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_litho::Process;
    use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
    use svt_place::{place, PlacementOptions};
    use svt_stdcell::{expand_library, ExpandOptions};

    fn setup() -> (
        Library,
        ExpandedLibrary,
        MappedNetlist,
        svt_place::Placement,
    ) {
        let library = Library::svt90();
        let sim = Process::nm90().simulator();
        let expanded =
            expand_library(&library, &sim, &ExpandOptions::fast()).expect("expansion succeeds");
        let netlist = generate_benchmark(&BenchmarkProfile::custom("mc", 6, 3, 30, 5));
        let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
        let placement = place(&mapped, &library, &PlacementOptions::default()).expect("placement");
        (library, expanded, mapped, placement)
    }

    fn mc_options(samples: usize) -> MonteCarloOptions {
        MonteCarloOptions {
            samples,
            ..MonteCarloOptions::default()
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (library, expanded, mapped, placement) = setup();
        let mc = MonteCarloSta::new(&library, &expanded, mc_options(16));
        let a = mc
            .sample(&mapped, &placement, GateLengthModel::SimplisticGaussian)
            .expect("samples");
        let b = mc
            .sample(&mapped, &placement, GateLengthModel::SimplisticGaussian)
            .expect("samples");
        assert_eq!(a, b);
    }

    #[test]
    fn aware_distribution_sits_between_gaussian_and_corners() {
        let (library, expanded, mapped, placement) = setup();
        let mc = MonteCarloSta::new(&library, &expanded, mc_options(150));
        let gaussian = mc
            .sample(&mapped, &placement, GateLengthModel::SimplisticGaussian)
            .expect("samples");
        let aware = mc
            .sample(&mapped, &placement, GateLengthModel::SystematicAware)
            .expect("samples");
        // Corner spread: every device simultaneously at ±Δ.
        let opts = mc_options(1);
        let corners = opts.budget.traditional_corners(90.0);
        let delay_at = |l: f64| {
            let b = CellBinding::uniform_scaled(&mapped, &library, l).expect("binding");
            analyze(&mapped, &b, &opts.timing, &AnalysisInputs::default())
                .expect("sta")
                .report()
                .circuit_delay_ns()
        };
        let corner_spread = delay_at(corners.wc_nm) - delay_at(corners.bc_nm);
        // Both statistical models stay well inside the corner spread —
        // corners assume all devices at ±Δ simultaneously.
        for d in [&gaussian, &aware] {
            assert!(
                d.spread_ns() < 0.8 * corner_spread,
                "{:?} spread {:.4} should sit well inside the corner spread {:.4}",
                d.model,
                d.spread_ns(),
                corner_spread
            );
        }
        // The two models are distinct distributions: the aware one is
        // shifted by the in-context printed CDs.
        assert!(
            (gaussian.mean_ns() - aware.mean_ns()).abs() > 1e-4,
            "context must shift the aware mean: {:.4} vs {:.4}",
            gaussian.mean_ns(),
            aware.mean_ns()
        );
        // And they are the same order of magnitude — neither collapses.
        let ratio = aware.spread_ns() / gaussian.spread_ns();
        assert!((0.3..3.0).contains(&ratio), "spread ratio {ratio:.2}");
    }

    #[test]
    fn distribution_statistics_are_consistent() {
        let (library, expanded, mapped, placement) = setup();
        let mc = MonteCarloSta::new(&library, &expanded, mc_options(64));
        let d = mc
            .sample(&mapped, &placement, GateLengthModel::SystematicAware)
            .expect("samples");
        assert_eq!(d.delays_ns.len(), 64);
        assert!(d.delays_ns.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(d.quantile_ns(0.0) <= d.mean_ns());
        assert!(d.mean_ns() <= d.quantile_ns(1.0));
        assert!(d.spread_ns() >= 0.0);
        assert!(d.std_ns() > 0.0);
    }

    #[test]
    fn yield_is_monotone_in_the_clock() {
        let d = DelayDistribution {
            model: GateLengthModel::SimplisticGaussian,
            delays_ns: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(d.yield_at(0.5), 0.0);
        assert_eq!(d.yield_at(2.0), 0.5);
        assert_eq!(d.yield_at(10.0), 1.0);
        assert!(d.yield_at(2.5) <= d.yield_at(3.5));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_validates_input() {
        let d = DelayDistribution {
            model: GateLengthModel::SimplisticGaussian,
            delays_ns: vec![1.0, 2.0],
        };
        let _ = d.quantile_ns(1.5);
    }
}
