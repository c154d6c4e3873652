//! The benchmark matrix suite — synthetic stand-ins for the 30 University
//! of Florida matrices of the paper's Table 2.
//!
//! Each [`SuiteEntry`] records the *published* statistics (dimensions, nnz,
//! μ, σ) and a structure class chosen from the matrix's application domain.
//! [`SuiteEntry::spec`] derives a [`GeneratorSpec`] whose generated matrix
//! matches those statistics; a `scale` factor shrinks the matrix
//! proportionally (same μ and structure, fewer rows) so the full evaluation
//! can run quickly on a laptop while `--full` reproduces the paper-size
//! inputs.

use crate::generate::{GeneratorSpec, PlacementModel, RowLengthModel};

/// Which test set of the paper a matrix belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestSet {
    /// Representable in BRO-ELL alone (16 matrices).
    One,
    /// Requires BRO-HYB (14 matrices).
    Two,
}

/// Structural class of a matrix, set by its application domain. Controls
/// index locality (hence compressibility) and x-access locality.
#[derive(Debug, Clone, PartialEq)]
pub enum StructureClass {
    /// FEM-style: clustered consecutive runs near the diagonal.
    Fem {
        /// Band half-width as a fraction of the column count.
        rel_band: f64,
        /// Mean consecutive-run length.
        mean_run: f64,
    },
    /// 2D grid stencil (epidemiology / image style), 4 points.
    Lattice2d,
    /// 4D QCD lattice: 39 fixed offsets, zero row-length variance.
    LatticeQcd,
    /// Circuit-style: mixed diagonal/local and random couplings.
    Circuit {
        /// Fraction of entries in the diagonal band.
        banded_fraction: f64,
        /// Band half-width as a fraction of the column count.
        rel_band: f64,
    },
    /// Scale-free / heavy-tailed row lengths (web graphs, some circuits).
    HeavyTail {
        /// Bounded-Pareto tail exponent.
        alpha: f64,
        /// Largest row length.
        max_len: usize,
        /// Smallest row length.
        min_len: usize,
        /// Fraction of entries placed in a diagonal band.
        banded_fraction: f64,
    },
    /// A mostly-regular matrix with a small fraction of very heavy rows.
    MostlyRegularWithHeavy {
        /// Mean of the regular population.
        light_mean: f64,
        /// Std of the regular population.
        light_std: f64,
        /// Fraction of heavy rows.
        heavy_fraction: f64,
        /// Heavy row length range.
        heavy_range: (usize, usize),
        /// Band fraction for placement.
        banded_fraction: f64,
    },
    /// Very wide rows on a rectangular matrix (rail4284).
    WideRows {
        /// Bounded-Pareto tail exponent for row lengths.
        alpha: f64,
        /// Row length range.
        range: (usize, usize),
    },
}

/// One matrix of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// Matrix name as printed in the paper.
    pub name: &'static str,
    /// Which test set it belongs to.
    pub test_set: TestSet,
    /// Published row count.
    pub rows: usize,
    /// Published column count.
    pub cols: usize,
    /// Published number of non-zeros.
    pub nnz: usize,
    /// Published mean row length μ.
    pub mu: f64,
    /// Published row-length standard deviation σ.
    pub sigma: f64,
    /// Structure class inferred from the application domain.
    pub class: StructureClass,
}

/// An entry reads as its matrix name (e.g. to filter a set by name).
impl AsRef<str> for SuiteEntry {
    fn as_ref(&self) -> &str {
        self.name
    }
}

impl SuiteEntry {
    /// Derives a generator spec at the given scale (`1.0` = paper size).
    /// Scaling shrinks rows and columns while preserving μ, σ and the
    /// structure class.
    pub fn spec(&self, scale: f64) -> GeneratorSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let rows = ((self.rows as f64 * scale).round() as usize).max(64);
        let cols = ((self.cols as f64 * scale).round() as usize).max(64);
        let (row_lengths, placement) = self.models(cols);
        GeneratorSpec {
            name: self.name.to_string(),
            rows,
            cols,
            row_lengths,
            placement,
            // Stable per-matrix seed derived from the name.
            seed: self.name.bytes().fold(0x0BAD_5EED_u64, |h, b| {
                h.wrapping_mul(0x0000_0100_0000_01b3).wrapping_add(b as u64)
            }),
        }
    }

    fn models(&self, cols: usize) -> (RowLengthModel, PlacementModel) {
        let normal = |mu: f64, sigma: f64| RowLengthModel::Normal {
            mean: mu,
            std: sigma,
            min: 1,
            max: ((mu + 5.0 * sigma).ceil() as usize).max(2),
        };
        match &self.class {
            StructureClass::Fem { rel_band, mean_run } => (
                if self.sigma == 0.0 {
                    RowLengthModel::Constant(self.mu.round() as usize)
                } else {
                    normal(self.mu, self.sigma)
                },
                PlacementModel::BandedRuns {
                    bandwidth: ((cols as f64 * rel_band) as usize).max(8),
                    mean_run: *mean_run,
                },
            ),
            StructureClass::Lattice2d => {
                let side = (cols as f64).sqrt().round() as i64;
                (
                    RowLengthModel::Constant(self.mu.round() as usize),
                    PlacementModel::Lattice { offsets: vec![-side, -1, 1, side] },
                )
            }
            StructureClass::LatticeQcd => {
                // 39 = 1 (diagonal block) + 38 neighbour couplings; use a
                // symmetric 4D-lattice-like offset set.
                let mut offsets = vec![0i64, 1, 2];
                let side = (cols as f64).powf(0.25).round().max(2.0) as i64;
                for d in 0..4 {
                    let stride = side.pow(d) * 3;
                    for s in 1..=4 {
                        offsets.push(stride * s);
                        offsets.push(-(stride * s));
                    }
                }
                offsets.truncate(self.mu.round() as usize);
                (
                    RowLengthModel::Constant(self.mu.round() as usize),
                    PlacementModel::Lattice { offsets },
                )
            }
            StructureClass::Circuit { banded_fraction, rel_band } => (
                normal(self.mu, self.sigma),
                PlacementModel::Blend {
                    bandwidth: ((cols as f64 * rel_band) as usize).max(8),
                    banded_fraction: *banded_fraction,
                },
            ),
            StructureClass::HeavyTail { alpha, max_len, min_len, banded_fraction } => (
                RowLengthModel::PowerLaw {
                    min: *min_len,
                    max: (*max_len).min(cols),
                    alpha: *alpha,
                },
                PlacementModel::Blend {
                    bandwidth: (cols / 16).max(8),
                    banded_fraction: *banded_fraction,
                },
            ),
            StructureClass::MostlyRegularWithHeavy {
                light_mean,
                light_std,
                heavy_fraction,
                heavy_range,
                banded_fraction,
            } => (
                RowLengthModel::Mixture {
                    light: Box::new(normal(*light_mean, *light_std)),
                    heavy: Box::new(RowLengthModel::PowerLaw {
                        min: heavy_range.0,
                        max: heavy_range.1.min(cols),
                        alpha: 1.8,
                    }),
                    heavy_fraction: *heavy_fraction,
                },
                PlacementModel::Blend {
                    bandwidth: (cols / 16).max(8),
                    banded_fraction: *banded_fraction,
                },
            ),
            StructureClass::WideRows { alpha, range } => (
                RowLengthModel::PowerLaw { min: range.0, max: range.1.min(cols), alpha: *alpha },
                PlacementModel::BandedRuns { bandwidth: cols, mean_run: 24.0 },
            ),
        }
    }
}

/// The sixteen matrices of Test Set 1 (BRO-ELL-representable).
pub fn test_set_1() -> Vec<SuiteEntry> {
    use StructureClass::*;
    use TestSet::One;
    vec![
        SuiteEntry {
            name: "cage12",
            test_set: One,
            rows: 130_000,
            cols: 130_000,
            nnz: 2_032_536,
            mu: 15.6,
            sigma: 4.7,
            class: Fem { rel_band: 0.10, mean_run: 2.5 },
        },
        SuiteEntry {
            name: "cant",
            test_set: One,
            rows: 62_000,
            cols: 62_000,
            nnz: 4_007_383,
            mu: 64.2,
            sigma: 14.1,
            class: Fem { rel_band: 0.02, mean_run: 9.0 },
        },
        SuiteEntry {
            name: "consph",
            test_set: One,
            rows: 83_000,
            cols: 83_000,
            nnz: 6_010_480,
            mu: 72.1,
            sigma: 19.1,
            class: Fem { rel_band: 0.02, mean_run: 8.0 },
        },
        SuiteEntry {
            name: "e40r5000",
            test_set: One,
            rows: 17_000,
            cols: 17_000,
            nnz: 553_956,
            mu: 32.1,
            sigma: 15.5,
            class: Fem { rel_band: 0.03, mean_run: 8.0 },
        },
        SuiteEntry {
            name: "epb3",
            test_set: One,
            rows: 85_000,
            cols: 85_000,
            nnz: 463_625,
            mu: 5.5,
            sigma: 0.5,
            class: Fem { rel_band: 0.04, mean_run: 2.0 },
        },
        SuiteEntry {
            name: "lhr71",
            test_set: One,
            rows: 70_000,
            cols: 70_000,
            nnz: 1_528_092,
            mu: 21.7,
            sigma: 26.3,
            class: Fem { rel_band: 0.05, mean_run: 6.0 },
        },
        SuiteEntry {
            name: "mc2depi",
            test_set: One,
            rows: 526_000,
            cols: 526_000,
            nnz: 2_100_225,
            mu: 4.0,
            sigma: 0.1,
            class: Lattice2d,
        },
        SuiteEntry {
            name: "pdb1HYS",
            test_set: One,
            rows: 36_000,
            cols: 36_000,
            nnz: 4_344_765,
            mu: 119.3,
            sigma: 31.9,
            class: Fem { rel_band: 0.03, mean_run: 10.0 },
        },
        SuiteEntry {
            name: "qcd5_4",
            test_set: One,
            rows: 49_000,
            cols: 49_000,
            nnz: 1_916_928,
            mu: 39.0,
            sigma: 0.0,
            class: LatticeQcd,
        },
        SuiteEntry {
            name: "rim",
            test_set: One,
            rows: 23_000,
            cols: 23_000,
            nnz: 1_014_951,
            mu: 45.0,
            sigma: 26.6,
            class: Fem { rel_band: 0.02, mean_run: 10.0 },
        },
        SuiteEntry {
            name: "rma10",
            test_set: One,
            rows: 47_000,
            cols: 47_000,
            nnz: 2_374_001,
            mu: 50.7,
            sigma: 27.8,
            class: Fem { rel_band: 0.02, mean_run: 9.0 },
        },
        SuiteEntry {
            name: "shipsec1",
            test_set: One,
            rows: 141_000,
            cols: 141_000,
            nnz: 7_813_404,
            mu: 55.5,
            sigma: 11.1,
            class: Fem { rel_band: 0.015, mean_run: 12.0 },
        },
        SuiteEntry {
            name: "stomach",
            test_set: One,
            rows: 213_000,
            cols: 213_000,
            nnz: 3_021_648,
            mu: 14.2,
            sigma: 5.9,
            class: Fem { rel_band: 0.12, mean_run: 3.0 },
        },
        SuiteEntry {
            name: "torso3",
            test_set: One,
            rows: 259_000,
            cols: 259_000,
            nnz: 4_429_042,
            mu: 17.1,
            sigma: 4.4,
            class: Fem { rel_band: 0.08, mean_run: 3.5 },
        },
        SuiteEntry {
            name: "venkat01",
            test_set: One,
            rows: 62_000,
            cols: 62_000,
            nnz: 1_717_792,
            mu: 27.5,
            sigma: 2.3,
            class: Fem { rel_band: 0.02, mean_run: 7.0 },
        },
        SuiteEntry {
            name: "xenon2",
            test_set: One,
            rows: 157_000,
            cols: 157_000,
            nnz: 3_866_688,
            mu: 24.6,
            sigma: 4.1,
            class: Fem { rel_band: 0.05, mean_run: 5.0 },
        },
    ]
}

/// The fourteen matrices of Test Set 2 (require BRO-HYB).
pub fn test_set_2() -> Vec<SuiteEntry> {
    use StructureClass::*;
    use TestSet::Two;
    vec![
        SuiteEntry {
            name: "bcsstk32",
            test_set: Two,
            rows: 45_000,
            cols: 45_000,
            nnz: 2_014_701,
            mu: 45.2,
            sigma: 15.5,
            class: Fem { rel_band: 0.02, mean_run: 10.0 },
        },
        SuiteEntry {
            name: "cop20k_A",
            test_set: Two,
            rows: 121_000,
            cols: 121_000,
            nnz: 2_624_331,
            mu: 21.7,
            sigma: 13.8,
            class: Circuit { banded_fraction: 0.6, rel_band: 0.05 },
        },
        SuiteEntry {
            name: "ct20stif",
            test_set: Two,
            rows: 52_000,
            cols: 52_000,
            nnz: 2_698_463,
            mu: 51.6,
            sigma: 17.0,
            class: Fem { rel_band: 0.02, mean_run: 9.0 },
        },
        SuiteEntry {
            name: "gupta2",
            test_set: Two,
            rows: 62_000,
            cols: 62_000,
            nnz: 4_248_286,
            mu: 68.5,
            sigma: 356.0,
            class: MostlyRegularWithHeavy {
                light_mean: 32.0,
                light_std: 12.0,
                heavy_fraction: 0.006,
                heavy_range: (1500, 8000),
                banded_fraction: 0.5,
            },
        },
        SuiteEntry {
            name: "hvdc2",
            test_set: Two,
            rows: 190_000,
            cols: 190_000,
            nnz: 1_347_273,
            mu: 7.1,
            sigma: 3.8,
            class: Circuit { banded_fraction: 0.55, rel_band: 0.03 },
        },
        SuiteEntry {
            name: "mac_econ",
            test_set: Two,
            rows: 207_000,
            cols: 207_000,
            nnz: 1_273_389,
            mu: 6.2,
            sigma: 4.4,
            class: Circuit { banded_fraction: 0.5, rel_band: 0.06 },
        },
        SuiteEntry {
            name: "ohne2",
            test_set: Two,
            rows: 181_000,
            cols: 181_000,
            nnz: 11_063_545,
            mu: 61.0,
            sigma: 21.1,
            class: Fem { rel_band: 0.015, mean_run: 10.0 },
        },
        SuiteEntry {
            name: "pwtk",
            test_set: Two,
            rows: 218_000,
            cols: 218_000,
            nnz: 11_634_424,
            mu: 53.4,
            sigma: 4.7,
            class: Fem { rel_band: 0.01, mean_run: 12.0 },
        },
        SuiteEntry {
            name: "rail4284",
            test_set: Two,
            rows: 4_300,
            cols: 109_000,
            nnz: 11_279_748,
            mu: 2633.0,
            sigma: 4209.0,
            class: WideRows { alpha: 1.35, range: (150, 60_000) },
        },
        SuiteEntry {
            name: "rajat30",
            test_set: Two,
            rows: 644_000,
            cols: 644_000,
            nnz: 6_175_377,
            mu: 9.6,
            sigma: 785.0,
            class: MostlyRegularWithHeavy {
                light_mean: 7.0,
                light_std: 3.0,
                heavy_fraction: 0.0004,
                heavy_range: (2000, 120_000),
                banded_fraction: 0.45,
            },
        },
        SuiteEntry {
            name: "scircuit",
            test_set: Two,
            rows: 171_000,
            cols: 171_000,
            nnz: 958_936,
            mu: 5.6,
            sigma: 4.4,
            class: Circuit { banded_fraction: 0.45, rel_band: 0.05 },
        },
        SuiteEntry {
            name: "sme3Da",
            test_set: Two,
            rows: 13_000,
            cols: 13_000,
            nnz: 874_887,
            mu: 70.0,
            sigma: 34.9,
            class: Fem { rel_band: 0.04, mean_run: 7.0 },
        },
        SuiteEntry {
            name: "twotone",
            test_set: Two,
            rows: 121_000,
            cols: 121_000,
            nnz: 1_224_224,
            mu: 10.1,
            sigma: 15.0,
            class: HeavyTail { alpha: 2.4, max_len: 200, min_len: 2, banded_fraction: 0.5 },
        },
        SuiteEntry {
            name: "webbase-1M",
            test_set: Two,
            rows: 1_000_000,
            cols: 1_000_000,
            nnz: 3_105_536,
            mu: 3.1,
            sigma: 25.3,
            class: HeavyTail { alpha: 2.2, max_len: 5000, min_len: 1, banded_fraction: 0.4 },
        },
    ]
}

/// All thirty matrices, Test Set 1 first.
pub fn full_suite() -> Vec<SuiteEntry> {
    let mut v = test_set_1();
    v.extend(test_set_2());
    v
}

/// Looks up a suite entry by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<SuiteEntry> {
    full_suite().into_iter().find(|e| e.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_thirty_entries() {
        assert_eq!(test_set_1().len(), 16);
        assert_eq!(test_set_2().len(), 14);
        assert_eq!(full_suite().len(), 30);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = full_suite().iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("qcd5_4").is_some());
        assert!(by_name("QCD5_4").is_some());
        assert!(by_name("not-a-matrix").is_none());
    }

    #[test]
    fn scaled_spec_shrinks_rows() {
        let e = by_name("cant").unwrap();
        let s = e.spec(0.1);
        assert_eq!(s.rows, 6200);
    }

    #[test]
    fn generated_mu_close_to_published_for_normal_classes() {
        // Spot-check a few Normal-model matrices at small scale.
        for name in ["cant", "venkat01", "epb3", "stomach"] {
            let e = by_name(name).unwrap();
            let a = e.spec(0.05).generate::<f64>();
            let st = a.stats();
            let rel_err = (st.mean_row_len - e.mu).abs() / e.mu;
            assert!(rel_err < 0.15, "{name}: mu {} vs published {}", st.mean_row_len, e.mu);
        }
    }

    #[test]
    fn qcd_is_perfectly_regular() {
        let e = by_name("qcd5_4").unwrap();
        let a = e.spec(0.02).generate::<f64>();
        let st = a.stats();
        assert_eq!(st.std_row_len, 0.0);
        assert_eq!(st.mean_row_len, 39.0);
    }

    #[test]
    fn mc2depi_is_four_point() {
        let e = by_name("mc2depi").unwrap();
        let a = e.spec(0.01).generate::<f64>();
        assert_eq!(a.stats().mean_row_len, 4.0);
    }

    #[test]
    fn heavy_tail_matrices_have_large_sigma() {
        let e = by_name("gupta2").unwrap();
        let a = e.spec(0.1).generate::<f64>();
        let st = a.stats();
        assert!(
            st.std_row_len > 3.0 * st.mean_row_len,
            "sigma {} mu {}",
            st.std_row_len,
            st.mean_row_len
        );
    }

    #[test]
    fn rail4284_is_rectangular_wide() {
        let e = by_name("rail4284").unwrap();
        let a = e.spec(0.05).generate::<f64>();
        assert!(a.cols() > 4 * a.rows());
        assert!(a.stats().mean_row_len > 100.0);
    }

    #[test]
    fn test_set_2_entries_need_hyb() {
        // Test Set 2 matrices exist because their row-length variance makes
        // pure ELLPACK wasteful; verify the padding is substantial for the
        // heavy-tail ones.
        let e = by_name("webbase-1M").unwrap();
        let a = e.spec(0.02).generate::<f64>();
        assert!(a.stats().padding_fraction() > 0.5);
    }
}
