//! The car-sales datasets of Figures 4-5 and Tables 3-6, plus scalable
//! synthetic variants for the benchmarks.

use dc_relation::{row, DataType, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The canonical sales schema: (model, year, color, units).
pub fn sales_schema() -> Schema {
    Schema::from_pairs(&[
        ("model", DataType::Str),
        ("year", DataType::Int),
        ("color", DataType::Str),
        ("units", DataType::Int),
    ])
}

/// Figure 4's SALES table: 2 models × 3 years (1990-1992) × 3 colors
/// (red, white, blue) = 18 rows, units 1..=18 in row order. The cube of
/// this table has exactly 3 × 4 × 4 = 48 rows, the number the paper
/// quotes.
pub fn figure4_sales() -> Table {
    let mut t = Table::empty(sales_schema());
    let mut unit = 1i64;
    for model in ["Chevy", "Ford"] {
        for year in [1990i64, 1991, 1992] {
            for color in ["red", "white", "blue"] {
                #[expect(
                    clippy::expect_used,
                    reason = "static literal rows match the schema written above"
                )]
                t.push(row![model, year, color, unit])
                    .expect("literal rows are valid");
                unit += 1;
            }
        }
    }
    t
}

/// The Tables 3-6 dataset: Chevy & Ford × 1994/1995 × black/white with
/// the exact unit counts the paper prints (Chevy 50/40/85/115, Ford
/// 50/10/85/75; totals 290 and 220, grand total 510).
pub fn table4_sales() -> Table {
    let mut t = Table::empty(sales_schema());
    for (m, y, c, u) in [
        ("Chevy", 1994, "black", 50),
        ("Chevy", 1994, "white", 40),
        ("Chevy", 1995, "black", 85),
        ("Chevy", 1995, "white", 115),
        ("Ford", 1994, "black", 50),
        ("Ford", 1994, "white", 10),
        ("Ford", 1995, "black", 85),
        ("Ford", 1995, "white", 75),
    ] {
        #[expect(
            clippy::expect_used,
            reason = "static literal rows match the schema written above"
        )]
        t.push(row![m, y, c, u]).expect("literal rows are valid");
    }
    t
}

/// Parameters for the scalable synthetic sales generator.
#[derive(Debug, Clone, Copy)]
pub struct SalesParams {
    pub rows: usize,
    /// Cardinality of each dimension: models, years, colors. These are
    /// the paper's `C_i`.
    pub models: usize,
    pub years: usize,
    pub colors: usize,
    pub seed: u64,
}

impl Default for SalesParams {
    fn default() -> Self {
        SalesParams {
            rows: 10_000,
            models: 10,
            years: 5,
            colors: 8,
            seed: 42,
        }
    }
}

/// Uniform random sales rows with the requested dimension cardinalities.
/// Deterministic per seed.
pub fn synthetic_sales(p: SalesParams) -> Table {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut t = Table::empty(sales_schema());
    for _ in 0..p.rows {
        let model = format!("model-{:03}", rng.gen_range(0..p.models.max(1)));
        let year = 1990 + rng.gen_range(0..p.years.max(1)) as i64;
        let color = format!("color-{:03}", rng.gen_range(0..p.colors.max(1)));
        let units = rng.gen_range(1..=100i64);
        #[expect(
            clippy::expect_used,
            reason = "generator emits schema-shaped rows by construction"
        )]
        t.push(row![model, year, color, units])
            .expect("generated rows are valid");
    }
    t
}

/// Skewed generator: dimension value frequencies follow a Zipf-ish
/// distribution so cube cells have highly unequal support — exercising
/// the sparse-cube paths (§5's "it is possible that the core of the cube
/// is sparse").
pub fn skewed_sales(p: SalesParams) -> Table {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut t = Table::empty(sales_schema());
    let zipf = |rng: &mut StdRng, n: usize| -> usize {
        // Inverse-CDF sampling of P(k) ∝ 1/(k+1).
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = rng.gen_range(0.0..h);
        for k in 0..n {
            u -= 1.0 / (k + 1) as f64;
            if u <= 0.0 {
                return k;
            }
        }
        n - 1
    };
    for _ in 0..p.rows {
        let model = format!("model-{:03}", zipf(&mut rng, p.models.max(1)));
        let year = 1990 + zipf(&mut rng, p.years.max(1)) as i64;
        let color = format!("color-{:03}", zipf(&mut rng, p.colors.max(1)));
        let units = rng.gen_range(1..=100i64);
        #[expect(
            clippy::expect_used,
            reason = "generator emits schema-shaped rows by construction"
        )]
        t.push(row![model, year, color, units])
            .expect("generated rows are valid");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relation::Value;

    #[test]
    fn figure4_shape() {
        let t = figure4_sales();
        assert_eq!(t.len(), 18);
        assert_eq!(t.domain("model").unwrap().len(), 2);
        assert_eq!(t.domain("year").unwrap().len(), 3);
        assert_eq!(t.domain("color").unwrap().len(), 3);
    }

    #[test]
    fn table4_totals_match_the_paper() {
        let t = table4_sales();
        let total: i64 = t
            .column_values("units")
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .sum();
        assert_eq!(total, 510);
        let chevy: i64 = t
            .rows()
            .iter()
            .filter(|r| r[0] == Value::str("Chevy"))
            .map(|r| r[3].as_i64().unwrap())
            .sum();
        assert_eq!(chevy, 290);
    }

    #[test]
    fn synthetic_is_deterministic_and_bounded() {
        let p = SalesParams {
            rows: 500,
            models: 3,
            years: 2,
            colors: 4,
            seed: 7,
        };
        let a = synthetic_sales(p);
        let b = synthetic_sales(p);
        assert_eq!(a.rows(), b.rows());
        assert!(a.domain("model").unwrap().len() <= 3);
        assert!(a.domain("year").unwrap().len() <= 2);
        assert!(a.domain("color").unwrap().len() <= 4);
    }

    #[test]
    fn skew_concentrates_mass() {
        let p = SalesParams {
            rows: 2_000,
            models: 20,
            years: 5,
            colors: 20,
            seed: 9,
        };
        let t = skewed_sales(p);
        // The most frequent model should dominate a uniform share.
        let models = t.column_values("model").unwrap();
        let mut counts = std::collections::HashMap::new();
        for m in &models {
            *counts.entry(m.clone()).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(
            max > 2_000 / 20 * 2,
            "zipf head should be > 2× uniform share"
        );
    }
}
