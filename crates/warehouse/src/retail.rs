//! The Figure 6 retail snowflake.
//!
//! "It is common to record events and activities with a detailed record
//! giving all the dimensions of the event. For example, the sales item
//! record gives the id of the buyer, seller, the product purchased, the
//! units purchased, the price, the date and the sales office that is
//! credited with the sale." Each dimension has a side table with its
//! aggregation granularities — office → district → region → geography,
//! product → category → manufacturer — forming the snowflake. The paper
//! also notes query users prefer the denormalized join
//! ([`RetailWarehouse::denormalize`]), which is what the cube operators
//! then consume.

use dc_relation::{row, DataType, Date, Row, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated snowflake warehouse: one fact table plus dimension tables.
#[derive(Debug, Clone)]
pub struct RetailWarehouse {
    /// Fact: (sale_id, office_id, product_id, customer_id, date, units,
    /// price).
    pub fact: Table,
    /// Office dimension: (office_id, office, district, region, geography).
    pub office: Table,
    /// Product dimension: (product_id, product, category, manufacturer).
    pub product: Table,
    /// Customer dimension: (customer_id, customer, segment).
    pub customer: Table,
}

const OFFICES: &[(&str, &str, &str, &str)] = &[
    ("San Francisco", "N. California", "Western", "US"),
    ("Los Angeles", "S. California", "Western", "US"),
    ("Seattle", "Washington", "Western", "US"),
    ("Chicago", "Illinois", "Central", "US"),
    ("Dallas", "Texas", "Central", "US"),
    ("Boston", "Massachusetts", "Eastern", "US"),
    ("New York", "New York", "Eastern", "US"),
    ("London", "Greater London", "EMEA-North", "International"),
    ("Paris", "Ile-de-France", "EMEA-South", "International"),
    ("Tokyo", "Kanto", "APAC", "International"),
];

const PRODUCTS: &[(&str, &str, &str)] = &[
    ("Sedan L", "sedan", "Chevy"),
    ("Sedan XL", "sedan", "Chevy"),
    ("Pickup K", "truck", "Chevy"),
    ("Coupe S", "coupe", "Ford"),
    ("Pickup F", "truck", "Ford"),
    ("Wagon W", "wagon", "Ford"),
    ("Compact C", "compact", "Dodge"),
    ("Van V", "van", "Dodge"),
];

const SEGMENTS: &[&str] = &["consumer", "corporate", "government"];

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct RetailParams {
    pub sales: usize,
    pub customers: usize,
    pub start: Date,
    pub days: usize,
    pub seed: u64,
}

impl Default for RetailParams {
    fn default() -> Self {
        RetailParams {
            sales: 10_000,
            customers: 200,
            start: Date::ymd(1994, 1, 1),
            days: 730,
            seed: 6,
        }
    }
}

impl RetailWarehouse {
    /// Generate a deterministic warehouse.
    pub fn generate(p: RetailParams) -> Self {
        let mut rng = StdRng::seed_from_u64(p.seed);

        let mut office = Table::empty(Schema::from_pairs(&[
            ("office_id", DataType::Int),
            ("office", DataType::Str),
            ("district", DataType::Str),
            ("region", DataType::Str),
            ("geography", DataType::Str),
        ]));
        for (i, (o, d, r, g)) in OFFICES.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "static literal rows match the schema written above"
            )]
            office
                .push(row![i as i64, *o, *d, *r, *g])
                .expect("literal rows");
        }

        let mut product = Table::empty(Schema::from_pairs(&[
            ("product_id", DataType::Int),
            ("product", DataType::Str),
            ("category", DataType::Str),
            ("manufacturer", DataType::Str),
        ]));
        for (i, (name, cat, man)) in PRODUCTS.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "static literal rows match the schema written above"
            )]
            product
                .push(row![i as i64, *name, *cat, *man])
                .expect("literal rows");
        }

        let mut customer = Table::empty(Schema::from_pairs(&[
            ("customer_id", DataType::Int),
            ("customer", DataType::Str),
            ("segment", DataType::Str),
        ]));
        for i in 0..p.customers.max(1) {
            #[expect(
                clippy::expect_used,
                reason = "generator emits schema-shaped rows by construction"
            )]
            customer
                .push(row![
                    i as i64,
                    format!("customer-{i:04}"),
                    SEGMENTS[i % SEGMENTS.len()]
                ])
                .expect("generated rows");
        }

        let mut fact = Table::empty(Schema::from_pairs(&[
            ("sale_id", DataType::Int),
            ("office_id", DataType::Int),
            ("product_id", DataType::Int),
            ("customer_id", DataType::Int),
            ("date", DataType::Date),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]));
        for sale_id in 0..p.sales {
            let product_id = rng.gen_range(0..PRODUCTS.len()) as i64;
            let base_price = 12_000.0 + 4_000.0 * (product_id as f64);
            let date = p.start.plus_days(rng.gen_range(0..p.days.max(1)) as i64);
            fact.push_unchecked(Row::new(vec![
                Value::Int(sale_id as i64),
                Value::Int(rng.gen_range(0..OFFICES.len()) as i64),
                Value::Int(product_id),
                Value::Int(rng.gen_range(0..p.customers.max(1)) as i64),
                Value::Date(date),
                Value::Int(rng.gen_range(1..=5)),
                Value::Float((base_price * rng.gen_range(0.9..1.1)).round()),
            ]));
        }

        RetailWarehouse {
            fact,
            office,
            product,
            customer,
        }
    }

    /// The star join: fact ⋈ office ⋈ product ⋈ customer, dropping the id
    /// columns — "Query users find it convenient to use the denormalized
    /// table" (§3.6 footnote). The result is what cube queries group on.
    pub fn denormalize(&self) -> Table {
        let schema = Schema::from_pairs(&[
            ("office", DataType::Str),
            ("district", DataType::Str),
            ("region", DataType::Str),
            ("geography", DataType::Str),
            ("product", DataType::Str),
            ("category", DataType::Str),
            ("manufacturer", DataType::Str),
            ("segment", DataType::Str),
            ("date", DataType::Date),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]);
        let mut out = Table::empty(schema);
        for f in self.fact.rows() {
            #[expect(
                clippy::expect_used,
                reason = "fact foreign keys index the generated dimension tables"
            )]
            let o = &self.office.rows()[f[1].as_i64().expect("office fk") as usize];
            #[expect(
                clippy::expect_used,
                reason = "fact foreign keys index the generated dimension tables"
            )]
            let p = &self.product.rows()[f[2].as_i64().expect("product fk") as usize];
            #[expect(
                clippy::expect_used,
                reason = "fact foreign keys index the generated dimension tables"
            )]
            let c = &self.customer.rows()[f[3].as_i64().expect("customer fk") as usize];
            out.push_unchecked(Row::new(vec![
                o[1].clone(),
                o[2].clone(),
                o[3].clone(),
                o[4].clone(),
                p[1].clone(),
                p[2].clone(),
                p[3].clone(),
                c[2].clone(),
                f[4].clone(),
                f[5].clone(),
                f[6].clone(),
            ]));
        }
        out
    }

    /// Register all tables (and the denormalized view) with a SQL engine.
    pub fn register(&self, engine: &mut dc_sql::Engine) -> dc_sql::SqlResult<()> {
        engine.register_table("sales_fact", self.fact.clone())?;
        engine.register_table("office", self.office.clone())?;
        engine.register_table("product", self.product.clone())?;
        engine.register_table("customer", self.customer.clone())?;
        engine.register_table("sales_wide", self.denormalize())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RetailWarehouse {
        RetailWarehouse::generate(RetailParams {
            sales: 500,
            customers: 20,
            ..Default::default()
        })
    }

    #[test]
    fn dimensions_form_hierarchies() {
        let w = small();
        // office → district → region → geography is functional.
        use datacube::decoration::functionally_determines;
        assert!(functionally_determines(&w.office, &["office"], "district").unwrap());
        assert!(functionally_determines(&w.office, &["district"], "region").unwrap());
        assert!(functionally_determines(&w.office, &["region"], "geography").unwrap());
        assert!(functionally_determines(&w.product, &["product"], "category").unwrap());
        assert!(functionally_determines(&w.product, &["product"], "manufacturer").unwrap());
    }

    #[test]
    fn denormalize_preserves_fact_count_and_measures() {
        let w = small();
        let wide = w.denormalize();
        assert_eq!(wide.len(), w.fact.len());
        let fact_units: i64 = w.fact.rows().iter().map(|r| r[5].as_i64().unwrap()).sum();
        let wide_units: i64 = wide.rows().iter().map(|r| r[9].as_i64().unwrap()).sum();
        assert_eq!(fact_units, wide_units);
    }

    #[test]
    fn star_query_through_sql_matches_denormalized_cube() {
        let w = small();
        let mut e = dc_sql::Engine::new();
        w.register(&mut e).unwrap();
        // Star query: join fact to office, roll up region.
        let star = e
            .execute(
                "SELECT region, SUM(units) AS u
                 FROM sales_fact JOIN office USING (office_id)
                 GROUP BY ROLLUP region",
            )
            .unwrap();
        // Same rollup over the denormalized table.
        let wide = e
            .execute("SELECT region, SUM(units) AS u FROM sales_wide GROUP BY ROLLUP region")
            .unwrap();
        assert_eq!(star.rows(), wide.rows());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.fact.rows(), b.fact.rows());
    }
}
