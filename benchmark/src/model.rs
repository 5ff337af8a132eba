//! The naive model every reply is checked against: one BTreeMap over the
//! full dimension tuple, then each grouping set of §3.1 folded out of it
//! with the dropped dimensions masked to ALL (`None`).

use crate::gen::{Agg, Data, Read};
use dc_sql::Response;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
pub struct Cell {
    sum: i64,
    count: i64,
    min: i64,
    max: i64,
}

impl Cell {
    fn merge(&mut self, o: &Cell) {
        self.sum += o.sum;
        self.count += o.count;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn value(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Sum => self.sum as f64,
            Agg::Count => self.count as f64,
            Agg::Avg => self.sum as f64 / self.count as f64,
            Agg::Min => self.min as f64,
            Agg::Max => self.max as f64,
        }
    }
}

/// GROUP BY all of the table's dimensions.
pub type Base = BTreeMap<Vec<i64>, Cell>;

pub fn base(cells: &[i64], data: &Data) -> Base {
    let mut out = Base::new();
    for row in cells.chunks_exact(data.width) {
        let u = row[data.units()];
        let one = Cell {
            sum: u,
            count: 1,
            min: u,
            max: u,
        };
        out.entry(row[..data.n_dims].to_vec())
            .and_modify(|c| c.merge(&one))
            .or_insert(one);
    }
    out
}

/// `a` plus `b`, cell by cell.
pub fn plus(a: &Base, b: &Base) -> Base {
    let mut out = a.clone();
    for (k, c) in b {
        out.entry(k.clone())
            .and_modify(|x| x.merge(c))
            .or_insert(*c);
    }
    out
}

/// The relation `read` must return over `base`: masked key → cell.
pub type Expected = BTreeMap<Vec<Option<i64>>, Cell>;

pub fn expected(base: &Base, read: &Read) -> Expected {
    let mut out = Expected::new();
    for set in read.sets() {
        for (key, cell) in base {
            let masked = read
                .dims
                .iter()
                .enumerate()
                .map(|(pos, &d)| (set >> pos & 1 == 1).then_some(key[d]))
                .collect();
            out.entry(masked)
                .and_modify(|c: &mut Cell| c.merge(cell))
                .or_insert(*cell);
        }
    }
    out
}

/// Cell-for-cell comparison of a decoded reply with the model, in any row
/// order. Numbers compare to a relative 1e-9 so that AVG may be computed
/// either way round.
pub fn matches(want: &Expected, read: &Read, resp: &Response) -> bool {
    let Response::Table { columns, rows } = resp else {
        return false;
    };
    let n_dims = read.dims.len();
    if columns.len() != n_dims + read.aggs.len() || rows.len() != want.len() {
        return false;
    }
    let mut seen = std::collections::BTreeSet::new();
    rows.iter().all(|row| {
        let key: Option<Vec<Option<i64>>> = row[..n_dims]
            .iter()
            .map(|c| match c.as_str() {
                "ALL" => Some(None),
                c => c.parse().ok().map(Some),
            })
            .collect();
        let Some(cell) = key.as_ref().and_then(|k| want.get(k)) else {
            return false;
        };
        let fresh = seen.insert(key);
        fresh
            && read.aggs.iter().zip(&row[n_dims..]).all(|(&agg, got)| {
                let want = cell.value(agg);
                got.parse::<f64>()
                    .is_ok_and(|got| (got - want).abs() <= 1e-9 * want.abs())
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Family};

    /// Two dimensions, four rows: the cube has 3 + 2 + 2 + 1 cells.
    #[test]
    fn cube_of_a_tiny_table() {
        let data = Data {
            n_dims: 2,
            width: 3,
            cells: vec![0, 0, 10, 0, 1, 20, 1, 1, 30, 1, 1, 40],
            batch: Vec::new(),
        };
        let read = Read {
            family: Family::Cube,
            dims: vec![0, 1],
            aggs: vec![Agg::Sum, Agg::Count, Agg::Avg, Agg::Min, Agg::Max],
        };
        let want = expected(&base(&data.cells, &data), &read);
        assert_eq!(want.len(), 8);
        let cell = |k: [Option<i64>; 2]| {
            let c = want[&k.to_vec()];
            read.aggs.iter().map(|&a| c.value(a)).collect::<Vec<_>>()
        };
        assert_eq!(cell([None, None]), [100.0, 4.0, 25.0, 10.0, 40.0]);
        assert_eq!(cell([Some(1), None]), [70.0, 2.0, 35.0, 30.0, 40.0]);
        assert_eq!(cell([None, Some(1)]), [90.0, 3.0, 30.0, 20.0, 40.0]);
        assert_eq!(cell([Some(1), Some(1)]), [70.0, 2.0, 35.0, 30.0, 40.0]);

        let row = |k: [&str; 2], v: [&str; 5]| k.iter().chain(&v).map(|s| s.to_string()).collect();
        let mut rows: Vec<Vec<String>> = vec![
            row(["0", "0"], ["10", "1", "10.0", "10", "10"]),
            row(["0", "1"], ["20", "1", "20.0", "20", "20"]),
            row(["1", "1"], ["70", "2", "35.0", "30", "40"]),
            row(["0", "ALL"], ["30", "2", "15.0", "10", "20"]),
            row(["1", "ALL"], ["70", "2", "35.0", "30", "40"]),
            row(["ALL", "0"], ["10", "1", "10.0", "10", "10"]),
            row(["ALL", "1"], ["90", "3", "30.0", "20", "40"]),
            row(["ALL", "ALL"], ["100", "4", "25.0", "10", "40"]),
        ];
        let reply = |rows: &Vec<Vec<String>>| Response::Table {
            columns: vec![String::new(); 7],
            rows: rows.clone(),
        };
        assert!(matches(&want, &read, &reply(&rows)));
        rows[6][2] = "91".into();
        assert!(!matches(&want, &read, &reply(&rows)), "wrong SUM");
        rows[6] = rows[5].clone();
        assert!(!matches(&want, &read, &reply(&rows)), "duplicate key");
    }

    #[test]
    fn grouping_sets_of_each_family() {
        let read = |family| Read {
            family,
            dims: vec![0, 1, 2],
            aggs: vec![Agg::Sum],
        };
        assert_eq!(read(Family::Cube).sets().len(), 8);
        assert_eq!(read(Family::Rollup).sets(), [0b000, 0b001, 0b011, 0b111]);
        assert_eq!(read(Family::GroupBy).sets(), [0b111]);
    }

    #[test]
    fn the_writer_keeps_the_table_stationary() {
        let mut w = gen::Writer::new();
        let ops: Vec<gen::Op> = (0..4).map(|_| w.next()).collect();
        use gen::Op::{Delete, Insert};
        assert_eq!(ops, [Insert(5), Delete(1), Insert(6), Delete(2)]);
    }
}
