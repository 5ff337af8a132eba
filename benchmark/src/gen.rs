//! Seeded inputs: the benchmark's own xorshift generator, the generated
//! tables, and the five workloads' statement cycles. The engine only ever
//! sees the tables and the SQL text built here.

use datacube::{AggSpec, Dimension};
use dc_relation::{DataType, Row, Schema, Table, Value};

/// xorshift64*, seeded through one splitmix64 round so that neighbouring
/// seeds give unrelated streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: i64) -> i64 {
        (self.next() % n as u64) as i64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as i64 + 1) as usize);
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    Cube,
    Rollup,
    GroupBy,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

impl Agg {
    const ALL: [Agg; 5] = [Agg::Sum, Agg::Count, Agg::Avg, Agg::Min, Agg::Max];

    fn sql(self) -> String {
        let call = match self {
            Agg::Sum => "SUM(units)",
            Agg::Count => "COUNT(*)",
            Agg::Avg => "AVG(units)",
            Agg::Min => "MIN(units)",
            Agg::Max => "MAX(units)",
        };
        format!("{call} AS {}", self.name())
    }

    pub fn name(self) -> &'static str {
        match self {
            Agg::Sum => "s",
            Agg::Count => "n",
            Agg::Avg => "a",
            Agg::Min => "lo",
            Agg::Max => "hi",
        }
    }

    pub fn spec(self) -> AggSpec {
        let f = |name| dc_aggregate::builtin(name).expect("built-in aggregate");
        let spec = match self {
            Agg::Sum => AggSpec::new(f("SUM"), "units"),
            Agg::Count => AggSpec::star(f("COUNT(*)")),
            Agg::Avg => AggSpec::new(f("AVG"), "units"),
            Agg::Min => AggSpec::new(f("MIN"), "units"),
            Agg::Max => AggSpec::new(f("MAX"), "units"),
        };
        spec.with_name(self.name())
    }
}

/// One SELECT of a statement cycle: a grouping-set family over some of the
/// table's dimensions (by index) with some aggregates of `units`.
#[derive(Clone, Debug)]
pub struct Read {
    pub family: Family,
    pub dims: Vec<usize>,
    pub aggs: Vec<Agg>,
}

impl Read {
    fn new(family: Family, dims: &[usize], aggs: &[Agg]) -> Read {
        Read {
            family,
            dims: dims.to_vec(),
            aggs: aggs.to_vec(),
        }
    }

    pub fn sql(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|d| format!("d{d}")).collect();
        let aggs: Vec<String> = self.aggs.iter().map(|a| a.sql()).collect();
        let family = match self.family {
            Family::Cube => "CUBE ",
            Family::Rollup => "ROLLUP ",
            Family::GroupBy => "",
        };
        format!(
            "SELECT {}, {} FROM t GROUP BY {family}{}",
            dims.join(", "),
            aggs.join(", "),
            dims.join(", ")
        )
    }

    /// The grouping sets of §3.1 as bit masks over the positions of
    /// `self.dims`: every subset for CUBE, every prefix for ROLLUP, the
    /// full set for GROUP BY.
    pub fn sets(&self) -> Vec<u32> {
        let n = self.dims.len() as u32;
        let full = (1u32 << n) - 1;
        match self.family {
            Family::Cube => (0..=full).collect(),
            Family::Rollup => (0..=n).map(|k| (1u32 << k) - 1).collect(),
            Family::GroupBy => vec![full],
        }
    }

    pub fn dimensions(&self) -> Vec<Dimension> {
        self.dims
            .iter()
            .map(|d| Dimension::column(format!("d{d}")))
            .collect()
    }
}

/// Which client's statements a workload reports end to end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum View {
    Reads,
    Writes,
}

pub struct Spec {
    pub rows: usize,
    pub cards: &'static [i64],
    /// Engine-wide lattice cache on or off.
    pub cache: bool,
    /// Client 0 writes (INSERT a batch, DELETE the batch four back) and
    /// the table carries a `batch` column.
    pub writes: bool,
    pub view: View,
    /// Sent once at warm-up before the cycle, to materialize an ancestor.
    pub fill: Option<Read>,
    pub reads: Vec<Read>,
}

pub const WORKLOADS: [&str; 5] = [
    "scan_heavy",
    "cache_dash",
    "wide_result",
    "mixed_rw_read",
    "mixed_rw_write",
];

pub const BATCH_ROWS: usize = 256;
/// Batches pre-loaded into the mixed table, so that the first DELETE
/// already finds its 256 rows and the table size is stationary from the
/// first statement on.
pub const PRELOADED: i64 = 4;

pub fn spec(name: &str) -> Option<Spec> {
    use Agg::*;
    use Family::*;
    let mixed = |view| Spec {
        rows: 100_000,
        cards: &[12, 8, 6],
        cache: true,
        writes: true,
        view,
        fill: None,
        reads: vec![
            Read::new(Cube, &[0, 1], &[Sum, Count]),
            Read::new(GroupBy, &[2], &[Sum, Count]),
            Read::new(Rollup, &[0, 1, 2], &[Sum, Count]),
        ],
    };
    Some(match name {
        "scan_heavy" => Spec {
            rows: 400_000,
            cards: &[12, 8, 6, 4],
            cache: false,
            writes: false,
            view: View::Reads,
            fill: None,
            reads: vec![
                Read::new(Cube, &[0, 1, 2, 3], &Agg::ALL),
                Read::new(Rollup, &[0, 1, 2], &Agg::ALL),
                Read::new(Cube, &[1, 3], &Agg::ALL),
                Read::new(GroupBy, &[0], &Agg::ALL),
            ],
        },
        "cache_dash" => Spec {
            rows: 400_000,
            cards: &[12, 8, 6, 4],
            cache: true,
            writes: false,
            view: View::Reads,
            fill: Some(Read::new(Cube, &[0, 1, 2, 3], &Agg::ALL)),
            reads: vec![
                Read::new(Cube, &[0, 1], &[Sum, Count]),
                Read::new(GroupBy, &[0], &[Sum, Avg]),
                Read::new(Rollup, &[2, 3], &[Sum, Min, Max]),
                Read::new(GroupBy, &[1], &[Count]),
            ],
        },
        "wide_result" => Spec {
            rows: 60_000,
            cards: &[32, 32, 16],
            cache: false,
            writes: false,
            view: View::Reads,
            fill: None,
            reads: vec![
                Read::new(Cube, &[0, 1, 2], &[Sum, Count]),
                Read::new(GroupBy, &[0, 1, 2], &[Sum, Avg]),
            ],
        },
        "mixed_rw_read" => mixed(View::Reads),
        "mixed_rw_write" => mixed(View::Writes),
        _ => return None,
    })
}

/// The generated table in the benchmark's own form (row-major `i64`s:
/// the dimensions, `batch` when the workload writes, then `units`), plus
/// the one insert batch every INSERT re-tags.
pub struct Data {
    pub n_dims: usize,
    pub width: usize,
    pub cells: Vec<i64>,
    pub batch: Vec<i64>,
}

impl Data {
    pub fn generate(spec: &Spec, rows: usize, rng: &mut Rng) -> Data {
        let n_dims = spec.cards.len();
        let width = n_dims + 1 + usize::from(spec.writes);
        let mut row = |cells: &mut Vec<i64>, tag: i64| {
            for &card in spec.cards {
                cells.push(rng.below(card));
            }
            if spec.writes {
                cells.push(tag);
            }
            cells.push(1 + rng.below(100));
        };
        let mut cells = Vec::with_capacity(rows * width);
        for _ in 0..rows {
            row(&mut cells, 0);
        }
        let mut batch = Vec::new();
        if spec.writes {
            for _ in 0..BATCH_ROWS {
                row(&mut batch, 0);
            }
            for tag in 1..=PRELOADED {
                cells.extend(tagged(&batch, width, tag));
            }
        }
        Data {
            n_dims,
            width,
            cells,
            batch,
        }
    }

    pub fn units(&self) -> usize {
        self.width - 1
    }

    pub fn schema(&self) -> Schema {
        let mut names: Vec<String> = (0..self.n_dims).map(|d| format!("d{d}")).collect();
        if self.width > self.n_dims + 1 {
            names.push("batch".into());
        }
        names.push("units".into());
        let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (&**n, DataType::Int)).collect();
        Schema::from_pairs(&pairs)
    }

    pub fn table(&self) -> Table {
        Table::new(self.schema(), to_rows(&self.cells, self.width)).expect("generated rows fit")
    }

    pub fn batch_rows(&self, tag: i64) -> Vec<Row> {
        to_rows(&tagged(&self.batch, self.width, tag), self.width)
    }

    pub fn insert_sql(&self, tag: i64) -> String {
        let rows: Vec<String> = tagged(&self.batch, self.width, tag)
            .chunks_exact(self.width)
            .map(|r| {
                let cells: Vec<String> = r.iter().map(i64::to_string).collect();
                format!("({})", cells.join(", "))
            })
            .collect();
        format!("INSERT INTO t VALUES {}", rows.join(", "))
    }
}

pub fn delete_sql(tag: i64) -> String {
    format!("DELETE FROM t WHERE batch = {tag}")
}

/// `batch` with its `batch` column (second to last) set to `tag`.
fn tagged(batch: &[i64], width: usize, tag: i64) -> Vec<i64> {
    let mut out = batch.to_vec();
    for row in out.chunks_exact_mut(width) {
        row[width - 2] = tag;
    }
    out
}

fn to_rows(cells: &[i64], width: usize) -> Vec<Row> {
    cells
        .chunks_exact(width)
        .map(|r| Row::new(r.iter().map(|&v| Value::Int(v)).collect()))
        .collect()
}

/// A client's statements in order. Readers walk the seed-shuffled cycle;
/// the writer alternates INSERT of batch `k` with DELETE of batch
/// `k - PRELOADED`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Read(usize),
    Insert(i64),
    Delete(i64),
}

impl Op {
    /// Which statement of a cycle of `n_reads` reads this is: every INSERT
    /// is the same statement but for its batch tag, and so is every DELETE.
    pub fn kind(self, n_reads: usize) -> usize {
        match self {
            Op::Read(i) => i,
            Op::Insert(_) => n_reads,
            Op::Delete(_) => n_reads + 1,
        }
    }
}

pub struct Reader {
    order: Vec<usize>,
    at: usize,
}

impl Reader {
    pub fn new(n_reads: usize, offset: usize, rng: &mut Rng) -> Reader {
        let mut order: Vec<usize> = (0..n_reads).collect();
        rng.shuffle(&mut order);
        Reader { order, at: offset }
    }

    pub fn next(&mut self) -> Op {
        let op = Op::Read(self.order[self.at % self.order.len()]);
        self.at += 1;
        op
    }
}

pub struct Writer {
    k: i64,
    delete_next: bool,
}

impl Writer {
    pub fn new() -> Writer {
        Writer {
            k: PRELOADED + 1,
            delete_next: false,
        }
    }

    pub fn next(&mut self) -> Op {
        let op = if self.delete_next {
            self.k += 1;
            Op::Delete(self.k - 1 - PRELOADED)
        } else {
            Op::Insert(self.k)
        };
        self.delete_next = !self.delete_next;
        op
    }
}
