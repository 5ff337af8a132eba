//! Relational substrate for the data cube reproduction.
//!
//! This crate provides the in-memory relational model that the
//! [Gray et al. 1996 data cube paper] assumes as a substrate: typed values,
//! schemas, rows, and tables, together with the two pseudo-values the paper
//! revolves around:
//!
//! * [`Value::Null`] — SQL's missing value, and
//! * [`Value::All`] — the paper's `ALL` token (§3.3) denoting *the set over
//!   which an aggregate was computed*, used to mark super-aggregate rows in
//!   a cube relation.
//!
//! The paper (§3.4) also describes a "minimalist" encoding that veteran SQL
//! implementers preferred: store `NULL` in the data column and expose a
//! `GROUPING()` predicate instead of a first-class `ALL`. Both encodings are
//! supported here; see [`Value::is_all`] and the conversion helpers on
//! [`Table`].
//!
//! Everything is deliberately simple and allocation-conscious: a
//! [`Value`] is 16 bytes, with strings behind a shared `Arc<Box<str>>`
//! handle; a [`Row`] is a shared `Arc<[Value]>`, so copying a table's row
//! list copies handles, not values; and dimensions can be
//! dictionary-encoded through [`dictionary::SymbolTable`] (Graefe's hashed
//! symbol-table tip quoted in §5 of the paper).
//!
//! [Gray et al. 1996 data cube paper]:
//!     https://doi.org/10.1109/ICDE.1996.492099

pub mod columnar;
pub mod csv;
pub mod date;
pub mod dictionary;
pub mod display;
pub mod error;
pub mod fx;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use columnar::{Bitmap, BitmapBuilder, Column, ColumnData, ColumnarBatch, RleIndex};
pub use date::Date;
pub use dictionary::SymbolTable;
pub use error::{RelError, RelResult};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use row::Row;
pub use schema::{ColumnDef, DataType, Schema};
pub use table::Table;
pub use value::Value;
