//! # toreador-data
//!
//! Columnar in-memory data substrate for the TOREADOR reproduction.
//!
//! This crate is the bottom of the workspace dependency DAG. It provides:
//!
//! * [`value::Value`] / [`value::DataType`] — dynamically typed scalars, the
//!   row-oriented currency of expression evaluation and shuffles;
//! * [`schema::Schema`] / [`schema::Field`] — named, typed record schemas;
//! * [`buffer::Buffer`] / [`buffer::StrBuffer`] — shared, sliceable,
//!   copy-on-write value buffers (strings as offsets plus bytes);
//! * [`column::Column`] — typed columnar vectors with validity bitmaps,
//!   whose clones and slices share their buffers;
//! * [`table::Table`] — immutable rectangular batches with relational
//!   kernels (project / filter / take / sort / concat);
//! * [`partition::PartitionedTable`] — horizontal partitioning, the unit of
//!   data-parallelism for the dataflow engine;
//! * [`csv`] — RFC-4180-subset reader/writer with type inference;
//! * [`json`] — JSON Lines reader/writer (the "variety" ingest path);
//! * [`generate`] — seeded synthetic generators for the three TOREADOR
//!   vertical scenarios (e-commerce clickstream, smart-energy telemetry,
//!   healthcare records);
//! * [`stats`] — mergeable descriptive statistics (Welford, quantiles,
//!   Pearson, histograms).
//!
//! ## Example
//!
//! ```
//! use toreador_data::prelude::*;
//!
//! let table = toreador_data::generate::clickstream(1_000, 42);
//! let mask: Vec<bool> = table
//!     .column("action")
//!     .unwrap()
//!     .iter_values()
//!     .map(|v| v.as_str().map(|s| s == "purchase").unwrap_or(false))
//!     .collect();
//! let purchases = table.filter(&mask).unwrap();
//! assert!(purchases.num_rows() > 0);
//! ```

pub mod buffer;
pub mod column;
pub mod csv;
pub mod error;
pub mod generate;
pub mod json;
pub mod partition;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::column::Column;
    pub use crate::error::{DataError, Result as DataResult};
    pub use crate::partition::{PartitionedTable, Partitioning};
    pub use crate::schema::{Field, Schema};
    pub use crate::table::{Table, TableBuilder};
    pub use crate::value::{DataType, Row, Value};
}
