//! Horizontal partitioning of tables.
//!
//! The dataflow engine schedules one task per partition, so partitioning is
//! where data-parallelism comes from (mirroring Spark's RDD partitions).

use serde::{Deserialize, Serialize};

use crate::error::{DataError, Result};
use crate::table::{Table, TableBuilder};

/// How rows are distributed across partitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Partitioning {
    /// No guarantee (the default after a scan or a union).
    Arbitrary,
    /// Rows with equal hash of the named columns share a partition.
    Hash {
        columns: Vec<String>,
        partitions: usize,
    },
    /// Contiguous row ranges from a single ordered source.
    Range,
}

/// A table split into horizontal chunks plus the guarantee describing them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionedTable {
    parts: Vec<Table>,
    partitioning: Partitioning,
}

impl PartitionedTable {
    /// Wrap pre-split parts; all schemas must match.
    pub fn new(parts: Vec<Table>, partitioning: Partitioning) -> Result<Self> {
        let first = parts
            .first()
            .ok_or_else(|| DataError::Invalid("need at least one partition".to_owned()))?;
        for p in &parts[1..] {
            first.schema().ensure_same(p.schema())?;
        }
        Ok(PartitionedTable {
            parts,
            partitioning,
        })
    }

    /// Split a single table into `n` equal-size contiguous chunks.
    ///
    /// Produces exactly `n` partitions (trailing ones may be empty) so that
    /// task counts are predictable. Each chunk is a view sharing `table`'s
    /// buffers, so splitting copies no values, and [`Self::collect`] joins
    /// the chunks back without copying either.
    pub fn split(table: Table, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DataError::Invalid(
                "cannot split into 0 partitions".to_owned(),
            ));
        }
        let rows = table.num_rows();
        let per = rows.div_ceil(n.max(1)).max(1);
        let mut parts = Vec::with_capacity(n);
        for i in 0..n {
            let start = (i * per).min(rows);
            let end = ((i + 1) * per).min(rows);
            parts.push(table.slice(start, end)?);
        }
        PartitionedTable::new(parts, Partitioning::Range)
    }

    /// A single-partition wrapper.
    pub fn single(table: Table) -> Self {
        PartitionedTable {
            parts: vec![table],
            partitioning: Partitioning::Range,
        }
    }

    /// Redistribute rows by hash of the named key columns into `n` buckets.
    pub fn hash_repartition(&self, columns: &[&str], n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DataError::Invalid(
                "cannot repartition into 0 buckets".to_owned(),
            ));
        }
        let schema = self.schema().clone();
        let key_idx: Vec<usize> = columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        let mut builders: Vec<TableBuilder> =
            (0..n).map(|_| TableBuilder::new(schema.clone())).collect();
        for part in &self.parts {
            for row in part.iter_rows() {
                let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
                for &k in &key_idx {
                    h = h.rotate_left(5) ^ row[k].hash_code();
                }
                builders[(h % n as u64) as usize].push_row(row)?;
            }
        }
        let parts = builders
            .into_iter()
            .map(TableBuilder::finish)
            .collect::<Result<Vec<_>>>()?;
        PartitionedTable::new(
            parts,
            Partitioning::Hash {
                columns: columns.iter().map(|s| s.to_string()).collect(),
                partitions: n,
            },
        )
    }

    pub fn schema(&self) -> &crate::schema::Schema {
        self.parts[0].schema()
    }

    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    pub fn parts(&self) -> &[Table] {
        &self.parts
    }

    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(Table::num_rows).sum()
    }

    /// Collapse back into a single table.
    pub fn collect(&self) -> Result<Table> {
        Table::concat(&self.parts)
    }

    /// Consume into the partition vector.
    pub fn into_parts(self) -> Vec<Table> {
        self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn numbers(n: i64) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            (0..n).map(|i| vec![Value::Int(i % 7), Value::Int(i)]),
        )
        .unwrap()
    }

    #[test]
    fn split_produces_exact_partition_count() {
        let p = PartitionedTable::split(numbers(10), 4).unwrap();
        assert_eq!(p.num_partitions(), 4);
        assert_eq!(p.total_rows(), 10);
        // Contiguous, order-preserving.
        let c = p.collect().unwrap();
        assert_eq!(c.value(9, "v").unwrap(), Value::Int(9));
    }

    #[test]
    fn split_more_partitions_than_rows() {
        let p = PartitionedTable::split(numbers(2), 5).unwrap();
        assert_eq!(p.num_partitions(), 5);
        assert_eq!(p.total_rows(), 2);
    }

    #[test]
    fn split_zero_is_error() {
        assert!(PartitionedTable::split(numbers(2), 0).is_err());
    }

    #[test]
    fn hash_repartition_groups_keys() {
        let p = PartitionedTable::split(numbers(100), 3).unwrap();
        let h = p.hash_repartition(&["k"], 4).unwrap();
        assert_eq!(h.num_partitions(), 4);
        assert_eq!(h.total_rows(), 100);
        // Every key value must live in exactly one partition.
        for key in 0..7 {
            let holders = h
                .parts()
                .iter()
                .filter(|t| t.iter_rows().any(|r| r[0] == Value::Int(key)))
                .count();
            assert!(holders <= 1, "key {key} appears in {holders} partitions");
        }
    }

    #[test]
    fn repartition_preserves_multiset() {
        let p = PartitionedTable::split(numbers(50), 2).unwrap();
        let h = p.hash_repartition(&["v"], 8).unwrap();
        let mut vs: Vec<i64> = h
            .collect()
            .unwrap()
            .column("v")
            .unwrap()
            .iter_values()
            .map(|v| v.as_int().unwrap())
            .collect();
        vs.sort_unstable();
        assert_eq!(vs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn new_rejects_mismatched_schemas() {
        let a = numbers(3);
        let b = a.project(&["k"]).unwrap();
        assert!(PartitionedTable::new(vec![a, b], Partitioning::Arbitrary).is_err());
        assert!(PartitionedTable::new(vec![], Partitioning::Arbitrary).is_err());
    }

    #[test]
    fn partitioning_metadata_recorded() {
        let p = PartitionedTable::split(numbers(10), 2).unwrap();
        let h = p.hash_repartition(&["k"], 2).unwrap();
        assert_eq!(
            h.partitioning(),
            &Partitioning::Hash {
                columns: vec!["k".into()],
                partitions: 2
            }
        );
    }
}
