//! Per-column statistics consumed by the cardinality estimator.
//!
//! Mirrors what a System-R-style optimizer keeps: min/max, distinct counts,
//! equi-depth histograms for numeric columns and most-common-value lists for
//! categorical/text columns.

use crate::table::{Column, Table};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default number of equi-depth histogram buckets.
pub const DEFAULT_BUCKETS: usize = 32;
/// Default number of most-common values tracked per column.
pub const DEFAULT_MCVS: usize = 16;

/// Equi-depth histogram over a numeric column.
///
/// `bounds` has `buckets + 1` entries; bucket `i` covers
/// `[bounds[i], bounds[i+1]]` and holds ~`1/buckets` of the rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    pub bounds: Vec<f64>,
    pub rows_per_bucket: f64,
}

impl Histogram {
    /// Builds an equi-depth histogram from raw (unsorted) numeric data.
    pub fn build(mut data: Vec<f64>, buckets: usize) -> Option<Self> {
        // Non-finite values carry no range information and used to panic
        // the sort below; an all-NaN column simply has no histogram.
        data.retain(|x| x.is_finite());
        if data.is_empty() {
            return None;
        }
        data.sort_by(f64::total_cmp);
        let n = data.len();
        let buckets = buckets.min(n).max(1);
        let mut bounds = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            let idx = (i * (n - 1)) / buckets;
            bounds.push(data[idx]);
        }
        Some(Histogram {
            bounds,
            rows_per_bucket: n as f64 / buckets as f64,
        })
    }

    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    pub fn max(&self) -> f64 {
        *self.bounds.last().expect("histogram has bounds")
    }

    fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Estimated fraction of rows with value `< x` (or `<= x`; the
    /// within-bucket interpolation makes the two indistinguishable).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if x <= self.min() {
            return 0.0;
        }
        if x >= self.max() {
            return 1.0;
        }
        let b = self.buckets();
        // Find the bucket containing x.
        let i = self
            .bounds
            .windows(2)
            .position(|w| x >= w[0] && x <= w[1])
            .unwrap_or(b - 1);
        let (lo, hi) = (self.bounds[i], self.bounds[i + 1]);
        let within = if hi > lo { (x - lo) / (hi - lo) } else { 0.5 };
        (i as f64 + within) / b as f64
    }

    /// Estimated selectivity of `lo <= value <= hi`.
    pub fn fraction_between(&self, lo: f64, hi: f64) -> f64 {
        (self.fraction_below(hi) - self.fraction_below(lo)).max(0.0)
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnStats {
    pub name: String,
    pub dtype: DataType,
    pub row_count: usize,
    pub distinct: usize,
    /// Numeric columns only.
    pub histogram: Option<Histogram>,
    /// Most common values with their frequencies (fraction of rows).
    pub mcvs: Vec<(Value, f64)>,
}

impl ColumnStats {
    pub fn build(name: &str, col: &Column) -> Self {
        match col {
            Column::Int(v) => Self::from_ints(name, v),
            Column::Float(v) => Self::from_floats(name, v.clone()),
            Column::Text(v) => Self::from_texts(name, v),
        }
    }

    /// Builds stats from raw integer data. Shared by the in-memory
    /// column path and the paged backend's streamed samples.
    pub fn from_ints(name: &str, v: &[i64]) -> Self {
        let row_count = v.len();
        let data: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        let distinct = count_distinct_int(v);
        let mcvs = top_values(v.iter().map(|&x| Value::Int(x)), row_count);
        ColumnStats {
            name: name.to_string(),
            dtype: DataType::Int,
            row_count,
            distinct,
            histogram: Histogram::build(data, DEFAULT_BUCKETS),
            mcvs,
        }
    }

    /// Builds stats from raw float data (consumes the vector: the
    /// histogram sorts it in place).
    pub fn from_floats(name: &str, v: Vec<f64>) -> Self {
        let row_count = v.len();
        let distinct = count_distinct_float(&v);
        ColumnStats {
            name: name.to_string(),
            dtype: DataType::Float,
            row_count,
            distinct,
            histogram: Histogram::build(v, DEFAULT_BUCKETS),
            mcvs: Vec::new(),
        }
    }

    /// Builds stats from raw text data.
    pub fn from_texts(name: &str, v: &[String]) -> Self {
        let row_count = v.len();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for s in v {
            *counts.entry(s.as_str()).or_default() += 1;
        }
        let distinct = counts.len();
        let mut pairs: Vec<(&str, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mcvs = pairs
            .into_iter()
            .take(DEFAULT_MCVS)
            .map(|(s, c)| {
                (
                    Value::Text(s.to_string()),
                    c as f64 / row_count.max(1) as f64,
                )
            })
            .collect();
        ColumnStats {
            name: name.to_string(),
            dtype: DataType::Text,
            row_count,
            distinct,
            histogram: None,
            mcvs,
        }
    }

    /// Frequency of `v` according to the MCV list, falling back to the
    /// uniform assumption `1/distinct` for non-MCV values.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        for (mcv, freq) in &self.mcvs {
            if mcv == v {
                return *freq;
            }
        }
        if self.distinct == 0 {
            0.0
        } else {
            // Mass not covered by MCVs, spread over the remaining distinct values.
            let mcv_mass: f64 = self.mcvs.iter().map(|(_, f)| f).sum();
            let rest = (self.distinct - self.mcvs.len().min(self.distinct)).max(1);
            ((1.0 - mcv_mass).max(0.0) / rest as f64).min(1.0)
        }
    }
}

fn count_distinct_int(v: &[i64]) -> usize {
    let mut sorted = v.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn count_distinct_float(v: &[f64]) -> usize {
    let mut sorted: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn top_values<I: Iterator<Item = Value>>(vals: I, row_count: usize) -> Vec<(Value, f64)> {
    let mut counts: HashMap<i64, usize> = HashMap::new();
    for v in vals {
        if let Value::Int(x) = v {
            *counts.entry(x).or_default() += 1;
        }
    }
    let mut pairs: Vec<(i64, usize)> = counts.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs
        .into_iter()
        .take(DEFAULT_MCVS)
        .map(|(v, c)| (Value::Int(v), c as f64 / row_count.max(1) as f64))
        .collect()
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableStats {
    pub table: String,
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

/// Row cap per column for [`TableStats::build_read`] when callers do not
/// choose one. With stride sampling this bounds stats memory to ~8 MB per
/// column regardless of on-disk table size; tables at or below the cap
/// are scanned exactly (stride 1), matching [`TableStats::build`] bit for
/// bit.
pub const DEFAULT_STATS_ROW_CAP: usize = 1_000_000;

impl TableStats {
    pub fn build(table: &Table) -> Self {
        let columns = table
            .schema
            .columns
            .iter()
            .zip(&table.columns)
            .map(|(def, col)| ColumnStats::build(&def.name, col))
            .collect();
        TableStats {
            table: table.name().to_string(),
            row_count: table.row_count(),
            columns,
        }
    }

    /// Builds stats through the backend-neutral [`TableRead`](crate::cursor::TableRead) interface.
    ///
    /// Columns longer than `row_cap` are systematically sampled (every
    /// `stride`-th row) so huge paged tables never materialize in memory;
    /// MCV frequencies then denominate over the sample, and `distinct`
    /// becomes a lower bound. At stride 1 the scan order and inputs are
    /// identical to [`TableStats::build`], so the result is bit-identical
    /// for any table that fits the cap.
    pub fn build_read<T: crate::cursor::TableRead>(table: &T, row_cap: usize) -> Self {
        use crate::cursor::ColCursor;
        let schema = table.schema();
        let rows = table.row_count();
        let stride = if row_cap == 0 {
            1
        } else {
            rows.div_ceil(row_cap).max(1)
        };
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(ci, def)| {
                let mut cursor = table.scan_column(ci);
                match def.dtype {
                    DataType::Int => {
                        let mut v = Vec::new();
                        let mut i = 0usize;
                        while let Some(val) = cursor.next_value() {
                            if i.is_multiple_of(stride) {
                                if let Value::Int(x) = val {
                                    v.push(x);
                                }
                            }
                            i += 1;
                        }
                        ColumnStats::from_ints(&def.name, &v)
                    }
                    DataType::Float => {
                        let mut v = Vec::new();
                        let mut i = 0usize;
                        while let Some(val) = cursor.next_value() {
                            if i.is_multiple_of(stride) {
                                if let Value::Float(x) = val {
                                    v.push(x);
                                }
                            }
                            i += 1;
                        }
                        ColumnStats::from_floats(&def.name, v)
                    }
                    DataType::Text => {
                        let mut v = Vec::new();
                        let mut i = 0usize;
                        while let Some(val) = cursor.next_value() {
                            if i.is_multiple_of(stride) {
                                if let Value::Text(s) = val {
                                    v.push(s);
                                }
                            }
                            i += 1;
                        }
                        ColumnStats::from_texts(&def.name, &v)
                    }
                }
            })
            .collect();
        TableStats {
            table: schema.name.clone(),
            row_count: rows,
            columns,
        }
    }

    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_histogram_fractions() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(data, 10).unwrap();
        assert!((h.fraction_below(500.0) - 0.5).abs() < 0.02);
        assert!((h.fraction_below(100.0) - 0.1).abs() < 0.02);
        assert_eq!(h.fraction_below(-5.0), 0.0);
        assert_eq!(h.fraction_below(2000.0), 1.0);
        assert!((h.fraction_between(250.0, 750.0) - 0.5).abs() < 0.03);
    }

    #[test]
    fn histogram_handles_skew() {
        // 90% of mass at value 0, rest spread out.
        let mut data = vec![0.0; 900];
        data.extend((1..=100).map(|i| i as f64));
        let h = Histogram::build(data, 10).unwrap();
        // Almost everything is <= 0, so fraction below 0.5 should be ~0.9.
        assert!(h.fraction_below(0.5) > 0.8);
    }

    #[test]
    fn histogram_empty_column() {
        assert!(Histogram::build(Vec::new(), 10).is_none());
    }

    #[test]
    fn mcv_eq_selectivity() {
        let col = Column::Int(vec![1, 1, 1, 1, 1, 1, 2, 3, 4, 5]);
        let s = ColumnStats::build("c", &col);
        assert!((s.eq_selectivity(&Value::Int(1)) - 0.6).abs() < 1e-9);
        // Non-MCV values fall back to the uniform share.
        assert!(s.eq_selectivity(&Value::Int(99)) <= 0.2);
    }

    #[test]
    fn text_mcvs() {
        let col = Column::Text(vec!["a".into(), "a".into(), "a".into(), "b".into()]);
        let s = ColumnStats::build("c", &col);
        assert_eq!(s.distinct, 2);
        assert!((s.eq_selectivity(&Value::Text("a".into())) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn distinct_counts() {
        let s = ColumnStats::build("c", &Column::Int(vec![5, 5, 7, 9]));
        assert_eq!(s.distinct, 3);
        let s = ColumnStats::build("c", &Column::Float(vec![1.5, 1.5, 2.5]));
        assert_eq!(s.distinct, 2);
    }

    #[test]
    fn build_read_matches_build_under_the_cap() {
        use crate::schema::{ColumnDef, TableSchema};
        let schema = TableSchema::new("t")
            .with_column(ColumnDef::new("i", DataType::Int))
            .with_column(ColumnDef::new("f", DataType::Float))
            .with_column(ColumnDef::new("s", DataType::Text));
        let mut t = Table::new(schema);
        for i in 0..300i64 {
            t.push_row(vec![
                Value::Int(i % 17),
                Value::Float((i % 5) as f64 + 0.25),
                Value::Text(format!("s{}", i % 9)),
            ]);
        }
        let exact = TableStats::build(&t);
        let via_read = TableStats::build_read(&t, DEFAULT_STATS_ROW_CAP);
        assert_eq!(format!("{exact:?}"), format!("{via_read:?}"));
        // Over-cap: sampled stats remain well-formed with true row_count.
        let sampled = TableStats::build_read(&t, 50);
        assert_eq!(sampled.row_count, 300);
        assert!(sampled.columns[0].row_count <= 50 + 1);
        assert!(sampled.columns[0].distinct <= exact.columns[0].distinct);
    }

    /// Regression: NaN in a float column used to panic histogram builds.
    #[test]
    fn nan_data_does_not_panic_stats() {
        let h = Histogram::build(vec![f64::NAN, 1.0, 2.0, f64::INFINITY, 3.0], 4);
        let h = h.expect("finite values remain");
        assert!(h.min().is_finite() && h.max().is_finite());
        assert!(Histogram::build(vec![f64::NAN, f64::NAN], 4).is_none());

        let s = ColumnStats::build("c", &Column::Float(vec![f64::NAN, 1.0, 1.0, 2.0]));
        assert_eq!(s.row_count, 4);
        assert!(s.histogram.is_some());
        let sel = s.eq_selectivity(&Value::Float(1.0));
        assert!((0.0..=1.0).contains(&sel));
    }
}
