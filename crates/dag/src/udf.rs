//! User-defined functions attached to operators.
//!
//! Pado executes operators as parallel tasks; a task processes whole input
//! partitions at a time. User code is therefore expressed as *per-partition*
//! functions over [`Value`] records, with a convenience constructor for the
//! common element-wise case.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::block::{block_from_vec, block_into_rows, Block, MainSlot};
use crate::value::Value;

/// The output callback handed to user functions; each call emits one record.
pub type Emit<'a> = &'a mut dyn FnMut(Value);

/// The input of a single task invocation.
///
/// `mains` holds one [`MainSlot`] per *main* (one-to-one or many-to-x)
/// input edge, in edge-declaration order; each slot references the shared
/// blocks produced upstream without copying any record. `side` holds the
/// fully materialized broadcast (one-to-many) input, if the operator has
/// one.
#[derive(Debug, Clone, Copy)]
pub struct TaskInput<'a> {
    /// One slot of shared record blocks per main input edge.
    pub mains: &'a [MainSlot],
    /// The broadcast side input, if any.
    pub side: Option<&'a [Value]>,
}

impl<'a> TaskInput<'a> {
    /// Builds a task input over the given main slots.
    pub fn new(mains: &'a [MainSlot], side: Option<&'a [Value]>) -> Self {
        TaskInput { mains, side }
    }

    /// Returns the records of the first (and usually only) main input as
    /// one contiguous slice.
    ///
    /// Returns an empty slice when the operator has no main inputs. Slots
    /// fed by one-to-one edges and interior fused members are always one
    /// block, so this never copies; see [`MainSlot::contiguous`] for the
    /// multi-block behavior.
    pub fn main(&self) -> &'a [Value] {
        self.mains.first().map(|s| s.contiguous()).unwrap_or(&[])
    }

    /// Iterates over every record of every main input, in slot order.
    pub fn records(&self) -> impl Iterator<Item = &'a Value> {
        self.mains.iter().flat_map(|s| s.iter())
    }

    /// Total number of records across all main inputs.
    pub fn len(&self) -> usize {
        self.mains.iter().map(MainSlot::len).sum()
    }

    /// Whether all main inputs are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An error raised by user code inside a task.
///
/// User functions can report failures without panicking by using the
/// `try_*` [`ParDoFn`] constructors; the runtime treats an error exactly
/// like a caught panic — the attempt fails, the executor survives, and the
/// master decides whether to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfError(String);

impl UdfError {
    /// Builds an error carrying a human-readable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        UdfError(reason.into())
    }

    /// The reason this UDF failed.
    pub fn reason(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user function failed: {}", self.0)
    }
}

impl std::error::Error for UdfError {}

type ParDoBody = dyn Fn(TaskInput<'_>, Emit<'_>) -> Result<(), UdfError> + Send + Sync;

/// A parallel-do (flat-map style) function, executed once per task over its
/// whole input partition.
///
/// Internally every `ParDoFn` is fallible; the plain constructors wrap
/// infallible closures, while the `try_*` constructors let user code
/// surface a [`UdfError`] that the runtime converts into a failed attempt
/// instead of a crashed executor thread.
#[derive(Clone)]
pub struct ParDoFn(Arc<ParDoBody>);

impl ParDoFn {
    /// Wraps a per-partition function.
    ///
    /// # Examples
    ///
    /// ```
    /// use pado_dag::{MainSlot, ParDoFn, TaskInput, Value};
    ///
    /// let count = ParDoFn::new(|input: TaskInput<'_>, emit| {
    ///     emit(Value::from(input.main().len() as i64));
    /// });
    /// let part = [MainSlot::from_vec(vec![Value::Unit, Value::Unit])];
    /// let mut out = Vec::new();
    /// count.call(TaskInput::new(&part, None), &mut |v| out.push(v));
    /// assert_eq!(out, vec![Value::from(2i64)]);
    /// ```
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(TaskInput<'_>, Emit<'_>) + Send + Sync + 'static,
    {
        ParDoFn::try_new(move |input, emit| {
            f(input, emit);
            Ok(())
        })
    }

    /// Wraps a fallible per-partition function.
    ///
    /// # Examples
    ///
    /// ```
    /// use pado_dag::{MainSlot, ParDoFn, TaskInput, UdfError, Value};
    ///
    /// let strict = ParDoFn::try_new(|input: TaskInput<'_>, emit| {
    ///     for v in input.main() {
    ///         let n = v.as_i64().ok_or_else(|| UdfError::new("expected an integer"))?;
    ///         emit(Value::from(n * 2));
    ///     }
    ///     Ok(())
    /// });
    /// let part = [MainSlot::from_vec(vec![Value::from("not a number")])];
    /// let err = strict
    ///     .try_call(TaskInput::new(&part, None), &mut |_| {})
    ///     .unwrap_err();
    /// assert!(err.to_string().contains("expected an integer"));
    /// ```
    pub fn try_new<F>(f: F) -> Self
    where
        F: Fn(TaskInput<'_>, Emit<'_>) -> Result<(), UdfError> + Send + Sync + 'static,
    {
        ParDoFn(Arc::new(f))
    }

    /// Wraps an element-wise function applied to every record of every main
    /// input.
    pub fn per_element<F>(f: F) -> Self
    where
        F: Fn(&Value, Emit<'_>) + Send + Sync + 'static,
    {
        ParDoFn::new(move |input, emit| {
            for part in input.mains {
                for v in part {
                    f(v, emit);
                }
            }
        })
    }

    /// Wraps a fallible element-wise function; the first error aborts the
    /// task attempt.
    pub fn try_per_element<F>(f: F) -> Self
    where
        F: Fn(&Value, Emit<'_>) -> Result<(), UdfError> + Send + Sync + 'static,
    {
        ParDoFn::try_new(move |input, emit| {
            for part in input.mains {
                for v in part {
                    f(v, emit)?;
                }
            }
            Ok(())
        })
    }

    /// Invokes the function on one task input.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped function returns an error; engine code should
    /// use [`ParDoFn::try_call`] instead.
    pub fn call(&self, input: TaskInput<'_>, emit: Emit<'_>) {
        if let Err(e) = (self.0)(input, emit) {
            panic!("{e}");
        }
    }

    /// Invokes the function on one task input, surfacing UDF errors.
    ///
    /// # Errors
    ///
    /// Returns the [`UdfError`] raised by the wrapped function, if any.
    pub fn try_call(&self, input: TaskInput<'_>, emit: Emit<'_>) -> Result<(), UdfError> {
        (self.0)(input, emit)
    }
}

impl fmt::Debug for ParDoFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ParDoFn")
    }
}

/// A commutative and associative combiner.
///
/// Because `merge` is commutative and associative, the runtime may partially
/// aggregate task outputs on transient executors and merge pushed partial
/// results on reserved executors in any order (§3.2.7 of the paper).
#[derive(Clone)]
pub struct CombineFn {
    identity: Arc<dyn Fn() -> Value + Send + Sync>,
    merge: Arc<dyn Fn(Value, Value) -> Value + Send + Sync>,
    i64_fold: Option<I64Fold>,
}

/// The identity and merge of a combiner whose merge of two `I64`s is
/// exactly this i64 op.
type I64Fold = (i64, fn(i64, i64) -> i64);

impl CombineFn {
    /// Builds a combiner from an identity constructor and a merge function.
    ///
    /// The caller must ensure `merge` is commutative and associative with
    /// `identity()` as its neutral element; the engine's correctness under
    /// partial aggregation depends on it.
    pub fn new<I, M>(identity: I, merge: M) -> Self
    where
        I: Fn() -> Value + Send + Sync + 'static,
        M: Fn(Value, Value) -> Value + Send + Sync + 'static,
    {
        CombineFn {
            identity: Arc::new(identity),
            merge: Arc::new(merge),
            i64_fold: None,
        }
    }

    /// A combiner over `I64`s by `op` from `identity`; any other operand
    /// counts as `identity`.
    fn i64_op(identity: i64, op: fn(i64, i64) -> i64) -> Self {
        let get = move |v: Value| v.as_i64().unwrap_or(identity);
        let merge = move |a, b| Value::I64(op(get(a), get(b)));
        let mut f = CombineFn::new(move || Value::I64(identity), merge);
        f.i64_fold = Some((identity, op));
        f
    }

    /// A combiner summing `I64` records.
    pub fn sum_i64() -> Self {
        CombineFn::i64_op(0, |a, b| a + b)
    }

    /// A combiner summing `F64` records.
    pub fn sum_f64() -> Self {
        CombineFn::new(
            || Value::F64(0.0),
            |a, b| Value::F64(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0)),
        )
    }

    /// A combiner summing dense `Vector` records element-wise.
    ///
    /// Mismatched lengths extend to the longer vector, so the identity (an
    /// empty vector) is neutral.
    pub fn sum_vector() -> Self {
        CombineFn::new(
            || Value::vector(Vec::new()),
            |a, b| {
                let av = a.as_vector().unwrap_or(&[]);
                let bv = b.as_vector().unwrap_or(&[]);
                let n = av.len().max(bv.len());
                let mut out = vec![0.0; n];
                for (i, x) in av.iter().enumerate() {
                    out[i] += x;
                }
                for (i, x) in bv.iter().enumerate() {
                    out[i] += x;
                }
                Value::vector(out)
            },
        )
    }

    /// A combiner counting records (each record contributes 1).
    pub fn count() -> Self {
        CombineFn::new(
            || Value::I64(0),
            |a, b| {
                let to_count = |v: &Value| v.as_i64().unwrap_or(1);
                // Accumulators are counts; fresh records count as 1. An
                // I64 operand is treated as an accumulator, which makes
                // the merge associative over mixed partials.
                Value::I64(to_count(&a) + to_count(&b))
            },
        )
    }

    /// A combiner keeping the maximum `I64`.
    pub fn max_i64() -> Self {
        CombineFn::i64_op(i64::MIN, i64::max)
    }

    /// A combiner keeping the minimum `I64`.
    pub fn min_i64() -> Self {
        CombineFn::i64_op(i64::MAX, i64::min)
    }

    /// Returns the neutral element.
    pub fn identity(&self) -> Value {
        (self.identity)()
    }

    /// `(identity, op)` when merging two `I64`s is exactly `op` on them
    /// (`sum_i64`, `max_i64`, `min_i64`), so a kernel may fold an i64
    /// column without building a `Value` per operand.
    pub fn i64_fold(&self) -> Option<I64Fold> {
        self.i64_fold
    }

    /// Merges two accumulated values.
    pub fn merge(&self, a: Value, b: Value) -> Value {
        (self.merge)(a, b)
    }

    /// Folds an iterator of values into a single accumulated value.
    pub fn merge_all<I: IntoIterator<Item = Value>>(&self, values: I) -> Value {
        values
            .into_iter()
            .fold(self.identity(), |acc, v| self.merge(acc, v))
    }
}

impl fmt::Debug for CombineFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CombineFn")
    }
}

/// A source: given `(partition, total_partitions)`, the records of that
/// partition.
///
/// `Read` sources use it to model loading from external storage; `Created`
/// sources use it with a single partition to materialize in-memory data
/// (§3.1.1). A generator ([`SourceFn::new`]) produces its records on every
/// read. A dataset ([`SourceFn::from_vec`]) is dealt into partition blocks
/// once, by its first read, which moves the records; every later read at
/// that partitioning — a later iteration, a relaunch, a speculative
/// duplicate, a later job over the same DAG — shares the same block.
/// Clones of a `SourceFn` share the deal.
#[derive(Clone)]
pub struct SourceFn(Arc<Source>);

enum Source {
    Generate(Box<dyn Fn(usize, usize) -> Vec<Value> + Send + Sync>),
    /// The records until the first read takes them, and the blocks that
    /// read dealt them into.
    Dataset(Mutex<Vec<Value>>, OnceLock<Vec<Block>>),
}

impl SourceFn {
    /// Wraps a partitioned generator function.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(usize, usize) -> Vec<Value> + Send + Sync + 'static,
    {
        SourceFn(Arc::new(Source::Generate(Box::new(f))))
    }

    /// A source that deals a fixed dataset round-robin across partitions:
    /// record `i` of `n` partitions belongs to partition `i % n`.
    pub fn from_vec(data: Vec<Value>) -> Self {
        SourceFn(Arc::new(Source::Dataset(Mutex::new(data), OnceLock::new())))
    }

    /// The records of one partition, as a block.
    ///
    /// A dataset's first read deals it into `total` blocks, and every read
    /// at that `total` returns an `Arc` of the same block. A read at
    /// another `total` gathers its records from the dealt blocks by index
    /// (cloning them); so does one past the last partition.
    pub fn block(&self, partition: usize, total: usize) -> Block {
        let (data, dealt) = match &*self.0 {
            Source::Generate(f) => return block_from_vec(f(partition, total)),
            Source::Dataset(data, dealt) => (data, dealt),
        };
        let total = total.max(1);
        let parts = dealt.get_or_init(|| {
            let mut data = data.lock().expect("held only to take the records");
            deal(std::mem::take(&mut *data), total)
        });
        if parts.len() == total && partition < total {
            return Arc::clone(&parts[partition]);
        }
        let (len, d) = (parts.iter().map(|b| b.len()).sum(), parts.len());
        let gathered = (partition..len)
            .step_by(total)
            .map(|i| parts[i % d][i / d].clone());
        block_from_vec(gathered.collect())
    }

    /// The records of one partition, owned: a generator's moved out of
    /// its fresh block, a dataset's cloned from the shared one.
    pub fn produce(&self, partition: usize, total: usize) -> Vec<Value> {
        block_into_rows(self.block(partition, total))
    }
}

/// Moves `records` round-robin into `total` blocks: record `i` to block
/// `i % total`.
fn deal(records: Vec<Value>, total: usize) -> Vec<Block> {
    let size = records.len().div_ceil(total);
    let mut parts: Vec<Vec<Value>> = (0..total).map(|_| Vec::with_capacity(size)).collect();
    for (i, v) in records.into_iter().enumerate() {
        parts[i % total].push(v);
    }
    parts.into_iter().map(block_from_vec).collect()
}

impl fmt::Debug for SourceFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SourceFn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_element_visits_all_mains() {
        let f = ParDoFn::per_element(|v, emit| emit(v.clone()));
        let mains = vec![
            MainSlot::from_vec(vec![Value::from(1i64)]),
            MainSlot::from_vec(vec![Value::from(2i64)]),
        ];
        let mut out = Vec::new();
        f.call(TaskInput::new(&mains, None), &mut |v| out.push(v));
        assert_eq!(out, vec![Value::from(1i64), Value::from(2i64)]);
    }

    #[test]
    fn task_input_len_and_main() {
        let mains = vec![
            MainSlot::from_vec(vec![Value::Unit; 2]),
            MainSlot::from_vec(vec![Value::Unit; 3]),
        ];
        let ti = TaskInput::new(&mains, None);
        assert_eq!(ti.len(), 5);
        assert!(!ti.is_empty());
        assert_eq!(ti.main().len(), 2);
        assert_eq!(ti.records().count(), 5);
        let empty: Vec<MainSlot> = Vec::new();
        assert!(TaskInput::new(&empty, None).is_empty());
        assert_eq!(TaskInput::new(&empty, None).main().len(), 0);
    }

    #[test]
    fn combine_sum_i64_identity_and_merge() {
        let c = CombineFn::sum_i64();
        assert_eq!(c.identity(), Value::I64(0));
        let merged = c.merge_all(vec![
            Value::from(1i64),
            Value::from(2i64),
            Value::from(3i64),
        ]);
        assert_eq!(merged, Value::I64(6));
    }

    #[test]
    fn combine_sum_vector_handles_ragged_lengths() {
        let c = CombineFn::sum_vector();
        let merged = c.merge(Value::vector(vec![1.0, 2.0]), Value::vector(vec![10.0]));
        assert_eq!(merged.as_vector().unwrap(), &[11.0, 2.0]);
        // Identity is neutral on either side.
        let v = Value::vector(vec![5.0]);
        assert_eq!(c.merge(c.identity(), v.clone()), v);
        assert_eq!(c.merge(v.clone(), c.identity()), v);
    }

    #[test]
    fn combine_max_min() {
        let max = CombineFn::max_i64();
        let min = CombineFn::min_i64();
        let vals = vec![Value::from(3i64), Value::from(-7i64), Value::from(5i64)];
        assert_eq!(max.merge_all(vals.clone()), Value::from(5i64));
        assert_eq!(min.merge_all(vals), Value::from(-7i64));
        assert_eq!(
            max.merge(max.identity(), Value::from(1i64)),
            Value::from(1i64)
        );
    }

    #[test]
    fn combine_count_is_associative_over_partials() {
        let c = CombineFn::count();
        // Counting integer accumulators directly.
        let direct = c.merge_all(vec![Value::I64(1), Value::I64(1), Value::I64(1)]);
        assert_eq!(direct, Value::I64(3));
        // Merging two partial counts equals counting everything.
        let left = c.merge_all(vec![Value::I64(1), Value::I64(1)]);
        let merged = c.merge(left, Value::I64(1));
        assert_eq!(merged, Value::I64(3));
    }

    #[test]
    fn source_from_vec_partitions_cover_all_records() {
        let data: Vec<Value> = (0..10).map(Value::from).collect();
        let s = SourceFn::from_vec(data.clone());
        let mut all = Vec::new();
        for p in 0..3 {
            all.extend(s.produce(p, 3));
        }
        all.sort();
        assert_eq!(all, data);
    }

    #[test]
    fn source_from_vec_strides_like_the_modulo_filter() {
        let data: Vec<Value> = (0..23).map(Value::from).collect();
        let s = SourceFn::from_vec(data.clone());
        for total in [0usize, 1, 3, 7] {
            let mut all = Vec::new();
            for part in 0..total.max(1) {
                let filtered: Vec<Value> = data
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % total.max(1) == part)
                    .map(|(_, v)| v.clone())
                    .collect();
                assert_eq!(s.produce(part, total), filtered, "{part} of {total}");
                all.extend(filtered);
            }
            all.sort();
            assert_eq!(all, data, "partitions of {total} permute the input");
        }
    }

    #[test]
    fn source_single_partition_yields_everything() {
        let data: Vec<Value> = (0..4).map(Value::from).collect();
        let s = SourceFn::from_vec(data.clone());
        assert_eq!(s.produce(0, 1), data);
    }
}
