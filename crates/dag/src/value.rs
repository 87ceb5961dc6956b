//! Dynamic record model shared by every operator in a dataflow program.
//!
//! Pado moves records between operators that are compiled separately from
//! the user program, so the engine works over a dynamically-typed [`Value`]
//! rather than a generic element type. The typed [`crate::Pipeline`] builder
//! converts user closures into functions over [`Value`]s.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Process-wide count of [`Value`] clones, kept so tests and benches can
/// prove the data plane shares blocks instead of copying records. The
/// counter costs one relaxed increment *per clone*, so it is free exactly
/// where the zero-copy plane succeeds in not cloning.
static CLONE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Total `Value` clones performed by this process so far.
///
/// Composite values count recursively: cloning a `Pair` increments once
/// for the pair and once for each component, while `List`/`Vector`/`Str`
/// payloads are reference counted and count as a single clone.
pub fn clone_count() -> u64 {
    CLONE_COUNT.load(AtomicOrdering::Relaxed)
}

thread_local! {
    static THREAD_CLONE_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// `Value` clones performed by the calling thread so far, counted like
/// [`clone_count`]. A zero-clone proof about code that runs on one thread
/// reads this view: the process-wide total also moves when a sibling test
/// clones on another thread.
pub fn thread_clone_count() -> u64 {
    THREAD_CLONE_COUNT.with(Cell::get)
}

/// A single data record flowing through a dataflow program.
///
/// `Value` is cheaply cloneable: large payloads (`Str`, `Bytes`, `List`,
/// `Vector`) are reference counted. Floating point values order and hash by
/// their IEEE-754 total order so that records containing them can be used as
/// shuffle keys deterministically.
///
/// # Examples
///
/// ```
/// use pado_dag::Value;
///
/// let record = Value::pair(Value::from("doc-1"), Value::from(42i64));
/// assert_eq!(record.key().unwrap(), &Value::from("doc-1"));
/// assert_eq!(record.val().unwrap().as_i64(), Some(42));
/// ```
#[derive(Debug, Default)]
pub enum Value {
    /// The unit record, used by operators that only signal completion.
    #[default]
    Unit,
    /// A signed 64-bit integer.
    I64(i64),
    /// A 64-bit float; ordered and hashed by total order.
    F64(f64),
    /// An immutable shared string.
    Str(Arc<str>),
    /// An immutable shared byte buffer.
    Bytes(Arc<[u8]>),
    /// A key/value pair; the unit of keyed shuffles.
    Pair(Box<Value>, Box<Value>),
    /// A shared list of records, e.g. the grouped values of a `GroupByKey`.
    List(Arc<Vec<Value>>),
    /// A shared dense numeric vector, used heavily by the ML workloads.
    Vector(Arc<Vec<f64>>),
}

impl Value {
    /// Builds a key/value pair record.
    pub fn pair(key: Value, val: Value) -> Value {
        Value::Pair(Box::new(key), Box::new(val))
    }

    /// Builds a list record from owned values.
    pub fn list(values: Vec<Value>) -> Value {
        Value::List(Arc::new(values))
    }

    /// Builds a dense vector record from owned floats.
    pub fn vector(values: Vec<f64>) -> Value {
        Value::Vector(Arc::new(values))
    }

    /// Returns the key of a `Pair`, or `None` for any other variant.
    pub fn key(&self) -> Option<&Value> {
        match self {
            Value::Pair(k, _) => Some(k),
            _ => None,
        }
    }

    /// Returns the value of a `Pair`, or `None` for any other variant.
    pub fn val(&self) -> Option<&Value> {
        match self {
            Value::Pair(_, v) => Some(v),
            _ => None,
        }
    }

    /// Consumes a `Pair`, returning its parts, or `None` otherwise.
    pub fn into_pair(self) -> Option<(Value, Value)> {
        match self {
            Value::Pair(k, v) => Some((*k, *v)),
            _ => None,
        }
    }

    /// Returns the integer payload, or `None` for any other variant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload; integers are widened losslessly where
    /// possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::I64(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string payload, or `None` for any other variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload, or `None` for any other variant.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the vector payload, or `None` for any other variant.
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Exact serialized size in bytes: always equal to
    /// `codec::encode(self).len()` (one tag byte per node, an 8-byte
    /// payload per scalar, a 4-byte length prefix per variable-length
    /// payload). The runtime's store budgets and transfer accounting use
    /// this, so it must never drift from what a spill or push actually
    /// writes; `codec_properties` asserts the equality by proptest.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::I64(_) | Value::F64(_) => 1 + 8,
            Value::Str(s) => 1 + 4 + s.len(),
            Value::Bytes(b) => 1 + 4 + b.len(),
            Value::Pair(k, v) => 1 + k.size_bytes() + v.size_bytes(),
            Value::List(l) => 1 + 4 + l.iter().map(Value::size_bytes).sum::<usize>(),
            Value::Vector(v) => 1 + 4 + v.len() * 8,
        }
    }

    /// Discriminant index used for cross-variant ordering.
    fn tag(&self) -> u8 {
        match self {
            Value::Unit => 0,
            Value::I64(_) => 1,
            Value::F64(_) => 2,
            Value::Str(_) => 3,
            Value::Bytes(_) => 4,
            Value::Pair(_, _) => 5,
            Value::List(_) => 6,
            Value::Vector(_) => 7,
        }
    }
}

impl Clone for Value {
    fn clone(&self) -> Self {
        CLONE_COUNT.fetch_add(1, AtomicOrdering::Relaxed);
        THREAD_CLONE_COUNT.with(|c| c.set(c.get() + 1));
        match self {
            Value::Unit => Value::Unit,
            Value::I64(i) => Value::I64(*i),
            Value::F64(x) => Value::F64(*x),
            Value::Str(s) => Value::Str(Arc::clone(s)),
            Value::Bytes(b) => Value::Bytes(Arc::clone(b)),
            Value::Pair(k, v) => Value::Pair(k.clone(), v.clone()),
            Value::List(l) => Value::List(Arc::clone(l)),
            Value::Vector(v) => Value::Vector(Arc::clone(v)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Pair(ak, av), Pair(bk, bv)) => ak.cmp(bk).then_with(|| av.cmp(bv)),
            (List(a), List(b)) => a.iter().cmp(b.iter()),
            (Vector(a), Vector(b)) => {
                let mut it = a.iter().zip(b.iter());
                loop {
                    match it.next() {
                        Some((x, y)) => match x.total_cmp(y) {
                            Ordering::Equal => continue,
                            ord => return ord,
                        },
                        None => return a.len().cmp(&b.len()),
                    }
                }
            }
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Unit => {}
            Value::I64(i) => i.hash(state),
            Value::F64(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Pair(k, v) => {
                k.hash(state);
                v.hash(state);
            }
            Value::List(l) => {
                state.write_usize(l.len());
                for v in l.iter() {
                    v.hash(state);
                }
            }
            Value::Vector(v) => {
                state.write_usize(v.len());
                for x in v.iter() {
                    x.to_bits().hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::I64(i) => write!(f, "{i}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Pair(k, v) => write!(f, "({k}, {v})"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Vector(v) => write!(f, "<vec{}>", v.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::vector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn pair_accessors() {
        let p = Value::pair(Value::from("k"), Value::from(7i64));
        assert_eq!(p.key().unwrap().as_str(), Some("k"));
        assert_eq!(p.val().unwrap().as_i64(), Some(7));
        let (k, v) = p.into_pair().unwrap();
        assert_eq!(k, Value::from("k"));
        assert_eq!(v, Value::from(7i64));
    }

    #[test]
    fn non_pair_accessors_return_none() {
        assert!(Value::Unit.key().is_none());
        assert!(Value::from(1i64).val().is_none());
        assert!(Value::from(1.0).into_pair().is_none());
        assert!(Value::Unit.as_i64().is_none());
        assert!(Value::from("x").as_f64().is_none());
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::F64(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
        // NaN sorts after all finite values under total order.
        assert!(nan > Value::F64(f64::INFINITY));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::pair(Value::from("x"), Value::vector(vec![1.0, 2.0]));
        let b = Value::pair(Value::from("x"), Value::vector(vec![1.0, 2.0]));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_variant_ordering_is_total() {
        let vals = vec![
            Value::Unit,
            Value::from(3i64),
            Value::from(1.5),
            Value::from("s"),
            Value::list(vec![Value::Unit]),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        // Sorting is deterministic and stable across shuffles.
        let mut shuffled = vals;
        shuffled.reverse();
        shuffled.sort();
        assert_eq!(sorted, shuffled);
    }

    #[test]
    fn thread_clone_count_sees_only_the_calling_thread() {
        let v = Value::pair(Value::from(1i64), Value::from(2i64));
        let before = thread_clone_count();
        std::thread::scope(|s| {
            s.spawn(|| drop(v.clone()));
        });
        assert_eq!(thread_clone_count(), before, "a sibling thread's clone");
        drop(v.clone());
        assert_eq!(thread_clone_count(), before + 3, "pair + key + value");
    }

    #[test]
    fn integer_widening_in_as_f64() {
        assert_eq!(Value::from(4i64).as_f64(), Some(4.0));
    }

    #[test]
    fn size_bytes_matches_encoded_size() {
        let samples = vec![
            Value::Unit,
            Value::from(1i64),
            Value::from(f64::NAN),
            Value::from("héllo"),
            Value::Bytes(Arc::from(&b"\x00\xff"[..])),
            Value::pair(Value::from(1i64), Value::from(2i64)),
            Value::list(vec![Value::from("x"), Value::Unit]),
            Value::vector(vec![0.0; 100]),
        ];
        for v in samples {
            assert_eq!(
                v.size_bytes(),
                crate::codec::encode(&v).expect("encodes").len(),
                "size_bytes drifted from the codec for {v:?}"
            );
        }
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(
            Value::pair(Value::from(1i64), Value::from(2i64)).to_string(),
            "(1, 2)"
        );
        assert_eq!(
            Value::list(vec![Value::from(1i64), Value::from(2i64)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::list(vec![Value::from(1i64)]);
        let b = Value::list(vec![Value::from(1i64), Value::from(0i64)]);
        assert!(a < b);
    }
}
