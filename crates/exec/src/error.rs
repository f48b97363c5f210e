//! The workspace-level error taxonomy for fallible operator execution.
//!
//! Every operator crate's parallel entry point and every `Engine::try_*`
//! method returns `Result<_, EngineError>`. The infallible `Engine`
//! methods run the `try_` ones under a default
//! [`RunContext`](crate::RunContext) and panic only on outcomes that
//! cannot occur without an explicit one (cancellation, budgets), on a
//! size argument outside the operator's domain, or on a genuine bug (a
//! worker panic, which they re-raise with its original message).

use std::any::Any;

/// Why a fallible operator invocation did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A hash table had no free bucket left for an insert.
    TableFull {
        /// Tuples already in the table.
        len: usize,
        /// Total bucket count.
        buckets: usize,
    },
    /// A cuckoo build burned every rehash attempt without placing all
    /// keys (the displacement chains cycled at this load factor).
    RehashExhausted {
        /// Rebuild attempts consumed (the table's `MAX_REHASH`).
        attempts: usize,
        /// The key that could not be placed on the last attempt.
        key: u32,
    },
    /// The query's [`CancelToken`](crate::CancelToken) was cancelled.
    /// Workers stop at the next morsel-claim boundary, so at most one
    /// in-flight morsel per worker completes after the cancel.
    Cancelled,
    /// A large allocation would exceed the query's
    /// [`MemoryBudget`](crate::MemoryBudget).
    BudgetExceeded {
        /// Bytes the operator asked for.
        requested: u64,
        /// The budget's limit in bytes.
        limit: u64,
        /// Bytes already reserved when the request was made.
        used: u64,
    },
    /// A size argument lies outside the domain the operator supports.
    InputTooLarge {
        /// The argument's name.
        what: &'static str,
        /// The value passed.
        value: u64,
        /// The largest accepted value.
        limit: u64,
    },
    /// A worker thread panicked inside a parallel scope. Siblings drained
    /// cleanly; the payload is the panic message.
    WorkerPanicked {
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// preserved verbatim).
        payload: String,
        /// The morsel id the panicking worker had last claimed, if any.
        morsel: Option<usize>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TableFull { len, buckets } => {
                write!(f, "hash table full ({len} tuples in {buckets} buckets)")
            }
            EngineError::RehashExhausted { attempts, key } => write!(
                f,
                "cuckoo build exhausted {attempts} rehash attempts (last stuck key {key:#x})"
            ),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::BudgetExceeded {
                requested,
                limit,
                used,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} B with {used}/{limit} B reserved"
            ),
            EngineError::InputTooLarge { what, value, limit } => {
                write!(f, "{what} {value} exceeds the limit {limit}")
            }
            EngineError::WorkerPanicked { payload, morsel } => match morsel {
                Some(m) => write!(f, "worker panicked on morsel {m}: {payload}"),
                None => write!(f, "worker panicked: {payload}"),
            },
        }
    }
}

impl std::error::Error for EngineError {}

/// Render a panic payload as a message (`&str` and `String` payloads are
/// kept verbatim, anything else becomes a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Unwrap a fallible-operator result on an **infallible** path: a
/// [`EngineError::WorkerPanicked`] re-raises the worker's panic (with its
/// original message), anything else panics with the error's message: the
/// default [`RunContext`](crate::RunContext) can be neither cancelled nor
/// budget-limited, so only a bug or an out-of-domain size argument
/// ([`EngineError::InputTooLarge`]) gets here.
pub fn expect_infallible<T>(r: Result<T, EngineError>) -> T {
    match r {
        Ok(v) => v,
        Err(EngineError::WorkerPanicked { payload, .. }) => std::panic::panic_any(payload),
        Err(e) => panic!("failure on an infallible execution path: {e}"),
    }
}
