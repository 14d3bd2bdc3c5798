//! Split-protocol type names, kept only for the benchmark harness.
//!
//! Every split query over a sharded fact runs the dense `⊕`-merge path
//! (see [`crate::backend::ShardedBackend`]); nothing in the program opens
//! a split handle or implements [`SplitHandle`]. The benchmark harness
//! still wraps [`crate::backend::ShardTransport::split_open`] and names
//! these types, so they stay until it stops doing so.

use joinboost_engine::{Datum, Table};

use super::BackendResult;

/// Kept only for the benchmark harness: the argument type of
/// [`crate::backend::ShardTransport::split_open`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitSpec;

/// Kept only for the benchmark harness: the reply type of
/// [`SplitHandle::summaries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalSummary;

/// Kept only for the benchmark harness, which forwards these calls in its
/// tracing wrapper. Nothing in the program implements it.
pub trait SplitHandle: Send + Sync {
    /// Rows behind the handle.
    fn num_rows(&self) -> usize;

    /// Boundary keys.
    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>>;

    /// Per-interval summaries for a grid.
    fn summaries(&self, grid: &[Datum]) -> BackendResult<Vec<IntervalSummary>>;

    /// Summaries for the `changed` intervals of a grid only.
    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>>;

    /// Sub-boundary keys inside the given intervals.
    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>>;

    /// Rows of the retained intervals.
    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table>;

    /// Every row behind the handle.
    fn into_all_rows(self: Box<Self>) -> BackendResult<Table>;
}
