//! Partition, then one stealable task per part: the shared skeleton of
//! the max-partition join (paper §9) and the partitioned group-by.
//!
//! Both operators cut their input with one partition function into parts
//! whose hash table fits in cache, then process each part on its own.
//! [`partition_then_tasks`] partitions every input relation with the same
//! function through [`partition_twopass`], and then runs one task per
//! part on the morsel scheduler. A worker stuck on a skew-inflated part
//! does not stall the others: they steal the remaining parts.

use std::time::{Duration, Instant};

use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue};
use rsv_simd::{KernelKind, Simd};

use crate::twopass::partition_twopass;
use crate::PartitionFn;

/// One relation's key and payload columns.
pub type Columns<'a> = (&'a [u32], &'a [u32]);

/// What [`partition_then_tasks`] returns.
#[derive(Debug)]
pub struct PartTasks<W> {
    /// Each worker's state after its last task, in worker order.
    pub workers: Vec<W>,
    /// Wall time of the partition phase.
    pub partition: Duration,
}

/// Partition each of the `N` relations in `rels` with `f` (stable, so a
/// part keeps its tuples in input order), then call
/// `task(state, p, parts)` once for every part `p < f.fanout()`, where
/// `parts[r]` is relation `r`'s part `p` — empty parts included. Each
/// part is one stealable task timed as `phase`. The tasks run on
/// `min(threads, f.fanout())` workers; each starts from `init(sizes)`,
/// where `sizes[r]` holds relation `r`'s tuple count per part, and its
/// final state is returned. An error from `init` or a task stops its
/// worker and is returned once the other workers have finished.
///
/// Honours `policy.run`: the partitioned copies (8 bytes per input tuple,
/// held until the tasks finish), each pass's staging buffers (held for
/// that pass; see [`partition_pass`]) and the partitioner's region
/// scratch past [`MAX_DIRECT_FANOUT`] parts are gated by the memory budget,
/// cancellation is observed at every morsel and task claim, and a worker
/// panic surfaces as [`EngineError::WorkerPanicked`].
///
/// [`MAX_DIRECT_FANOUT`]: crate::twopass::MAX_DIRECT_FANOUT
/// [`partition_pass`]: crate::parallel::partition_pass
pub fn partition_then_tasks<S, F, W, const N: usize>(
    kind: KernelKind<S>,
    f: F,
    rels: [Columns<'_>; N],
    policy: &ExecPolicy,
    phase: &'static str,
    init: impl Fn([&[u32]; N]) -> Result<W, EngineError> + Sync,
    task: impl Fn(&mut W, usize, [Columns<'_>; N]) -> Result<(), EngineError> + Sync,
) -> Result<PartTasks<W>, EngineError>
where
    S: Simd,
    F: PartitionFn + Sync,
    W: Send,
{
    let t0 = Instant::now();
    let mut parted = Vec::with_capacity(N);
    for (keys, pays) in rels {
        let mut dk = policy.run.vec(keys.len(), 0u32)?;
        let mut dp = policy.run.vec(keys.len(), 0u32)?;
        let pass = partition_twopass(kind, f, keys, pays, &mut dk, &mut dp, policy)?;
        parted.push((dk, dp, pass));
    }
    let partition = t0.elapsed();

    // A worker past the part count would find no task, so none starts.
    let tasks = ExecPolicy {
        threads: policy.threads.min(f.fanout()).max(1),
        ..policy.clone()
    };
    let q = MorselQueue::tasks(f.fanout(), &tasks);
    let sizes: [&[u32]; N] = std::array::from_fn(|r| &parted[r].2.hist[..]);
    let workers = parallel_scope_try(tasks.threads, |ctx| {
        let mut state = init(sizes)?;
        for t in ctx.morsels(&q) {
            let _ = rsv_testkit::failpoint!("partition.task");
            let parts = std::array::from_fn(|r| {
                let (keys, pays, pass) = &parted[r];
                let start = pass.partition_starts[t.id] as usize;
                let part = start..start + pass.hist[t.id] as usize;
                (&keys[part.clone()], &pays[part])
            });
            ctx.phase(phase, || task(&mut state, t.id, parts))?;
        }
        Ok::<_, EngineError>(state)
    })?;
    policy.run.check_cancelled()?;
    let workers = workers.into_iter().collect::<Result<_, _>>()?;
    Ok(PartTasks { workers, partition })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::{HashFn, RadixFn};
    use rsv_exec::RunContext;
    use rsv_simd::Portable;

    /// Every part of every relation reaches exactly one task, holding the
    /// tuples `f` maps to it in input order, at every thread count.
    #[test]
    fn every_part_reaches_one_task() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let a: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let b: Vec<u32> = (0..3_000u32).map(|i| i.wrapping_mul(40503)).collect();
        let (pa, pb): (Vec<u32>, Vec<u32>) = ((0..5_000).collect(), (0..3_000).collect());
        // one fanout in one pass, one past the pass limit
        for fanout in [37usize, 600] {
            let f = HashFn::new(fanout);
            for threads in [1usize, 2, 8] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(512);
                let run = partition_then_tasks(
                    kind,
                    f,
                    [(&a, &pa), (&b, &pb)],
                    &policy,
                    "check",
                    |sizes| {
                        assert_eq!(sizes.map(|s| s.iter().sum::<u32>()), [5_000, 3_000]);
                        Ok(Vec::new())
                    },
                    |seen, p, [(ak, ap), (bk, bp)]| {
                        assert!(ak.iter().chain(bk).all(|&k| f.partition(k) == p));
                        assert!(ap.windows(2).all(|w| w[0] < w[1]), "unstable part");
                        assert!(bp.windows(2).all(|w| w[0] < w[1]), "unstable part");
                        seen.push((p, ak.len() + bk.len()));
                        Ok(())
                    },
                )
                .unwrap();
                let mut seen: Vec<(usize, usize)> = run.workers.concat();
                seen.sort_unstable();
                assert_eq!(seen.len(), fanout, "t={threads}");
                assert!(seen.iter().enumerate().all(|(i, &(p, _))| i == p));
                assert_eq!(seen.iter().map(|s| s.1).sum::<usize>(), 8_000);
            }
        }
    }

    /// The partitioned copies and, past them, the pass's staging
    /// buffers (2 morsels × 16 parts × 16 lanes × 8 bytes).
    #[test]
    fn budget_gates_the_partitioned_copies() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..1_000).collect();
        let bytes = 8 * keys.len() as u64 + 2 * 16 * 16 * 8;
        for (limit, ok) in [(bytes, true), (bytes - 1, false)] {
            let policy = ExecPolicy::new(2).with_run(RunContext::new().with_memory_limit(limit));
            let run = partition_then_tasks(
                kind,
                RadixFn::new(4, 4),
                [(&keys, &keys)],
                &policy,
                "check",
                |_| Ok(()),
                |_, _, _| Ok(()),
            );
            assert_eq!(run.is_ok(), ok, "limit {limit}");
            if let Err(e) = run {
                assert!(matches!(e, EngineError::BudgetExceeded { .. }), "{e}");
            }
            assert_eq!(policy.run.budget.used(), 0);
        }
    }
}
