//! The parallel execution core: strategy selection, the per-PU thread
//! fan-out, and the per-run block-cost memo.
//!
//! Algorithm 2 is parallel by construction — within a super-block step the
//! `N` processing units touch pairwise-distinct source and destination
//! intervals. The engine exploits that here: each PU's block work is a pure
//! function of the iteration-start snapshot, so the PU outcomes can be
//! computed on any number of OS threads and *reduced in fixed PU order*,
//! making every [`RunReport`](crate::stats::RunReport) bit-identical to the
//! sequential path regardless of thread count or interleaving.

use crate::schedule::SuperBlockSchedule;
use hyve_graph::EdgeStore;
use std::ops::Range;

/// How a [`SimulationSession`](crate::session::SimulationSession) executes
/// the per-PU work of each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// One OS thread; PUs run in index order.
    #[default]
    Sequential,
    /// Fan the per-PU work out over up to `threads` OS threads via
    /// `std::thread::scope`. Results are reduced in fixed PU order, so any
    /// thread count — including 1 — produces output bit-identical to
    /// [`Sequential`](ExecutionStrategy::Sequential).
    Parallel {
        /// Worker thread cap; must be ≥ 1.
        threads: usize,
    },
}

impl ExecutionStrategy {
    /// Worker threads this strategy uses for `tasks` independent tasks.
    pub(crate) fn worker_threads(self, tasks: usize) -> usize {
        match self {
            ExecutionStrategy::Sequential => 1,
            ExecutionStrategy::Parallel { threads } => threads.max(1).min(tasks.max(1)),
        }
    }
}

/// Runs `f(0), f(1), …, f(tasks-1)` under `strategy` and returns the results
/// indexed by task — the deterministic fan-out/reduce primitive everything
/// else builds on. `f` must be pure with respect to task index: outputs land
/// in a slot-per-task vector, so the caller's reduction order (fixed task
/// order) never depends on scheduling.
pub(crate) fn fan_out<O, F>(strategy: ExecutionStrategy, tasks: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let workers = strategy.worker_threads(tasks);
    if workers <= 1 || tasks <= 1 {
        return (0..tasks).map(f).collect();
    }
    let mut slots: Vec<Option<O>> = (0..tasks).map(|_| None).collect();
    let chunk = tasks.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(c * chunk + i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task slot filled by its worker"))
        .collect()
}

/// In-place sibling of [`fan_out`]: runs `f(i, &mut states[i])` for every
/// state under `strategy`. This is how per-PU scratch buffers survive across
/// iterations — the engine allocates them once per run and lends each worker
/// exclusive access to its own slot, instead of collecting freshly-allocated
/// outputs every iteration. `f` must be pure with respect to `(i, state)`;
/// states are disjoint, so any thread interleaving leaves the same data in
/// the same slots.
pub(crate) fn fan_out_mut<S, F>(strategy: ExecutionStrategy, states: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let tasks = states.len();
    let workers = strategy.worker_threads(tasks);
    if workers <= 1 || tasks <= 1 {
        for (i, state) in states.iter_mut().enumerate() {
            f(i, state);
        }
        return;
    }
    let chunk = tasks.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, state_chunk) in states.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, state) in state_chunk.iter_mut().enumerate() {
                    f(c * chunk + i, state);
                }
            });
        }
    });
}

/// One planned block: its grid coordinates and its edges' column range in
/// the [`EdgeStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlannedBlock {
    /// Source interval.
    pub src: u32,
    /// Destination interval.
    pub dst: u32,
    /// The block's edges in the store's columns.
    pub edges: Range<usize>,
}

/// Per-run static-cost memo over the *non-empty* blocks of the grid.
///
/// Algorithm 2's schedule is a pure function of `(P, N)`, and every
/// iteration walks exactly the same blocks — so the per-PU block lists and
/// the per-step synchronisation cost (each step costs its *largest* block)
/// are computed once per run and reused by both the functional pass (every
/// iteration) and the cost pass. Empty blocks never enter the plan: an
/// empty block has nothing to walk and adds 0 to its step's maximum, so the
/// plan is O(non-empty blocks + P) and exact.
#[derive(Debug, Clone)]
pub(crate) struct BlockPlan {
    /// For each PU, its non-empty blocks in schedule order (sy → sx → step).
    pu_blocks: Vec<Vec<PlannedBlock>>,
    /// Σ over steps of the step's maximum block edge count — the
    /// synchronised processing cost of one iteration, in edges.
    sync_edges: u64,
}

impl BlockPlan {
    /// Builds the memo over a [compact](EdgeStore::is_compact) store,
    /// fanning the per-PU list construction out under `strategy`.
    pub(crate) fn build(
        store: &EdgeStore,
        schedule: &SuperBlockSchedule,
        strategy: ExecutionStrategy,
    ) -> Self {
        debug_assert!(store.is_compact(), "plans walk the store's columns");
        let n = schedule.pus();
        let p = schedule.intervals();
        // PU `pu` owns the destinations ≡ pu (mod N), one per super-block
        // row sy; within super block sx its step `t` reads source
        // sx·N + (pu + t) mod N — so each sx group of a column (sources
        // ascend in the store's index) is visited from source offset `pu`
        // upwards, then wraps around.
        let pu_blocks = fan_out(strategy, n as usize, |pu| {
            let pu = pu as u32;
            let mut blocks = Vec::new();
            for dst in (pu..p).step_by(n as usize) {
                let (srcs, starts) = store.column(dst);
                let block = |k: usize| PlannedBlock {
                    src: srcs[k],
                    dst,
                    edges: starts[k]..starts[k + 1],
                };
                let mut first = 0;
                for group in srcs.chunk_by(|a, b| a / n == b / n) {
                    let (wrap, end) = (
                        first + group.partition_point(|&s| s % n < pu),
                        first + group.len(),
                    );
                    blocks.extend((wrap..end).chain(first..wrap).map(block));
                    first = end;
                }
            }
            blocks
        });
        let sync_edges = sync_edges(&pu_blocks, n);
        BlockPlan {
            pu_blocks,
            sync_edges,
        }
    }

    /// Number of PUs the plan covers.
    pub(crate) fn num_pus(&self) -> usize {
        self.pu_blocks.len()
    }

    /// The non-empty blocks PU `pu` executes, in schedule order.
    pub(crate) fn blocks(&self, pu: usize) -> &[PlannedBlock] {
        &self.pu_blocks[pu]
    }

    /// PU `pu`'s planned edges as column ranges, consecutive blocks whose
    /// ranges touch merged into one: the same edges in the same order as
    /// walking [`blocks`](Self::blocks) one by one, in fewer, longer
    /// streams.
    pub(crate) fn edge_runs(&self, pu: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut blocks = self.pu_blocks[pu].iter().peekable();
        std::iter::from_fn(move || {
            let mut run = blocks.next()?.edges.clone();
            while let Some(b) = blocks.next_if(|b| b.edges.start == run.end) {
                run.end = b.edges.end;
            }
            Some(run)
        })
    }

    /// Σ over steps of the step's maximum block edge count.
    pub(crate) fn sync_edges(&self) -> u64 {
        self.sync_edges
    }
}

/// Σ over schedule steps of the step's largest block. Every PU list is in
/// step order, so an N-way merge visits each step that owns a non-empty
/// block exactly once; steps holding only empty blocks add 0 and are never
/// visited. `max` over `u64` is exact, so the sum is too.
fn sync_edges(pu_blocks: &[Vec<PlannedBlock>], n: u32) -> u64 {
    // A step is (super-block row sy, super-block column sx, step t).
    let step_of = |b: &PlannedBlock| (b.dst / n, b.src / n, (b.src % n + n - b.dst % n) % n);
    let mut heads = vec![0usize; pu_blocks.len()];
    let mut head_steps: Vec<_> = pu_blocks.iter().map(|l| l.first().map(step_of)).collect();
    let mut total = 0;
    while let Some(step) = head_steps.iter().flatten().min().copied() {
        let mut widest = 0;
        for (pu, list) in pu_blocks.iter().enumerate() {
            if head_steps[pu] == Some(step) {
                widest = widest.max(list[heads[pu]].edges.len() as u64);
                heads[pu] += 1;
                head_steps[pu] = list.get(heads[pu]).map(step_of);
            }
        }
        total += widest;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_graph::{DatasetProfile, GridGraph};

    #[test]
    fn fan_out_preserves_task_order_for_any_thread_count() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel { threads: 1 },
            ExecutionStrategy::Parallel { threads: 3 },
            ExecutionStrategy::Parallel { threads: 8 },
            ExecutionStrategy::Parallel { threads: 64 },
        ] {
            let out = fan_out(strategy, 13, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_task() {
        let none: Vec<usize> = fan_out(ExecutionStrategy::Parallel { threads: 4 }, 0, |i| i);
        assert!(none.is_empty());
        let one = fan_out(ExecutionStrategy::Parallel { threads: 4 }, 1, |i| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn fan_out_mut_updates_every_slot_in_place_for_any_thread_count() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel { threads: 1 },
            ExecutionStrategy::Parallel { threads: 3 },
            ExecutionStrategy::Parallel { threads: 16 },
        ] {
            let mut states: Vec<Vec<usize>> = (0..9).map(|i| vec![i]).collect();
            fan_out_mut(strategy, &mut states, |i, s| s.push(i * i));
            for (i, s) in states.iter().enumerate() {
                assert_eq!(s, &vec![i, i * i], "slot {i} under {strategy:?}");
            }
            let mut empty: Vec<u8> = Vec::new();
            fan_out_mut(strategy, &mut empty, |_, _| unreachable!());
        }
    }

    #[test]
    fn plan_matches_schedule_iteration() {
        let graph = DatasetProfile::youtube_scaled().generate(3);
        // Enough intervals that some blocks are empty.
        let grid = GridGraph::partition(&graph, 64).unwrap();
        let store = grid.flat();
        assert!(grid.non_empty_blocks() < grid.num_blocks());
        let schedule = SuperBlockSchedule::new(64, 4).unwrap();
        let plan = BlockPlan::build(store, &schedule, ExecutionStrategy::Sequential);

        // Each PU's list is the dense schedule order filtered to the
        // non-empty blocks, with each block's column range inline.
        let mut dense: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 4];
        for (_, assignments) in schedule.iter() {
            for a in assignments {
                if store.block_len(a.src_interval, a.dst_interval) > 0 {
                    dense[a.pu as usize].push((a.src_interval, a.dst_interval));
                }
            }
        }
        let mut planned = 0;
        for (pu, expect) in dense.iter().enumerate() {
            let got: Vec<(u32, u32)> = plan.blocks(pu).iter().map(|b| (b.src, b.dst)).collect();
            assert_eq!(&got, expect, "PU {pu} order");
            let mut walked = Vec::new();
            for b in plan.blocks(pu) {
                let edges: Vec<_> = store.edges_in(b.edges.clone()).collect();
                let direct: Vec<_> = store.block_edges(b.src, b.dst).collect();
                assert_eq!(edges, direct);
                walked.extend(edges);
            }
            // The merged runs stream exactly the block-by-block walk, in
            // fewer ranges wherever the PU's blocks sit side by side.
            let runs: Vec<Range<usize>> = plan.edge_runs(pu).collect();
            assert!(runs.windows(2).all(|w| w[0].end != w[1].start));
            assert!(runs.len() < got.len(), "PU {pu}: some blocks merge");
            let streamed: Vec<_> = runs.into_iter().flat_map(|r| store.edges_in(r)).collect();
            assert_eq!(streamed, walked, "PU {pu} runs");
            planned += got.len();
        }
        assert_eq!(planned, grid.non_empty_blocks());

        // The sync cost matches a direct scan over the dense schedule.
        let direct: u64 = schedule
            .iter()
            .map(|(_, assignments)| {
                assignments
                    .iter()
                    .map(|a| store.block_len(a.src_interval, a.dst_interval) as u64)
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(plan.sync_edges(), direct);
    }

    #[test]
    fn plan_is_identical_for_any_strategy() {
        let graph = DatasetProfile::youtube_scaled().generate(9);
        let flat = GridGraph::partition(&graph, 8).unwrap().flatten();
        let schedule = SuperBlockSchedule::new(8, 8).unwrap();
        let base = BlockPlan::build(&flat, &schedule, ExecutionStrategy::Sequential);
        for threads in [1, 2, 5, 8] {
            let par = BlockPlan::build(&flat, &schedule, ExecutionStrategy::Parallel { threads });
            assert_eq!(par.sync_edges(), base.sync_edges());
            for pu in 0..base.num_pus() {
                assert_eq!(par.blocks(pu), base.blocks(pu));
            }
        }
    }

    #[test]
    fn empty_grid_plans_nothing() {
        let grid = GridGraph::partition(&hyve_graph::EdgeList::new(16), 16).unwrap();
        let schedule = SuperBlockSchedule::new(16, 4).unwrap();
        let plan = BlockPlan::build(grid.flat(), &schedule, ExecutionStrategy::Sequential);
        assert!((0..plan.num_pus()).all(|pu| plan.blocks(pu).is_empty()));
        assert_eq!(plan.sync_edges(), 0);
    }
}
