//! The task graph DAG (Def. 3.1) and graph algorithms.

use std::collections::BTreeSet;

use fppn_core::ProcessId;
use fppn_time::TimeQ;

use crate::job::{Job, JobId};

/// Chains per sweep of [`TaskGraph::transitive_reduction`]: its reachability
/// table holds at most `CHAIN_BLOCK` positions per job.
const CHAIN_BLOCK: usize = 64;

/// A `first` entry for a chain the job does not reach.
const UNREACHED: u32 = u32::MAX;

/// A directed acyclic graph of jobs with precedence edges (Def. 3.1).
///
/// Nodes are [`Job`]s; an edge `(J_a, J_b)` constrains `J_a` to complete
/// before `J_b` starts. The graph is built by
/// [`derive_task_graph`](crate::derive_task_graph) but can also be
/// constructed directly for synthetic scheduling experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    jobs: Vec<Job>,
    succs: Vec<BTreeSet<JobId>>,
    preds: Vec<BTreeSet<JobId>>,
    hyperperiod: TimeQ,
}

impl TaskGraph {
    /// Creates a graph with the given jobs, no edges, and frame length
    /// (hyperperiod) `hyperperiod`.
    pub fn new(jobs: Vec<Job>, hyperperiod: TimeQ) -> Self {
        let n = jobs.len();
        TaskGraph {
            jobs,
            succs: vec![BTreeSet::new(); n],
            preds: vec![BTreeSet::new(); n],
            hyperperiod,
        }
    }

    /// The hyperperiod `H` (frame length) this graph covers.
    pub fn hyperperiod(&self) -> TimeQ {
        self.hyperperiod
    }

    /// The jobs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The number of jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// One job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Iterates over all job ids.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.jobs.len()).map(JobId::from_index)
    }

    /// Finds the job of process `pid` with invocation count `k`.
    pub fn find(&self, pid: ProcessId, k: u64) -> Option<JobId> {
        self.jobs
            .iter()
            .position(|j| j.process == pid && j.k == k)
            .map(JobId::from_index)
    }

    /// Adds the precedence edge `from → to` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on self-edges; cycles are detected by
    /// [`TaskGraph::topological_order`].
    pub fn add_edge(&mut self, from: JobId, to: JobId) {
        assert_ne!(from, to, "self-edge on {from}");
        if self.succs[from.index()].insert(to) {
            self.preds[to.index()].insert(from);
        }
    }

    /// Removes an edge if present; returns whether it existed.
    pub fn remove_edge(&mut self, from: JobId, to: JobId) -> bool {
        let removed = self.succs[from.index()].remove(&to);
        if removed {
            self.preds[to.index()].remove(&from);
        }
        removed
    }

    /// Whether the edge `from → to` is present.
    pub fn has_edge(&self, from: JobId, to: JobId) -> bool {
        self.succs[from.index()].contains(&to)
    }

    /// Direct successors of a job.
    pub fn successors(&self, id: JobId) -> impl Iterator<Item = JobId> + '_ {
        self.succs[id.index()].iter().copied()
    }

    /// Direct predecessors of a job (`Pred(i)` in §III-B).
    pub fn predecessors(&self, id: JobId) -> impl Iterator<Item = JobId> + '_ {
        self.preds[id.index()].iter().copied()
    }

    /// All in-degrees, indexed by job id — the scheduler's initial
    /// `remaining_preds` vector in one O(n) pass.
    pub fn pred_counts(&self) -> Vec<usize> {
        self.preds.iter().map(BTreeSet::len).collect()
    }

    /// All out-degrees, indexed by job id.
    pub fn succ_counts(&self) -> Vec<usize> {
        self.succs.iter().map(BTreeSet::len).collect()
    }

    /// The total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(BTreeSet::len).sum()
    }

    /// All edges `(from, to)` in id order.
    pub fn edges(&self) -> impl Iterator<Item = (JobId, JobId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |&t| (JobId::from_index(i), t)))
    }

    /// A topological order of the jobs, or `None` if the graph has a cycle
    /// (which would make it not a task graph).
    pub fn topological_order(&self) -> Option<Vec<JobId>> {
        let n = self.jobs.len();
        let mut indegree: Vec<usize> = self.pred_counts();
        let mut ready: BTreeSet<JobId> = self
            .job_ids()
            .filter(|j| indegree[j.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().next() {
            ready.remove(&next);
            order.push(next);
            for s in self.succs[next.index()].iter() {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.insert(*s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether `to` is reachable from `from` following edges.
    pub fn is_reachable(&self, from: JobId, to: JobId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.jobs.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(node) = stack.pop() {
            for s in self.succs[node.index()].iter() {
                if *s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(*s);
                }
            }
        }
        false
    }

    /// Removes every redundant edge (step 5 of the §III-A derivation):
    /// an edge `a → b` is redundant if `b` remains reachable from `a`
    /// through a longer path. Returns the number of removed edges.
    ///
    /// The transitive reduction of a DAG is unique, so the result does not
    /// depend on traversal order: it equals
    /// [`TaskGraph::transitive_reduction_naive`]'s edge for edge.
    ///
    /// Reachability is indexed by *chains*. The jobs, sorted by
    /// `(process, k)`, are cut into chains wherever two neighbours lack a
    /// direct edge, so every chain is a path and a job that reaches one of
    /// its positions reaches every later one. §III-A step 3 links the
    /// consecutive jobs of each process, so a derived graph has at most one
    /// chain per process. One reverse-topological sweep fills
    /// `first[a][q]`, the lowest position on chain `q` reachable from job
    /// `a`. Visiting `a`'s successors in topological order, the edge
    /// `a → b` is redundant iff an earlier successor `c` has
    /// `first[c][chain(b)] ≤ pos(b)`. For `P` chains this costs
    /// O((n + E)·P). The sweep covers the chains in blocks of
    /// `CHAIN_BLOCK` (64) columns, so the table holds at most `64·n`
    /// positions even when every job is a chain of its own.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn transitive_reduction(&mut self) -> usize {
        let n = self.jobs.len();
        let order = self
            .topological_order()
            .expect("transitive reduction requires a DAG");

        let mut by_chain: Vec<JobId> = self.job_ids().collect();
        by_chain.sort_by_key(|&id| (self.jobs[id.index()].process, self.jobs[id.index()].k));
        let (mut chain, mut pos) = (vec![0usize; n], vec![0u32; n]);
        let mut chains = 0usize;
        let mut prev: Option<JobId> = None;
        for &id in &by_chain {
            match prev {
                Some(p) if self.has_edge(p, id) => {
                    chain[id.index()] = chain[p.index()];
                    pos[id.index()] = pos[p.index()] + 1;
                }
                _ => {
                    chain[id.index()] = chains;
                    chains += 1;
                }
            }
            prev = Some(id);
        }

        // Successor rows in topological order: appending each job, in that
        // order, to the rows of its predecessors.
        let mut start = vec![0usize; n + 1];
        for (i, s) in self.succs.iter().enumerate() {
            start[i + 1] = start[i] + s.len();
        }
        let mut fill = start[..n].to_vec();
        let mut succ = vec![JobId(0); start[n]];
        for &b in &order {
            for a in &self.preds[b.index()] {
                succ[fill[a.index()]] = b;
                fill[a.index()] += 1;
            }
        }

        let width = chains.min(CHAIN_BLOCK);
        let mut first = vec![UNREACHED; n * width];
        let mut redundant = Vec::new();
        for lo in (0..chains).step_by(CHAIN_BLOCK) {
            let w = (chains - lo).min(CHAIN_BLOCK);
            // Chain `q` of this block is column `q - lo`; a job on another
            // block's chain wraps to a column `>= w`.
            let column = |id: JobId| chain[id.index()].wrapping_sub(lo);
            // Successors precede their predecessors, so every row read
            // here was written earlier in this block's sweep.
            for &a in order.iter().rev() {
                let mut row = [UNREACHED; CHAIN_BLOCK];
                for &b in &succ[start[a.index()]..start[a.index() + 1]] {
                    let q = column(b);
                    if q < w && row[q] <= pos[b.index()] {
                        // An earlier successor reaches `b`, and with it
                        // everything `b` reaches: nothing to merge.
                        redundant.push((a, b));
                        continue;
                    }
                    let reach = &first[b.index() * width..][..w];
                    for (r, &f) in row[..w].iter_mut().zip(reach) {
                        *r = (*r).min(f);
                    }
                }
                let q = column(a);
                if q < w {
                    row[q] = pos[a.index()];
                }
                first[a.index() * width..][..w].copy_from_slice(&row[..w]);
            }
        }
        for &(a, b) in &redundant {
            self.remove_edge(a, b);
        }
        redundant.len()
    }

    /// The original reduction, retained as the differential oracle for
    /// [`TaskGraph::transitive_reduction`]: for every pair of direct
    /// successors it runs an [`TaskGraph::is_reachable`] DFS.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn transitive_reduction_naive(&mut self) -> usize {
        let order = self
            .topological_order()
            .expect("transitive reduction requires a DAG");
        // Position of each node in topological order, for pruning.
        let mut pos = vec![0usize; self.jobs.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        let mut removed = 0usize;
        for a in (0..self.jobs.len()).map(JobId::from_index) {
            // An edge a -> b is redundant iff b is reachable from some
            // *other* direct successor of a.
            let direct: Vec<JobId> = self.succs[a.index()].iter().copied().collect();
            let mut redundant: Vec<JobId> = Vec::new();
            for &b in &direct {
                let reachable_via_other = direct.iter().any(|&c| {
                    c != b && pos[c.index()] < pos[b.index()] && self.is_reachable(c, b)
                });
                if reachable_via_other {
                    redundant.push(b);
                }
            }
            for b in redundant {
                self.remove_edge(a, b);
                removed += 1;
            }
        }
        removed
    }

    /// The set of reachable pairs `(a, b)`, `a ≠ b` (transitive closure).
    /// Intended for tests on small graphs (quadratic memory).
    pub fn transitive_closure(&self) -> BTreeSet<(JobId, JobId)> {
        let mut closure = BTreeSet::new();
        for a in self.job_ids() {
            let mut stack: Vec<JobId> = self.succs[a.index()].iter().copied().collect();
            let mut seen = vec![false; self.jobs.len()];
            while let Some(node) = stack.pop() {
                if seen[node.index()] {
                    continue;
                }
                seen[node.index()] = true;
                closure.insert((a, node));
                stack.extend(self.succs[node.index()].iter().copied());
            }
        }
        closure
    }

    /// Total work `Σ C_i`.
    pub fn total_work(&self) -> TimeQ {
        self.jobs.iter().map(|j| j.wcet).sum()
    }

    /// Utilization `Σ C_i / H` — a lower bound on the precedence-aware
    /// load of [`crate::analysis::load`].
    pub fn utilization(&self) -> TimeQ {
        self.total_work() / self.hyperperiod
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                process: ProcessId::from_index(i),
                k: 1,
                arrival: TimeQ::ZERO,
                deadline: TimeQ::from_ms(100),
                wcet: TimeQ::from_ms(10),
                is_server: false,
            })
            .collect()
    }

    fn j(i: usize) -> JobId {
        JobId::from_index(i)
    }

    #[test]
    fn edges_and_topology() {
        let mut g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(2));
        g.add_edge(j(0), j(3));
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(j(0), j(1)));
        assert!(!g.has_edge(j(1), j(0)));
        let order = g.topological_order().unwrap();
        let pos = |x: JobId| order.iter().position(|&o| o == x).unwrap();
        assert!(pos(j(0)) < pos(j(1)));
        assert!(pos(j(1)) < pos(j(2)));
        assert!(g.is_reachable(j(0), j(2)));
        assert!(!g.is_reachable(j(2), j(0)));
        assert!(g.is_reachable(j(1), j(1)));
    }

    #[test]
    fn degree_accessors_match_iterators() {
        let mut g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(0), j(2));
        g.add_edge(j(1), j(2));
        let (preds, succs) = (g.pred_counts(), g.succ_counts());
        for id in g.job_ids() {
            assert_eq!(preds[id.index()], g.predecessors(id).count());
            assert_eq!(succs[id.index()], g.successors(id).count());
        }
        assert_eq!(preds, vec![0, 1, 2, 0]);
        assert_eq!(succs, vec![2, 1, 0, 0]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new(mk_jobs(2), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(0));
        assert_eq!(g.topological_order(), None);
    }

    #[test]
    fn transitive_reduction_removes_shortcut() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2 (the Fig. 3 InputA→NormA case).
        let mut g = TaskGraph::new(mk_jobs(3), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(2));
        g.add_edge(j(0), j(2));
        let removed = g.transitive_reduction();
        assert_eq!(removed, 1);
        assert!(!g.has_edge(j(0), j(2)));
        assert!(g.is_reachable(j(0), j(2)));
    }

    #[test]
    fn transitive_reduction_preserves_closure() {
        let mut g = TaskGraph::new(mk_jobs(5), TimeQ::from_ms(100));
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4), (1, 4)] {
            g.add_edge(j(a), j(b));
        }
        let before = g.transitive_closure();
        g.transitive_reduction();
        let after = g.transitive_closure();
        assert_eq!(before, after);
        // 0->3 (via 1 or 2) and 1->4 (via 3) were redundant.
        assert!(!g.has_edge(j(0), j(3)));
        assert!(!g.has_edge(j(1), j(4)));
    }

    #[test]
    fn chain_reduction_splits_a_chain_at_a_missing_edge() {
        // Process 0's jobs 1 and 2 have no direct edge: 0[1] reaches 0[2]
        // only through 1[1]. So 0[1] -> 0[3] is redundant via 0[2], and
        // 1[1] -> 0[3] via 0[2] too.
        let mut jobs = mk_jobs(4);
        for (job, (p, k)) in jobs.iter_mut().zip([(0, 1), (0, 2), (0, 3), (1, 1)]) {
            job.process = ProcessId::from_index(p);
            job.k = k;
        }
        let mut g = TaskGraph::new(jobs, TimeQ::from_ms(100));
        for (a, b) in [(0, 3), (3, 1), (1, 2), (0, 2), (3, 2)] {
            g.add_edge(j(a), j(b));
        }
        let mut naive = g.clone();
        assert_eq!(g.transitive_reduction(), 2);
        assert_eq!(naive.transitive_reduction_naive(), 2);
        assert_eq!(g, naive);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(j(0), j(3)), (j(1), j(2)), (j(3), j(1))]
        );
    }

    #[test]
    fn work_and_utilization() {
        let g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        assert_eq!(g.total_work(), TimeQ::from_ms(40));
        assert_eq!(g.utilization(), TimeQ::new(2, 5));
    }

    #[test]
    fn find_by_process_and_k() {
        let g = TaskGraph::new(mk_jobs(3), TimeQ::from_ms(100));
        assert_eq!(g.find(ProcessId::from_index(1), 1), Some(j(1)));
        assert_eq!(g.find(ProcessId::from_index(1), 2), None);
    }
}
