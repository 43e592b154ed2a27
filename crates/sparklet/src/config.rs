//! Cluster geometry configuration.
//!
//! Mirrors the deployment knobs the paper studies in Fig. 4 (executors per
//! machine × cores per executor, with NUMA pinning) and Fig. 6 (number of
//! worker machines; cores per executor).

/// Shape of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker "machines".
    pub workers: usize,
    /// Executors per worker (each executor is a group of
    /// `cores_per_executor` threads serving the worker's task queue — the
    /// paper's finding is that several small executors beat one big one,
    /// Fig. 4).
    pub executors_per_worker: usize,
    /// Threads per executor.
    pub cores_per_executor: usize,
    /// How many times a task may run before its stage fails, counting the
    /// first attempt (Spark's `spark.task.maxFailures`, default 4). Retries
    /// prefer workers that have not already failed the task.
    pub max_task_attempts: usize,
    /// A reduce partition counts as skewed when its size exceeds
    /// `skew_ratio ×` the mean partition size. The default (2.0) matches
    /// the previously hard-coded `2 × rounded mean` rule in `shuffle.rs`;
    /// adaptive repartitioning splits partitions past this threshold.
    pub skew_ratio: f64,
}

impl ClusterConfig {
    /// The paper's best-performing layout on dual-socket 16-core machines:
    /// 4 executors × 4 cores per machine (§IV-B), scaled here to one
    /// "machine" per worker.
    pub fn paper_default(workers: usize) -> ClusterConfig {
        ClusterConfig {
            workers,
            executors_per_worker: 4,
            cores_per_executor: 4,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        }
    }

    /// A small configuration suitable for unit tests.
    pub fn test_small() -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        }
    }

    /// Total task slots across the cluster.
    pub fn total_cores(&self) -> usize {
        self.workers * self.executors_per_worker * self.cores_per_executor
    }

    /// Recommended partition count: Spark's rule of thumb is 1–4 partitions
    /// per core (§III-C footnote); we default to 2.
    pub fn default_partitions(&self) -> usize {
        (self.total_cores() * 2).max(1)
    }

    /// Skew threshold for a given mean partition size: a partition larger
    /// than this is skewed. Preserves the historical integer rule
    /// (`2 × max(round(mean), 1)` when `skew_ratio` is 2.0) by rounding the
    /// mean before scaling.
    pub fn skew_threshold(&self, mean: f64) -> u64 {
        let rounded = (mean.round() as u64).max(1);
        (self.skew_ratio * rounded as f64).round() as u64
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_default(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let c = ClusterConfig {
            workers: 4,
            executors_per_worker: 2,
            cores_per_executor: 8,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        };
        assert_eq!(c.total_cores(), 64);
        assert_eq!(c.default_partitions(), 128);
    }

    #[test]
    fn paper_default_is_4x4() {
        let c = ClusterConfig::paper_default(8);
        assert_eq!(c.workers, 8);
        assert_eq!(c.executors_per_worker * c.cores_per_executor, 16);
    }
}
