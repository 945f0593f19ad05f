//! Evaluation plans: the unit of ground-truth work.
//!
//! Every simulation batch the studies build — training samples,
//! validation designs, depth/heterogeneity re-simulations, frontier
//! checks — is a list of independent `(benchmark, design point)` jobs.
//! [`EvalPlan`] makes that list a first-class value with **stable job
//! IDs** (a job's ID is its position in the plan), which
//! [`crate::oracle::Oracle::evaluate_plan`] answers in job-ID order.
//!
//! # Examples
//!
//! ```
//! use udse_core::plan::EvalPlan;
//! use udse_core::space::DesignSpace;
//! use udse_trace::Benchmark;
//!
//! let points = DesignSpace::paper().sample_uar(4, 7);
//! let plan = EvalPlan::cross_suite("train", &points);
//! assert_eq!(plan.len(), 9 * 4);
//! assert_eq!(plan.jobs()[4], (Benchmark::ALL[1], points[0]));
//! ```

use udse_trace::Benchmark;

use crate::space::DesignPoint;

/// An ordered batch of independent `(benchmark, design point)`
/// evaluation jobs. A job's stable ID is its index in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    label: String,
    jobs: Vec<(Benchmark, DesignPoint)>,
}

impl EvalPlan {
    /// Creates an empty plan.
    pub fn new(label: &str) -> Self {
        EvalPlan { label: label.to_string(), jobs: Vec::new() }
    }

    /// Wraps an existing job list.
    pub fn from_jobs(label: &str, jobs: Vec<(Benchmark, DesignPoint)>) -> Self {
        EvalPlan { label: label.to_string(), jobs }
    }

    /// The benchmarks-major cross product `Benchmark::ALL × points`, the
    /// shape the training and validation batches use: job
    /// `bi * points.len() + pi` is `(ALL[bi], points[pi])`.
    pub fn cross_suite(label: &str, points: &[DesignPoint]) -> Self {
        let jobs = Benchmark::ALL.iter().flat_map(|&b| points.iter().map(move |p| (b, *p)));
        EvalPlan { label: label.to_string(), jobs: jobs.collect() }
    }

    /// Appends a job and returns its stable ID.
    pub fn push(&mut self, benchmark: Benchmark, point: DesignPoint) -> u64 {
        self.jobs.push((benchmark, point));
        (self.jobs.len() - 1) as u64
    }

    /// The plan's label (used in diagnostics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// All jobs in ID order.
    pub fn jobs(&self) -> &[(Benchmark, DesignPoint)] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}
