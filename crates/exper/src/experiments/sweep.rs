//! The Monte-Carlo points of one command, each computed once.
//!
//! Figs. 2–9 overlap: Fig. 4 re-plots Fig. 2's points against load,
//! Fig. 3, the 1-min row of Fig. 5 and the 5-min row of Fig. 6 are
//! Fig. 2's 100-VM row, Fig. 9 re-plots Fig. 8, and Fig. 8(b) is
//! Fig. 7's 100-VM row. A [`Sweep`] lives for one command and hands
//! every figure drawn on it the same point for the same
//! [`WorkloadConfig`], so `esvm all` computes 105 distinct points
//! instead of 182.

use super::{executor, ExpOptions, COMPARED};
use crate::runner::RunError;
use esvm_core::AllocatorKind;
use esvm_workload::WorkloadConfig;
use std::cell::{Cell, RefCell};

/// The scalars the figures read from one MIEC-vs-FFPS point, as
/// fractions. Each comes from the [`ComparisonPoint`](crate::ComparisonPoint)
/// method of the same name, so a cached value is bit-identical to a
/// recomputed one; the per-seed vectors are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSummary {
    /// `reduction_ratio(Ffps, Miec)`.
    pub reduction: f64,
    /// `mean_cpu_utilization(Miec)`.
    pub miec_cpu: f64,
    /// `mean_mem_utilization(Miec)`.
    pub miec_mem: f64,
    /// `mean_cpu_utilization(Ffps)`.
    pub ffps_cpu: f64,
    /// `mean_mem_utilization(Ffps)`.
    pub ffps_mem: f64,
}

/// A point cache scoped to one command invocation.
#[derive(Debug)]
pub struct Sweep {
    opts: ExpOptions,
    points: RefCell<Vec<(WorkloadConfig, PointSummary)>>,
    requested: Cell<usize>,
}

impl Sweep {
    /// An empty sweep running `opts.seeds` seeds on `opts.threads`.
    pub fn new(opts: &ExpOptions) -> Self {
        Self {
            opts: *opts,
            points: RefCell::new(Vec::new()),
            requested: Cell::new(0),
        }
    }

    /// The options every figure drawn on this sweep uses.
    pub fn opts(&self) -> &ExpOptions {
        &self.opts
    }

    /// The MIEC-vs-FFPS point at `config`, computed on first request.
    ///
    /// # Errors
    ///
    /// The [`RunError`] of [`MonteCarlo::compare`](crate::MonteCarlo::compare);
    /// a failed point is not cached.
    pub fn point(&self, config: &WorkloadConfig) -> Result<PointSummary, RunError> {
        self.requested.set(self.requested.get() + 1);
        if let Some((_, summary)) = self.points.borrow().iter().find(|(c, _)| c == config) {
            return Ok(*summary);
        }
        let point = executor(&self.opts).compare(config, &COMPARED)?;
        let summary = PointSummary {
            reduction: point.reduction_ratio(AllocatorKind::Ffps, AllocatorKind::Miec),
            miec_cpu: point.mean_cpu_utilization(AllocatorKind::Miec),
            miec_mem: point.mean_mem_utilization(AllocatorKind::Miec),
            ffps_cpu: point.mean_cpu_utilization(AllocatorKind::Ffps),
            ffps_mem: point.mean_mem_utilization(AllocatorKind::Ffps),
        };
        self.points.borrow_mut().push((config.clone(), summary));
        Ok(summary)
    }

    /// How many points the figures asked for, repeats included.
    pub fn requested(&self) -> usize {
        self.requested.get()
    }

    /// How many distinct points were computed.
    pub fn computed(&self) -> usize {
        self.points.borrow().len()
    }
}
