//! Progressive streaming retrieval: a coarse answer now, precision
//! later, with a live error bound at every step.
//!
//! PLoD stores each double as seven byte-group parts, so a value query
//! does not have to fetch its full precision target in one shot. A
//! [`ProgressiveQuery`] plans the byte-group ladder once: step 0 runs
//! the ordinary engine at the base level (part 0 only) and returns a
//! usable result immediately; each [`ProgressiveQuery::next_refinement`]
//! pull then fetches exactly the next part's extents and merges them
//! into the already-returned values in place via [`plod::refine_into`]
//! — one byte per value, no reassembly, and no re-reading of index
//! headers, bitmaps or positions (all captured at step 0). Extent CRCs
//! come from the store's checksum manifest, as in the one-shot engine.
//!
//! Two invariants tie the ladder to the one-shot engine:
//!
//! * **Byte parity** — cold, the per-step `bytes_read` sum to exactly
//!   the one-shot query's `bytes_read`: both read the same extent set,
//!   just in a different order. Warm (shared cache/fuser), refinement
//!   pulls re-enter the block cache and extent fuser, so a step costs
//!   only the byte groups nobody has fetched yet.
//! * **Bit parity** — after the final step the result is
//!   byte-identical to the one-shot query in every execution mode.
//!
//! Value-*filtered* bins (misaligned against the value constraint) are
//! fetched at the target precision in step 0: refining them later
//! could change *which* points match, the same reason degradation
//! never touches them. Their bins are disjoint from the refinable
//! bins, so no extent is read twice.
//!
//! Degradation composes: a damaged non-base extent discovered during a
//! refinement pull caps that unit's ladder through the usual
//! [`DegradationReport`] path instead of failing the query, and the
//! per-step error bound accounts for every capped unit.

use crate::cache::{BlockKey, BlockPart, ByteView, CachedBlock};
use crate::config::PlodLevel;
use crate::degrade::{DegradationEvent, DegradationReport};
use crate::exec::ParallelExecutor;
use crate::fusion::coalesced_read_results;
use crate::metrics::QueryMetrics;
use crate::plod;
use crate::query::engine::RefineUnit;
use crate::query::plan::{make_plan, Plan, WorkUnit};
use crate::query::{Query, QueryResult};
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_obs::{Label, Profile};
use mloc_pfs::{simulate_reads, RankIo};
use std::sync::Arc;
use std::time::Instant;

/// One step of a progressive query: what arrived, what it cost, and
/// how precise the result now is.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveStep {
    /// 0 = the initial coarse answer; `k` = the k-th refinement pull.
    pub step: usize,
    /// PLoD level the refinable values sit at after this step (capped
    /// units may be coarser — the bound accounts for them).
    pub level: PlodLevel,
    /// Worst-case relative error bound over all returned values after
    /// this step (0.0 once everything is at full precision).
    pub error_bound: f64,
    /// Physical bytes this step read from the PFS.
    pub bytes_read: u64,
    /// Bytes this step served from the block cache instead.
    pub bytes_saved: u64,
    /// Bytes another session's in-flight read served (extent fusion).
    pub fused_bytes_saved: u64,
    /// Simulated PFS seconds for this step's reads.
    pub io_s: f64,
    /// Units whose ladder damaged extents have capped so far
    /// (cumulative).
    pub capped_units: u64,
    /// Whether the ladder is complete after this step.
    pub done: bool,
}

impl ProgressiveStep {
    /// The step's logical footprint — `bytes_read` plus bytes the
    /// cache and fuser kept off the PFS (the serve layer meters
    /// budgets in logical bytes, invariant across cache state).
    pub fn logical_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_saved + self.fused_bytes_saved
    }
}

/// Per-unit refinement state: the captured step-0 mapping plus the
/// unit's precision ceiling.
struct RefineState {
    unit: RefineUnit,
    /// Index into the sorted result's value array for each captured
    /// point (parallel to `unit.val_idx`).
    result_idx: Vec<u32>,
    /// Parts this unit can still reach: a damaged extent at part `p`
    /// sets `cap = p`, freezing the unit at level `p` forever (parts
    /// after a loss are undecodable by construction).
    cap: usize,
}

/// A pull-based progressive query handle. See the module docs.
///
/// Produced by [`ParallelExecutor::progressive`] (any rank count /
/// threading mode — step 0 runs through the normal executor) or
/// [`MlocStore::query_progressive`].
pub struct ProgressiveQuery<'s, 'a> {
    store: &'s MlocStore<'a>,
    exec: ParallelExecutor,
    query: Query,
    /// Parts the query's target level uses.
    target_parts: usize,
    /// Next tail part index to fetch == parts applied to refinable
    /// units so far.
    next_part: usize,
    result: QueryResult,
    units: Vec<RefineState>,
    steps: Vec<ProgressiveStep>,
    /// Cumulative metrics over all steps so far: byte counters are
    /// summed; component times are summed too (steps are sequential
    /// pulls, not parallel ranks).
    metrics: QueryMetrics,
    profile: Profile,
    profiled: bool,
    done: bool,
}

/// Fold one step's execution metrics into the cumulative report,
/// leaving the plan-shape fields (`bins_touched`, ...) alone.
fn add_step_metrics(acc: &mut QueryMetrics, other: &QueryMetrics) {
    acc.io_s += other.io_s;
    acc.decompress_s += other.decompress_s;
    acc.reconstruct_s += other.reconstruct_s;
    acc.response_s += other.response_s;
    acc.bytes_read += other.bytes_read;
    acc.index_bytes += other.index_bytes;
    acc.data_bytes += other.data_bytes;
    acc.seeks += other.seeks;
    acc.cache_hits += other.cache_hits;
    acc.cache_misses += other.cache_misses;
    acc.bytes_saved += other.bytes_saved;
    acc.fused_reads += other.fused_reads;
    acc.fused_bytes_saved += other.fused_bytes_saved;
    acc.retries += other.retries;
    acc.retry_wait_s += other.retry_wait_s;
    acc.degraded_units += other.degraded_units;
    acc.degradation.merge(&other.degradation);
}

impl<'s, 'a> ProgressiveQuery<'s, 'a> {
    pub(crate) fn start(
        exec: ParallelExecutor,
        store: &'s MlocStore<'a>,
        query: &Query,
        profiled: bool,
    ) -> Result<Self> {
        let t = Instant::now();
        let plan = make_plan(store, query)?;
        let target_parts = query.plod.num_parts();
        // The ladder needs a PLoD layout, a value output to refine,
        // scan semantics (membership probes read a handful of points;
        // a ladder saves nothing and the probe path has no capture),
        // and a target above the base level.
        let ladder = store.config().plod
            && query.wants_values()
            && query.points.is_none()
            && target_parts > 1;
        if !ladder {
            return Self::start_single_shot(exec, store, query, &plan, profiled);
        }

        // Split the plan by bin class. `value_filter` is a per-bin
        // property (all units of a misaligned bin carry it), so each
        // sub-plan owns whole bins and the two executions touch
        // disjoint files.
        let mut base_units: Vec<WorkUnit> = Vec::new();
        let mut filtered_units: Vec<WorkUnit> = Vec::new();
        for u in &plan.units {
            if u.value_filter {
                filtered_units.push(*u);
            } else {
                base_units.push(*u);
            }
        }
        let sub_plan = |units: Vec<WorkUnit>| Plan {
            units,
            bins_touched: plan.bins_touched,
            aligned_bins: plan.aligned_bins,
            chunks_touched: plan.chunks_touched,
        };

        let base_level = PlodLevel::new(1).expect("level 1 is valid");
        let base_query = query.clone().with_plod(base_level);
        let (res_a, m_a, prof_a, mut captured) =
            exec.execute_plan_capturing(store, &base_query, &sub_plan(base_units), profiled)?;
        // Deterministic order regardless of rank assignment, and
        // maximal read coalescing per refinement pull.
        captured.sort_by_key(|u| (u.bin, u.chunk_rank));

        // Value-filtered bins go straight to the target level — their
        // membership decision needs full-precision values.
        let filtered = if filtered_units.is_empty() {
            None
        } else if profiled {
            let (r, m, p) =
                exec.execute_plan_profiled(store, query, &sub_plan(filtered_units), None)?;
            Some((r, m, p))
        } else {
            let (r, m) = exec.execute_plan(store, query, &sub_plan(filtered_units), None)?;
            Some((r, m, Profile::default()))
        };

        let (mut positions, vals_a) = res_a.into_parts();
        let mut values = vals_a.unwrap_or_default();
        let mut metrics = m_a.clone();
        let mut profile = Profile::default();
        if profiled {
            profile.merge_from(prof_a);
        }
        let mut step_bytes = m_a.bytes_read;
        let mut step_saved = m_a.bytes_saved;
        let mut step_fused = m_a.fused_bytes_saved;
        let mut step_io = m_a.io_s;
        if let Some((r, m, p)) = filtered {
            let (p2, v2) = r.into_parts();
            positions.extend(p2);
            values.extend(v2.unwrap_or_default());
            add_step_metrics(&mut metrics, &m);
            if profiled {
                profile.merge_from(p);
            }
            step_bytes += m.bytes_read;
            step_saved += m.bytes_saved;
            step_fused += m.fused_bytes_saved;
            step_io += m.io_s;
        }
        metrics.bins_touched = plan.bins_touched;
        metrics.aligned_bins = plan.aligned_bins;
        metrics.chunks_touched = plan.chunks_touched;
        let result = QueryResult::from_parts(positions, Some(values));
        if result.len() > u32::MAX as usize {
            return Err(MlocError::Invalid(
                "progressive result too large to index".into(),
            ));
        }

        // Resolve each captured point to its slot in the sorted result.
        let rpos = result.positions();
        let mut units: Vec<RefineState> = Vec::with_capacity(captured.len());
        for unit in captured {
            let result_idx = unit
                .positions
                .iter()
                .map(|p| {
                    rpos.binary_search(p)
                        .map(|i| i as u32)
                        .map_err(|_| MlocError::Corrupt("captured position missing from result"))
                })
                .collect::<Result<Vec<u32>>>()?;
            units.push(RefineState {
                unit,
                result_idx,
                cap: target_parts,
            });
        }
        // Step-0 degradation (impossible at the base level today, but
        // kept total): a loss already caps the unit's ladder.
        for e in &metrics.degradation.events {
            if let Some(st) = units
                .iter_mut()
                .find(|s| s.unit.bin == e.bin && s.unit.chunk_rank == e.chunk_rank)
            {
                st.cap = st.cap.min(e.lost_part);
            }
        }

        let mut pq = ProgressiveQuery {
            store,
            exec,
            query: query.clone(),
            target_parts,
            next_part: if units.is_empty() { target_parts } else { 1 },
            result,
            units,
            steps: Vec::new(),
            metrics,
            profile,
            profiled,
            done: false,
        };
        pq.done = pq.next_part >= pq.target_parts;
        let step = ProgressiveStep {
            step: 0,
            level: if pq.units.is_empty() {
                query.plod
            } else {
                base_level
            },
            error_bound: pq.bound_after(pq.next_part),
            bytes_read: step_bytes,
            bytes_saved: step_saved,
            fused_bytes_saved: step_fused,
            io_s: step_io,
            capped_units: pq.capped_units(),
            done: pq.done,
        };
        pq.record_step(step, t.elapsed().as_secs_f64(), "step0");
        Ok(pq)
    }

    /// Degenerate ladder (no PLoD layout, positions-only output, or a
    /// membership query): one step at the target, done immediately.
    fn start_single_shot(
        exec: ParallelExecutor,
        store: &'s MlocStore<'a>,
        query: &Query,
        plan: &Plan,
        profiled: bool,
    ) -> Result<Self> {
        let t = Instant::now();
        let (result, metrics, profile) = if profiled {
            exec.execute_plan_profiled(store, query, plan, None)?
        } else {
            let (r, m) = exec.execute_plan(store, query, plan, None)?;
            (r, m, Profile::default())
        };
        let error_bound = if metrics.degradation.is_degraded() {
            metrics.degradation.error_bound()
        } else if query.wants_values() {
            plod::relative_error_bound(query.plod)
        } else {
            // Positions are exact at any PLoD level: bitmaps decide
            // membership, and misaligned bins filter at the target.
            0.0
        };
        let step = ProgressiveStep {
            step: 0,
            level: query.plod,
            error_bound,
            bytes_read: metrics.bytes_read,
            bytes_saved: metrics.bytes_saved,
            fused_bytes_saved: metrics.fused_bytes_saved,
            io_s: metrics.io_s,
            capped_units: metrics.degraded_units,
            done: true,
        };
        let target_parts = query.plod.num_parts();
        let mut pq = ProgressiveQuery {
            store,
            exec,
            query: query.clone(),
            target_parts,
            next_part: target_parts,
            result,
            units: Vec::new(),
            steps: Vec::new(),
            metrics,
            profile,
            profiled,
            done: true,
        };
        pq.record_step(step, t.elapsed().as_secs_f64(), "step0");
        Ok(pq)
    }

    /// Fetch the next byte-group part for every refinable unit and
    /// merge it into the result in place. Returns `None` once the
    /// ladder is complete (target reached, or every unit capped).
    ///
    /// Reads re-enter the store's shared block cache and extent fuser,
    /// so a warm refinement step costs only the bytes nobody has
    /// fetched yet. A damaged extent caps the affected unit's ladder
    /// (when the executor allows degradation) and is recorded in the
    /// cumulative [`QueryMetrics::degradation`] report.
    pub fn next_refinement(&mut self) -> Result<Option<ProgressiveStep>> {
        if self.done {
            return Ok(None);
        }
        let t = Instant::now();
        let p = self.next_part;
        debug_assert!(p >= 1 && p < self.target_parts);
        let store = self.store;
        let config = store.config();
        let byte_codec = config.codec.byte_codec();
        let cache = store.cache().map(Arc::as_ref);
        let fuser = store.fuser().map(Arc::as_ref);
        let scope = store.cache_scope();
        let mut io = RankIo::with_retry(store.backend(), self.exec.retry_policy());

        let mut bytes_read = 0u64;
        let mut bytes_saved = 0u64;
        let mut fused_bytes = 0u64;
        let mut fused_reads = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut decompress_s = 0.0f64;
        let mut new_events: Vec<DegradationEvent> = Vec::new();
        // (unit index, decompressed part bytes) pending application.
        let mut fetched: Vec<(usize, ByteView)> = Vec::new();

        // Walk the units bin by bin (they are sorted), coalescing each
        // bin's cache misses into as few physical reads as the one-shot
        // engine would.
        let mut i = 0usize;
        while i < self.units.len() {
            let bin = self.units[i].unit.bin;
            let mut j = i;
            while j < self.units.len() && self.units[j].unit.bin == bin {
                j += 1;
            }
            let data_file = store.data_file(bin);
            let mut wants: Vec<(u64, u32)> = Vec::new();
            let mut slots: Vec<usize> = Vec::new();
            for k in i..j {
                let st = &self.units[k];
                if st.cap <= p || st.unit.count == 0 {
                    continue;
                }
                let loc = st.unit.part_locs[p];
                let bkey = BlockKey {
                    scope: Arc::clone(scope),
                    bin: bin as u32,
                    chunk_rank: st.unit.chunk_rank as u32,
                    part: BlockPart::PlodPart(p as u8),
                };
                if let Some(c) = cache {
                    if let Some(CachedBlock::Bytes(b)) = c.get(&bkey) {
                        io.record_cached(&data_file, loc.offset, u64::from(loc.clen));
                        cache_hits += 1;
                        bytes_saved += u64::from(loc.clen);
                        fetched.push((k, b));
                        continue;
                    }
                    cache_misses += 1;
                }
                wants.push((loc.offset, loc.clen));
                slots.push(k);
            }
            i = j;
            if wants.is_empty() {
                continue;
            }
            let results = coalesced_read_results(
                &mut io,
                &data_file,
                &wants,
                Some(store.data_footer(bin)),
                fuser,
            );
            let td = Instant::now();
            for (w_i, r) in results.into_iter().enumerate() {
                let k = slots[w_i];
                match r.res {
                    Ok(view) => {
                        if r.fused {
                            fused_reads += 1;
                            fused_bytes += u64::from(wants[w_i].1);
                        } else {
                            bytes_read += u64::from(wants[w_i].1);
                        }
                        let decomp = byte_codec.decompress(&view)?;
                        let count = self.units[k].unit.count as usize;
                        if decomp.len() != count * plod::PART_BYTES[p] {
                            return Err(MlocError::Corrupt("unit length mismatch"));
                        }
                        let pv = ByteView::from(decomp);
                        if let Some(c) = cache {
                            c.insert(
                                BlockKey {
                                    scope: Arc::clone(scope),
                                    bin: bin as u32,
                                    chunk_rank: self.units[k].unit.chunk_rank as u32,
                                    part: BlockPart::PlodPart(p as u8),
                                },
                                CachedBlock::Bytes(pv.clone()),
                            );
                        }
                        fetched.push((k, pv));
                    }
                    Err(e) => {
                        // Same degradability rule as the one-shot
                        // engine: a non-base part of a filterless unit
                        // may be dropped; parts after it become
                        // unreachable, capping the ladder here.
                        if !self.exec.degradation_allowed() {
                            return Err(e);
                        }
                        let st = &mut self.units[k];
                        st.cap = p;
                        new_events.push(DegradationEvent {
                            bin: st.unit.bin,
                            chunk_rank: st.unit.chunk_rank,
                            lost_part: p,
                            points: u64::from(st.unit.count),
                            reason: e.to_string(),
                        });
                    }
                }
            }
            decompress_s += td.elapsed().as_secs_f64();
        }

        // Apply the deltas in place: one byte merged per value.
        let tr = Instant::now();
        if !fetched.is_empty() {
            let values = self
                .result
                .values_mut()
                .ok_or(MlocError::Corrupt("progressive ladder without values"))?;
            for (k, part_bytes) in &fetched {
                let st = &self.units[*k];
                plod::refine_into(values, &st.result_idx, &st.unit.val_idx, part_bytes, p)?;
            }
        }
        let reconstruct_s = tr.elapsed().as_secs_f64();

        // Account the step.
        self.metrics.retries += io.retries();
        self.metrics.retry_wait_s += io.retry_wait_s();
        let trace = io.into_trace();
        let sim = simulate_reads(std::slice::from_ref(&trace), self.exec.cost_model());
        let io_s = sim.per_rank_seconds.first().copied().unwrap_or(0.0);
        self.metrics.seeks += sim.total_seeks;
        self.metrics.io_s += io_s;
        self.metrics.decompress_s += decompress_s;
        self.metrics.reconstruct_s += reconstruct_s;
        self.metrics.response_s += io_s + decompress_s + reconstruct_s;
        self.metrics.bytes_read += bytes_read;
        self.metrics.data_bytes += bytes_read;
        self.metrics.bytes_saved += bytes_saved;
        self.metrics.cache_hits += cache_hits;
        self.metrics.cache_misses += cache_misses;
        self.metrics.fused_reads += fused_reads;
        self.metrics.fused_bytes_saved += fused_bytes;
        self.metrics.degraded_units += new_events.len() as u64;
        let new_report = DegradationReport { events: new_events };
        self.metrics.degradation.merge(&new_report);

        self.next_part = p + 1;
        let applied = self.next_part;
        // Done when the target is reached, or when damage has capped
        // every unit at or below the applied level (nothing left to
        // fetch — the bound is frozen).
        self.done = applied >= self.target_parts || self.units.iter().all(|s| s.cap <= applied);
        let step = ProgressiveStep {
            step: self.steps.len(),
            level: PlodLevel::new(applied.min(self.target_parts) as u8)
                .expect("applied parts within level range"),
            error_bound: self.bound_after(applied),
            bytes_read,
            bytes_saved,
            fused_bytes_saved: fused_bytes,
            io_s,
            capped_units: self.capped_units(),
            done: self.done,
        };
        self.record_step(step.clone(), t.elapsed().as_secs_f64(), "refine");
        Ok(Some(step))
    }

    /// Pull refinements until the error bound is ≤ `target_error` or
    /// the ladder ends (target level reached / every unit capped).
    pub fn run_to_target_error(&mut self, target_error: f64) -> Result<()> {
        while !self.done && self.current_error_bound() > target_error {
            self.next_refinement()?;
        }
        Ok(())
    }

    /// Pull every remaining refinement step.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while self.next_refinement()?.is_some() {}
        Ok(())
    }

    /// The result at its current precision (positions are final from
    /// step 0 on; values sharpen with each refinement step).
    pub fn result(&self) -> &QueryResult {
        &self.result
    }

    /// Cumulative metrics over all steps so far (byte counters and
    /// component times summed across steps).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Every step taken so far, in order (step 0 first).
    pub fn steps(&self) -> &[ProgressiveStep] {
        &self.steps
    }

    /// Merged profile over all steps (empty unless started profiled).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The query this handle is refining.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Worst-case relative error bound of the current result.
    pub fn current_error_bound(&self) -> f64 {
        self.steps.last().map_or(0.0, |s| s.error_bound)
    }

    /// Whether the ladder is complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Decompose into the final result, cumulative metrics, step log,
    /// and profile.
    pub fn into_outcome(self) -> (QueryResult, QueryMetrics, Vec<ProgressiveStep>, Profile) {
        (self.result, self.metrics, self.steps, self.profile)
    }

    /// Units currently capped below the target by damaged extents.
    fn capped_units(&self) -> u64 {
        self.units
            .iter()
            .filter(|s| s.cap < self.target_parts)
            .count() as u64
    }

    /// Worst-case relative bound once `applied` parts have been merged
    /// into the refinable units: the coarsest unit governs — a capped
    /// unit sits at `min(cap, applied)` parts, value-filtered bins at
    /// the target. Monotonically non-increasing in `applied` because
    /// caps only freeze levels, never lower them.
    fn bound_after(&self, applied: usize) -> f64 {
        let mut worst = self.target_parts;
        for s in &self.units {
            worst = worst.min(s.cap.min(applied));
        }
        let level = if worst == self.target_parts {
            self.query.plod
        } else {
            PlodLevel::new(worst.max(1) as u8).expect("parts within level range")
        };
        plod::relative_error_bound(level)
    }

    fn record_step(&mut self, step: ProgressiveStep, wall_s: f64, span: &'static str) {
        if self.profiled {
            self.profile.record_path(&["progressive", span], wall_s);
            self.profile
                .add_counter("progressive.steps", Label::None, 1);
            self.profile.add_counter(
                "progressive.bytes_per_step",
                Label::Index(step.step as u32),
                step.bytes_read,
            );
        }
        self.steps.push(step);
    }
}

impl ParallelExecutor {
    /// Start a progressive (pull-based) query: the returned handle's
    /// step 0 is already served at the base precision; call
    /// [`ProgressiveQuery::next_refinement`] to sharpen it one byte
    /// group at a time. Step 0 runs through this executor (any rank
    /// count, replay or threaded); refinement pulls are single-rank
    /// reads costed by the same PFS model.
    pub fn progressive<'s, 'a>(
        &self,
        store: &'s MlocStore<'a>,
        query: &Query,
    ) -> Result<ProgressiveQuery<'s, 'a>> {
        ProgressiveQuery::start(self.clone(), store, query, false)
    }

    /// [`ParallelExecutor::progressive`] with profiling on: the handle
    /// accumulates a merged [`Profile`] (per-step spans plus
    /// `progressive.steps` / `progressive.bytes_per_step` counters).
    pub fn progressive_profiled<'s, 'a>(
        &self,
        store: &'s MlocStore<'a>,
        query: &Query,
    ) -> Result<ProgressiveQuery<'s, 'a>> {
        ProgressiveQuery::start(self.clone(), store, query, true)
    }
}

impl<'a> MlocStore<'a> {
    /// Start a serial progressive query against this store.
    pub fn query_progressive(&self, query: &Query) -> Result<ProgressiveQuery<'_, 'a>> {
        ParallelExecutor::serial().progressive(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, MlocStore<'_>) {
        let values: Vec<f64> = (0..4096)
            .map(|i| ((i * 37) % 4096) as f64 * 0.25 + 3.1)
            .collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(10)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(be, "ds", "v").unwrap();
        (values, store)
    }

    #[test]
    fn ladder_refines_to_one_shot_result() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        for q in [
            Query::values_where(50.0, 800.0),
            Query::values_in(crate::array::Region::new(vec![(3, 40), (5, 60)])),
            Query::values_where(10.0, 900.0)
                .with_region(crate::array::Region::new(vec![(0, 33), (10, 64)])),
        ] {
            let (oneshot, om) = store.query_with_metrics(&q).unwrap();
            let mut pq = store.query_progressive(&q).unwrap();
            // Positions are final from step 0.
            assert_eq!(pq.result().positions(), oneshot.positions());
            let mut total_bytes = pq.steps()[0].bytes_read;
            let mut prev_bound = f64::INFINITY;
            for s in pq.steps() {
                assert!(s.error_bound <= prev_bound);
                prev_bound = s.error_bound;
            }
            while let Some(step) = pq.next_refinement().unwrap() {
                assert!(step.error_bound <= prev_bound, "bound must not grow");
                prev_bound = step.error_bound;
                total_bytes += step.bytes_read;
            }
            assert!(pq.is_done());
            assert_eq!(pq.current_error_bound(), 0.0);
            // Cold ladder bytes sum to the one-shot read exactly.
            assert_eq!(total_bytes, om.bytes_read);
            assert_eq!(pq.metrics().bytes_read, om.bytes_read);
            // Final step is byte-identical to the one-shot result.
            let p = pq.result();
            assert_eq!(p.positions(), oneshot.positions());
            let (pv, ov) = (p.values().unwrap(), oneshot.values().unwrap());
            assert_eq!(pv.len(), ov.len());
            for (a, b) in pv.iter().zip(ov) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn step0_bound_matches_base_level() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_in(crate::array::Region::new(vec![(0, 16), (0, 16)]));
        let pq = store.query_progressive(&q).unwrap();
        assert_eq!(
            pq.steps()[0].error_bound,
            plod::relative_error_bound(PlodLevel::new(1).unwrap())
        );
        assert_eq!(pq.steps()[0].level, PlodLevel::new(1).unwrap());
        assert!(!pq.steps()[0].done);
    }

    #[test]
    fn coarse_target_finishes_early() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let lvl = PlodLevel::new(3).unwrap();
        let q = Query::values_where(100.0, 500.0).with_plod(lvl);
        let (oneshot, om) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        let mut total = pq.steps()[0].bytes_read;
        let mut n = 0;
        while let Some(s) = pq.next_refinement().unwrap() {
            total += s.bytes_read;
            n += 1;
        }
        assert_eq!(n, 2); // levels 2 and 3
        assert_eq!(total, om.bytes_read);
        assert_eq!(pq.current_error_bound(), plod::relative_error_bound(lvl));
        let (pv, ov) = (pq.result().values().unwrap(), oneshot.values().unwrap());
        for (a, b) in pv.iter().zip(ov) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn positions_only_query_is_single_step() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::region(10.0, 50.0);
        let (oneshot, om) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        assert!(pq.is_done());
        assert_eq!(pq.steps().len(), 1);
        assert_eq!(pq.steps()[0].error_bound, 0.0);
        assert_eq!(pq.steps()[0].bytes_read, om.bytes_read);
        assert_eq!(pq.result().positions(), oneshot.positions());
        assert!(pq.next_refinement().unwrap().is_none());
    }

    #[test]
    fn membership_query_is_single_step() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::membership(vec![0, 17, 4000]).with_values();
        let (oneshot, _) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        assert!(pq.is_done());
        assert_eq!(pq.result(), &oneshot);
        assert!(pq.next_refinement().unwrap().is_none());
    }

    #[test]
    fn run_to_target_error_stops_at_bound() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_where(50.0, 800.0);
        let mut pq = store.query_progressive(&q).unwrap();
        let eps = 1e-7;
        pq.run_to_target_error(eps).unwrap();
        assert!(pq.current_error_bound() <= eps);
        assert!(!pq.is_done(), "1e-7 is reachable before full precision");
        // The previous step's bound was above eps: we stopped ASAP.
        let n = pq.steps().len();
        assert!(pq.steps()[n - 2].error_bound > eps);
    }
}
