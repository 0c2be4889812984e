//! The SPICE shedder family: hSPICE, pSPICE and gSPICE backends plus the
//! cross-query model sharing that feeds them.
//!
//! The paper's authors followed eSPICE with a family of shedders. This
//! module lands them as *backends* behind the existing decider row, not as
//! new engines:
//!
//! * [`HspiceShedder`] — hSPICE's state-aware, per-operator utility split:
//!   the shared utility statistics are re-weighted by how often the
//!   *operator's own pattern* references each event type, so a type another
//!   query cares about but this operator cannot bind gets utility 0 here.
//! * [`GspiceShedder`] — gSPICE's model-based verdicts: per-cell utilities
//!   are shrunken towards the global mean by the cell's observed event
//!   mass (an empirical-Bayes estimate — the offline, dependency-free
//!   analogue of gSPICE's learned model), which de-noises rarely observed
//!   cells before thresholding.
//! * [`PspiceShedder`] — pSPICE sheds *partial matches* instead of input
//!   events: it keeps every event at decision time and instead arms the
//!   operator's partial-match store
//!   ([`WindowEventDecider::partial_match_budget`]) so open partial
//!   matches are evicted by utility-per-remaining-cost once the store
//!   exceeds its budget.
//!
//! hSPICE and gSPICE both materialise a **derived** [`UtilityTable`] once
//! per (re)construction and hand it to an [`EspiceShedder`], which runs the
//! one copy of the eSPICE machinery over it — partition CDTs, thresholds,
//! boundary thinning and the compiled span kernel — so neither pays a
//! bespoke per-event stack: after the first contact per (type, window size)
//! every verdict is one shift-and-mask load. Position scaling, bin mapping
//! and partitioning still come from the shared model's config, so derived
//! tables stay aligned with the trained one.
//!
//! [`SharedUtilityStats`] is what makes N queries over one stream cheap:
//! the trained [`UtilityModel`] lives once behind an `Arc` and every
//! family shedder derives its view from the shared statistics instead of
//! holding a redundant copy.

use crate::{EspiceShedder, ShedPlan, ShedderStats, UtilityModel, UtilityTable};
use espice_cep::{BatchRequest, Decision, DropSet, Pattern, WindowEventDecider, WindowMeta};
use espice_events::{Event, EventType};
use std::sync::Arc;

/// Cross-query shared utility statistics: one trained [`UtilityModel`]
/// behind an `Arc`, derived into per-operator views by the family
/// backends instead of cloned per query.
///
/// # Example
///
/// ```
/// use espice::{ModelBuilder, ModelConfig, SharedUtilityStats};
///
/// let model = ModelBuilder::new(ModelConfig::with_positions(10), 2).build();
/// let shared = SharedUtilityStats::new(model);
/// let for_query_a = shared.clone();
/// let for_query_b = shared.clone();
/// // All three handles reference the same statistics.
/// assert_eq!(shared.memory_bytes(), for_query_a.memory_bytes());
/// assert_eq!(SharedUtilityStats::handles(&for_query_b), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SharedUtilityStats {
    model: Arc<UtilityModel>,
}

impl SharedUtilityStats {
    /// Wraps a trained model for sharing across queries.
    pub fn new(model: UtilityModel) -> Self {
        SharedUtilityStats { model: Arc::new(model) }
    }

    /// The shared model.
    pub fn model(&self) -> &UtilityModel {
        &self.model
    }

    /// Memory footprint of the *shared* statistics in bytes. This is paid
    /// once regardless of how many shedders derive from the handle — the
    /// denominator of the family's model-sharing win.
    pub fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }

    /// Number of live handles to the shared statistics (queries plus the
    /// owner). Exposed so experiments can assert N queries really share
    /// one model.
    pub fn handles(this: &Self) -> usize {
        Arc::strong_count(&this.model)
    }
}

/// hSPICE's per-operator utility derivation: the shared table re-weighted
/// by how often this operator's pattern references each type. A type the
/// pattern never references cannot contribute to *this* operator's
/// matches, so its derived utility is 0 regardless of what other queries
/// learned; a type referenced `r` times is boosted by `1 + (r − 1) / 2`
/// (capped at 100) because losing it can break up to `r` bindings.
fn hspice_table(model: &UtilityModel, pattern: &Pattern) -> UtilityTable {
    let ut = model.utility_table();
    let bins = ut.bins();
    let utilities = (0..ut.num_types())
        .map(|ty_index| {
            let repetition = pattern.type_repetition(EventType::from_index(ty_index as u32));
            (0..bins)
                .map(|bin| {
                    if repetition == 0 {
                        return 0;
                    }
                    let boost = 1.0 + 0.5 * (repetition - 1) as f64;
                    (ut.utility_by_index(ty_index, bin) as f64 * boost).round().min(100.0) as u8
                })
                .collect()
        })
        .collect();
    UtilityTable::from_utilities(bins, utilities)
}

/// gSPICE's model-based derivation: each cell's utility is shrunk towards
/// the share-weighted global mean by the cell's observed event mass
/// (`(u·n + μ) / (n + 1)`). Cells backed by many observations keep their
/// learned utility; cells the training barely saw move to the global
/// prior instead of acting on noise.
fn gspice_table(model: &UtilityModel) -> UtilityTable {
    let ut = model.utility_table();
    let shares = model.position_shares();
    let bins = ut.bins();
    let mut weighted = 0.0f64;
    let mut mass = 0.0f64;
    for ty_index in 0..ut.num_types() {
        for bin in 0..bins {
            let share = shares.share_by_index(ty_index, bin);
            weighted += share * ut.utility_by_index(ty_index, bin) as f64;
            mass += share;
        }
    }
    let mean = if mass > 0.0 { weighted / mass } else { 0.0 };
    let utilities = (0..ut.num_types())
        .map(|ty_index| {
            (0..bins)
                .map(|bin| {
                    let n = shares.share_by_index(ty_index, bin);
                    let u = ut.utility_by_index(ty_index, bin) as f64;
                    ((u * n + mean) / (n + 1.0)).round().clamp(0.0, 100.0) as u8
                })
                .collect()
        })
        .collect();
    UtilityTable::from_utilities(bins, utilities)
}

/// The hSPICE load shedder: state-aware, per-operator utility tables
/// compiled into the same span kernel as eSPICE.
///
/// # Example
///
/// ```
/// use espice::{HspiceShedder, ModelBuilder, ModelConfig, ShedPlan, SharedUtilityStats};
/// use espice_cep::Pattern;
/// use espice_events::EventType;
///
/// let model = ModelBuilder::new(ModelConfig::with_positions(10), 2).build();
/// let shared = SharedUtilityStats::new(model);
/// let pattern = Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]);
/// let mut shedder = HspiceShedder::new(shared, &pattern);
/// assert!(!shedder.is_active());
/// shedder.apply(ShedPlan { active: true, partitions: 2, partition_size: 5, events_to_drop: 1.0 });
/// assert!(shedder.is_active());
/// ```
#[derive(Debug, Clone)]
pub struct HspiceShedder {
    inner: EspiceShedder,
}

impl HspiceShedder {
    /// Derives this operator's state-aware utility table from the shared
    /// statistics and `pattern` (the operator's own pattern), and wraps it
    /// in the eSPICE decision core. Starts inactive.
    pub fn new(shared: SharedUtilityStats, pattern: &Pattern) -> Self {
        let table = hspice_table(shared.model(), pattern);
        HspiceShedder { inner: EspiceShedder::over(shared, Some(table)) }
    }

    /// Applies a drop command (an inactive plan deactivates the shedder).
    pub fn apply(&mut self, plan: ShedPlan) {
        self.inner.apply(plan);
    }

    /// Stops shedding; every subsequent decision keeps the event.
    pub fn deactivate(&mut self) {
        self.inner.deactivate();
    }

    /// Whether the shedder is currently dropping events.
    pub fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    /// The shedder's counters.
    pub fn stats(&self) -> &ShedderStats {
        self.inner.stats()
    }

    /// The per-partition utility thresholds of the active plan (empty when
    /// inactive).
    pub fn thresholds(&self) -> Vec<Option<u8>> {
        self.inner.thresholds()
    }

    /// The derived per-operator utility of `ty` at `bin` (inspection /
    /// experiments).
    pub fn derived_utility(&self, ty: EventType, bin: usize) -> u8 {
        self.inner.utilities().utility(ty, bin)
    }
}

impl WindowEventDecider for HspiceShedder {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        self.inner.decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        self.inner.decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        self.inner.decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.inner.window_closed(meta, size);
    }
}

/// The gSPICE load shedder: model-based (shrunken) utility verdicts,
/// table-compiled like eSPICE and hSPICE.
///
/// # Example
///
/// ```
/// use espice::{GspiceShedder, ModelBuilder, ModelConfig, ShedPlan, SharedUtilityStats};
///
/// let model = ModelBuilder::new(ModelConfig::with_positions(10), 2).build();
/// let shared = SharedUtilityStats::new(model);
/// let mut shedder = GspiceShedder::new(shared);
/// shedder.apply(ShedPlan { active: true, partitions: 1, partition_size: 5, events_to_drop: 1.0 });
/// assert!(shedder.is_active());
/// ```
#[derive(Debug, Clone)]
pub struct GspiceShedder {
    inner: EspiceShedder,
}

impl GspiceShedder {
    /// Derives the shrunken model-based utility table from the shared
    /// statistics and wraps it in the eSPICE decision core.
    /// Starts inactive.
    pub fn new(shared: SharedUtilityStats) -> Self {
        let table = gspice_table(shared.model());
        GspiceShedder { inner: EspiceShedder::over(shared, Some(table)) }
    }

    /// Applies a drop command (an inactive plan deactivates the shedder).
    pub fn apply(&mut self, plan: ShedPlan) {
        self.inner.apply(plan);
    }

    /// Stops shedding; every subsequent decision keeps the event.
    pub fn deactivate(&mut self) {
        self.inner.deactivate();
    }

    /// Whether the shedder is currently dropping events.
    pub fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    /// The shedder's counters.
    pub fn stats(&self) -> &ShedderStats {
        self.inner.stats()
    }

    /// The per-partition utility thresholds of the active plan (empty when
    /// inactive).
    pub fn thresholds(&self) -> Vec<Option<u8>> {
        self.inner.thresholds()
    }

    /// The derived (shrunken) utility of `ty` at `bin` (inspection /
    /// experiments).
    pub fn derived_utility(&self, ty: EventType, bin: usize) -> u8 {
        self.inner.utilities().utility(ty, bin)
    }
}

impl WindowEventDecider for GspiceShedder {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        self.inner.decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        self.inner.decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        self.inner.decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.inner.window_closed(meta, size);
    }
}

/// The pSPICE load shedder: sheds open **partial matches** instead of
/// input events.
///
/// Every per-event decision keeps the event — pSPICE's dropping happens in
/// the operator's partial-match store, which this shedder arms through
/// [`WindowEventDecider::partial_match_budget`]: while a plan is active,
/// each window tracks its open partial matches and, past the budget,
/// evicts the one with the lowest utility-per-remaining-cost; events
/// referenced only by evicted matches are retroactively dropped from the
/// window. Utilities come from the shared statistics through
/// [`WindowEventDecider::constituent_utility`].
///
/// # Example
///
/// ```
/// use espice::{ModelBuilder, ModelConfig, PspiceShedder, ShedPlan, SharedUtilityStats};
///
/// let model = ModelBuilder::new(ModelConfig::with_positions(10), 2).build();
/// let mut shedder = PspiceShedder::new(SharedUtilityStats::new(model));
/// assert!(shedder.budget().is_none());
/// shedder.apply(ShedPlan { active: true, partitions: 1, partition_size: 10, events_to_drop: 5.0 });
/// assert!(shedder.budget().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PspiceShedder {
    shared: SharedUtilityStats,
    budget: Option<usize>,
    last_plan: Option<ShedPlan>,
    stats: ShedderStats,
}

impl PspiceShedder {
    /// Creates an inactive pSPICE shedder over the shared statistics.
    pub fn new(shared: SharedUtilityStats) -> Self {
        PspiceShedder { shared, budget: None, last_plan: None, stats: ShedderStats::default() }
    }

    /// Applies a drop command by translating the requested *input* drop
    /// fraction into a partial-match budget: keeping a fraction `1 − f` of
    /// the events supports at most `N · (1 − f)` concurrently open partial
    /// matches per window (one event can open at most one new match), so
    /// the store budget is `max(1, ⌊N · (1 − f)⌋)` with `N` the model's
    /// average window size. An inactive plan disarms the store.
    pub fn apply(&mut self, plan: ShedPlan) {
        if !plan.active || plan.events_to_drop <= 0.0 {
            self.deactivate();
            return;
        }
        self.last_plan = Some(plan);
        self.stats.plans_applied += 1;
        let drop_fraction =
            (plan.events_to_drop / plan.partition_size.max(1) as f64).clamp(0.0, 1.0);
        let window = self.shared.model().average_window_size().max(1.0);
        self.budget = Some(((window * (1.0 - drop_fraction)).floor() as usize).max(1));
    }

    /// Disarms partial-match shedding; windows opened from now on track no
    /// store.
    pub fn deactivate(&mut self) {
        self.budget = None;
    }

    /// Whether a budget is currently armed.
    pub fn is_active(&self) -> bool {
        self.budget.is_some()
    }

    /// The armed per-window partial-match budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The shedder's counters. `drops` stays 0 by construction — pSPICE's
    /// dropping is retroactive and accounted by the operator
    /// ([`OperatorStats::dropped`](espice_cep::OperatorStats)), not by the
    /// per-event decision path.
    pub fn stats(&self) -> &ShedderStats {
        &self.stats
    }
}

impl WindowEventDecider for PspiceShedder {
    fn decide(&mut self, _meta: &WindowMeta, _position: usize, _event: &Event) -> Decision {
        self.stats.decisions += 1;
        Decision::Keep
    }

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        let _ = meta;
        self.budget
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        self.shared.model().utility(event.event_type(), position, meta.predicted_size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelBuilder, ModelConfig};
    use espice_cep::{ComplexEvent, Constituent};
    use espice_events::Timestamp;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn meta_for(id: u64, predicted: usize) -> WindowMeta {
        WindowMeta {
            id,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: predicted,
        }
    }

    /// The shedder.rs training fixture: type 0 at position 0 and type 1 at
    /// position 1 are the valuable cells of 4-event windows.
    fn trained_shared() -> SharedUtilityStats {
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 2);
        for w in 0..10u64 {
            let m = meta_for(w, 4);
            for pos in 0..4usize {
                let t = if pos % 2 == 0 { 0 } else { 1 };
                let e = Event::new(ty(t), Timestamp::from_secs(pos as u64), pos as u64);
                let _ = builder.decide(&m, pos, &e);
            }
            builder.window_closed(&m, 4);
            builder.observe_complex(&ComplexEvent::new(
                w,
                Timestamp::ZERO,
                vec![
                    Constituent { seq: 0, event_type: ty(0), position: 0 },
                    Constituent { seq: 1, event_type: ty(1), position: 1 },
                ],
            ));
        }
        SharedUtilityStats::new(builder.build())
    }

    #[test]
    fn shared_stats_are_shared_not_copied() {
        let shared = trained_shared();
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let h = HspiceShedder::new(shared.clone(), &pattern);
        let g = GspiceShedder::new(shared.clone());
        let p = PspiceShedder::new(shared.clone());
        let _ = (&h, &g, &p);
        // One owner + three backends, zero model copies.
        assert_eq!(SharedUtilityStats::handles(&shared), 4);
        assert!(shared.memory_bytes() > 0);
    }

    #[test]
    fn hspice_zeroes_types_outside_the_pattern_and_boosts_repetition() {
        let shared = trained_shared();
        // Pattern references type 1 twice and type 0 never.
        let pattern = Pattern::sequence([ty(1), ty(1)]);
        let shedder = HspiceShedder::new(shared.clone(), &pattern);
        let model = shared.model();
        // Type 0 has positive trained utility but is not bindable here.
        assert!(model.utility_table().utility(ty(0), 0) > 0);
        for bin in 0..model.utility_table().bins() {
            assert_eq!(shedder.derived_utility(ty(0), bin), 0);
        }
        // Type 1 is referenced twice: boost 1.5x (capped at 100).
        let trained = model.utility_table().utility(ty(1), 1) as f64;
        let expected = (trained * 1.5).round().min(100.0) as u8;
        assert_eq!(shedder.derived_utility(ty(1), 1), expected);
    }

    #[test]
    fn gspice_shrinks_unobserved_cells_towards_the_mean() {
        let shared = trained_shared();
        let shedder = GspiceShedder::new(shared.clone());
        let ut = shared.model().utility_table();
        // A well-observed valuable cell stays close to its trained value;
        // by shrinkage it cannot exceed it (the mean is below it).
        let trained = ut.utility(ty(0), 0);
        let shrunk = shedder.derived_utility(ty(0), 0);
        assert!(shrunk <= trained);
        assert!(shrunk as f64 >= trained as f64 * 0.4, "over-shrunk: {shrunk} vs {trained}");
        // A never-observed cell (type 0 at position 1 has share 0) moves to
        // the global mean instead of staying at its raw 0.
        assert_eq!(ut.utility(ty(0), 1), 0);
        assert!(shedder.derived_utility(ty(0), 1) > 0);
    }

    #[test]
    fn hspice_span_kernel_matches_scalar_decisions_exactly() {
        let plan = ShedPlan { active: true, partitions: 2, partition_size: 2, events_to_drop: 1.5 };
        let shared = trained_shared();
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let mut scalar = HspiceShedder::new(shared.clone(), &pattern);
        let mut kernel = HspiceShedder::new(shared, &pattern);
        scalar.apply(plan);
        kernel.apply(plan);

        let mut seq = 0u64;
        for window in 0..40u64 {
            let m = meta_for(window, if window % 3 == 0 { 8 } else { 4 });
            let start = (window % 5) as usize;
            let events: Vec<Event> = (0..7)
                .map(|i| {
                    seq += 1;
                    Event::new(ty(((start + i) % 2) as u32), Timestamp::ZERO, seq)
                })
                .collect();
            let mut expected = DropSet::new();
            let mut expected_count = 0;
            for (i, event) in events.iter().enumerate() {
                if !scalar.decide(&m, start + i, event).is_keep() {
                    expected.push(start + i);
                    expected_count += 1;
                }
            }
            let mut got = DropSet::new();
            let got_count = kernel.decide_span(&m, start, &events, &mut got);
            assert_eq!(got_count, expected_count, "window {window}");
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>(),
                "window {window}"
            );
            scalar.window_closed(&m, start + 7);
            kernel.window_closed(&m, start + 7);
        }
        assert_eq!(scalar.stats(), kernel.stats());
        assert!(kernel.stats().drops > 0);
    }

    #[test]
    fn gspice_span_kernel_matches_scalar_decisions_exactly() {
        let plan = ShedPlan { active: true, partitions: 2, partition_size: 2, events_to_drop: 1.5 };
        let shared = trained_shared();
        let mut scalar = GspiceShedder::new(shared.clone());
        let mut kernel = GspiceShedder::new(shared);
        scalar.apply(plan);
        kernel.apply(plan);

        let mut seq = 0u64;
        for window in 0..40u64 {
            let m = meta_for(window, if window % 3 == 0 { 8 } else { 4 });
            let start = (window % 5) as usize;
            let events: Vec<Event> = (0..7)
                .map(|i| {
                    seq += 1;
                    Event::new(ty(((start + i) % 2) as u32), Timestamp::ZERO, seq)
                })
                .collect();
            let mut expected = DropSet::new();
            let mut expected_count = 0;
            for (i, event) in events.iter().enumerate() {
                if !scalar.decide(&m, start + i, event).is_keep() {
                    expected.push(start + i);
                    expected_count += 1;
                }
            }
            let mut got = DropSet::new();
            let got_count = kernel.decide_span(&m, start, &events, &mut got);
            assert_eq!(got_count, expected_count, "window {window}");
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>(),
                "window {window}"
            );
            scalar.window_closed(&m, start + 7);
            kernel.window_closed(&m, start + 7);
        }
        assert_eq!(scalar.stats(), kernel.stats());
        assert!(kernel.stats().drops > 0);
    }

    #[test]
    fn inactive_family_shedders_keep_everything() {
        let shared = trained_shared();
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let mut h = HspiceShedder::new(shared.clone(), &pattern);
        let mut g = GspiceShedder::new(shared.clone());
        let mut p = PspiceShedder::new(shared);
        let e = Event::new(ty(0), Timestamp::ZERO, 0);
        let m = meta_for(0, 4);
        for pos in 0..4 {
            assert!(h.decide(&m, pos, &e).is_keep());
            assert!(g.decide(&m, pos, &e).is_keep());
            assert!(p.decide(&m, pos, &e).is_keep());
        }
        assert_eq!(h.stats().drops, 0);
        assert_eq!(g.stats().drops, 0);
        assert_eq!(p.stats().drops, 0);
        assert_eq!(p.partial_match_budget(&m), None);
    }

    #[test]
    fn hspice_reapply_invalidates_compiled_verdicts() {
        let shared = trained_shared();
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let mut shedder = HspiceShedder::new(shared, &pattern);
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        let e0 = vec![Event::new(ty(0), Timestamp::ZERO, 0)];
        let mut drops = DropSet::new();
        assert_eq!(shedder.decide_span(&meta_for(0, 4), 0, &e0, &mut drops), 0);
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 100.0,
        });
        let mut drops = DropSet::new();
        assert_eq!(shedder.decide_span(&meta_for(0, 4), 0, &e0, &mut drops), 1);
    }

    #[test]
    fn pspice_budget_tracks_the_plan() {
        let shared = trained_shared();
        let mut shedder = PspiceShedder::new(shared);
        // Drop half the input of 4-event windows: budget 2.
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        assert_eq!(shedder.budget(), Some(2));
        assert_eq!(shedder.partial_match_budget(&meta_for(0, 4)), Some(2));
        // Requesting everything still leaves the minimum budget of 1.
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 4.0,
        });
        assert_eq!(shedder.budget(), Some(1));
        shedder.apply(ShedPlan::inactive());
        assert_eq!(shedder.budget(), None);
        assert_eq!(shedder.stats().plans_applied, 2);
    }

    #[test]
    fn pspice_constituent_utility_reads_the_shared_model() {
        let shared = trained_shared();
        let expected = shared.model().utility(ty(0), 0, 4);
        let mut shedder = PspiceShedder::new(shared);
        let e = Event::new(ty(0), Timestamp::ZERO, 0);
        assert_eq!(shedder.constituent_utility(&meta_for(0, 4), 0, &e), expected);
        assert!(expected > 0);
    }
}
