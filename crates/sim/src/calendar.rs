//! The scheduler's completion calendar: one conservative completion-time
//! key per schedulable owner, in a bucketed time wheel over absolute
//! times plus an overflow list for keys beyond the wheel horizon.
//!
//! Owners share one id space: computing rank `r` is owner `r`, and flow
//! arena slot `s` is owner `world + s`. The calendar holds at most one
//! entry per owner and keeps, per owner, the entry's key and its packed
//! location (`bucket << 32 | index`). The engine lowers or sets an owner's
//! key, removes an owner when it retires, drains the next buckets under a
//! bound and rebuilds; everything that depends on the storage format —
//! the locations, the `swap_remove` fix-ups and the rebuild policy — stays
//! in this module.
//!
//! Keys are lower bounds on the owner's completion (see
//! [`completion_key`]). A drain hands back *every* entry of each bucket it
//! visits; extra candidates are recomputed exactly and folded with `min`,
//! so bucket granularity cannot perturb results.

use crate::engine::EngineStats;

/// Calendar key of an owner with `left` work units at `rate` at time `t`:
/// the instant its work reaches the 1-unit completion threshold `advance`
/// tests (`left <= 1.0`), a lower bound on the event that retires it. The
/// unit of slack matters for slow flows, whose last unit can take longer
/// than an event: keyed at zero work, they would complete in an event that
/// never drained them.
#[inline]
pub(crate) fn completion_key(t: f64, left: f64, rate: f64) -> f64 {
    t + (left - 1.0) / rate
}

/// Rebuild cadence: every this-many events the calendar is rebuilt from
/// live state, re-basing the wheel at the current time, re-sizing its
/// buckets to the recent event spacing and re-tightening loose keys.
const REKEY_INTERVAL: u64 = 8192;

/// Buckets in the wheel. With the bucket width sized to ~1 mean event
/// spacing at rebuild, the wheel horizon covers roughly a
/// [`REKEY_INTERVAL`] of simulated progress before entries spill to the
/// overflow list, and a drained bucket hands back ~1 candidate per event
/// instead of the ~4 a coarser wheel would.
const CAL_BUCKETS: usize = 8192;

/// Largest buffer a drained bucket keeps for its next entries. Buckets
/// keep their allocations so steady-state drains allocate nothing, but one
/// that held a burst (a collective's flows keyed together) gives it back
/// instead of pinning that memory for the rest of the run.
const CAL_BUCKET_KEEP: usize = 64;

/// Bucket index encoding the overflow list in a packed location.
const CAL_OVERFLOW: u32 = u32::MAX;

/// Packed location meaning "no entry".
const LOC_NONE: u64 = u64::MAX;

#[inline]
fn pack_loc(bucket: u32, idx: usize) -> u64 {
    (u64::from(bucket) << 32) | idx as u64
}

/// One calendar entry: an owner's key, 16 bytes with padding.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: f64,
    owner: u32,
}

/// The completion calendar (see the module docs).
///
/// `Default` is an empty placeholder with no wheel; the engine swaps it in
/// while a drain borrows the real calendar.
#[derive(Debug, Default)]
pub(crate) struct Calendar {
    base: f64,
    width: f64,
    inv_width: f64,
    buckets: Vec<Vec<Entry>>,
    overflow: Vec<Entry>,
    /// First bucket that may hold entries (all earlier ones are empty).
    cursor: usize,
    /// Key of each owner's entry (`INFINITY` = no entry).
    key: Vec<f64>,
    /// Packed location of each owner's entry ([`LOC_NONE`] = no entry).
    loc: Vec<u64>,
    /// Entries moved out of the buckets a drain visits, evaluated from
    /// here.
    drained: Vec<Entry>,
    /// Drained entries awaiting re-insertion after the drain loop, so none
    /// is drained twice in one round.
    repush: Vec<Entry>,
    /// EWMA of recent event spacing, sizing the bucket width at each
    /// rebuild.
    avg_dt: f64,
    events_since_rebuild: u64,
    pushes: u64,
    pops: u64,
    bucket_drains: u64,
    rebuilds: u64,
    retire_removals: u64,
    overflow_peak: usize,
}

impl Calendar {
    /// An empty wheel based at t = 0 with room for `owners` owners; the
    /// event-spacing EWMA starts at `avg_dt`, which also sizes the first
    /// bucket width.
    pub(crate) fn new(owners: usize, avg_dt: f64) -> Self {
        let width = avg_dt.max(1e-12);
        Calendar {
            base: 0.0,
            width,
            inv_width: 1.0 / width,
            buckets: vec![Vec::new(); CAL_BUCKETS],
            key: vec![f64::INFINITY; owners],
            loc: vec![LOC_NONE; owners],
            avg_dt,
            ..Calendar::default()
        }
    }

    /// Absolute start time of bucket `i`.
    #[inline]
    fn start_of(&self, i: usize) -> f64 {
        self.base + i as f64 * self.width
    }

    /// Insert an entry; returns its packed location. Keys below `base` (an
    /// owner already within its completion threshold) land in the first
    /// bucket, so only the far side can miss the wheel.
    fn push(&mut self, e: Entry) -> u64 {
        let d = ((e.key - self.base) * self.inv_width).max(0.0);
        if d >= CAL_BUCKETS as f64 {
            self.overflow.push(e);
            self.overflow_peak = self.overflow_peak.max(self.overflow.len());
            return pack_loc(CAL_OVERFLOW, self.overflow.len() - 1);
        }
        let b = d as usize;
        self.cursor = self.cursor.min(b);
        self.buckets[b].push(e);
        pack_loc(b as u32, self.buckets[b].len() - 1)
    }

    /// Take `owner`'s entry out of its bucket, re-pointing the owner of
    /// whichever entry `swap_remove` moved into the vacated position.
    fn unlink(&mut self, owner: usize) {
        let loc = self.loc[owner];
        if loc == LOC_NONE {
            return;
        }
        self.loc[owner] = LOC_NONE;
        let bucket = (loc >> 32) as u32;
        let idx = (loc & 0xffff_ffff) as usize;
        let v = if bucket == CAL_OVERFLOW {
            &mut self.overflow
        } else {
            &mut self.buckets[bucket as usize]
        };
        v.swap_remove(idx);
        if let Some(moved) = v.get(idx) {
            self.loc[moved.owner as usize] = loc;
        }
    }

    /// Key `owner` at `key`, replacing any entry it holds.
    fn set(&mut self, owner: usize, key: f64) {
        if owner >= self.loc.len() {
            self.loc.resize(owner + 1, LOC_NONE);
            self.key.resize(owner + 1, f64::INFINITY);
        }
        self.unlink(owner);
        self.key[owner] = key;
        let owner32 = u32::try_from(owner).expect("calendar owner exceeds u32");
        self.loc[owner] = self.push(Entry {
            key,
            owner: owner32,
        });
        self.pushes += 1;
    }

    /// Key `owner` at `key` only if that undercuts its stored key. A later
    /// key needs no calendar traffic: the stored one is still a valid —
    /// merely loose — lower bound, re-tightened when it drains.
    #[inline]
    pub(crate) fn lower(&mut self, owner: usize, key: f64) {
        if key >= self.key.get(owner).copied().unwrap_or(f64::INFINITY) {
            return;
        }
        self.set(owner, key);
    }

    /// Drop a retiring owner's entry: the one path by which a completing
    /// owner leaves the calendar. A retiring owner always holds one, since
    /// only drained (and so re-pushed) owners can complete.
    #[inline]
    pub(crate) fn remove(&mut self, owner: usize) {
        debug_assert_ne!(self.loc[owner], LOC_NONE, "owner {owner} retires unkeyed");
        self.unlink(owner);
        self.key[owner] = f64::INFINITY;
        self.retire_removals += 1;
    }

    /// Whether the wheel is due a rebuild at time `t`: [`REKEY_INTERVAL`]
    /// events since the last one, or `t` past half the wheel, before fresh
    /// keys start spilling into the overflow list wholesale.
    #[inline]
    pub(crate) fn rebuild_due(&self, t: f64) -> bool {
        self.events_since_rebuild >= REKEY_INTERVAL
            || t - self.base > 0.5 * CAL_BUCKETS as f64 * self.width
    }

    /// Drop every entry and re-base the wheel at `t` with a bucket width of
    /// ~1 mean event spacing. Every owner is left without an entry; the
    /// caller keys each live owner again.
    pub(crate) fn rebuild(&mut self, t: f64) {
        self.rebuilds += 1;
        for v in self
            .buckets
            .iter_mut()
            .chain(std::iter::once(&mut self.overflow))
        {
            for e in v.drain(..) {
                self.loc[e.owner as usize] = LOC_NONE;
                self.key[e.owner as usize] = f64::INFINITY;
            }
        }
        self.base = t;
        self.width = self.avg_dt.max(1e-12);
        self.inv_width = 1.0 / self.width;
        self.cursor = 0;
        self.events_since_rebuild = 0;
    }

    /// Count one event of spacing `dt` toward the rebuild cadence and the
    /// bucket-width EWMA.
    #[inline]
    pub(crate) fn note_event(&mut self, dt: f64) {
        self.events_since_rebuild += 1;
        self.avg_dt += 0.125 * (dt - self.avg_dt);
    }

    /// Drain buckets while one could still hold a key that lowers `dt`, and
    /// return the lowered `dt`.
    ///
    /// `eval(owner)` returns a drained owner's exact `(left, rate)` from
    /// current state; `dt` folds `left / rate` with `min`. A key at most
    /// `t + dt + margin` lies in a bucket whose start is at most that
    /// bound, and buckets are visited in start order, so stopping at the
    /// first bucket past the (only ever shrinking) bound covers every key
    /// that could matter. The margin absorbs the rounding between a key and
    /// the completion test it bounds: both evaluate the same lazy segment
    /// state, at different instants and through rounded absolute times, a
    /// few ε·(t+dt) apart — orders of magnitude under the 1e-8 margin.
    ///
    /// Every drained entry goes back in, re-keyed at the completion key of
    /// its fresh `(left, rate)`, so a loose key (left behind by a rate
    /// decrease) is refreshed here instead of draining spuriously again
    /// next event. Owners that complete in this event keep their entry
    /// too: their retire site removes it.
    #[inline]
    pub(crate) fn drain(
        &mut self,
        t: f64,
        mut dt: f64,
        mut eval: impl FnMut(usize) -> (f64, f64),
    ) -> f64 {
        let mut drained = std::mem::take(&mut self.drained);
        loop {
            let margin = (t + dt) * 1e-8 + 1e-15;
            let bound = t + dt + margin;
            let (b, bucket) = if self.cursor < CAL_BUCKETS {
                if self.start_of(self.cursor) > bound {
                    break;
                }
                self.cursor += 1;
                (self.cursor - 1, &mut self.buckets[self.cursor - 1])
            } else if !self.overflow.is_empty() && self.start_of(CAL_BUCKETS) <= bound {
                (CAL_OVERFLOW as usize, &mut self.overflow)
            } else {
                break;
            };
            debug_assert!(
                bucket
                    .iter()
                    .enumerate()
                    .all(|(i, e)| self.loc[e.owner as usize] == pack_loc(b as u32, i)),
                "a calendar entry's owner must point back at it"
            );
            drained.append(bucket);
            if bucket.capacity() > CAL_BUCKET_KEEP {
                *bucket = Vec::new();
            }
            self.bucket_drains += 1;
            let drained_overflow = self.cursor >= CAL_BUCKETS && self.overflow.is_empty();
            for mut e in drained.drain(..) {
                let owner = e.owner as usize;
                let (left, rate) = eval(owner);
                dt = dt.min(left / rate);
                self.pops += 1;
                e.key = completion_key(t, left, rate);
                self.key[owner] = e.key;
                self.repush.push(e);
            }
            if drained_overflow {
                break;
            }
        }
        self.drained = drained;
        for i in 0..self.repush.len() {
            let e = self.repush[i];
            self.loc[e.owner as usize] = self.push(e);
        }
        self.repush.clear();
        dt
    }

    /// Entries currently in the overflow list.
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Copy the calendar's counters into `stats`.
    pub(crate) fn publish(&self, stats: &mut EngineStats) {
        stats.heap_pushes = self.pushes;
        stats.heap_pops = self.pops;
        stats.cal_bucket_drains = self.bucket_drains;
        stats.cal_rekeys = self.rebuilds;
        stats.cal_exact_removals = self.retire_removals;
        stats.cal_overflow_peak = self.overflow_peak as u64;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    const OWNERS: usize = 24;

    /// Random operations `(kind, owner, x, y)`: kind 0 lowers, 1 sets,
    /// 2 removes, 3–4 drain, 5 rebuilds. Keys, times and spans are
    /// multiples of 1/16, so the model's arithmetic is exact.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, u32, u32)>> {
        collection::vec((0u8..6, 0..OWNERS, 0u32..16_384, 0u32..64), 1..120)
    }

    /// Every entry sits in one bucket at or past the cursor, its owner
    /// points back at it with the entry's key, and the owners holding
    /// entries are exactly the model's, at the model's keys.
    fn assert_matches(cal: &Calendar, model: &BTreeMap<usize, f64>) {
        let mut seen = BTreeSet::new();
        let lists = cal.buckets.iter().enumerate().map(|(b, v)| (b as u32, v));
        for (b, v) in lists.chain(std::iter::once((CAL_OVERFLOW, &cal.overflow))) {
            for (i, e) in v.iter().enumerate() {
                let o = e.owner as usize;
                assert!(seen.insert(o), "owner {o} holds two entries");
                assert_eq!(cal.loc[o], pack_loc(b, i), "owner {o} lost its entry");
                assert_eq!(cal.key[o].to_bits(), e.key.to_bits());
                assert_eq!(model.get(&o), Some(&e.key), "owner {o}'s key");
                assert!(b == CAL_OVERFLOW || b as usize >= cal.cursor);
            }
        }
        assert_eq!(seen.len(), model.len(), "an owner lost its entry");
        for o in (0..cal.loc.len()).filter(|o| !seen.contains(o)) {
            assert_eq!((cal.loc[o], cal.key[o]), (LOC_NONE, f64::INFINITY));
        }
        assert!(cal.drained.is_empty() && cal.repush.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The calendar agrees with a `BTreeMap<owner, key>` model under
        /// random lower / set / remove / drain / rebuild sequences, and a
        /// drain under bound `t + dt` hands back every owner keyed at or
        /// below it.
        #[test]
        fn calendar_matches_a_keyed_map_model(ops in arb_ops()) {
            let mut cal = Calendar::new(4, 1.0 / 16.0);
            let mut model: BTreeMap<usize, f64> = BTreeMap::new();
            let mut t = 0.0;
            for (kind, owner, x, y) in ops {
                let key = t + (f64::from(x) - 64.0) / 16.0;
                match kind {
                    0 => {
                        cal.lower(owner, key);
                        if key < model.get(&owner).copied().unwrap_or(f64::INFINITY) {
                            model.insert(owner, key);
                        }
                    }
                    1 => {
                        cal.set(owner, key);
                        model.insert(owner, key);
                    }
                    2 => {
                        if model.remove(&owner).is_some() {
                            cal.remove(owner);
                        }
                    }
                    3 | 4 => {
                        t += f64::from(y) / 16.0;
                        let dt0 = f64::from(x + 1) / 16.0;
                        let fresh = |o: usize| ((o * 37 + x as usize) % 4096) as f64 / 16.0;
                        let mut drained = Vec::new();
                        let dt = cal.drain(t, dt0, |o| {
                            drained.push(o);
                            (1.0 + fresh(o), 1.0)
                        });
                        let set: BTreeSet<usize> = drained.iter().copied().collect();
                        prop_assert_eq!(set.len(), drained.len(), "an owner drained twice");
                        let expect = drained.iter().map(|&o| 1.0 + fresh(o)).fold(dt0, f64::min);
                        prop_assert_eq!(dt, expect);
                        for (&o, &k) in &model {
                            prop_assert!(k > t + dt || set.contains(&o),
                                "owner {o} keyed {k} <= {} was not drained", t + dt);
                        }
                        for &o in &drained {
                            prop_assert!(model.contains_key(&o), "drained owner {o} has no key");
                            model.insert(o, t + fresh(o));
                        }
                    }
                    _ => {
                        cal.note_event(f64::from(y + 1) / 64.0);
                        cal.rebuild(t);
                        prop_assert!(cal.loc.iter().all(|&l| l == LOC_NONE));
                        for (&o, &k) in &model {
                            cal.lower(o, k);
                        }
                    }
                }
                assert_matches(&cal, &model);
            }
        }
    }
}
