//! The scheduler's completion calendar: one conservative completion-time
//! key per schedulable owner, in a bucketed time wheel over absolute
//! times whose last bucket, starting at the wheel horizon, holds every key
//! beyond it.
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
//! [`completion_key`]). A drain takes out only the entries keyed within its
//! bound, smallest key of each bucket first, and leaves the rest where they
//! are: an entry keyed past the bound can neither complete in the event nor
//! lower its `dt`. Taken entries are recomputed exactly and folded with
//! `min`, so neither bucket granularity nor which extra entries a drain
//! takes can perturb results.

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

/// The shortest event step, seconds: `drain` never returns a smaller `dt`.
pub(crate) const MIN_DT: f64 = 1e-9;

/// Rebuild cadence: every this-many events the calendar is rebuilt from
/// live state, re-basing the wheel at the current time, re-sizing its
/// buckets to the recent event spacing and re-tightening loose keys.
const REKEY_INTERVAL: u64 = 8192;

/// Buckets in the wheel before its horizon. With the bucket width sized to
/// ~1 mean event spacing at rebuild, the horizon covers roughly a
/// [`REKEY_INTERVAL`] of simulated progress before entries spill to the
/// overflow bucket `CAL_BUCKETS` past it, and the buckets a drain visits
/// hold few entries to scan.
const CAL_BUCKETS: usize = 8192;

/// Largest buffer an emptied bucket keeps for its next entries. Buckets
/// keep their allocations so steady-state drains allocate nothing, but one
/// that held a burst (a collective's flows keyed together) gives it back
/// instead of pinning that memory for the rest of the run.
const CAL_BUCKET_KEEP: usize = 64;

/// Packed location meaning "no entry".
const LOC_NONE: u64 = u64::MAX;

#[inline]
fn pack_loc(bucket: u32, idx: usize) -> u64 {
    (u64::from(bucket) << 32) | idx as u64
}

/// `swap_remove` entry `idx` of bucket `bucket`, re-pointing the owner of
/// whichever entry moved into the vacated position.
#[inline]
fn take(v: &mut Vec<Entry>, loc: &mut [u64], bucket: u32, idx: usize) -> Entry {
    let e = v.swap_remove(idx);
    if let Some(moved) = v.get(idx) {
        loc[moved.owner as usize] = pack_loc(bucket, idx);
    }
    e
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
    /// `CAL_BUCKETS` wheel buckets, then the overflow bucket: keys at or
    /// past the horizon `start_of(CAL_BUCKETS)`, in no finer order.
    buckets: Vec<Vec<Entry>>,
    /// First wheel bucket that may hold entries (all earlier ones are
    /// empty). The overflow bucket never sets it.
    cursor: usize,
    /// Key of each owner's entry (`INFINITY` = no entry).
    key: Vec<f64>,
    /// Packed location of each owner's entry ([`LOC_NONE`] = no entry).
    loc: Vec<u64>,
    /// Entries a drain took, awaiting re-insertion after its loop, so none
    /// is taken twice in one drain.
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
            buckets: vec![Vec::new(); CAL_BUCKETS + 1],
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
    /// bucket, keys past the horizon in the overflow bucket.
    fn push(&mut self, e: Entry) -> u64 {
        let d = ((e.key - self.base) * self.inv_width).max(0.0);
        let b = (d as usize).min(CAL_BUCKETS);
        self.buckets[b].push(e);
        let len = self.buckets[b].len();
        if b == CAL_BUCKETS {
            self.overflow_peak = self.overflow_peak.max(len);
        } else {
            self.cursor = self.cursor.min(b);
        }
        pack_loc(b as u32, len - 1)
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
        let v = &mut self.buckets[bucket as usize];
        take(v, &mut self.loc, bucket, (loc & 0xffff_ffff) as usize);
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
    /// merely loose — lower bound, re-tightened when a drain takes it.
    #[inline]
    pub(crate) fn lower(&mut self, owner: usize, key: f64) {
        if key >= self.key.get(owner).copied().unwrap_or(f64::INFINITY) {
            return;
        }
        self.set(owner, key);
    }

    /// Drop a retiring owner's entry: the one path by which a completing
    /// owner leaves the calendar. A retiring owner always holds one, since
    /// only taken (and so re-pushed) owners can complete.
    #[inline]
    pub(crate) fn remove(&mut self, owner: usize) {
        debug_assert_ne!(self.loc[owner], LOC_NONE, "owner {owner} retires unkeyed");
        self.unlink(owner);
        self.key[owner] = f64::INFINITY;
        self.retire_removals += 1;
    }

    /// Whether the wheel is due a rebuild at time `t`: [`REKEY_INTERVAL`]
    /// events since the last one, or `t` past half the wheel, before fresh
    /// keys start spilling into the overflow bucket wholesale.
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
        for v in &mut self.buckets {
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

    /// Hand every owner whose key could matter this event to `eval`, and
    /// return `dt` lowered by their exact completion times.
    ///
    /// `eval(owner)` returns an owner's exact `(left, rate)` from current
    /// state; `dt` folds `left / rate` with `min`, and the bound
    /// `t + dt + margin` shrinks with it. The returned `dt` is floored at
    /// [`MIN_DT`], and so is the `dt` in the bound: an owner keyed within
    /// the minimum step completes in the event too. The margin absorbs the
    /// rounding between a key and the completion test it bounds: both
    /// evaluate the same lazy segment state, at different instants and
    /// through rounded absolute times, a few ε·(t+dt) apart — orders of
    /// magnitude under the 1e-8 margin.
    ///
    /// Buckets are visited in start order while their start is within the
    /// bound; the overflow bucket only when it holds entries. In each, the
    /// smallest key is evaluated first, which brings
    /// `dt` down to about the next completion; then only the entries keyed
    /// within the (shrinking) bound are taken out and evaluated, once each.
    /// Keys are lower bounds, so an entry left in place — keyed past the
    /// bound — can neither complete within `dt` nor lower it; it keeps its
    /// key and bucket. The cursor stops at the first visited wheel bucket
    /// left holding entries; the visit itself goes on while bucket starts
    /// are within the bound.
    ///
    /// Every taken entry goes back in, re-keyed at the completion key of
    /// its fresh `(left, rate)`, so a loose key (left behind by a rate
    /// decrease) is refreshed here instead of being taken again next event.
    /// Owners that complete in this event keep their entry too: their
    /// retire site removes it.
    #[inline]
    pub(crate) fn drain(
        &mut self,
        t: f64,
        dt: f64,
        mut eval: impl FnMut(usize) -> (f64, f64),
    ) -> f64 {
        // The event advances by at least `MIN_DT`, so the bound covers it.
        let bound_of = |dt: f64| {
            let end = t + dt.max(MIN_DT);
            end + (end * 1e-8 + 1e-15)
        };
        let mut dt = dt;
        let mut bound = bound_of(dt);
        let mut repush = std::mem::take(&mut self.repush);
        // First visited wheel bucket left holding entries.
        let mut cursor = None;
        let mut b = self.cursor;
        while b <= CAL_BUCKETS && self.start_of(b) <= bound {
            let v = &mut self.buckets[b];
            if b == CAL_BUCKETS && v.is_empty() {
                break;
            }
            let bucket = b as u32;
            debug_assert!(
                v.iter()
                    .enumerate()
                    .all(|(i, e)| self.loc[e.owner as usize] == pack_loc(bucket, i)),
                "a calendar entry's owner must point back at it"
            );
            self.bucket_drains += 1;
            let mut evaluate = |v: &mut Vec<Entry>, i: usize, dt: &mut f64| {
                let mut e = take(v, &mut self.loc, bucket, i);
                let owner = e.owner as usize;
                let (left, rate) = eval(owner);
                *dt = dt.min(left / rate);
                e.key = completion_key(t, left, rate);
                self.key[owner] = e.key;
                repush.push(e);
            };
            let min = (0..v.len()).min_by(|&i, &j| v[i].key.total_cmp(&v[j].key));
            if let Some(min) = min.filter(|&i| v[i].key <= bound) {
                evaluate(v, min, &mut dt);
                bound = bound_of(dt);
                let mut i = 0;
                while i < v.len() {
                    if v[i].key <= bound {
                        evaluate(v, i, &mut dt);
                        bound = bound_of(dt);
                    } else {
                        i += 1;
                    }
                }
            }
            if v.is_empty() {
                if v.capacity() > CAL_BUCKET_KEEP {
                    *v = Vec::new();
                }
            } else if b < CAL_BUCKETS {
                cursor = cursor.or(Some(b));
            }
            b += 1;
        }
        self.cursor = cursor.unwrap_or(b).min(CAL_BUCKETS);
        self.pops += repush.len() as u64;
        for e in repush.drain(..) {
            self.loc[e.owner as usize] = self.push(e);
        }
        self.repush = repush;
        dt.max(MIN_DT)
    }

    /// Entries currently in the overflow bucket.
    pub(crate) fn overflow_len(&self) -> usize {
        self.buckets[CAL_BUCKETS].len()
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

    /// Every entry sits in one bucket, at or past the cursor unless it is
    /// the overflow bucket, its owner
    /// points back at it with the entry's key, and the owners holding
    /// entries are exactly the model's, at the model's keys.
    fn assert_matches(cal: &Calendar, model: &BTreeMap<usize, f64>) {
        let mut seen = BTreeSet::new();
        for (b, v) in cal.buckets.iter().enumerate() {
            for (i, e) in v.iter().enumerate() {
                let o = e.owner as usize;
                assert!(seen.insert(o), "owner {o} holds two entries");
                assert_eq!(
                    cal.loc[o],
                    pack_loc(b as u32, i),
                    "owner {o} lost its entry"
                );
                assert_eq!(cal.key[o].to_bits(), e.key.to_bits());
                assert_eq!(model.get(&o), Some(&e.key), "owner {o}'s key");
                assert!(
                    b == CAL_BUCKETS || b >= cal.cursor,
                    "the cursor passed bucket {b}, which holds owner {o}"
                );
            }
        }
        assert_eq!(seen.len(), model.len(), "an owner lost its entry");
        for o in (0..cal.loc.len()).filter(|o| !seen.contains(o)) {
            assert_eq!((cal.loc[o], cal.key[o]), (LOC_NONE, f64::INFINITY));
        }
        assert!(cal.repush.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The calendar agrees with a `BTreeMap<owner, key>` model under
        /// random lower / set / remove / drain / rebuild sequences. A drain
        /// under bound `t + dt` hands every owner keyed at or below it to
        /// `eval` once, hands over no owner keyed past the bound in effect
        /// at that moment, and leaves every other owner's key and bucket as
        /// they were; the cursor never passes a bucket holding an entry.
        #[test]
        fn calendar_matches_a_keyed_map_model(ops in arb_ops(), width in 0usize..4) {
            // Buckets from one key step wide to 1024 of them, so drains
            // leave entries behind in the buckets they visit.
            let mut cal = Calendar::new(4, [1.0 / 16.0, 0.5, 4.0, 64.0][width]);
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
                        let before = model.clone();
                        let bucket_of = |cal: &Calendar, o: usize| cal.loc[o] >> 32;
                        let buckets: Vec<u64> = (0..cal.loc.len()).map(|o| bucket_of(&cal, o)).collect();
                        let mut drained = Vec::new();
                        // The bound in effect as the drain goes: `t + dt`
                        // with `dt` lowered by every exact value handed back
                        // so far (the margin never separates dyadic keys).
                        let mut running = dt0;
                        let dt = cal.drain(t, dt0, |o| {
                            let k = before[&o];
                            assert!(k <= t + running, "owner {o} keyed {k} past the bound {}", t + running);
                            drained.push(o);
                            running = running.min(1.0 + fresh(o));
                            (1.0 + fresh(o), 1.0)
                        });
                        let set: BTreeSet<usize> = drained.iter().copied().collect();
                        prop_assert_eq!(set.len(), drained.len(), "an owner was evaluated twice");
                        prop_assert_eq!(dt, running);
                        for (&o, &k) in &before {
                            prop_assert!(k > t + dt || set.contains(&o),
                                "owner {o} keyed {k} <= {} was not drained", t + dt);
                            if !set.contains(&o) {
                                // Left in place: same key, same bucket.
                                prop_assert_eq!(cal.key[o], k);
                                prop_assert_eq!(bucket_of(&cal, o), buckets[o]);
                            }
                        }
                        for &o in &drained {
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

    /// Near `t = 0` the drain's relative margin is far below the engine's
    /// 1e-9 s minimum event step. An owner keyed inside that step, past the
    /// unfloored bound, completes in the event, so the drain must hand it
    /// over: the bound is taken from the floored `dt`.
    #[test]
    fn drain_bound_covers_the_minimum_event_step() {
        let t = 0.01;
        // One bucket of 1e-5 s holds all three owners.
        let mut cal = Calendar::new(3, 1e-5);
        // At 1e12 units/s, owner 0 crosses its completion threshold 1e-12 s
        // on; owner 1 4e-10 s on, inside the 1e-9 s step; owner 2 1e-6 s
        // on, past it.
        let offsets = [1e-12, 4e-10, 1e-6];
        for (o, off) in offsets.iter().enumerate() {
            cal.set(o, t + off);
        }
        let mut seen = Vec::new();
        let dt = cal.drain(t, 1.0, |o| {
            seen.push(o);
            (1.0 + offsets[o] * 1e12, 1e12)
        });
        assert_eq!(dt, 1e-9, "dt is floored");
        seen.sort_unstable();
        assert_eq!(seen, [0, 1], "owner 1 completes within the step");
    }
}
