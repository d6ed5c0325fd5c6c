//! Seeded input generators. Every workload input the program receives (the
//! fault plans, the power-cap list, the job catalogue and which half of it
//! is pre-filled on disk) is drawn here from the `--seed` argument, so the
//! same seed always yields the same inputs.

use charllm_sim::FaultPlan;

/// SplitMix64: tiny, seedable and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input family. `stream` separates the families,
    /// so adding draws to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// The three fault scenarios of one `unfolded_2048_faults` run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDraw {
    pub fail_gpu: u32,
    pub fail_at_s: f64,
    pub degrade_link: u32,
    pub degrade_at_s: f64,
    pub straggler_rank: u32,
    pub straggler_at_s: f64,
}

impl FaultDraw {
    /// Onsets fall inside the first (warm-up) iteration, whose simulated
    /// step is about 1.8 s, so every fault lands while work is in flight.
    pub fn generate(seed: u64, num_gpus: u32, num_links: u32, world: u32) -> FaultDraw {
        let mut rng = Rng::new(seed, 1);
        FaultDraw {
            fail_gpu: rng.below(u64::from(num_gpus)) as u32,
            fail_at_s: rng.uniform(0.3, 0.6),
            degrade_link: rng.below(u64::from(num_links)) as u32,
            degrade_at_s: rng.uniform(0.05, 0.2),
            straggler_rank: rng.below(u64::from(world)) as u32,
            straggler_at_s: rng.uniform(0.02, 0.1),
        }
    }

    /// `(op name, plan)` for the clean, fail-stop and degrade+straggler ops.
    pub fn plans(&self) -> [(&'static str, FaultPlan); 3] {
        [
            ("clean", FaultPlan::none()),
            (
                "fail_stop",
                FaultPlan::none().gpu_fail_stop(self.fail_gpu, self.fail_at_s),
            ),
            (
                "degrade_straggler",
                FaultPlan::none()
                    .link_degrade(self.degrade_link, self.degrade_at_s, 1.0, 0.3)
                    .straggler(self.straggler_rank, self.straggler_at_s, 0.8, 1.6),
            ),
        ]
    }
}

/// The `gpu_power_cap_w` points of one `folded_16k_powercap` sweep:
/// uncapped first, then three distinct caps on a 50 W grid in 400..=700 W.
pub fn power_caps(seed: u64) -> Vec<Option<f64>> {
    let mut rng = Rng::new(seed, 2);
    let mut grid: Vec<f64> = (0..=6).map(|i| 400.0 + 50.0 * f64::from(i)).collect();
    let mut caps = vec![None];
    for _ in 0..3 {
        let i = rng.below(grid.len() as u64) as usize;
        caps.push(Some(grid.remove(i)));
    }
    caps
}

/// One sweep-job shape of the served catalogue, in the server's own
/// request vocabulary (preset names and spec labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobShape {
    pub cluster: &'static str,
    pub model: &'static str,
    pub global_batch: usize,
    pub specs: Vec<&'static str>,
    pub microbatches: Vec<usize>,
}

impl JobShape {
    /// The `POST /jobs` body.
    pub fn body(&self) -> String {
        let body = serde_json::json!({
            "kind": "sweep",
            "cluster": self.cluster,
            "model": self.model,
            "global_batch": self.global_batch,
            "specs": self.specs,
            "microbatches": self.microbatches,
            "fast": true,
            "workers": 1,
        });
        serde_json::to_string(&body).expect("job body serializes")
    }

    pub fn points(&self) -> usize {
        self.specs.len() * self.microbatches.len()
    }

    /// The cache identity of each point: cluster, model, spec, microbatch.
    #[cfg(test)]
    fn point_keys(&self) -> Vec<(&'static str, &'static str, &'static str, usize)> {
        self.specs
            .iter()
            .flat_map(|&spec| {
                self.microbatches
                    .iter()
                    .map(move |&mb| (self.cluster, self.model, spec, mb))
            })
            .collect()
    }
}

/// Cluster presets the server knows, all 32 or 64 GPUs: below the
/// engine's 256-entity calendar threshold.
pub const CLUSTERS: [&str; 3] = ["hgx_h200", "hgx_h100", "mi250"];
pub const MODELS: [&str; 4] = ["gpt3_13b", "gpt3_30b", "llama3_70b", "mixtral_8x7b"];
/// The two shapes every cluster × model pair is swept with: dense TP/PP
/// splits in one, pipeline-heavy and expert-parallel splits in the other.
/// All are feasible on every cluster above at global batch 16 with
/// microbatches 1 and 2.
pub const SHAPE_SPECS: [[&str; 2]; 2] = [["TP4-PP2", "TP8"], ["TP2-PP4", "EP8-TP1-PP4"]];

/// Catalogue size of `served_sweep_restart`.
pub const CATALOGUE: usize = SHAPE_SPECS.len() * CLUSTERS.len() * MODELS.len();

/// The served job catalogue plus which entries set-up pre-fills on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    pub shapes: Vec<JobShape>,
    /// `prefilled[i]`: shape `i` is on disk before the server starts.
    pub prefilled: Vec<bool>,
}

impl Catalogue {
    /// Every cluster × model × shape, four points each, in that nesting
    /// order. The seed picks which half of the shapes is pre-filled and
    /// each client's job sequence; the catalogue itself is the same for
    /// every seed, so seeds move the mix of cold, disk-hit and memory-hit
    /// jobs, not the size of the jobs. No two shapes share a point, so each
    /// shape's cache entries are its own: the first job of a shape is a
    /// cold miss or a disk hit, never a hit on another shape's work.
    pub fn generate(seed: u64) -> Catalogue {
        let mut rng = Rng::new(seed, 3);
        let mut shapes = Vec::with_capacity(CATALOGUE);
        for &cluster in &CLUSTERS {
            for &model in &MODELS {
                for specs in &SHAPE_SPECS {
                    shapes.push(JobShape {
                        cluster,
                        model,
                        global_batch: 16,
                        specs: specs.to_vec(),
                        microbatches: vec![1, 2],
                    });
                }
            }
        }
        // Each cluster × model pair has one shape of each kind; half of the
        // pairs, seeded, have their first kind pre-filled and the rest their
        // second, so the pre-filled work is nearly the same for every seed.
        let mut pairs: Vec<usize> = (0..CLUSTERS.len() * MODELS.len()).collect();
        shuffle(&mut rng, &mut pairs);
        let mut prefilled = vec![false; CATALOGUE];
        for (rank, &pair) in pairs.iter().enumerate() {
            let kind = usize::from(rank >= pairs.len() / 2);
            prefilled[pair * SHAPE_SPECS.len() + kind] = true;
        }
        Catalogue { shapes, prefilled }
    }

    /// The shapes client `c` of 2 owns: a checkerboard over cluster ×
    /// model × shape, so each client gets every cluster, model and shape
    /// kind. The two closed loops never share a shape, so they never race
    /// on one cache key and cache counts repeat exactly for a seed.
    fn owned(client: usize) -> Vec<usize> {
        let per_cluster = MODELS.len() * SHAPE_SPECS.len();
        (0..CATALOGUE)
            .filter(|&i| {
                let (cluster, model, shape) = (
                    i / per_cluster,
                    i / SHAPE_SPECS.len() % MODELS.len(),
                    i % SHAPE_SPECS.len(),
                );
                (cluster + model + shape) % 2 == client
            })
            .collect()
    }

    /// The shape whose point 0 client `c` downloads the Perfetto trace of,
    /// each time it runs that shape (once per pass over its shapes): the
    /// 32-GPU GPT-3 13B shapes, so the download cost is the same for every
    /// seed.
    pub fn trace_shape(client: usize) -> usize {
        debug_assert!(Self::owned(client).contains(&client));
        client
    }

    /// Client `client`'s job sequence of catalogue indices, `len` long: its
    /// shapes dealt in a seeded order, reshuffled after each pass, so every
    /// shape recurs equally often.
    pub fn client_sequence(&self, seed: u64, client: usize, len: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed, 10 + client as u64);
        let mut deck = Self::owned(client);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            shuffle(&mut rng, &mut deck);
            out.extend(deck.iter().take(len - out.len()));
        }
        out
    }
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(
                FaultDraw::generate(seed, 2048, 4352, 2048),
                FaultDraw::generate(seed, 2048, 4352, 2048)
            );
            assert_eq!(power_caps(seed), power_caps(seed));
            assert_eq!(Catalogue::generate(seed), Catalogue::generate(seed));
            let cat = Catalogue::generate(seed);
            assert_eq!(
                cat.client_sequence(seed, 1, 50),
                cat.client_sequence(seed, 1, 50)
            );
        }
        assert_ne!(Catalogue::generate(1), Catalogue::generate(2));
        assert_ne!(
            FaultDraw::generate(1, 2048, 4352, 2048),
            FaultDraw::generate(2, 2048, 4352, 2048)
        );
    }

    /// Seed 1's inputs, pinned: a change to a generator changes the
    /// workload, so it must show here and in the benchmark's history.
    #[test]
    fn seed_one_is_pinned() {
        let f = FaultDraw::generate(1, 2048, 4352, 2048);
        assert_eq!(
            (f.fail_gpu, f.degrade_link, f.straggler_rank),
            (736, 901, 1383)
        );
        assert_eq!(f.fail_at_s.to_bits(), 0.4283507831574276f64.to_bits());
        assert_eq!(power_caps(1), [None, Some(450.0), Some(400.0), Some(650.0)]);
        let cat = Catalogue::generate(1);
        assert_eq!(
            cat.shapes[0],
            JobShape {
                cluster: "hgx_h200",
                model: "gpt3_13b",
                global_batch: 16,
                specs: vec!["TP4-PP2", "TP8"],
                microbatches: vec![1, 2],
            }
        );
        assert_eq!(cat.prefilled[..6], [true, false, false, true, true, false]);
        assert_eq!(cat.client_sequence(1, 0, 6), [16, 0, 20, 19, 7, 13]);
        assert_eq!(cat.client_sequence(1, 1, 6), [22, 18, 12, 6, 1, 11]);
    }

    #[test]
    fn draws_stay_in_range() {
        for seed in 0..200 {
            let f = FaultDraw::generate(seed, 2048, 4352, 2048);
            assert!(f.fail_gpu < 2048 && f.degrade_link < 4352 && f.straggler_rank < 2048);
            assert!((0.3..0.6).contains(&f.fail_at_s));
            let caps = power_caps(seed);
            assert_eq!(caps.len(), 4);
            assert_eq!(caps[0], None);
            for c in &caps[1..] {
                let c = c.expect("capped point");
                assert!((400.0..=700.0).contains(&c));
            }
            let cat = Catalogue::generate(seed);
            assert_eq!(cat.prefilled.iter().filter(|&&p| p).count(), CATALOGUE / 2);
            for kind in 0..SHAPE_SPECS.len() {
                let of_kind = (kind..CATALOGUE).step_by(SHAPE_SPECS.len());
                let n = of_kind.filter(|&i| cat.prefilled[i]).count();
                assert_eq!(n, CATALOGUE / 4, "pre-fill balanced across shape kinds");
            }
            let mut keys: Vec<_> = cat.shapes.iter().flat_map(JobShape::point_keys).collect();
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n, "shapes share no point");
            for client in 0..2 {
                let own = Catalogue::owned(client);
                assert_eq!(own.len(), CATALOGUE / 2);
                assert!(own.contains(&Catalogue::trace_shape(client)));
                assert!(cat
                    .client_sequence(seed, client, 40)
                    .iter()
                    .all(|i| own.contains(i)));
            }
        }
    }
}
