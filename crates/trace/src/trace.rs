//! The execution trace: per-rank step streams plus shared collectives.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use charllm_net::{ChunkingPolicy, CollectiveKind};

use crate::task::{CollectiveId, CollectiveInstance, ComputeKind, Step};

/// Metadata describing what one iteration of the trace represents.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable label (model + parallelism + optimizations).
    pub label: String,
    /// Tokens processed per traced iteration.
    pub tokens_per_iteration: u64,
    /// Whether compute–communication overlap is enabled (the simulator
    /// applies contention slowdown to concurrent compute).
    pub cc_overlap: bool,
}

/// A complete lowered workload iteration.
///
/// Serialization is a compact packed encoding rather than the derived
/// object-per-step tree: traces run to hundreds of thousands of steps, and
/// the persistent cache's restart win lives or dies on reload speed. Step
/// streams become token strings over a shared float table (step counts per
/// trace dwarf the distinct FLOP values), collectives a `;`-joined record
/// string. The packing must stay bit-exact: `f64` text uses `Display`'s
/// shortest-roundtrip form.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    steps: Vec<Vec<Step>>,
    collectives: Vec<CollectiveInstance>,
    meta: TraceMeta,
}

/// Intern table mapping distinct `f64`s to dense `u32` indices: the float
/// codec of the packed encodings (this crate's [`ExecutionTrace`] and
/// `charllm-sim`'s shared plan sets). Records carry indices — distinct
/// values number in the hundreds against up to hundreds of thousands of
/// records, and integer tokens both shrink the text and parse several
/// times faster than `f64` text. The table itself prints once, in a form
/// that reloads bit-exact.
#[derive(Debug, Default)]
pub struct FloatTable {
    values: Vec<f64>,
    index: HashMap<u64, u32>,
}

impl FloatTable {
    /// The index of `v`, interned on first sight (by bit pattern).
    pub fn intern(&mut self, v: f64) -> u32 {
        *self.index.entry(v.to_bits()).or_insert_with(|| {
            self.values.push(v);
            (self.values.len() - 1) as u32
        })
    }

    /// The table as text, values in index order. `f64` prints
    /// shortest-roundtrip, so [`FloatTable::parse`] restores every bit.
    pub fn to_text(&self) -> String {
        let text: Vec<String> = self.values.iter().map(f64::to_string).collect();
        text.join(" ")
    }

    /// The values of a table printed by [`FloatTable::to_text`], in index
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first token that is not a float.
    pub fn parse(text: &str) -> Result<Vec<f64>, serde::Error> {
        text.split_ascii_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| serde::Error::custom(format!("bad float {tok:?}")))
            })
            .collect()
    }
}

fn compute_kind_code(kind: ComputeKind) -> u32 {
    match kind {
        ComputeKind::Gemm => 0,
        ComputeKind::Attention => 1,
        ComputeKind::MoeGemm => 2,
        ComputeKind::Router => 3,
        ComputeKind::Embedding => 4,
        ComputeKind::Recompute => 5,
        ComputeKind::Optimizer => 6,
    }
}

fn compute_kind_of(code: u32) -> Result<ComputeKind, serde::Error> {
    Ok(match code {
        0 => ComputeKind::Gemm,
        1 => ComputeKind::Attention,
        2 => ComputeKind::MoeGemm,
        3 => ComputeKind::Router,
        4 => ComputeKind::Embedding,
        5 => ComputeKind::Recompute,
        6 => ComputeKind::Optimizer,
        _ => return Err(serde::Error::custom(format!("bad compute kind {code}"))),
    })
}

fn collective_kind_code(kind: CollectiveKind) -> u32 {
    match kind {
        CollectiveKind::AllReduce => 0,
        CollectiveKind::AllGather => 1,
        CollectiveKind::ReduceScatter => 2,
        CollectiveKind::AllToAll => 3,
        CollectiveKind::Broadcast => 4,
        CollectiveKind::SendRecv => 5,
    }
}

fn collective_kind_of(code: u32) -> Result<CollectiveKind, serde::Error> {
    Ok(match code {
        0 => CollectiveKind::AllReduce,
        1 => CollectiveKind::AllGather,
        2 => CollectiveKind::ReduceScatter,
        3 => CollectiveKind::AllToAll,
        4 => CollectiveKind::Broadcast,
        5 => CollectiveKind::SendRecv,
        _ => return Err(serde::Error::custom(format!("bad collective kind {code}"))),
    })
}

/// Pack one rank's step stream as `tag arg` token pairs: `c<kind> <fidx>`
/// for compute, `s <coll>` / `w <coll>` for collective start/wait.
fn pack_steps(steps: &[Step], floats: &mut FloatTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match step {
            Step::Compute { kind, flops } => {
                let _ = write!(
                    out,
                    "c{} {}",
                    compute_kind_code(*kind),
                    floats.intern(*flops)
                );
            }
            Step::CollStart { coll } => {
                let _ = write!(out, "s {}", coll.0);
            }
            Step::CollWait { coll } => {
                let _ = write!(out, "w {}", coll.0);
            }
        }
    }
    out
}

fn unpack_steps(text: &str, floats: &[f64]) -> Result<Vec<Step>, serde::Error> {
    let mut steps = Vec::new();
    let mut toks = text.split_ascii_whitespace();
    while let Some(tag) = toks.next() {
        let arg: u32 = toks
            .next()
            .ok_or_else(|| serde::Error::custom("truncated step stream"))?
            .parse()
            .map_err(|_| serde::Error::custom("bad step argument"))?;
        let step = match tag.as_bytes() {
            [b'c', code @ ..] => {
                let code: u32 = std::str::from_utf8(code)
                    .ok()
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| serde::Error::custom("bad compute tag"))?;
                let flops = floats
                    .get(arg as usize)
                    .copied()
                    .ok_or_else(|| serde::Error::custom("float index out of range"))?;
                Step::Compute {
                    kind: compute_kind_of(code)?,
                    flops,
                }
            }
            b"s" => Step::CollStart {
                coll: CollectiveId(arg),
            },
            b"w" => Step::CollWait {
                coll: CollectiveId(arg),
            },
            _ => return Err(serde::Error::custom(format!("bad step tag {tag:?}"))),
        };
        steps.push(step);
    }
    Ok(steps)
}

/// Pack the collective table: per instance
/// `kind bytes eager chunked chunk_bytes glen group*glen`, instances
/// joined with `;`.
fn pack_collectives(collectives: &[CollectiveInstance]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, c) in collectives.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let (chunked, chunk_bytes) = match c.chunking {
            ChunkingPolicy::Unchunked => (0u32, 0u64),
            ChunkingPolicy::Chunked { chunk_bytes } => (1, chunk_bytes),
        };
        let _ = write!(
            out,
            "{} {} {} {chunked} {chunk_bytes} {}",
            collective_kind_code(c.kind),
            c.bytes_per_rank,
            u32::from(c.eager_p2p),
            c.group.len()
        );
        for rank in &c.group {
            let _ = write!(out, " {rank}");
        }
    }
    out
}

fn unpack_collectives(text: &str) -> Result<Vec<CollectiveInstance>, serde::Error> {
    fn num<T: std::str::FromStr>(tok: Option<&str>) -> Result<T, serde::Error> {
        tok.ok_or_else(|| serde::Error::custom("truncated collective record"))?
            .parse()
            .map_err(|_| serde::Error::custom("bad collective token"))
    }
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for chunk in text.split(';') {
        let mut t = chunk.split_ascii_whitespace();
        let kind = collective_kind_of(num(t.next())?)?;
        let bytes_per_rank: u64 = num(t.next())?;
        let eager_p2p = match num::<u32>(t.next())? {
            0 => false,
            1 => true,
            other => {
                return Err(serde::Error::custom(format!("bad eager flag {other}")));
            }
        };
        let chunked: u32 = num(t.next())?;
        let chunk_bytes: u64 = num(t.next())?;
        let chunking = match chunked {
            0 => ChunkingPolicy::Unchunked,
            1 => ChunkingPolicy::Chunked { chunk_bytes },
            other => {
                return Err(serde::Error::custom(format!("bad chunking flag {other}")));
            }
        };
        let glen: usize = num(t.next())?;
        let mut group = Vec::with_capacity(glen);
        for _ in 0..glen {
            group.push(num(t.next())?);
        }
        if t.next().is_some() {
            return Err(serde::Error::custom("trailing tokens in collective record"));
        }
        out.push(CollectiveInstance {
            kind,
            bytes_per_rank,
            group,
            chunking,
            eager_p2p,
        });
    }
    Ok(out)
}

impl Serialize for ExecutionTrace {
    fn write_json(&self, out: &mut String) {
        // Packing the steps fills the float table, which is written first.
        let mut floats = FloatTable::default();
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|rank| pack_steps(rank, &mut floats))
            .collect();
        serde::ObjectWriter::new(out)
            .field("floats", floats.to_text())
            .field("steps", steps)
            .field("colls", pack_collectives(&self.collectives))
            .field("meta", &self.meta)
            .end();
    }
}

impl Deserialize for ExecutionTrace {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let floats = v
            .get("floats")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom("trace: missing float table"))
            .and_then(FloatTable::parse)?;
        let steps = v
            .get("steps")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| serde::Error::custom("trace: missing step streams"))?
            .iter()
            .map(|rank| {
                let text = rank
                    .as_str()
                    .ok_or_else(|| serde::Error::custom("trace: bad step stream"))?;
                unpack_steps(text, &floats)
            })
            .collect::<Result<Vec<Vec<Step>>, serde::Error>>()?;
        let collectives = v
            .get("colls")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom("trace: missing collective table"))
            .and_then(unpack_collectives)?;
        let meta = v
            .get("meta")
            .ok_or_else(|| serde::Error::custom("trace: missing meta"))
            .and_then(TraceMeta::deserialize_value)?;
        Ok(ExecutionTrace {
            steps,
            collectives,
            meta,
        })
    }
}

impl ExecutionTrace {
    /// Assemble a trace (normally via [`crate::TraceBuilder`]).
    pub fn new(
        steps: Vec<Vec<Step>>,
        collectives: Vec<CollectiveInstance>,
        meta: TraceMeta,
    ) -> Self {
        ExecutionTrace {
            steps,
            collectives,
            meta,
        }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.steps.len()
    }

    /// The step stream of one rank.
    pub fn steps(&self, rank: usize) -> &[Step] {
        &self.steps[rank]
    }

    /// All collective instances.
    pub fn collectives(&self) -> &[CollectiveInstance] {
        &self.collectives
    }

    /// One collective instance.
    pub fn collective(&self, id: CollectiveId) -> &CollectiveInstance {
        &self.collectives[id.index()]
    }

    /// Number of collective instances.
    pub fn num_collectives(&self) -> usize {
        self.collectives.len()
    }

    /// For each collective, how many `CollWait` steps reference it across
    /// all ranks in one iteration of the trace.
    ///
    /// The simulator uses this to retire per-iteration collective state as
    /// soon as every waiter has passed its wait: within one iteration each
    /// rank executes each of its steps exactly once, so once a collective
    /// instance is complete and `wait_counts()[c]` waits on it have been
    /// observed, no rank can ever consult that instance's state again.
    pub fn wait_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.collectives.len()];
        for steps in &self.steps {
            for step in steps {
                if let Step::CollWait { coll } = step {
                    if let Some(c) = counts.get_mut(coll.index()) {
                        *c += 1;
                    }
                }
            }
        }
        counts
    }

    /// Trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Total compute FLOPs across all ranks.
    pub fn total_flops(&self) -> f64 {
        self.steps
            .iter()
            .flatten()
            .map(|s| match s {
                Step::Compute { flops, .. } => *flops,
                _ => 0.0,
            })
            .sum()
    }

    /// Total collective payload bytes per rank summed over instances
    /// (useful for quick communication-volume comparisons).
    pub fn total_comm_bytes(&self) -> u64 {
        self.collectives
            .iter()
            .map(|c| c.bytes_per_rank * c.group.len() as u64)
            .sum()
    }

    /// Structural validation: every referenced collective exists, every
    /// waited collective is eventually started by someone who can start it,
    /// and every group member of a non-P2P collective arrives exactly once.
    ///
    /// Returns a list of problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut starts: HashMap<u32, Vec<usize>> = HashMap::new();
        for (rank, steps) in self.steps.iter().enumerate() {
            for step in steps {
                let id = match step {
                    Step::CollStart { coll } | Step::CollWait { coll } => *coll,
                    _ => continue,
                };
                if id.index() >= self.collectives.len() {
                    problems.push(format!("rank {rank} references missing collective {id:?}"));
                    continue;
                }
                if matches!(step, Step::CollStart { .. }) {
                    starts.entry(id.0).or_default().push(rank);
                }
                let inst = &self.collectives[id.index()];
                if !inst.group.contains(&rank) && !inst.eager_p2p {
                    problems.push(format!(
                        "rank {rank} participates in collective {id:?} but is not in its group"
                    ));
                }
            }
        }
        for (idx, inst) in self.collectives.iter().enumerate() {
            let arrived = starts.get(&(idx as u32)).cloned().unwrap_or_default();
            if inst.eager_p2p {
                if arrived.len() != 1 {
                    problems.push(format!(
                        "eager p2p collective {idx} has {} senders (expected 1)",
                        arrived.len()
                    ));
                }
            } else {
                let mut sorted = arrived.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted != {
                    let mut g = inst.group.clone();
                    g.sort_unstable();
                    g
                } {
                    problems.push(format!(
                        "collective {idx} ({:?}) group {:?} but arrivals {:?}",
                        inst.kind, inst.group, arrived
                    ));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CollKey, TraceBuilder};
    use crate::task::ComputeKind;
    use charllm_net::{ChunkingPolicy, CollectiveKind};

    #[test]
    fn totals() {
        let mut b = TraceBuilder::new(2);
        b.compute(0, ComputeKind::Gemm, 100.0);
        b.compute(1, ComputeKind::Attention, 50.0);
        let id = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            1000,
            vec![0, 1],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, id);
        b.blocking(1, id);
        let t = b.build(TraceMeta::default());
        assert_eq!(t.total_flops(), 150.0);
        assert_eq!(t.total_comm_bytes(), 2000);
        assert!(t.validate().is_empty(), "{:?}", t.validate());
    }

    #[test]
    fn wait_counts_tally_collwait_steps_per_collective() {
        let mut b = TraceBuilder::new(3);
        let ar = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            64,
            vec![0, 1, 2],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, ar);
        b.blocking(1, ar);
        b.blocking(2, ar);
        let p2p = b.collective(
            CollKey {
                site: "p2p",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::SendRecv,
            64,
            vec![0, 1],
            ChunkingPolicy::Unchunked,
            true,
        );
        b.start(0, p2p); // eager sender never waits
        b.wait(1, p2p);
        let t = b.build(TraceMeta::default());
        assert_eq!(t.num_collectives(), 2);
        assert_eq!(t.wait_counts(), vec![3, 1]);
    }

    #[test]
    fn validation_flags_missing_arrivals() {
        let mut b = TraceBuilder::new(2);
        let id = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            8,
            vec![0, 1],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, id); // rank 1 never arrives
        let t = b.build(TraceMeta::default());
        assert!(!t.validate().is_empty());
    }

    #[test]
    fn validation_accepts_eager_p2p_receiver_wait() {
        let mut b = TraceBuilder::new(2);
        let id = b.collective(
            CollKey {
                site: "p2p",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::SendRecv,
            8,
            vec![0, 1],
            ChunkingPolicy::Unchunked,
            true,
        );
        b.start(0, id); // sender
        b.wait(1, id); // receiver
        let t = b.build(TraceMeta::default());
        assert!(t.validate().is_empty(), "{:?}", t.validate());
    }

    #[test]
    fn validation_flags_two_senders_on_p2p() {
        let mut b = TraceBuilder::new(2);
        let id = b.collective(
            CollKey {
                site: "p2p",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::SendRecv,
            8,
            vec![0, 1],
            ChunkingPolicy::Unchunked,
            true,
        );
        b.start(0, id);
        b.start(1, id);
        let t = b.build(TraceMeta::default());
        assert!(!t.validate().is_empty());
    }
}
