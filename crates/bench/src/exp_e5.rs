//! E5 — design principle #2: the node-type-conscious unified heap.
//!
//! A Zipf-skewed object workload runs over a heap spanning host-local
//! memory and three fabric-attached node types. Placements compared:
//!
//! * **all-remote**: everything on the CPU-less expander (the naive
//!   "memory expansion" deployment);
//! * **static-spread**: objects striped across nodes with no profiling;
//! * **unified heap**: temperature-driven migration (the paper's DP#2),
//!   rebalanced periodically.

use std::fmt;

use fcc_core::heap::{FabricBox, HeapNodeCfg, PlacementHint, UnifiedHeap};
use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
use fcc_sim::SimTime;
use fcc_workloads::access::ZipfStream;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One placement policy's outcome.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// Label.
    pub policy: &'static str,
    /// Mean access cost (ns).
    pub mean_ns: f64,
    /// Objects migrated.
    pub migrations: u64,
    /// Bytes migrated.
    pub bytes_migrated: u64,
}

/// E5 outcome.
pub struct E5Result {
    /// The compared placements.
    pub outcomes: Vec<PlacementOutcome>,
}

impl E5Result {
    /// The named outcome.
    pub fn get(&self, policy: &str) -> &PlacementOutcome {
        self.outcomes
            .iter()
            .find(|o| o.policy == policy)
            .expect("policy present")
    }

    /// Speedup of the unified heap over the all-remote baseline.
    pub fn speedup_vs_remote(&self) -> f64 {
        self.get("all-remote").mean_ns / self.get("unified heap").mean_ns
    }
}

const OBJ_SIZE: u64 = 4096;
const OBJECTS: usize = 512;

fn nodes(local_capacity: u64) -> Vec<HeapNodeCfg> {
    vec![
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::HostLocal, local_capacity),
        },
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 30),
        },
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CcNuma, 1 << 30),
        },
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::Coma, 1 << 28),
        },
    ]
}

fn run_policy(
    policy: &'static str,
    accesses: usize,
    rebalance_every: Option<usize>,
    rng: &mut StdRng,
) -> PlacementOutcome {
    // Local memory can only hold 1/8 of the objects: placement matters.
    let local_cap = (OBJECTS as u64 / 8) * OBJ_SIZE;
    let mut heap = UnifiedHeap::new(nodes(local_cap));
    let objs: Vec<FabricBox> = (0..OBJECTS)
        .map(|i| {
            let hint = match policy {
                "all-remote" => PlacementHint::Pinned(1),
                "static-spread" => PlacementHint::Pinned(1 + i % 3),
                _ => PlacementHint::Auto,
            };
            heap.alloc(OBJ_SIZE, hint).expect("capacity")
        })
        .collect();
    let mut zipf = ZipfStream::new(OBJECTS as u64, 1.1);
    let mut total = SimTime::ZERO;
    for i in 0..accesses {
        let rank = zipf.next(rng) as usize;
        let write = rng.gen_bool(0.3);
        total += heap.access(objs[rank], 0, write).expect("live");
        if let Some(every) = rebalance_every {
            if i > 0 && i % every == 0 {
                heap.rebalance();
            }
        }
    }
    PlacementOutcome {
        policy,
        mean_ns: total.as_ns() / accesses as f64,
        migrations: heap.migrations,
        bytes_migrated: heap.bytes_migrated,
    }
}

/// Runs E5 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E5Result {
    let accesses = if quick { 20_000 } else { 200_000 };
    let mut rng = StdRng::seed_from_u64(0xE5 ^ seed);
    E5Result {
        outcomes: vec![
            run_policy("all-remote", accesses, None, &mut rng),
            run_policy("static-spread", accesses, None, &mut rng),
            run_policy("unified heap", accesses, Some(accesses / 20), &mut rng),
        ],
    }
}

impl fmt::Display for E5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E5 — unified heap: Zipf(1.1) over {OBJECTS} x 4 KiB objects, local tier fits 1/8"
        )?;
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.policy.to_string(),
                    format!("{:.0}", o.mean_ns),
                    o.migrations.to_string(),
                    format!("{}", o.bytes_migrated >> 10),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["placement", "mean access (ns)", "migrations", "KiB moved"],
                &rows
            )
        )?;
        writeln!(
            f,
            "unified heap speedup vs all-remote: {:.1}x",
            self.speedup_vs_remote()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_beats_static_placements_under_skew() {
        let r = run(true, 0);
        let remote = r.get("all-remote").mean_ns;
        let spread = r.get("static-spread").mean_ns;
        let unified = r.get("unified heap").mean_ns;
        assert!(
            unified < spread && unified < remote,
            "unified {unified} vs spread {spread} vs remote {remote}"
        );
        assert!(r.speedup_vs_remote() > 2.0, "{}", r.speedup_vs_remote());
        assert!(r.get("unified heap").migrations > 0);
        assert_eq!(r.get("all-remote").migrations, 0);
    }
}
